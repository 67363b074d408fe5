"""Provenance stamped on every result record.

A record carries the git sha and dirty flag when the checkout is a git
repository (``None`` otherwise), a SHA-256 over the source tree that holds in
either case, the Python and numpy versions, the core count, the workload seed
and a hash of the workload's configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np

#: Seed reserved for confirming a claimed gain after the change was written;
#: do not tune against it.
HELD_OUT_SEED = 104729


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_hash(root: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src/`` and ``perfbench/``, path-sorted."""
    digest = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((root / directory).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def config_hash(config: object) -> str:
    """SHA-256 of a dataclass config's canonical JSON."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def provenance(root: Path, workload: str, seed: int, config: object) -> dict:
    """The provenance block of one result record."""
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha is not None else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_hash(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "config_sha256": config_hash(config),
        "held_out_seed": HELD_OUT_SEED,
    }
