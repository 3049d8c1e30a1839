"""What a result was measured on: code identity, interpreter, and hardware."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    """CPU 0's caches as the kernel lists them, e.g. {"L1 Data": "48K"}."""
    out = {}
    try:
        for index in sorted(_CACHE_DIR.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def describe(root: Path, seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "platform": platform.platform(),
    }
