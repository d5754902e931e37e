"""Lightweight, opt-in stage profiling for the anonymization pipeline.

The raw-speed work (ROADMAP item 3) needs the remaining pure-Python hot
spots *measured*, not guessed.  Setting ``REPRO_PROFILE=1`` makes the
pipeline record wall-clock seconds per stage (``load`` / ``encode`` /
``phase1``..``phase3`` / ``refine`` / ``publish`` / ``merge`` / ``metrics``)
into a process-wide accumulator that the engine snapshots into
:attr:`~repro.engine.core.RunReport.profile` and ``scripts/bench_scale.py``
turns into the per-stage attribution of ``BENCH_scale.json``.  Setting
``REPRO_PROFILE=cprofile`` additionally wraps the anonymize stage in
:mod:`cProfile` and prints the hottest functions to stderr.

When the variable is unset the hooks cost one truthiness check and a shared
null context manager — nothing on the hot path allocates or syscalls.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext

__all__ = [
    "enabled",
    "cprofile_enabled",
    "maybe_cprofile",
    "profile_stage",
    "record",
    "reset",
    "snapshot",
    "set_enabled",
]

_MODE = os.environ.get("REPRO_PROFILE", "")
_enabled = _MODE not in ("", "0")
_lock = threading.Lock()
_stages: dict[str, float] = {}
_NULL = nullcontext()


def enabled() -> bool:
    """Whether stage timing is active (``REPRO_PROFILE`` set and non-zero)."""
    return _enabled


def cprofile_enabled() -> bool:
    """Whether the anonymize stage should also run under :mod:`cProfile`."""
    return _enabled and _MODE.lower() == "cprofile"


def set_enabled(value: bool, mode: str = "1") -> None:
    """Programmatically toggle profiling (tests and the bench driver)."""
    global _enabled, _MODE
    _enabled = bool(value)
    _MODE = mode if value else ""


def record(stage_name: str, seconds: float) -> None:
    """Add ``seconds`` to a stage's accumulator."""
    with _lock:
        _stages[stage_name] = _stages.get(stage_name, 0.0) + seconds


def reset() -> None:
    """Clear the accumulator (the engine calls this at the start of a run)."""
    with _lock:
        _stages.clear()


def snapshot() -> dict[str, float]:
    """A copy of the per-stage seconds accumulated since the last reset."""
    with _lock:
        return dict(_stages)


@contextmanager
def _timed(stage_name: str):
    started = time.perf_counter()
    try:
        yield
    finally:
        record(stage_name, time.perf_counter() - started)


def profile_stage(stage_name: str):
    """Context manager timing one pipeline stage when profiling is enabled.

    Returns a shared null context when profiling is off, so instrumented
    code pays a single function call and no allocation.
    """
    if not _enabled:
        return _NULL
    return _timed(stage_name)


@contextmanager
def _cprofiled(label: str, top: int):
    import cProfile
    import io
    import pstats
    import sys

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        print(f"[repro cprofile] {label}:\n{buffer.getvalue()}", file=sys.stderr)


def maybe_cprofile(label: str, top: int = 25):
    """Run the wrapped block under :mod:`cProfile` when ``REPRO_PROFILE=cprofile``.

    The hottest ``top`` functions (by cumulative time) are printed to stderr;
    a shared null context is returned in every other mode.
    """
    if not cprofile_enabled():
        return _NULL
    return _cprofiled(label, top)
