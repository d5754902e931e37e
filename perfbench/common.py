"""Measurement helpers: percentiles, process-tree RSS and a span recorder."""

from __future__ import annotations

import functools
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: Smallest number of samples a reported tail percentile must leave above it.
TAIL_SAMPLES_ABOVE = 10


def tail_percentile(count: int) -> int | None:
    """The highest percentile, in steps of 5, leaving >= 10 samples above it.

    ``None`` when even the median would leave fewer than ten above.
    """
    for percentile in range(95, 45, -5):
        if count - math.ceil(count * percentile / 100) >= TAIL_SAMPLES_ABOVE:
            return percentile
    return None


def latency_summary(latencies: list[float]) -> tuple[float, float, str]:
    """``(median, p80, note)`` of one run's per-job latencies.

    Both interpolate between order statistics (``statistics.quantiles``,
    inclusive).  p80 leaves 32 samples above it in a 40 s ``serve-csv`` run
    (160 jobs); p90 would leave the ten the rule asks for but spreads more
    from run to run.  The note records the sample count and the highest
    percentile this sample supports.
    """
    count = len(latencies)
    p80 = (
        statistics.quantiles(latencies, n=5, method="inclusive")[3]
        if count > 1
        else latencies[0]
    )
    supported = tail_percentile(count)
    note = f"{count} jobs; " + (
        f"p{supported} is the highest percentile with >= {TAIL_SAMPLES_ABOVE} above"
        if supported
        else f"too few for any percentile with >= {TAIL_SAMPLES_ABOVE} above"
    )
    return statistics.median(latencies), p80, note


# --------------------------------------------------------------------- memory

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def _process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants, from ``/proc/*/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        ppid = int(stat[stat.rindex(b")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, pending = [], [root]
    while pending:
        pid = pending.pop()
        tree.append(pid)
        pending.extend(children.get(pid, ()))
    return tree


def rss_bytes(pids: list[int]) -> int:
    """Resident bytes of ``pids`` right now (processes gone count zero)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as handle:
                total += int(handle.read().split()[1]) * _PAGE_BYTES
        except OSError:
            continue
    return total


class RssSampler:
    """Samples a process tree's resident memory on a background thread.

    The tree is rediscovered from ``/proc`` every ``rescan`` samples; the
    samples between only read the known processes' ``statm``, which keeps
    the sampler's own CPU use near 1% of a core.
    """

    def __init__(self, root: int, interval: float = 0.02, rescan: int = 10) -> None:
        self.root = root
        self.interval = interval
        self.rescan = rescan
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        tick = 0
        pids = [self.root]
        while not self._stop.is_set():
            if tick % self.rescan == 0:
                pids = _process_tree(self.root)
            self.peak_bytes = max(self.peak_bytes, rss_bytes(pids))
            tick += 1
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time between two :func:`host_cpu_ticks` readings that the
    hypervisor gave to other guests — a gauge of how busy a shared host was."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


# ---------------------------------------------------------------------- spans


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in :attr:`SpanRecorder.spans`, or None.
    parent: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """Spans around wrapped calls on one thread, nested by call order.

    Calls from other threads (or forked children) pass through unrecorded.
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _thread: int = field(default_factory=threading.get_ident)
    _pid: int = field(default_factory=os.getpid)

    def wrap(
        self,
        name: str | Callable[..., str],
        func: Callable,
        observe: Callable[["SpanRecorder", object], None] | None = None,
    ) -> Callable:
        """``func`` recording a span per call; ``name`` may map the call's args."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread or os.getpid() != self._pid:
                return func(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            span = Span(label, 0.0, parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Per-name seconds not covered by a nested recorded span."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent].name
                totals[parent] -= span.seconds
        return totals

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


@contextmanager
def patched(recorder: SpanRecorder, patches):
    """Install ``recorder`` wrappers for ``(owner, attribute, name[, observe])``.

    Each wrapper replaces the attribute where its caller looks it up
    (a module global or a class attribute, classmethods included); all are
    restored on exit.
    """
    saved = []
    try:
        for owner, attribute, name, *observe in patches:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__, *observe))
            else:
                wrapped = recorder.wrap(name, original, *observe)
            setattr(owner, attribute, wrapped)
            saved.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
