"""Workload definitions: every parameter a run depends on, in one table.

Why each workload exists is recorded in ``BENCHMARK.json`` and ``README.md``.
``BENCHMARK.json`` runs ``highcard-csv`` and ``serve-csv``; ``bulk-mmap`` and
``sharded-tp`` are run by hand (``--workload bulk-mmap``), because on a
shared two-core host their runs do not repeat within the benchmark's bounds
in the time the whole benchmark may take.

This module imports nothing from ``repro`` so the runner, the input
generator and the tests can all read it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: The paper's seven quasi-identifiers (Table 6) and the SAL sensitive column.
QI_NAMES = (
    "Age",
    "Gender",
    "Race",
    "Marital Status",
    "Birth Place",
    "Education",
    "Work Class",
)
SA_NAME = "Income"

#: Metrics the in-process mmap workloads request: cheap, all fused.
CHEAP_METRICS = ("stars", "suppressed", "ncp", "discernibility")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``csv`` / ``mmap`` run in-process through ``Engine().run``;
    #: ``serve`` drives ``ldiversity serve`` over HTTP.
    kind: str
    algorithm: str
    l: int
    #: Rows of the input table (per uploaded body for ``serve``).
    n: int
    #: ``CensusConfig.scaled`` factor of the QI domains; 1.0 = Table 6 sizes.
    qi_scale: float = 1.0
    metrics: tuple[str, ...] = ()
    #: Run one untimed job in set-up, so timed jobs find ``order.npy``.
    warm_up: bool = False
    # -- serve only --------------------------------------------------------
    #: Open-loop submission rate, jobs per second.
    rate: float = 0.0
    #: ``ldiversity serve --workers``.
    server_workers: int = 0
    #: The first ``hot_bodies`` bodies are re-sent byte for byte ...
    hot_bodies: int = 0
    #: ... by every ``repeat_every``-th later submission.
    repeat_every: int = 0

    def params(self) -> dict:
        """Every parameter, for the run metadata."""
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "highcard-csv", "csv", "TP+", l=2, n=50_000,
            metrics=("stars", "kl"),
        ),
        Workload(
            "bulk-mmap", "mmap", "TP+", l=6, n=4_000_000, qi_scale=0.24,
            metrics=CHEAP_METRICS, warm_up=True,
        ),
        Workload(
            "sharded-tp", "mmap", "TP", l=6, n=1_000_000, qi_scale=0.24,
            metrics=CHEAP_METRICS,
        ),
        Workload(
            "serve-csv", "serve", "TP+", l=4, n=2_000,
            rate=4.0, server_workers=2, hot_bodies=4, repeat_every=4,
        ),
    )
}


def serve_schedule(workload: Workload, seconds: float) -> list[tuple[float, int]]:
    """``(due offset in seconds, body index)`` of every submission of a run.

    Submissions are due every ``1 / rate`` seconds.  Body indices count
    distinct bodies in first-use order; every ``repeat_every``-th submission
    after the hot set re-sends one of the first ``hot_bodies`` bodies.
    """
    count = max(1, round(workload.rate * seconds))
    schedule = []
    fresh = 0
    for index in range(count):
        repeat = (
            index >= workload.hot_bodies
            and index % workload.repeat_every == workload.repeat_every - 1
        )
        if repeat:
            body = (index // workload.repeat_every) % workload.hot_bodies
        else:
            body = fresh
            fresh += 1
        schedule.append((index / workload.rate, body))
    return schedule
