"""In-process workloads: ``Engine().run(RunPlan(...))`` on inputs set up on disk.

Each job is what one ``ldiversity anonymize`` invocation does: a fresh
source, a fresh ``ResultCache`` and no run store (so nothing is answered from
a cache), and ``RunPlan`` defaults — the planner picks shards and workers and
verification stays on.  The traced variant wraps the public callables of each
layer with a :class:`~perfbench.common.SpanRecorder`.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import check
from perfbench.common import SpanRecorder, patched
from perfbench.workloads import QI_NAMES, SA_NAME, Workload

RUN_SPAN = "engine.core.run"
SPLIT_SPAN = "engine.sharding.split_s"
MERGE_SPAN = "engine.sharding.merge_s"
#: Layers whose value is the self time of the like-named wrapped calls.
WRAPPED_LAYERS = (
    "engine.sources.load_s",
    "dataset.table.fingerprint_s",
    "dataset.table.grouping_s",
    "core.three_phase.run_state_s",
    "baselines.hilbert.refine_s",
    "core.hybrid.self_s",
    "dataset.generalized.publish_s",
    "privacy.spec.verify_s",
    "metrics.kl_s",
    "metrics.other_s",
    SPLIT_SPAN,
    MERGE_SPAN,
)


def _metric_layer(_registry, name, *_args, **_kwargs) -> str:
    return "metrics.kl_s" if name == "kl" else "metrics.other_s"


def _count_residue(recorder: SpanRecorder, result) -> None:
    recorder.counts["core.hybrid.residue_rows"] = (
        recorder.counts.get("core.hybrid.residue_rows", 0) + len(result.residue_rows)
    )


def layer_patches() -> list[tuple]:
    """``(owner, attribute, layer)`` for every wrapped public callable.

    Each is patched where its caller looks it up: the engine calls
    ``plan.source.load``, ``hybrid.anonymize`` and the metric registry
    through attributes; ``hybrid`` and ``three_phase`` call their module's
    ``run_state``; TP+ imports ``hilbert_refiner`` from the package at call
    time; the engine calls the sharding helpers through its own globals.
    """
    from repro.baselines import hilbert
    from repro.core import hybrid, three_phase
    from repro.dataset.generalized import GeneralizedTable
    from repro.dataset.table import Table
    from repro.engine import core as engine_core
    from repro.engine.columnstore import ColumnStoreSource
    from repro.engine.registry import MetricRegistry
    from repro.engine.sources import CsvSource
    from repro.privacy.spec import FrequencyLDiversity

    return [
        (engine_core.Engine, "run", RUN_SPAN),
        (CsvSource, "load", "engine.sources.load_s"),
        (ColumnStoreSource, "load", "engine.sources.load_s"),
        (Table, "fingerprint", "dataset.table.fingerprint_s"),
        (Table, "grouping", "dataset.table.grouping_s"),
        (hybrid, "run_state", "core.three_phase.run_state_s"),
        (three_phase, "run_state", "core.three_phase.run_state_s"),
        (hilbert, "hilbert_refiner", "baselines.hilbert.refine_s"),
        (hybrid, "anonymize", "core.hybrid.self_s", _count_residue),
        (GeneralizedTable, "from_partition", "dataset.generalized.publish_s"),
        (FrequencyLDiversity, "check_generalized", "privacy.spec.verify_s"),
        (MetricRegistry, "compute", _metric_layer),
        (engine_core, "qi_prefix_shards", SPLIT_SPAN),
        (engine_core, "merge_shard_outputs", MERGE_SPAN),
    ]


@dataclass
class Job:
    seconds: float
    stars: float
    digest: str
    problems: list[str]
    #: The planner's choice and estimate beside the measured anonymize time.
    planner: dict
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Inputs:
    """One set-up's files and the reference codes the check compares against."""

    workload: Workload
    directory: Path
    qi: np.ndarray = field(init=False)
    sa: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.qi = np.load(self.directory / "expected_qi.npy")
        self.sa = np.load(self.directory / "expected_sa.npy")

    def plan(self):
        from repro.engine.columnstore import ColumnStoreSource
        from repro.engine.core import RunPlan
        from repro.engine.sources import CsvSource

        if self.workload.kind == "csv":
            source = CsvSource(str(self.directory / "input.csv"), QI_NAMES, SA_NAME)
        else:
            source = ColumnStoreSource(str(self.directory / "store"))
        return RunPlan(
            source,
            self.workload.algorithm,
            l=self.workload.l,
            metrics=self.workload.metrics,
        )


def run_job(inputs: Inputs, recorder: SpanRecorder | None = None) -> Job:
    """Run, time and check one job; with ``recorder``, also break it down."""
    from repro.engine.cache import ResultCache
    from repro.engine.core import Engine

    plan = inputs.plan()
    with patched(recorder, layer_patches()) if recorder is not None else nullcontext():
        started = time.perf_counter()
        report = Engine(cache=ResultCache()).run(plan)
        seconds = time.perf_counter() - started

    decision = report.decision
    planner = {
        "shards": decision.shards,
        "workers": decision.workers,
        "estimated_seconds": decision.estimated_seconds,
        "anonymize_s": report.timings.anonymize_seconds,
    }
    layers = {}
    if recorder is not None:
        layers = breakdown(recorder, report, planner)
        recorder.reset()
    reported_stars = report.metric_values.get("stars")
    published = check.from_generalized(report.generalized)
    # Release the job's table first, so the check's arrays do not stack on
    # it in the process's peak RSS.
    del report
    verdict = check.check(published, inputs.qi, inputs.sa, inputs.workload.l)
    if reported_stars != verdict.stars:
        verdict.problems.append(f"reported {reported_stars} stars, the table has {verdict.stars}")
    return Job(seconds, float(verdict.stars), published.digest(), verdict.problems, planner, layers)


def breakdown(recorder: SpanRecorder, report, planner: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced job."""
    spans = recorder.spans
    self_times = recorder.self_times()
    (run,) = [index for index, span in enumerate(spans) if span.name == RUN_SPAN]
    # Shard fan-out: the stretch between split and merge that no wrapped
    # call in this process covers (table subsets, pool start, pool map).
    fanout = 0.0
    splits, merges = recorder.named(SPLIT_SPAN), recorder.named(MERGE_SPAN)
    if splits and merges:
        low, high = splits[0].end, merges[0].start
        covered = sum(
            span.seconds
            for span in spans
            if span.parent == run and span.start >= low and span.end <= high
        )
        fanout = high - low - covered
    engine_self = self_times[RUN_SPAN] - fanout
    generalized = report.generalized
    values = {layer: self_times.get(layer, 0.0) for layer in WRAPPED_LAYERS}
    values.update(
        {
            "engine.core.shard_fanout_s": fanout,
            "engine.core.self_s": engine_self,
            "unattributed_share": engine_self / spans[run].seconds,
            "service.planner.estimate_ratio": (
                planner["estimated_seconds"] / planner["anonymize_s"]
            ),
            "service.planner.shards": planner["shards"],
            "service.planner.workers": planner["workers"],
            "core.hybrid.residue_rows": recorder.counts.get("core.hybrid.residue_rows", 0),
            "core.groups": int(np.count_nonzero(generalized.group_sizes_array())),
            "core.phase_reached": report.phase_reached or 0,
            "quality.kl": report.metric_values.get("kl", 0.0),
        }
    )
    return values


def run_for(inputs: Inputs, seconds: float, recorder: SpanRecorder | None = None) -> list[Job]:
    """Jobs back to back until ``seconds`` have passed (at least one)."""
    jobs: list[Job] = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_job(inputs, recorder))
    return jobs


def median_layers(jobs: list[Job]) -> dict[str, float]:
    return {
        name: statistics.median(job.layers[name] for job in jobs)
        for name in jobs[0].layers
    }
