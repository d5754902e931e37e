"""Tests of the benchmark's own helpers (run with the tier-1 suite)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import check, common
from perfbench.common import SpanRecorder, latency_summary, patched, tail_percentile
from perfbench.workloads import WORKLOADS, serve_schedule

HERE = Path(__file__).resolve().parent


# ------------------------------------------------------------- percentiles


@pytest.mark.parametrize(
    ("count", "expected"),
    [(19, None), (20, 50), (39, 70), (40, 75), (60, 80), (100, 90), (200, 95), (1000, 95)],
)
def test_tail_percentile_leaves_ten_samples_above(count, expected):
    def above(percentile):
        # Samples strictly above the nearest-rank value of ``percentile``.
        return count - math.ceil(count * percentile / 100)

    assert tail_percentile(count) == expected
    if expected is not None:
        assert above(expected) >= 10
        if expected < 95:
            assert above(expected + 5) < 10


def test_latency_summary_reports_median_and_p80():
    median, p80, note = latency_summary([3.0, 1.0, 2.0])
    assert (median, p80) == (2.0, pytest.approx(2.6))
    assert note == "3 jobs; too few for any percentile with >= 10 above"
    values = [float(v) for v in range(1, 61)]
    median, p80, note = latency_summary(values)
    assert (median, p80) == (30.5, pytest.approx(48.2))
    assert sum(value > p80 for value in values) == 12
    assert note == "60 jobs; p80 is the highest percentile with >= 10 above"


# ------------------------------------------------------------------ spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_wrapped_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(common.time, "perf_counter", clock)
    recorder = SpanRecorder()

    def leaf(seconds):
        clock.now += seconds

    leaf = recorder.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf(2.0)
        leaf(3.0)

    middle = recorder.wrap("middle", middle)

    def outer():
        clock.now += 0.5
        middle()
        leaf(4.0)

    recorder.wrap("outer", outer)()
    assert recorder.self_times() == {"outer": 0.5, "middle": 1.0, "leaf": 9.0}
    assert [span.seconds for span in recorder.named("outer")] == [10.5]


def test_name_can_depend_on_arguments_and_observer_sees_result():
    recorder = SpanRecorder()
    seen = []
    wrapped = recorder.wrap(
        lambda kind: f"metrics.{kind}_s", lambda kind: kind.upper(),
        lambda rec, result: seen.append(result),
    )
    assert wrapped("kl") == "KL" and wrapped("other") == "OTHER"
    assert [span.name for span in recorder.spans] == ["metrics.kl_s", "metrics.other_s"]
    assert seen == ["KL", "OTHER"]


class Owner:
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls.__name__


def test_patched_wraps_where_looked_up_and_restores():
    originals = dict(vars(Owner))
    recorder = SpanRecorder()
    with patched(recorder, [(Owner, "method", "m"), (Owner, "build", "b")]):
        assert Owner().method() == "method"
        assert Owner.build() == "Owner"
    assert [span.name for span in recorder.spans] == ["m", "b"]
    assert vars(Owner)["method"] is originals["method"]
    assert vars(Owner)["build"] is originals["build"]


# ------------------------------------------------------------------ check


def _input(rows):
    qi = np.array([row[:-1] for row in rows], dtype=np.int64)
    sa = np.array([row[-1] for row in rows], dtype=np.int64)
    return qi, sa


ROWS = [(1, 5, 0), (1, 6, 1), (2, 7, 0), (2, 7, 2)]


def test_check_accepts_a_valid_suppression():
    qi, sa = _input(ROWS)
    reps = np.array([[1, check.STAR], [2, 7]])
    published = check.Published(reps, np.array([0, 0, 1, 1]), sa.copy())
    verdict = check.check(published, qi, sa, l=2)
    assert verdict.ok, verdict.problems
    assert verdict.stars == 2


def test_check_rejects_broken_tables():
    qi, sa = _input(ROWS)
    group_of = np.array([0, 0, 1, 1])
    # A cell that is neither * nor the input's value.
    wrong_cell = check.Published(np.array([[1, 5], [2, 7]]), group_of, sa.copy())
    assert any("neither" in p for p in check.check(wrong_cell, qi, sa, 2).problems)
    # A class whose top sensitive value covers more than 1/l of it.
    not_diverse = check.Published(
        np.array([[1, check.STAR], [2, 7]]), group_of, np.array([0, 0, 0, 2])
    )
    problems = check.check(not_diverse, qi, np.array([0, 0, 0, 2]), 2).problems
    assert any("not 2-diverse" in p for p in problems)
    # Groups publishing one QI vector form one class: l is checked on it.
    merged = check.Published(
        np.array([[check.STAR, check.STAR]] * 2), group_of, sa.copy()
    )
    assert check.check(merged, qi, sa, 2).ok
    assert not check.check(merged, qi, sa, 3).ok
    # A changed sensitive value.
    swapped = check.Published(np.array([[1, check.STAR], [2, 7]]), group_of, sa[::-1].copy())
    assert any("row order" in p for p in check.check(swapped, qi, sa, 2).problems)


def _csv(rows, names=("A", "B", "S")):
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(
            cell if cell == "*" else f"{name}#{cell}" for name, cell in zip(names, row)
        ))
    return "\n".join(lines) + "\n"


INPUT_CSV = _csv([("1", "5", "0"), ("1", "6", "1"), ("2", "7", "0"), ("2", "7", "2")])
GOOD_CSV = _csv([("1", "*", "0"), ("1", "*", "1"), ("2", "7", "0"), ("2", "7", "2")])


def test_check_csv_accepts_a_valid_result_and_counts_stars():
    verdict = check.check_csv(GOOD_CSV, INPUT_CSV, 2)
    assert verdict.ok, verdict.problems
    assert verdict.stars == 2


def test_check_csv_rejects_a_dropped_row():
    dropped = "\n".join(GOOD_CSV.splitlines()[:-1]) + "\n"
    verdict = check.check_csv(dropped, INPUT_CSV, 2)
    assert not verdict.ok
    assert "3 rows published, input has 4" in verdict.problems[0]


def test_check_csv_rejects_a_changed_header_and_a_foreign_value():
    renamed = GOOD_CSV.replace("A,B,S", "A,C,S", 1)
    assert not check.check_csv(renamed, INPUT_CSV, 2).ok
    foreign = GOOD_CSV.replace("S#2", "S#0")
    assert not check.check_csv(foreign, INPUT_CSV, 2).ok
    wrong_column = GOOD_CSV.replace("B#7", "A#7", 1)
    assert "does not belong" in check.check_csv(wrong_column, INPUT_CSV, 2).problems[0]


def test_check_reads_program_tables_and_catches_a_broken_one():
    from repro.dataset.synthetic import make_sal
    from repro.engine.cache import ResultCache
    from repro.engine.core import Engine, RunPlan
    from repro.engine.sources import TableSource

    table = make_sal(3_000, seed=4)
    qi = np.asarray(table.qi_columns, dtype=np.int64)
    sa = np.asarray(table.sa_array, dtype=np.int64)
    report = Engine(cache=ResultCache()).run(RunPlan(TableSource(table), "TP+", l=3))
    published = check.from_generalized(report.generalized)
    verdict = check.check(published, qi, sa, 3)
    assert verdict.ok, verdict.problems
    assert verdict.stars == report.generalized.star_count()
    # Un-suppress one starred cell of a multi-row group: rows then disagree.
    group_sizes = np.bincount(published.group_of)
    group, column = next(
        (g, c) for g, c in zip(*np.nonzero(published.reps == check.STAR)) if group_sizes[g] > 1
    )
    broken = published.reps.copy()
    broken[group, column] = qi[np.flatnonzero(published.group_of == group)[0], column]
    assert not check.check(check.Published(broken, published.group_of, sa), qi, sa, 3).ok


# ----------------------------------------------------------- definitions


def test_serve_schedule_repeats_one_in_four_hot_bodies():
    workload = WORKLOADS["serve-csv"]
    schedule = serve_schedule(workload, 10)
    assert len(schedule) == 40
    assert [due for due, _ in schedule[:3]] == [0.0, 0.25, 0.5]
    bodies = [body for _, body in schedule]
    repeats = [i for i, body in enumerate(bodies) if body in bodies[:i]]
    assert repeats == [i for i in range(4, 40) if i % 4 == 3]
    assert all(bodies[i] < workload.hot_bodies for i in repeats)
    assert sorted(set(bodies)) == list(range(max(bodies) + 1))


def test_benchmark_json_matches_the_runner():
    from perfbench import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # The benchmark runs a subset; the other workloads are run by hand.
    assert {w["name"] for w in spec["workloads"]} <= WORKLOADS.keys()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-mmap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
