"""Tests for the opt-in stage profiler (``repro.profiling``).

Covers the three contract points the pipeline relies on: the disabled
default costs nothing and records nothing, ``REPRO_PROFILE=1`` accumulates
nested stage timings that the engine snapshots into
:attr:`~repro.engine.core.RunReport.profile`, and ``REPRO_PROFILE=cprofile``
additionally wraps the guarded block in :mod:`cProfile`.
"""

from __future__ import annotations

import importlib

import pytest

from repro import profiling
from repro.engine import Engine, RunPlan, TableSource
from repro.engine.cache import ResultCache


@pytest.fixture(autouse=True)
def _profiling_off_after():
    """Restore the module's disabled default whatever a test toggles."""
    yield
    profiling.set_enabled(False)
    profiling.reset()


class TestDisabledDefault:
    def test_disabled_records_nothing(self):
        profiling.reset()
        assert not profiling.enabled()
        with profiling.profile_stage("encode"):
            pass
        assert profiling.snapshot() == {}

    def test_disabled_returns_shared_null_context(self):
        first = profiling.profile_stage("encode")
        second = profiling.profile_stage("metrics")
        assert first is second  # no per-call allocation on the hot path

    def test_maybe_cprofile_is_null_when_disabled(self):
        assert profiling.maybe_cprofile("anything") is profiling.profile_stage("x")

    def test_env_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        module = importlib.reload(profiling)
        try:
            assert not module.enabled()
            assert not module.cprofile_enabled()
        finally:
            monkeypatch.setenv("REPRO_PROFILE", "")
            importlib.reload(profiling)

    def test_env_zero_means_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        module = importlib.reload(profiling)
        try:
            assert not module.enabled()
        finally:
            monkeypatch.delenv("REPRO_PROFILE")
            importlib.reload(profiling)


class TestEnabledAccumulator:
    def test_stages_accumulate_and_reset(self):
        profiling.set_enabled(True)
        profiling.reset()
        profiling.record("encode", 0.25)
        profiling.record("encode", 0.5)
        profiling.record("metrics", 1.0)
        snap = profiling.snapshot()
        assert snap["encode"] == pytest.approx(0.75)
        assert snap["metrics"] == pytest.approx(1.0)
        profiling.reset()
        assert profiling.snapshot() == {}

    def test_nested_stages_record_independently(self):
        profiling.set_enabled(True)
        profiling.reset()
        with profiling.profile_stage("encode"):
            with profiling.profile_stage("sort"):
                pass
        snap = profiling.snapshot()
        # The nested sub-stage gets its own key; the outer stage's time
        # includes it (wall-clock nesting, not exclusive attribution).
        assert set(snap) == {"encode", "sort"}
        assert snap["encode"] >= snap["sort"] >= 0.0

    def test_snapshot_is_a_copy(self):
        profiling.set_enabled(True)
        profiling.reset()
        profiling.record("load", 1.0)
        snap = profiling.snapshot()
        snap["load"] = 99.0
        assert profiling.snapshot()["load"] == pytest.approx(1.0)

    def test_env_one_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        module = importlib.reload(profiling)
        try:
            assert module.enabled()
            assert not module.cprofile_enabled()
        finally:
            monkeypatch.delenv("REPRO_PROFILE")
            importlib.reload(profiling)


class TestCProfileMode:
    def test_set_enabled_cprofile_mode(self):
        profiling.set_enabled(True, mode="cprofile")
        assert profiling.enabled()
        assert profiling.cprofile_enabled()

    def test_maybe_cprofile_prints_hot_functions(self, capsys):
        profiling.set_enabled(True, mode="cprofile")
        with profiling.maybe_cprofile("unit-test-block", top=5):
            sum(range(1000))
        err = capsys.readouterr().err
        assert "[repro cprofile] unit-test-block" in err
        assert "cumulative" in err

    def test_plain_mode_does_not_wrap(self, capsys):
        profiling.set_enabled(True)
        with profiling.maybe_cprofile("plain-block"):
            pass
        assert "[repro cprofile]" not in capsys.readouterr().err


class TestEngineSnapshot:
    def _report(self, table, backend_name):
        return Engine(cache=ResultCache()).run(
            RunPlan(
                source=TableSource(table),
                algorithm="TP+",
                l=2,
                backend=backend_name,
                use_cache=False,
            )
        )

    def test_profile_is_none_when_disabled(self, hospital):
        report = self._report(hospital, "numpy")
        assert report.profile is None

    @pytest.mark.parametrize("backend_name", ["numpy", "reference"])
    def test_profile_snapshot_has_identical_stage_attribution(
        self, small_census, backend_name
    ):
        from repro.dataset.table import Table

        # A fresh table: the session-scoped fixture may already carry a
        # cached grouping, which would legitimately skip the encode stage.
        cold = Table(
            small_census.schema, small_census.qi_rows, small_census.sa_values
        )
        profiling.set_enabled(True)
        profiling.reset()
        try:
            report = self._report(cold, backend_name)
        finally:
            profiling.set_enabled(False)
        assert report.profile is not None
        # Both backends must attribute the same stage boundaries: the run
        # encoding is "encode" (not folded into state-init), state
        # construction is "state-init", publication is "publish".
        for stage in ("load", "encode", "state-init", "phase1", "publish", "metrics"):
            assert stage in report.profile, stage
        assert report.profile["encode"] > 0.0

    def _profile(self, table, algorithm):
        profiling.set_enabled(True)
        profiling.reset()
        try:
            report = Engine(cache=ResultCache()).run(
                RunPlan(
                    source=TableSource(table), algorithm=algorithm, l=2, use_cache=False
                )
            )
        finally:
            profiling.set_enabled(False)
        return report

    def test_tp_plus_refinement_has_its_own_stage(self, small_census):
        from repro.core import hybrid

        # The refiner only runs on a non-empty residue.
        assert hybrid.anonymize(small_census, 2).residue_rows
        report = self._profile(small_census, "TP+")
        assert "refine" in report.profile
        tp = self._profile(small_census, "TP")
        assert "refine" not in tp.profile

    def test_server_lays_refine_after_phase_three(self):
        from repro.server.app import AnonymizationServer

        order = AnonymizationServer._STAGE_ORDER
        assert order.index("refine") == order.index("phase3") + 1
