"""CI smoke for the raw-speed path: mmap bit-identity + vectorized speedup.

Builds a 10^5-row synthetic table, persists it as an on-disk column store,
and checks the acceptance properties of the zero-copy pipeline:

1. **Bit-identity** — the memory-mapped, chunk-capped engine run publishes
   exactly the same bytes as the unsharded in-memory run (table fingerprints
   and rendered CSV output compared verbatim).
2. **Speedup** — the vectorized backend beats the pure-Python reference
   backend by at least ``MIN_SPEEDUP``x end-to-end on the same store.
3. **Fused metrics** — on a freshly published run, the fused one-pass
   metrics sweep (:func:`repro.metrics.fused_metrics`) emits values equal to
   the historical standalone passes and beats their summed cost by at least
   ``MIN_FUSED_SPEEDUP``x.
4. **Warm start** — a second engine run against the same column store loads
   the persisted ``order.npy`` sort permutation instead of re-sorting: the
   cold run's profile must contain the ``sort`` stage and the warm run's
   must not.
5. **Telemetry overhead** — the serving stack's per-job observability cost
   (stage profiling force-enabled in the worker plus every registry
   mutation a served job implies) is replayed on the benched mmap run and
   must add less than ``TELEMETRY_OVERHEAD_CAP - 1`` (2%) over the bare
   run, best-of-``BENCH_ROUNDS`` timings on both sides.
6. **Encode/publish kernels** — the packed-sort encode
   (:meth:`GroupingContext.build`) and the columnar publish
   (:meth:`GeneralizedTable.from_partition`) are bit-identical to their
   retained serial oracles (including with the chunked pool paths forced)
   and beat them combined by at least ``MIN_SPEEDUP``x.
7. **High-cardinality TP+** — at the paper's Table-6 domain sizes (TP+,
   l=2, ``HIGHCARD_N`` rows, ~97% of rows in the phase-one residue) the
   array phase one publishes the same bytes as the one-removal loop it
   replaces on the lazy state, and its ``phase1`` stage is at least
   ``MIN_PHASE_ONE_SPEEDUP``x faster; KL is identical through the columnar
   and the row-tuple combo adapters.
8. **One-pass CSV ingest** — on a ``HIGHCARD_N``-row CSV with the paper's
   Table-6 domains, :meth:`CsvSource.load` with no schema (one read: infer
   and encode together) returns a table identical in schema, codes and
   fingerprint to :func:`infer_csv_schema` followed by a schema-supplied
   load (two reads), and is at least ``MIN_CSV_INGEST_SPEEDUP``x faster
   than that pair, best-of-``BENCH_ROUNDS`` on both sides.

Run with ``PYTHONPATH=src python scripts/scale_smoke.py`` (wired into
``scripts/ci.sh``).
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro import profiling
from repro.engine import (
    ColumnStore,
    ColumnStoreSource,
    CsvSink,
    Engine,
    RunPlan,
    TableSource,
)
from repro.engine.cache import ResultCache
from repro.engine.sources import CsvSource, infer_csv_schema
from repro.dataset.synthetic import CensusConfig, make_sal
from repro.metrics import fused_metrics, unfused_metrics

N = 100_000
L = 6
SEED = 7
QI_SCALE = 0.24
CHUNK_ROWS = 20_000
MIN_SPEEDUP = 2.0
MIN_FUSED_SPEEDUP = 1.5
BENCH_ROUNDS = 3
TELEMETRY_OVERHEAD_CAP = 1.02
#: Absolute slack on top of the 2% cap so scheduler jitter on a sub-second
#: benched run cannot fail the guard spuriously.
TELEMETRY_EPSILON_SECONDS = 0.010
HIGHCARD_N = 100_000
MIN_PHASE_ONE_SPEEDUP = 5.0
MIN_CSV_INGEST_SPEEDUP = 1.5


def _run(source, backend: str, chunk_rows: int | None = None):
    return Engine(cache=ResultCache()).run(
        RunPlan(
            source=source,
            algorithm="TP+",
            l=L,
            shards=1,
            backend=backend,
            chunk_rows=chunk_rows,
            use_cache=False,
        )
    )


def _rendered(report, path: Path) -> bytes:
    with CsvSink(str(path)) as sink:
        sink.write_table(report.generalized)
    return path.read_bytes()


def _fresh_publish():
    """A freshly anonymized (table, generalized) pair with cold metric caches."""
    from repro.core import hybrid

    table = make_sal(N, seed=SEED, config=CensusConfig.scaled(QI_SCALE))
    return table, hybrid.anonymize(table, L).generalized


def _check_fused_metrics() -> bool:
    """Fused one-pass metrics: equal values, >= MIN_FUSED_SPEEDUP vs unfused.

    Each sweep is timed against its own freshly published run so neither
    benefits from caches the other materialized.
    """
    table, generalized = _fresh_publish()
    started = time.perf_counter()
    fused = fused_metrics(table, generalized)
    fused_seconds = time.perf_counter() - started

    table, generalized = _fresh_publish()
    started = time.perf_counter()
    unfused = unfused_metrics(table, generalized)
    unfused_seconds = time.perf_counter() - started

    if fused != unfused:
        diverging = sorted(
            name for name in fused if fused[name] != unfused[name]
        )
        print(f"FAIL: fused metrics diverge from standalone passes: {diverging}")
        return False
    ratio = unfused_seconds / fused_seconds if fused_seconds else float("inf")
    print(
        f"fused metrics: {fused_seconds:.3f}s vs unfused {unfused_seconds:.3f}s "
        f"-> {ratio:.2f}x (values identical)"
    )
    if ratio < MIN_FUSED_SPEEDUP:
        print(f"FAIL: fused metrics below the {MIN_FUSED_SPEEDUP:g}x floor")
        return False
    return True


def _profiled_run(store_dir: Path) -> dict[str, float]:
    """One engine run against ``store_dir`` with stage profiling captured."""
    profiling.set_enabled(True)
    profiling.reset()
    try:
        _run(ColumnStoreSource(str(store_dir)), "numpy")
    finally:
        profiling.set_enabled(False)
    return profiling.snapshot()


def _check_warm_start(table, tmp: Path) -> bool:
    """order.npy warm start: the second run on the same store skips the sort."""
    store_dir = tmp / "warm-store"
    ColumnStore.from_table(table).save(store_dir)
    cold = _profiled_run(store_dir)
    warm = _profiled_run(store_dir)
    if cold.get("sort", 0.0) <= 0.0:
        print("FAIL: cold run recorded no sort stage (guard cannot bite)")
        return False
    if "sort" in warm:
        print("FAIL: warm run re-sorted despite the persisted order.npy")
        return False
    if not (store_dir / "order.npy").exists():
        print("FAIL: order.npy sidecar missing after the cold run")
        return False
    print(
        f"warm start: cold sort {cold['sort']:.3f}s, warm run served from "
        "order.npy (no sort stage)"
    )
    return True


def _check_telemetry_overhead(mmap_source) -> bool:
    """Telemetry must cost < 2% of the benched run.

    The serving path adds two kinds of per-job observability cost: stage
    profiling is force-enabled inside the pool worker (to bridge engine
    spans back through the result payload) and the server mutates registry
    instruments around the job.  Both are replayed here on top of the
    benched mmap run and compared with the bare run, best of
    ``BENCH_ROUNDS`` timings each so scheduler noise is damped.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    http_requests = registry.counter(
        "repro_http_requests_total", "", ("route", "method", "status")
    )
    http_seconds = registry.histogram(
        "repro_http_request_seconds", "", ("route",)
    )
    submitted = registry.counter("repro_jobs_submitted_total", "")
    terminal = registry.counter("repro_jobs_terminal_total", "", ("state",))
    attempt_seconds = registry.histogram(
        "repro_job_attempt_seconds", "", ("outcome",)
    )
    stage_seconds = registry.histogram(
        "repro_engine_stage_seconds", "", ("stage",)
    )

    def bare() -> None:
        _run(mmap_source, "numpy", chunk_rows=CHUNK_ROWS)

    def instrumented() -> None:
        profiling.set_enabled(True)
        profiling.reset()
        started = time.perf_counter()
        try:
            _run(mmap_source, "numpy", chunk_rows=CHUNK_ROWS)
        finally:
            elapsed = time.perf_counter() - started
            profile = profiling.snapshot()
            profiling.set_enabled(False)
        # The registry mutations one served job implies (submit, one status
        # poll, the result fetch, lifecycle counters, stage histograms).
        for route, method in (
            ("/v1/jobs", "POST"),
            ("/v1/jobs/{id}", "GET"),
            ("/v1/jobs/{id}/result", "GET"),
        ):
            http_requests.inc(route=route, method=method, status="200")
            http_seconds.observe(0.001, route=route)
        submitted.inc()
        terminal.inc(state="done")
        attempt_seconds.observe(elapsed, outcome="done")
        for stage, seconds in profile.items():
            stage_seconds.observe(seconds, stage=stage)

    def best_of(function) -> float:
        best = float("inf")
        for _ in range(BENCH_ROUNDS):
            started = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - started)
        return best

    bare_seconds = best_of(bare)
    instrumented_seconds = best_of(instrumented)
    added = instrumented_seconds - bare_seconds
    allowed = bare_seconds * (TELEMETRY_OVERHEAD_CAP - 1.0) + TELEMETRY_EPSILON_SECONDS
    print(
        f"telemetry overhead: bare {bare_seconds:.3f}s, instrumented "
        f"{instrumented_seconds:.3f}s -> {100.0 * added / bare_seconds:+.2f}% "
        f"(cap {100.0 * (TELEMETRY_OVERHEAD_CAP - 1.0):.0f}% + "
        f"{1000.0 * TELEMETRY_EPSILON_SECONDS:.0f}ms noise floor "
        f"= {allowed:.3f}s allowed)"
    )
    if added > allowed:
        print(
            f"FAIL: telemetry adds {added:.3f}s to the benched run, "
            f"allowed {allowed:.3f}s"
        )
        return False
    return True


def _check_encode_publish(table) -> bool:
    """Parallel encode/publish vs the serial oracles: identical and >= 2x.

    The encode side compares every array of the key-derived
    :class:`GroupingContext` against the wide-scan reference; the publish
    side compares the lazily materialized cells of the columnar
    ``from_partition`` against the row-by-row reference.  Both are re-run
    with the chunked pool paths forced (``PARALLEL_THRESHOLD=1``,
    ``MIN_SORT_CHUNKS=4``) so chunk stitching is covered at this scale too.
    """
    from repro.core import kernels
    from repro.core.grouping import GroupingContext
    from repro.dataset.generalized import GeneralizedTable, Partition

    args = (
        table.qi_columns,
        table.sa_array,
        [attribute.size for attribute in table.schema.qi],
        table.schema.sensitive.size,
    )
    context_arrays = (
        "order",
        "group_keys",
        "group_run_bounds",
        "run_bounds",
        "run_values",
    )

    started = time.perf_counter()
    fast_context = GroupingContext.build(*args)
    encode_seconds = time.perf_counter() - started
    started = time.perf_counter()
    oracle_context = GroupingContext.build_reference(*args)
    encode_reference = time.perf_counter() - started
    for name in context_arrays:
        if getattr(fast_context, name).tolist() != getattr(oracle_context, name).tolist():
            print(f"FAIL: parallel encode diverges from the serial oracle ({name})")
            return False

    partition = Partition.by_qi(table)
    started = time.perf_counter()
    fast = GeneralizedTable.from_partition(table, partition)
    publish_seconds = time.perf_counter() - started
    started = time.perf_counter()
    oracle = GeneralizedTable.from_partition_reference(table, partition)
    publish_reference = time.perf_counter() - started
    if (
        fast.cell_rows != oracle.cell_rows
        or fast.sa_values != oracle.sa_values
        or fast.group_ids != oracle.group_ids
        or fast.star_count() != oracle.star_count()
    ):
        print("FAIL: parallel publish diverges from the serial oracle")
        return False

    saved_threshold = kernels.PARALLEL_THRESHOLD
    saved_chunks = kernels.MIN_SORT_CHUNKS
    kernels.PARALLEL_THRESHOLD = 1
    kernels.MIN_SORT_CHUNKS = 4
    try:
        chunked_context = GroupingContext.build(*args)
        chunked = GeneralizedTable.from_partition(table, partition)
    finally:
        kernels.PARALLEL_THRESHOLD = saved_threshold
        kernels.MIN_SORT_CHUNKS = saved_chunks
    for name in context_arrays:
        if (
            getattr(chunked_context, name).tolist()
            != getattr(oracle_context, name).tolist()
        ):
            print(f"FAIL: forced-chunk encode diverges ({name})")
            return False
    if chunked.cell_rows != oracle.cell_rows:
        print("FAIL: forced-chunk publish diverges from the serial oracle")
        return False

    fast_seconds = encode_seconds + publish_seconds
    reference_seconds = encode_reference + publish_reference
    ratio = reference_seconds / fast_seconds if fast_seconds else float("inf")
    print(
        f"encode+publish: fast {encode_seconds:.3f}s+{publish_seconds:.3f}s, "
        f"reference {encode_reference:.3f}s+{publish_reference:.3f}s "
        f"-> {ratio:.2f}x (outputs identical, chunked paths identical)"
    )
    if ratio < MIN_SPEEDUP:
        print(f"FAIL: encode+publish speedup below the {MIN_SPEEDUP:g}x floor")
        return False
    return True


def _highcard_tp_plus(table, loop: bool):
    """TP+ at l=2 with the ``phase1`` stage timed; ``loop`` forces the
    one-removal loop by making the array pass decline."""
    from repro.core import hybrid
    from repro.core.state import AlgorithmState

    profiling.set_enabled(True)
    profiling.reset()
    try:
        if loop:
            with mock.patch.object(
                AlgorithmState, "shave_ineligible_groups", return_value=None
            ):
                result = hybrid.anonymize(table, 2)
        else:
            result = hybrid.anonymize(table, 2)
        return result, profiling.snapshot()["phase1"]
    finally:
        profiling.set_enabled(False)
        profiling.reset()


def _check_high_cardinality(tmp: Path) -> bool:
    """Array phase one and columnar KL on the paper's Table-6 domains."""
    from repro.dataset.generalized import GeneralizedTable
    from repro.metrics.kl import kl_divergence

    table = make_sal(HIGHCARD_N, seed=SEED)
    array, array_seconds = _highcard_tp_plus(table, loop=False)
    loop, loop_seconds = _highcard_tp_plus(table, loop=True)
    rendered = []
    for name, result in (("array", array), ("loop", loop)):
        path = tmp / f"highcard-{name}.csv"
        with CsvSink(str(path)) as sink:
            sink.write_table(result.generalized)
        rendered.append(path.read_bytes())
    if rendered[0] != rendered[1]:
        print("FAIL: array phase one publishes different bytes than the loop")
        return False

    generalized = array.generalized
    row_tuples = GeneralizedTable(
        generalized.schema,
        generalized.cell_rows,
        generalized.sa_values,
        generalized.group_ids,
    )
    columnar_kl = kl_divergence(table, generalized)
    row_tuple_kl = kl_divergence(table, row_tuples)
    if columnar_kl != row_tuple_kl:
        print(
            f"FAIL: columnar KL {columnar_kl!r} != row-tuple KL {row_tuple_kl!r}"
        )
        return False

    ratio = loop_seconds / array_seconds if array_seconds else float("inf")
    print(
        f"high-cardinality TP+ (n={HIGHCARD_N}, l=2, "
        f"{len(array.residue_rows)} residue rows): phase1 array "
        f"{array_seconds:.3f}s vs loop {loop_seconds:.3f}s -> {ratio:.1f}x "
        f"(bytes identical, KL {columnar_kl!r} identical)"
    )
    if ratio < MIN_PHASE_ONE_SPEEDUP:
        print(f"FAIL: array phase one below the {MIN_PHASE_ONE_SPEEDUP:g}x floor")
        return False
    return True


def _check_csv_ingest(tmp: Path) -> bool:
    """One-pass CSV load against the infer-then-load pair it replaces."""
    table = make_sal(HIGHCARD_N, seed=SEED)
    path = str(tmp / "highcard.csv")
    table.to_csv(path)
    qi = table.schema.qi_names
    sa = table.schema.sensitive.name

    def two_pass():
        schema = infer_csv_schema(path, qi, sa)
        return CsvSource(path, qi, sa, schema=schema).load()

    # Rounds alternate between the two sides, so a burst of load from other
    # processes on the host slows both, and each side keeps its best round.
    # A fresh source per round: a source caches its schema after one load.
    one_seconds = two_seconds = float("inf")
    for _ in range(BENCH_ROUNDS):
        started = time.perf_counter()
        one = CsvSource(path, qi, sa).load()
        one_seconds = min(one_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        two = two_pass()
        two_seconds = min(two_seconds, time.perf_counter() - started)
    if (
        one.schema != two.schema
        or not np.array_equal(one.qi_columns, two.qi_columns)
        or not np.array_equal(one.sa_array, two.sa_array)
        or one.fingerprint() != two.fingerprint()
    ):
        print("FAIL: one-pass CSV load differs from infer_csv_schema + load")
        return False
    ratio = two_seconds / one_seconds if one_seconds else float("inf")
    print(
        f"CSV ingest (n={HIGHCARD_N}, Table-6 domains): one-pass load "
        f"{one_seconds:.3f}s vs infer+load {two_seconds:.3f}s -> {ratio:.2f}x "
        "(schema, codes and fingerprint identical)"
    )
    if ratio < MIN_CSV_INGEST_SPEEDUP:
        print(f"FAIL: one-pass CSV load below the {MIN_CSV_INGEST_SPEEDUP:g}x floor")
        return False
    return True


def main() -> int:
    print(f"scale smoke: n={N}, l={L}, chunk_rows={CHUNK_ROWS}")
    table = make_sal(N, seed=SEED, config=CensusConfig.scaled(QI_SCALE))
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        ColumnStore.from_table(table).save(store_dir)
        mmap_source = ColumnStoreSource(str(store_dir))

        mmap_table = mmap_source.load()
        if mmap_table.fingerprint() != table.fingerprint():
            print("FAIL: mmap table fingerprint differs from in-memory table")
            return 1

        memory = _run(TableSource(table), "numpy")
        mapped = _run(mmap_source, "numpy", chunk_rows=CHUNK_ROWS)
        if _rendered(memory, Path(tmp) / "memory.csv") != _rendered(
            mapped, Path(tmp) / "mapped.csv"
        ):
            print("FAIL: mmap/chunked output differs from the in-memory run")
            return 1
        print(
            f"bit-identity OK: {memory.generalized.star_count()} stars, "
            f"{memory.generalized.suppressed_tuple_count()} suppressed"
        )

        reference = _run(mmap_source, "reference")
        if reference.generalized.star_count() != mapped.generalized.star_count():
            print("FAIL: reference backend output diverges")
            return 1
        numpy_seconds = mapped.timings.anonymize_seconds
        reference_seconds = reference.timings.anonymize_seconds
        speedup = reference_seconds / numpy_seconds if numpy_seconds else float("inf")
        print(
            f"anonymize: numpy {numpy_seconds:.3f}s, reference "
            f"{reference_seconds:.3f}s -> {speedup:.2f}x"
        )
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: speedup below the {MIN_SPEEDUP:g}x floor")
            return 1

        if not _check_encode_publish(table):
            return 1
        if not _check_fused_metrics():
            return 1
        if not _check_warm_start(table, Path(tmp)):
            return 1
        if not _check_telemetry_overhead(mmap_source):
            return 1
        if not _check_high_cardinality(Path(tmp)):
            return 1
        if not _check_csv_ingest(Path(tmp)):
            return 1
    print("OK: scale smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
