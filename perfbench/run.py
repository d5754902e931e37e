"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload highcard-csv --seed 1 --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` the last stdout line is a
JSON object holding every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric instead.  ``--workload all`` runs each workload in
its own process and prints them side by side.  The exit code is 1 when any
published table fails the independent check, 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import QI_NAMES, WORKLOADS, serve_schedule  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p80_s": "s",
    "peak_rss_mb": "MB",
    "stars": "count",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "engine.sources.load_s": "s",
    "dataset.table.fingerprint_s": "s",
    "dataset.table.grouping_s": "s",
    "core.three_phase.run_state_s": "s",
    "baselines.hilbert.refine_s": "s",
    "core.hybrid.self_s": "s",
    "dataset.generalized.publish_s": "s",
    "privacy.spec.verify_s": "s",
    "metrics.kl_s": "s",
    "metrics.other_s": "s",
    "engine.sharding.split_s": "s",
    "engine.sharding.merge_s": "s",
    "engine.core.shard_fanout_s": "s",
    "engine.core.self_s": "s",
    "unattributed_share": "ratio",
    "service.planner.estimate_ratio": "ratio",
    "service.planner.shards": "count",
    "service.planner.workers": "count",
    "core.hybrid.residue_rows": "count",
    "core.groups": "count",
    "core.phase_reached": "count",
    "quality.kl": "nats",
    "client.submit_s": "s",
    "client.polls_per_job": "count",
    "client.result_fetch_s": "s",
    "client.generator_lag_s": "s",
    "server.queue_wait_s": "s",
    "server.attempt_s": "s",
    "server.engine_s": "s",
    "server.dispatch_s": "s",
    "server.publish_s": "s",
    "service.store.hit_ratio": "ratio",
    "server.retries": "count",
    "server.rejections": "count",
    "server.renders_per_job": "count",
    "trace.overhead_s": "s",
}


class Run:
    """One invocation: its workload, a private work directory, its findings."""

    def __init__(self, arguments: argparse.Namespace) -> None:
        self.workload = WORKLOADS[arguments.workload]
        self.seed = arguments.seed
        self.seconds = float(arguments.seconds)
        self.work = ROOT / ".bench_work" / f"{self.workload.name}-{self.seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def generate(self, out: Path, bodies: int = 0) -> None:
        """Write the workload's inputs in a separate process."""
        subprocess.run(
            [
                sys.executable, "-m", "perfbench.inputs",
                "--workload", self.workload.name,
                "--seed", str(self.seed),
                "--out", str(out),
                "--bodies", str(bodies),
            ],
            cwd=ROOT, check=True, timeout=150,
        )

    # ------------------------------------------------------------ in-process

    def setup_inprocess(self, repeats: int):
        from perfbench.inprocess import Inputs

        times = []
        for repeat in range(repeats):
            out = self.work / f"setup-{repeat}"
            started = time.perf_counter()
            self.generate(out)
            times.append(time.perf_counter() - started)
            if repeat:
                shutil.rmtree(self.work / f"setup-{repeat - 1}")
        return times, Inputs(self.workload, out)

    def count(self, jobs) -> None:
        self.attempted += len(jobs)
        for job in jobs:
            if job.problems:
                self.failed += 1
                self.problems.extend(job.problems)
        if len({job.digest for job in jobs}) > 1:
            self.problems.append("jobs on one input published different tables")

    def inprocess(self) -> dict[str, float]:
        from perfbench.common import RssSampler, host_cpu_ticks, latency_summary, steal_share
        from perfbench.inprocess import run_for, run_job

        setup_times, inputs = self.setup_inprocess(SETUP_REPEATS)
        # Untimed but checked: first-call imports and a cold page cache.
        warm_up = run_job(inputs)
        ticks = host_cpu_ticks()
        with RssSampler(os.getpid()) as rss:
            jobs = run_for(inputs, self.seconds)
        self.info["host_steal_share"] = steal_share(ticks, host_cpu_ticks())
        self.count([warm_up, *jobs])
        peak = max(rss.peak_bytes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
        p50, p80, note = latency_summary([job.seconds for job in jobs])
        self.info.update(
            setup_s=setup_times,
            job_s=[job.seconds for job in jobs],
            latency_note=note,
            planner=planner_record(jobs[0].planner, [job.planner["anonymize_s"] for job in jobs]),
        )
        return {
            "setup_s": statistics.median(setup_times),
            "latency_p50_s": p50,
            "latency_p80_s": p80,
            "peak_rss_mb": peak / 2**20,
            "stars": statistics.fmean(job.stars for job in jobs),
            "success_ratio": 1 - sum(bool(job.problems) for job in jobs) / len(jobs),
        }

    def inprocess_traced(self) -> dict[str, float]:
        from perfbench.common import SpanRecorder
        from perfbench.inprocess import median_layers, run_for, run_job

        _, inputs = self.setup_inprocess(1)
        warm_up = run_job(inputs)
        plain = run_for(inputs, self.seconds / 2)
        traced = run_for(inputs, self.seconds / 2, SpanRecorder())
        self.count([warm_up, *plain, *traced])
        values = median_layers(traced)
        values["trace.overhead_s"] = statistics.median(
            job.seconds for job in traced
        ) - statistics.median(job.seconds for job in plain)
        self.info.update(
            plain_job_s=[job.seconds for job in plain],
            traced_job_s=[job.seconds for job in traced],
            planner=planner_record(traced[0].planner, [job.planner["anonymize_s"] for job in traced]),
        )
        return values

    # ----------------------------------------------------------------- serve

    def setup_serve(self, repeats: int, schedule):
        from perfbench.served import Server

        bodies = 1 + max(body for _, body in schedule) + self.workload.server_workers
        times, server = [], None
        try:
            for repeat in range(repeats):
                if server is not None:
                    server.stop()
                out = self.work / f"setup-{repeat}"
                started = time.perf_counter()
                self.generate(out, bodies)
                server = Server(self.work / f"server-{repeat}", self.workload.server_workers)
                server.start()
                times.append(time.perf_counter() - started)
        except BaseException:
            if server is not None:
                server.stop()
            raise
        texts = [
            (out / "bodies" / f"body-{body:04d}.csv").read_text() for body in range(bodies)
        ]
        return times, server, texts

    def warm_up(self, url: str, texts: list[str]) -> None:
        """One untimed, checked job per pool worker, on bodies of their own.

        The last ``server_workers`` bodies are kept for this, so the timed
        schedule's run-store hits are unchanged.
        """
        from perfbench.served import run_open_loop

        workers = self.workload.server_workers
        schedule = [(0.0, len(texts) - 1 - worker) for worker in range(workers)]
        self.check_served(run_open_loop(url, self.workload, texts, schedule, False), texts)

    def check_served(self, jobs, texts) -> list:
        """Check every finished job's CSV; returns the passing jobs."""
        from perfbench.check import check_csv

        self.attempted += len(jobs)
        passed = []
        for job in jobs:
            if not job.error:
                verdict = check_csv(job.csv_text, texts[job.body], self.workload.l)
                if job.record.get("stars") != verdict.stars:
                    verdict.problems.append(
                        f"reported {job.record.get('stars')} stars, the CSV has {verdict.stars}"
                    )
                job.error = "; ".join(verdict.problems)
                job.stars = verdict.stars
            if job.error:
                self.failed += 1
                self.problems.append(f"job {job.index}: {job.error}")
            else:
                passed.append(job)
        return passed

    def plan(self, url: str) -> dict:
        """The planner's answer to ``POST /v1/plan`` for one served job."""
        from repro.client import Client

        return Client(url).plan(
            n=self.workload.n, l=self.workload.l,
            algorithm=self.workload.algorithm, d=len(QI_NAMES),
        )

    def serve(self) -> dict[str, float]:
        from perfbench.common import RssSampler, host_cpu_ticks, latency_summary, steal_share
        from perfbench.served import engine_seconds, run_open_loop

        schedule = serve_schedule(self.workload, self.seconds)
        setup_times, server, texts = self.setup_serve(SETUP_REPEATS, schedule)
        try:
            plan = self.plan(server.url)
            self.warm_up(server.url, texts)
            ticks = host_cpu_ticks()
            with RssSampler(server.process.pid, interval=0.05) as rss:
                jobs = run_open_loop(server.url, self.workload, texts, schedule, False)
            self.info["host_steal_share"] = steal_share(ticks, host_cpu_ticks())
        finally:
            server.stop()
        passed = self.check_served(jobs, texts)
        latencies = [job.latency for job in jobs]
        p50, p80, note = latency_summary(latencies)
        self.info.update(
            setup_s=setup_times,
            latency_note=note,
            generator_lag_max_s=max(job.lag for job in jobs),
            latency_s=[round(latency, 4) for latency in latencies],
            planner=planner_record(plan, engine_seconds(jobs)),
        )
        return {
            "setup_s": statistics.median(setup_times),
            "latency_p50_s": p50,
            "latency_p80_s": p80,
            "peak_rss_mb": rss.peak_bytes / 2**20,
            "stars": statistics.fmean(job.stars for job in passed) if passed else 0.0,
            "success_ratio": len(passed) / len(jobs),
        }

    def serve_traced(self) -> dict[str, float]:
        from perfbench.served import Server, engine_seconds, layers, run_open_loop, telemetry

        schedule = serve_schedule(self.workload, self.seconds / 2)
        _, first, texts = self.setup_serve(1, schedule)
        try:
            self.warm_up(first.url, texts)
            plain = run_open_loop(first.url, self.workload, texts, schedule, False)
        finally:
            first.stop()
        with Server(self.work / "server-traced", self.workload.server_workers) as second:
            plan = self.plan(second.url)
            self.warm_up(second.url, texts)
            before = telemetry(second.url)
            traced = run_open_loop(second.url, self.workload, texts, schedule, True)
            after = telemetry(second.url)
        self.check_served(plain + traced, texts)
        outputs: dict[int, set[str]] = {}
        for job in plain + traced:
            if not job.error:
                outputs.setdefault(job.body, set()).add(job.csv_text)
        if any(len(tables) > 1 for tables in outputs.values()):
            self.problems.append("one body was served different tables")
        values = layers(traced, before, after, plan)
        values["trace.overhead_s"] = statistics.median(
            job.latency for job in traced
        ) - statistics.median(job.latency for job in plain)
        self.info.update(planner=planner_record(plan, engine_seconds(traced)))
        return values


def planner_record(decision: dict, measured: list[float]) -> dict:
    """The planner's choice and estimate beside the measured seconds."""
    median = statistics.median(measured) if measured else 0.0
    return {
        "shards": decision["shards"],
        "workers": decision["workers"],
        "estimated_s": decision["estimated_seconds"],
        "measured_s": [round(seconds, 4) for seconds in measured],
        "estimate_ratio": decision["estimated_seconds"] / median if median else None,
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(arguments: argparse.Namespace) -> int:
    import numpy

    run = Run(arguments)
    names = PER_LAYER if arguments.trace else END_TO_END
    try:
        if run.workload.kind == "serve":
            values = run.serve_traced() if arguments.trace else run.serve()
        else:
            values = run.inprocess_traced() if arguments.trace else run.inprocess()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    metadata = {
        "workload": run.workload.name,
        "params": run.workload.params(),
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": arguments.trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        **run.info,
        "problems": run.problems[:20],
    }
    print(json.dumps({"run": metadata}, default=str))
    metrics = {}
    for name, unit in names.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{run.workload.name:>13} {name:<32} {value:>14.6g} {unit}")
    correct = not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(arguments: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, __file__,
                "--workload", name,
                "--seed", str(arguments.seed),
                "--seconds", str(arguments.seconds),
                "--trace", str(arguments.trace),
            ],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"run"')))
        status = max(status, completed.returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Set-up processes and the server import the program and this package.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")])
    )
    if arguments.workload == "all":
        return run_all(arguments)
    return run_one(arguments)


if __name__ == "__main__":
    sys.exit(main())
