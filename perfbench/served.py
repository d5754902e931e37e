"""The served workload: ``ldiversity serve`` driven by an open-loop client.

One thread submits each job when it is due; a second polls job status and
fetches each finished job's result CSV.  Latency runs from the job's due
time to the last byte of its result, so a stall also counts against the
jobs queued behind it.  A refused (429) or failed job is not retried; it
counts as failed and its latency as :data:`DEADLINE_S`.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.workloads import QI_NAMES, SA_NAME, Workload

#: Latency charged to a job that fails or is refused; also the poll deadline.
DEADLINE_S = 60.0
POLL_INTERVAL_S = 0.01
TERMINAL = ("done", "failed", "cancelled")


class Server:
    """One ``ldiversity serve`` process with its own workspace."""

    def __init__(self, workspace: Path, workers: int) -> None:
        self.workspace = workspace
        self.workers = workers
        self.process: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> None:
        """Boot and wait until ``/v1/health`` answers."""
        from repro.client import Client

        self.workspace.mkdir(parents=True, exist_ok=True)
        log = open(self.workspace.with_suffix(".log"), "wb")
        with log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0",
                    "--workers", str(self.workers),
                    "--workspace", str(self.workspace),
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        boot = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", boot)
        if match is None:
            raise RuntimeError(f"server did not announce an address: {boot!r}")
        self.url = f"http://{match.group(1)}:{match.group(2)}"
        Client(self.url).wait_until_ready(timeout=30.0)

    def stop(self) -> None:
        """SIGTERM (clean drain), then kill whatever is left of its group."""
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()

    def __enter__(self) -> "Server":
        try:
            self.start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass
class ServedJob:
    index: int
    body: int
    #: Due time, ``perf_counter`` seconds.
    due: float
    sent: float = 0.0
    submit_s: float = 0.0
    job_id: str = ""
    error: str = ""
    done: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0
    record: dict = field(default_factory=dict)
    csv_text: str = ""
    #: Stars of the published CSV, set by the independent check.
    stars: int = 0
    trace: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return DEADLINE_S if self.error else self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def run_open_loop(
    url: str,
    workload: Workload,
    bodies: list[str],
    schedule: list[tuple[float, int]],
    fetch_traces: bool,
) -> list[ServedJob]:
    """Submit ``schedule`` against ``url``; returns every job, finished or not."""
    from repro.client import Client, ClientError

    start = time.perf_counter() + 0.05
    jobs = [ServedJob(i, body, start + due) for i, (due, body) in enumerate(schedule)]
    submitted: queue.Queue[ServedJob | None] = queue.Queue()
    deadline = start + schedule[-1][0] + DEADLINE_S

    def submit() -> None:
        client = Client(url, retries=0)
        try:
            for job in jobs:
                time.sleep(max(0.0, job.due - time.perf_counter()))
                job.sent = time.perf_counter()
                try:
                    job.job_id = client.submit(
                        csv_text=bodies[job.body],
                        qi=list(QI_NAMES),
                        sa=SA_NAME,
                        l=workload.l,
                        algorithm=workload.algorithm,
                    )
                except ClientError as error:
                    job.error = f"submit: {error}"
                job.submit_s = time.perf_counter() - job.sent
                if not job.error:
                    submitted.put(job)
        finally:
            submitted.put(None)

    def poll() -> None:
        client = Client(url, retries=0)
        active: list[ServedJob] = []
        submitting = True
        while (submitting or active) and time.perf_counter() < deadline:
            while True:
                try:
                    job = submitted.get_nowait()
                except queue.Empty:
                    break
                if job is None:
                    submitting = False
                else:
                    active.append(job)
            for job in list(active):
                try:
                    job.polls += 1
                    record = client.status(job.job_id)
                    if record["status"] not in TERMINAL:
                        continue
                    active.remove(job)
                    if record["status"] != "done":
                        job.error = f"job {record['status']}: {record.get('error', '')}"
                        continue
                    fetched = time.perf_counter()
                    job.csv_text = client.result_csv(job.job_id)
                    job.done = time.perf_counter()
                    job.fetch_s = job.done - fetched
                    job.record = record
                    if fetch_traces:
                        job.trace = client.trace(job.job_id)
                except ClientError as error:
                    if job in active:
                        active.remove(job)
                    job.error = f"poll: {error}"
            time.sleep(POLL_INTERVAL_S)
        for job in active:
            job.error = f"not finished within {DEADLINE_S}s"

    threads = [
        threading.Thread(target=submit, name="submitter"),
        threading.Thread(target=poll, name="poller"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for job in jobs:
        if not job.error and not job.done:
            job.error = "never submitted"
    return jobs


def telemetry(url: str) -> dict[str, float]:
    """``/v1/telemetry`` summed per metric name (labels dropped)."""
    from repro.client import Client

    totals: dict[str, float] = {}
    for line in Client(url).telemetry_text().splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.partition("{")[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def _span_seconds(job: ServedJob, prefix: str) -> float:
    """Summed top-level spans of one job's trace whose name starts with ``prefix``.

    Only top-level lifecycle spans are real timings; the ``engine:*`` children
    are reassembled from stage totals.
    """
    return sum(
        span["seconds"]
        for span in job.trace.get("spans", ())
        if span["parent"] is None and span["name"].startswith(prefix)
    )


def engine_seconds(jobs: list[ServedJob]) -> list[float]:
    """Engine seconds of the finished jobs that were computed, not store hits."""
    return [
        job.record["seconds"]
        for job in jobs
        if job.record and not job.error and not job.record.get("store_hit")
    ]


def layers(
    jobs: list[ServedJob],
    before: dict[str, float],
    after: dict[str, float],
    plan: dict,
) -> dict[str, float]:
    """Per-layer figures of one traced open-loop run."""
    done = [job for job in jobs if not job.error]
    computed = [job for job in done if not job.record.get("store_hit")]
    seen: set[int] = set()
    repeats = hits = 0
    for job in jobs:
        if job.body in seen:
            repeats += 1
            hits += bool(job.record.get("store_hit"))
        seen.add(job.body)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def unattributed(job: ServedJob) -> float:
        covered = (
            job.lag + job.submit_s + job.fetch_s + _span_seconds(job, "queue-wait")
            + _span_seconds(job, "attempt-") + _span_seconds(job, "publish")
        )
        return max(0.0, job.latency - covered) / job.latency

    engine = median(engine_seconds(jobs))
    return {
        "client.submit_s": median(job.submit_s for job in jobs),
        "client.polls_per_job": statistics.fmean(job.polls for job in done) if done else 0.0,
        "client.result_fetch_s": median(job.fetch_s for job in done),
        "client.generator_lag_s": max(job.lag for job in jobs),
        "server.queue_wait_s": median(_span_seconds(job, "queue-wait") for job in done),
        "server.attempt_s": median(_span_seconds(job, "attempt-") for job in done),
        "server.engine_s": engine,
        "server.dispatch_s": median(
            _span_seconds(job, "attempt-") - job.record["seconds"] for job in computed
        ),
        "server.publish_s": median(_span_seconds(job, "publish") for job in done),
        "service.store.hit_ratio": hits / repeats if repeats else 0.0,
        "server.retries": delta("repro_pool_retries_total"),
        "server.rejections": delta("repro_jobs_rejected_total"),
        "server.renders_per_job": delta("repro_result_renders_total") / max(1, len(done)),
        "service.planner.estimate_ratio": plan["estimated_seconds"] / engine if engine else 0.0,
        "service.planner.shards": plan["shards"],
        "service.planner.workers": plan["workers"],
        "unattributed_share": median(unattributed(job) for job in done),
    }
