"""Set-up: generate one workload's inputs from its seed and write them to disk.

Runs as its own process (``python3 -m perfbench.inputs --workload W --seed S
--out DIR`` from the repository root) so generation memory never counts toward a job's peak RSS.
Writes, under ``DIR``:

* ``expected_qi.npy`` / ``expected_sa.npy`` — the generator's codes (uint8),
  the reference the independent output check compares against;
* ``input.csv`` (``csv``), or ``store/`` — a ``ColumnStore`` (``mmap``);
  with ``warm_up`` one untimed job then persists the store's ``order.npy``;
* ``bodies/body-NNNN.csv`` (``serve``) — one 2,000-row upload per distinct body.
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine.cache import ResultCache
from repro.engine.columnstore import ColumnStore, ColumnStoreSource
from repro.engine.core import Engine, RunPlan

from perfbench.workloads import QI_NAMES, SA_NAME, WORKLOADS, Workload


def make_table(workload: Workload, seed: int):
    config = CensusConfig.scaled(workload.qi_scale) if workload.qi_scale < 1 else None
    return make_sal(workload.n, seed=seed, config=config)


def body_seed(seed: int, body: int) -> int:
    """Generator seed of one served body, derived from the run seed."""
    return int(np.random.SeedSequence([seed, body]).generate_state(1)[0])


def write_csv(table, path: Path) -> None:
    """Write ``table`` as ``Name#code`` labels, the generator's own labels."""
    names = (*QI_NAMES, SA_NAME)
    columns = [table.qi_columns[:, j] for j in range(len(QI_NAMES))] + [table.sa_array]
    labelled = []
    for name, codes in zip(names, columns):
        labels = np.array([f"{name}#{code}" for code in range(int(codes.max()) + 1)], dtype=object)
        labelled.append(labels[codes].tolist())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(zip(*labelled))


def save_expected(table, out: Path) -> None:
    np.save(out / "expected_qi.npy", np.asarray(table.qi_columns, dtype=np.uint8))
    np.save(out / "expected_sa.npy", np.asarray(table.sa_array, dtype=np.uint8))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--bodies", type=int, default=0, help="serve: distinct bodies")
    arguments = parser.parse_args()
    workload = WORKLOADS[arguments.workload]
    out = Path(arguments.out)
    out.mkdir(parents=True, exist_ok=True)

    if workload.kind == "serve":
        bodies = out / "bodies"
        bodies.mkdir(exist_ok=True)
        for body in range(arguments.bodies):
            table = make_table(workload, body_seed(arguments.seed, body))
            write_csv(table, bodies / f"body-{body:04d}.csv")
        return

    table = make_table(workload, arguments.seed)
    save_expected(table, out)
    if workload.kind == "csv":
        write_csv(table, out / "input.csv")
        return
    ColumnStore.from_table(table).save(out / "store")
    del table
    if workload.warm_up:
        Engine(cache=ResultCache()).run(
            RunPlan(
                ColumnStoreSource(str(out / "store")),
                workload.algorithm,
                l=workload.l,
                metrics=workload.metrics,
            )
        )


if __name__ == "__main__":
    main()
