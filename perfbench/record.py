"""Regenerate ``expected.json``, the golden values the checks compare against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py

Records the environment, the SHA-256 of ``netsel reproduce --figure all``,
the Monte Carlo digest of the ``simulation`` workload for seeds 0..31,
and the failures per pass of the defects the benchmark keeps in its data.
Run it only when a change is meant to alter one of these, and say so in
the change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import analytic
import cli_session
import simulation
from common import HERE, Tally, environment

SEEDS = 32


def main() -> int:
    work = HERE.parent / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "netsel.cli", "reproduce", "--figure", "all", "--quiet",
             "--out", str(work)],
            check=True,
        )
        sha = cli_session.reproduce_digest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    state = analytic.setup(0, None)
    _, outputs = analytic.run_pass(state)
    defects = Tally()
    analytic.check_pass(state, outputs, defects, {})
    if defects.unexpected:
        raise SystemExit(f"unrecorded failures: {defects.unexpected[:5]}")

    digests = {}
    for seed in range(SEEDS):
        state = simulation.setup(seed, None)
        # No recorded digests: these are the ones being recorded.
        state["golden"] = {"montecarlo_sha256": {}}
        simulation.prepare(state)
        _, outputs = simulation.run_pass(state)
        tally, stats = Tally(), {}
        simulation.check_pass(state, outputs, tally, stats)
        if tally.failed:
            raise SystemExit(f"seed {seed}: {tally.unexpected}")
        digests[str(seed)] = stats["digest"]
        print(f"seed {seed}: tv replicas {stats['tv.replicas']:.4f} walk {stats['tv.walk']:.4f}"
              f" absorb z {stats['absorb_z']:.2f}", flush=True)

    record = {
        "environment": environment(),
        "reproduce_sha256": sha,
        "known_defects": dict(sorted(defects.known.items())),
        "montecarlo_sha256": digests,
    }
    (HERE / "expected.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
