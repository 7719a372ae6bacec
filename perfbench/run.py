"""netsel benchmark: the entry point.

    python3 perfbench/run.py --workload {cli_session,analytic,simulation}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in a fresh interpreter (``worker.py``) so
that set-up is measured the way users pay it.  With ``--trace 0`` the
last line of output is the JSON object of end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
The lines before it name the workload's own metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in this many fresh interpreters besides the measured one,
# after one untimed launch that fills the bytecode and file caches.
SETUP_PROBES = 4
# The workers get 2 x --seconds (traced runs alternate two kinds of pass)
# plus this for set-up, warm-up and the pass that overruns.
MARGIN_S = 110.0


class BenchError(RuntimeError):
    pass


def _worker(args, workdir: Path, env, extra=()) -> subprocess.Popen:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *extra,
    ]
    # A session of its own, so that the worker's CLI children can be
    # stopped with it.
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def _until_ready(proc: subprocess.Popen) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise BenchError(f"worker failed during set-up (exit {proc.wait()})")
    return time.perf_counter()


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def bench(args) -> dict:
    """Time set-up in fresh workers, then run the measured worker.

    The speed of the machine is sampled here the whole time, while the
    workers do the work, and every time is rescaled with it.
    """
    deadline = time.monotonic() + MARGIN_S + 2 * args.seconds
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("NETSEL_OUT_DIR", None)
    setup: list[float] = []
    procs: list[subprocess.Popen] = []
    # This process, the workload and everything it launches share one core,
    # with one BLAS thread: the sampled speed is that core's speed.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    try:
        with Speedometer() as speed:
            for probe in range(SETUP_PROBES + 1):
                t0 = time.perf_counter()
                procs.append(_worker(args, workdir, env, ["--setup-only"]))
                ready = _until_ready(procs[-1])
                _finish(procs[-1], deadline)
                if probe:
                    setup.append(speed.seconds(t0, ready))
            t0 = time.perf_counter()
            procs.append(_worker(args, workdir, env))
            setup.append(speed.seconds(t0, _until_ready(procs[-1])))
            out = _finish(procs[-1], deadline)
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setup)
    mod = WORKLOADS[args.workload]
    if args.trace:
        plain = _rescale(mod, result.pop("plain_windows"), speed)
        traced = _rescale(mod, result.pop("traced_windows"), speed)
        overhead = traced["e2e"]["pass_s"] / plain["e2e"]["pass_s"] - 1.0
        result["per_layer"]["trace.overhead_frac"][0] = overhead
    else:
        result.update(_rescale(mod, result.pop("pass_windows"), speed))
    return result


def _rescale(mod, passes: list[dict], speed: Speedometer) -> dict:
    """Medians over passes of each part and of the whole pass, at reference speed."""
    parts: dict[str, list[float]] = {part: [] for part in mod.PARTS}
    totals, wall = [], []
    for part_windows in passes:
        for part in mod.PARTS:
            parts[part].append(sum(speed.seconds(t0, t1) for t0, t1 in part_windows[part]))
        totals.append(sum(values[-1] for values in parts.values()))
        wall.append(sum(t1 - t0 for windows in part_windows.values() for t0, t1 in windows))
    medians = {part: statistics.median(values) for part, values in parts.items()}
    medians["pass"] = statistics.median(totals)
    e2e = {"pass_s": medians["pass"]}
    for letter, part in zip("abc", mod.PARTS):
        e2e[f"part_{letter}_s"] = medians[part]
    named = {
        name: (medians[part], "s") if work is None else (work / medians[part], "1/s")
        for name, (part, work) in mod.NAMED.items()
    }
    return {"e2e": e2e, "named": named, "wall_pass_s": statistics.median(wall)}


def report(args, result: dict) -> dict:
    """Print the workload's own metrics; return the result object."""
    tally = result["tally"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['passes']} passes")
    print(f"  fail_frac {tally['failed'] / tally['attempted']:.6g} ratio "
          f"({tally['failed']} of {tally['attempted']} operations failed)")
    for key, count in tally["known_defects"].items():
        print(f"    known defect: {key}: {count}")
    for problem in tally["unexpected"] + [f"over recorded count: {k}" for k in tally["over_recorded"]]:
        print(f"    FAILED {problem}")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["per_layer"].items()
        }
    else:
        for name, (value, unit) in result["named"].items():
            print(f"  {name} {value:.6g} {unit}")
        print(f"  setup_s {result['setup_s']:.6g} s")
        print(f"  wall time of a pass {result['wall_pass_s']:.6g} s, before rescaling")
        for digest in result["digests"]:
            print(f"  output sha256 {digest}")
        values = {**result["e2e"], "peak_rss_mb": result["peak_rss_mb"], "setup_s": result["setup_s"]}
        metrics = {
            name: {"value": value, "unit": "MB" if name == "peak_rss_mb" else "s"}
            for name, value in values.items()
        }
    return {
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "netsel" / "__init__.py").is_file():
        print(f"no netsel sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("--seed must lie in [0, 2^64) and --seconds be positive", file=sys.stderr)
        return 2
    # Turn a polite stop into an exception, so the workers are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
