"""``cli_session``: fresh ``netsel`` processes, the way users run the tool.

A fixed script of seven commands, each launched as ``python -m
netsel.cli`` and timed from launch to exit.  Importing ``netsel.cli``
is most of every launch, so cold-start work shows here and almost
nowhere else; only ``replicator`` and the absorbing ``stationary`` need
scipy at all.  The seed reaches only ``simulate``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# The README's example experiment.
CONFIG = """\
[network]
capacity = 100
arrival = 30
target_share = 0.68

[population]
n = 10
anchored_primary = {anchors}
anchored_secondary = {anchors}

[rule]
type = fermi
beta_ratio = 1.0

[simulation]
seed = {seed}
steps = 20000
replicas = 2
initial_state = 5
trajectory_decimation = 500

[replicator]
initial_share = 0.2

[sweep]
variable = lambda
start = 5
stop = 95
step = 5
"""

REPRODUCE_FILES = (
    "fig1a", "fig1b", "fig2a_absorption", "fig2a_distribution", "fig2b",
    "fig3a_distributions", "fig3a_summary", "fig3b_distributions", "fig3b_summary",
)
# name -> (arguments after the config, files written)
COMMANDS = {
    "reproduce": (["reproduce", "--figure", "all"], REPRODUCE_FILES),
    "equilibrium": (["equilibrium", "--config", "anchored.ini"], ("equilibrium",)),
    "stationary_anchored": (["stationary", "--config", "anchored.ini"], ("stationary",)),
    "stationary_absorbing": (["stationary", "--config", "unanchored.ini"], ("absorption",)),
    "sweep": (["sweep", "--config", "anchored.ini"], ("sweep",)),
    "simulate": (["simulate", "--config", "anchored.ini"], ("histogram", "trajectory")),
    "replicator": (["replicator", "--config", "anchored.ini"], ("replicator",)),
}
# The three timed parts: the figure run, the two launches that need
# scipy, and the four that need only numpy.
PARTS = {
    "reproduce": ("reproduce",),
    "scipy": ("stationary_absorbing", "replicator"),
    "numpy": ("equilibrium", "stationary_anchored", "sweep", "simulate"),
}
# Named metric -> (part, operations in it); with no operations, the
# part's seconds.  "pass" is the whole pass.
NAMED = {"cli_session_s": ("pass", None), "reproduce_s": ("reproduce", None)}
# Columns that hold a probability law, with the column that splits a
# file into several laws.
LAWS = {
    "fig1a": ("psi", None),
    "fig2a_distribution": ("psi", None),
    "fig3a_distributions": ("psi", "beta_ratio"),
    "fig3b_distributions": ("psi", "n"),
    "stationary": ("psi", None),
    "histogram": ("frequency", None),
}
ABSORPTION_FILES = ("fig2a_absorption", "absorption")


def setup(seed: int, workdir: Path) -> dict:
    """Import the CLI, as every launch does, and write the two configs."""
    import netsel.cli  # noqa: F401

    workdir.mkdir(parents=True, exist_ok=True)
    for name, anchors in (("anchored.ini", 1), ("unanchored.ini", 0)):
        (workdir / name).write_text(CONFIG.format(anchors=anchors, seed=seed), encoding="utf-8")
    return {"seed": seed, "workdir": workdir}


def argv(state, name: str) -> list[str]:
    args, _ = COMMANDS[name]
    args = [a if not a.endswith(".ini") else str(state["workdir"] / a) for a in args]
    return [*args, "--out", str(state["workdir"] / "out" / name)]


def prepare(state) -> None:
    """Nothing to prepare: every launch starts cold."""


def _launch(state, name: str) -> tuple:
    """One fresh ``python -m netsel.cli``; its exit code and the end of stderr."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "netsel.cli", *argv(state, name)],
            cwd=state["workdir"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    except Exception as exc:
        return "raised", f"{type(exc).__name__}: {exc}"
    return proc.returncode, proc.stderr.decode(errors="replace")[-500:]


def _inprocess(state, name: str) -> tuple:
    """The same argv through ``netsel.cli.main`` in this process."""
    import netsel.cli

    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(state["workdir"])
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return netsel.cli.main(argv(state, name)), sink.getvalue()[-500:]
    except SystemExit as exc:
        return exc.code, sink.getvalue()[-500:]
    except Exception as exc:
        return "raised", f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)


def run_pass(state, tracer=None, launch=False) -> tuple[dict, dict]:
    """Run the seven commands one at a time, launched or in process.

    Returns each part's [(start, end)] per command, and per command its
    exit code, the end of its output and, when launched, its seconds.
    The traced passes run in process, so that the tracer, installed
    around ``netsel.cli`` already, sees the calls.
    """
    shutil.rmtree(state["workdir"] / "out", ignore_errors=True)
    times, outputs = {}, {}
    for name in COMMANDS:
        t0 = time.perf_counter()
        code, message = _launch(state, name) if launch else _inprocess(state, name)
        t1 = time.perf_counter()
        times[name] = (t0, t1)
        outputs[name] = (code, message, t1 - t0 if launch else None)
    return {part: [times[name] for name in names] for part, names in PARTS.items()}, outputs


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def reproduce_digest(out: Path) -> str:
    """SHA-256 over the names and bytes of everything ``reproduce`` wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check_command(out: Path, files) -> str:
    """Empty when every file of one command is present and sound."""
    for stem in files:
        for suffix in (".csv", ".meta.json"):
            if not (out / f"{stem}{suffix}").is_file():
                return f"missing {stem}{suffix}"
        rows = _rows(out / f"{stem}.csv")
        if not rows:
            return f"{stem}.csv has no rows"
        if stem in LAWS:
            column, split = LAWS[stem]
            sums: dict[str, float] = {}
            for row in rows:
                key = row[split] if split else ""
                sums[key] = sums.get(key, 0.0) + float(row[column])
            for key, total in sums.items():
                if abs(total - 1.0) > 1e-9:
                    return f"{stem}.csv {column}[{key}] sums to {total!r}"
        if stem in ABSORPTION_FILES:
            for row in rows:
                total = float(row["prob_absorb_at_0"]) + float(row["prob_absorb_at_n"])
                if abs(total - 1.0) > 1e-9:
                    return f"{stem}.csv k0={row['k0']}: P0 + Pn = {total!r}"
        if stem == "sweep" and any(row["metric"] == "error" for row in rows):
            return "sweep.csv has error rows"
    return ""


def check_pass(state, outputs, tally, stats) -> None:
    """Check exit codes, every expected file, and the laws they hold."""
    root = state["workdir"] / "out"
    for name, (code, message, seconds) in outputs.items():
        _, files = COMMANDS[name]
        out = root / name
        problem = f"exit {code}: {message.strip()}" if code != 0 else _check_command(out, files)
        if not problem and name == "reproduce":
            sha = stats["digest"] = reproduce_digest(out)
            if sha != state["golden"]["reproduce_sha256"]:
                problem = f"reproduce bytes changed: sha256 {sha}"
        tally.record(not problem, f"{name}: {problem}")
        if seconds is not None:
            stats[f"cli.cmd.{name}_s"] = seconds
    written = [p for p in root.rglob("*") if p.is_file()]
    stats["cli.files_written"] = len(written)
    stats["cli.bytes_written"] = sum(p.stat().st_size for p in written)
