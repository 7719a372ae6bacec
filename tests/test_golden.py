"""Golden bytes: the CLI's outputs may not change by one byte.

Each digest is SHA-256 over the sorted names of the files one command
wrote, each name followed by a NUL byte and the file's bytes (the same
digest as ``perfbench/expected.json`` uses for ``reproduce``).  The
values were recorded before the long-run dispatch moved into
``chain.long_run``; a refactor that keeps them keeps every output.
"""

import hashlib

import pytest

from netsel.cli import EXIT_OK, main

README_CONFIG = """\
[network]
capacity = 100
arrival = 30
target_share = 0.68

[population]
n = 10
anchored_primary = 1
anchored_secondary = 1

[rule]
type = fermi
beta_ratio = 1.0

[simulation]
seed = 9
steps = 20000
replicas = 2
initial_state = 5
trajectory_decimation = 500

[replicator]
initial_share = 0.2

[sweep]
variable = lambda
values = 30, 35
"""

UNANCHORED = README_CONFIG.replace("anchored_primary = 1", "anchored_primary = 0").replace(
    "anchored_secondary = 1", "anchored_secondary = 0"
)
PROPORTIONAL = README_CONFIG.replace("type = fermi\nbeta_ratio = 1.0", "type = proportional")
# The start is already settled, so integrate returns its one-sample early exit.
AT_REST = README_CONFIG.replace("initial_share = 0.2", "initial_share = 0.68")

# name -> (command, config text, files written, digest)
RUNS = {
    "equilibrium": (
        "equilibrium",
        README_CONFIG,
        ["equilibrium.csv", "equilibrium.meta.json"],
        "9bb03907459d1fdda302ac78b3d21f540841e75afaf965ec7e4cc54e9501a681",
    ),
    "stationary_anchored_fermi": (
        "stationary",
        README_CONFIG,
        ["stationary.csv", "stationary.meta.json"],
        "066b8b4bc917cda263681ccf25eee859871d28bfe71a837a189df049d5a2c3e3",
    ),
    "stationary_unanchored_fermi": (
        "stationary",
        UNANCHORED,
        ["absorption.csv", "absorption.meta.json"],
        "85810f50d4545f141338a62fbe8e6a8411e8f72ee03a1f57fe51307d27436155",
    ),
    "stationary_proportional": (
        "stationary",
        PROPORTIONAL,
        ["stationary.csv", "stationary.meta.json"],
        "21eff333dc269337be839cbf58e143393bccc18804016816bf3180446794d770",
    ),
    "sweep": (
        "sweep",
        README_CONFIG,
        ["sweep.csv", "sweep.meta.json"],
        "96af50550bf31ced9cff483ffbd01b72c2ae30d3dd5a103ea2606d2ae7a38915",
    ),
    "simulate": (
        "simulate",
        README_CONFIG,
        ["histogram.csv", "histogram.meta.json", "trajectory.csv", "trajectory.meta.json"],
        "05bf93f10b2b57fda0ad4dba2e4d55a22e102b7c4d663f57ed18eec5dd43b7fa",
    ),
    "replicator": (
        "replicator",
        README_CONFIG,
        ["replicator.csv", "replicator.meta.json"],
        "e8b81b26b556336765284d885b26e0f311eef26b9bb11e1f74c5ece52519e284",
    ),
    "replicator_at_rest": (
        "replicator",
        AT_REST,
        ["replicator.csv", "replicator.meta.json"],
        "3f8e9dd4f288ddb0ec420515736bf7fd6e98b4d8ec9b8eb45ffd514a2b775a18",
    ),
}

REPRODUCE_ALL_SHA256 = "ca02eb470eab47c1968149c5567836b2c7e1ebcf42641595570df95de9d9f849"


def directory_digest(out):
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NETSEL_OUT_DIR", raising=False)


def test_reproduce_all_bytes_are_pinned(tmp_path):
    out = tmp_path / "figs"
    assert main(["reproduce", "--figure", "all", "--out", str(out), "--quiet"]) == EXIT_OK
    assert directory_digest(out) == REPRODUCE_ALL_SHA256


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_bytes_are_pinned(tmp_path, name):
    command, text, files, sha = RUNS[name]
    config = tmp_path / "experiment.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == files
    assert directory_digest(out) == sha
