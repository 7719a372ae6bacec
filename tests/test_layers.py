"""benchmarks/layers.py: a group's rows from its own interpreter, and the pairing of rounds."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


@pytest.fixture
def layers(monkeypatch):
    """The script as a module; the import path and BLAS setting it changes are restored after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_group_prints_its_rows_from_a_fresh_interpreter():
    argv = [sys.executable, str(LAYERS), "--group", "replicator"]
    row = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
    # The keys do not depend on the measured time, so records of the same code share them.
    assert set(row) == {"ms", "scaled_ms", "comparable", "calls", "samples"}
    assert row["ms"] > 0 and row["scaled_ms"] > 0
    assert type(row["comparable"]) is bool
    assert type(row["calls"]) is int and row["calls"] >= 1
    assert type(row["samples"]) is int and row["samples"] > 1


def test_the_sweep_point_group_prints_rows_with_the_standard_keys():
    argv = [sys.executable, str(LAYERS), "--group", "sweep_point"]
    rows = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
    assert set(rows) == {"anchored", "unanchored"}
    for by_n in rows.values():
        assert list(by_n) == ["10", "100", "1000"]
        for row in by_n.values():
            assert set(row) == {"ms", "scaled_ms", "comparable", "calls"}
            assert row["ms"] > 0 and row["scaled_ms"] > 0
            assert type(row["comparable"]) is bool
            assert type(row["calls"]) is int and row["calls"] >= 1


def test_the_window_group_shares_out_every_draw_of_each_walk(layers):
    argv = [sys.executable, str(LAYERS), "--group", "window"]
    rows = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
    assert list(rows) == ["100", "1000", "10000"]
    spreads = [f"spread_{spread:g}_scaled_ms" for spread in layers.SPREADS]
    for n, row in rows.items():
        assert [key for key in row if key.startswith("spread_")] == spreads
        assert all(row[key] > 0 for key in spreads)
        # Every draw of the walk is the denominator: a replay of its stream
        # gives the share at or past max(move), which the walk skips.
        kernel = layers.fermi_kernel(layers.economy(layers.LOAD), int(n))
        draws = layers.montecarlo._stream(1, 0).random(row["events"])
        assert row["skipped_share"] == round(float((draws >= kernel.move.max()).mean()), 4)
        assert 0 < row["resolved_share"] < 1 - row["skipped_share"] < 1
        assert row["exits_per_block"] >= 0 and row["mean_window"] > 1 and row["mean_range"] > 1


def test_an_unknown_group_is_a_usage_error():
    argv = [sys.executable, str(LAYERS), "--group", "nonesuch"]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 1 and done.stderr.startswith("usage:")


def test_rounds_pair_on_every_rescaled_time(layers):
    flags = {"comparable": True, "calls": 1}
    this = [
        {"g": {"a": {"ms": 2.0, "scaled_ms": 1.0, "comparable": True, "calls": 3},
               "walk_scaled_ms": 4.0, "new_scaled_ms": 1}},
        {"g": {"a": {"ms": 0.9, "scaled_ms": 1.2, "comparable": False, "calls": 4},
               "walk_scaled_ms": 4.0, "new_scaled_ms": 1}},
    ]
    baseline = [
        {"g": {"a": {"ms": 2.0, "scaled_ms": 1.0, **flags}, "walk_scaled_ms": 2.0}},
        {"g": {"a": {"ms": 2.0, "scaled_ms": 1.0, **flags}, "walk_scaled_ms": 4.0}},
    ]
    # A time only one revision has is not paired; a range wider than 0.25 is not comparable.
    assert layers.paired(this, baseline) == {
        "g/a/scaled_ms": {
            "baseline": 1.0, "this": 1.0, "ratio": 1.1, "range": [1.0, 1.2], "comparable": True
        },
        "g/walk_scaled_ms": {
            "baseline": 2.0, "this": 4.0, "ratio": 1.5, "range": [1.0, 2.0], "comparable": False
        },
    }
    # Over an even number of rounds, a count stays an integer and a flag a bool.
    medians = layers.median_rows(this)
    assert medians["g"]["a"] == {"ms": 0.9, "scaled_ms": 1.0, "comparable": False, "calls": 3}
    assert type(medians["g"]["a"]["calls"]) is int
    assert type(medians["g"]["a"]["comparable"]) is bool


def test_both_revisions_run_from_copies_at_paths_of_equal_length(layers, monkeypatch, tmp_path):
    package = tmp_path / "src" / "netsel"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    seen = []

    def spy(group, src):
        assert (src / "netsel" / "__init__.py").is_file()
        seen.append(str(src))
        return {}

    monkeypatch.setattr(layers, "run_group", spy)
    with layers.equal_paths(tmp_path) as sources:
        runs = layers.rounds(sources)
    assert len(runs["this"]) == len(runs["baseline"]) == layers.ROUNDS
    assert set(seen) == {str(sources["this"]), str(sources["baseline"])}
    assert len(seen) == 2 * layers.ROUNDS * len(layers.GROUPS)
    # Neither side runs from its own tree, the two paths have the same
    # length, and the copies are gone afterwards.
    assert str(layers.SRC) not in seen and str(tmp_path / "src") not in seen
    assert len({len(path) for path in seen}) == 1
    assert not any(Path(path).exists() for path in seen)
