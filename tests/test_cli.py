"""Command-line interface: config parsing, exit codes, and file contracts."""

import csv
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import netsel
from netsel import model
from netsel.cli import EXIT_ANALYSIS, EXIT_CONFIG, EXIT_OK, main
from netsel.config import ConfigError, ExperimentConfig, parse_config

pytestmark = pytest.mark.usefixtures("isolated_cwd")

BASE = """\
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
"""


def write_config(tmp_path, text, name="experiment.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_meta(csv_path):
    meta_path = csv_path.with_name(csv_path.stem + ".meta.json")
    return json.loads(meta_path.read_text(encoding="utf-8"))


# -- config parsing ----------------------------------------------------------------


def test_unknown_key_is_named(tmp_path):
    path = write_config(tmp_path, BASE.replace("capacity", "capcity"))
    with pytest.raises(ConfigError, match="capcity"):
        parse_config(path)


def test_unknown_section_is_named(tmp_path):
    path = write_config(tmp_path, BASE + "\n[netwerk]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="netwerk"):
        parse_config(path)


def test_unparseable_value_is_named(tmp_path):
    path = write_config(tmp_path, BASE.replace("arrival = 30", "arrival = many"))
    with pytest.raises(ConfigError, match="network.arrival"):
        parse_config(path)


def test_missing_file_is_a_config_error(tmp_path, capsys):
    assert main(["equilibrium", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_config_errors_exit_with_code_two(tmp_path, capsys):
    path = write_config(tmp_path, BASE.replace("capacity", "capcity"))
    assert main(["equilibrium", "--config", path]) == EXIT_CONFIG
    assert "capcity" in capsys.readouterr().err


def test_both_beta_keys_rejected(tmp_path, capsys):
    path = write_config(tmp_path, BASE + "beta_absolute = 3.0\n")
    assert main(["stationary", "--config", path]) == EXIT_CONFIG
    assert "exactly one" in capsys.readouterr().err


def test_target_share_conflicts_with_explicit_prices(tmp_path, capsys):
    path = write_config(tmp_path, BASE.replace("arrival = 30", "arrival = 30\nprice_primary = 0.1"))
    assert main(["equilibrium", "--config", path]) == EXIT_CONFIG
    assert "not both" in capsys.readouterr().err


def test_proportional_rule_rejects_beta_keys(tmp_path, capsys):
    bad = BASE.replace("type = fermi", "type = proportional")
    path = write_config(tmp_path, bad)
    assert main(["stationary", "--config", path]) == EXIT_CONFIG


def test_sweep_grid_and_list_are_exclusive(tmp_path):
    path = write_config(
        tmp_path,
        BASE + "\n[sweep]\nvariable = lambda\nvalues = 30, 35\nstart = 30\nstop = 35\nstep = 5\n",
    )
    with pytest.raises(ConfigError, match="not both"):
        parse_config(path).sweep()


def test_sweep_rejects_unknown_variables(tmp_path):
    path = write_config(tmp_path, BASE + "\n[sweep]\nvariable = price\nvalues = 1\n")
    with pytest.raises(ConfigError, match="price"):
        parse_config(path).sweep()


SWEEP_N = BASE + "\n[sweep]\nvariable = n\n"
RATIO_SWEEP = "\n[sweep]\nvariable = beta_ratio\nvalues = 1, 10\n"
# A beta_ratio sweep overrides a Fermi rule's ratio; these rules have none.
RATIO_OF_PROPORTIONAL = BASE.replace("type = fermi\nbeta_ratio = 1.0", "type = proportional") + RATIO_SWEEP
RATIO_OF_ABSOLUTE = BASE.replace("beta_ratio = 1.0", "beta_absolute = 50") + RATIO_SWEEP
UNANCHORED = BASE.replace("anchored_primary = 1", "anchored_primary = 0").replace(
    "anchored_secondary = 1", "anchored_secondary = 0"
)
# An absorbing chain whose absorption system is singular in floats: the
# moves 1 -> 2 and 2 -> 1 have probability 1/3 each and every other move out
# of 1 or 2 less than 1e-28, so the second pivot rounds to exactly 0.
SINGULAR_ABSORPTION = (
    UNANCHORED.replace("n = 10", "n = 3")
    .replace("target_share = 0.68", "target_share = 0.5")
    .replace("beta_ratio = 1.0", "beta_absolute = 100000")
)


@pytest.mark.parametrize(
    "text, match",
    [
        (SWEEP_N + "values = 10, 2.5", "integers"),
        (SWEEP_N + "values = inf", "integers"),
        (SWEEP_N + "values = nan", "integers"),
        (SWEEP_N + "start = 1\nstop = inf\nstep = 1", "finitely many"),
        (SWEEP_N + "start = 1\nstop = 1e300\nstep = 1e-300", "finitely many"),
        (SWEEP_N + "start = 2\nstop = 10\nstep = nan", "finitely many"),
        (SWEEP_N + "start = 2\nstop = 10\nstep = inf", "finitely many"),
        (SWEEP_N + "start = 2\nstop = 1e300\nstep = 1", "fewer than 1000000 steps"),
        (SWEEP_N + "start = 2\nstop = 1000002\nstep = 1", "fewer than 1000000 steps"),
        (RATIO_OF_PROPORTIONAL, "fermi"),
        (RATIO_OF_ABSOLUTE, "fermi"),
        (SWEEP_N + "values = 10, ten", "cannot parse values list"),
        (SWEEP_N + "values = ,", "values list is empty"),
        (SWEEP_N + "start = 2\nstop = 10", "missing required key 'step'"),
    ],
    ids=[
        "fractional", "values-inf", "values-nan", "stop-inf", "too-many-points", "step-nan", "step-inf",
        "huge-grid", "million-steps", "ratio-of-proportional", "ratio-of-absolute", "values-unparsable",
        "values-empty", "grid-without-step",
    ],
)
def test_sweep_rejects_fractional_population_sizes(tmp_path, text, match):
    path = write_config(tmp_path, text + "\n")
    with pytest.raises(ConfigError, match=match):
        parse_config(path).sweep()


def test_sweep_grid_includes_both_endpoints(tmp_path):
    path = write_config(
        tmp_path, BASE + "\n[sweep]\nvariable = lambda\nstart = 5\nstop = 95\nstep = 5\n"
    )
    values = parse_config(path).sweep().values
    assert len(values) == 19
    assert values[0] == 5.0 and values[-1] == 95.0


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e3), st.floats(0.0, 1e4))
def test_a_start_stop_step_grid_has_the_bits_of_numpys_arange(start, step, span):
    # The grid is built in Python floats, each point one multiply and one add:
    # the bits of start + step * np.arange(count), which it was built from before.
    stop = start + span
    assume((stop - start) / step < 10**4)
    sweep = {"variable": "lambda", "start": start, "stop": stop, "step": step}
    values = ExperimentConfig({"sweep": sweep}).sweep().values
    grid = start + step * np.arange(int(round((stop - start) / step)) + 1)
    assert [v.hex() for v in values] == [float(v).hex() for v in grid if v <= stop + step * 1e-9]


def test_bad_initial_state_string_is_a_config_error(tmp_path, capsys):
    path = write_config(
        tmp_path, BASE + "\n[simulation]\nsteps = 100\ninitial_state = somewhere\n"
    )
    assert main(["simulate", "--config", path]) == EXIT_CONFIG


def test_missing_config_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["equilibrium"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- equilibrium --------------------------------------------------------------------


def test_equilibrium_reports_the_critical_state(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["equilibrium", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "critical state" in out and "= 7" in out
    assert "0.68" in out
    # No output directory was configured, so nothing is written.
    assert list(tmp_path.glob("*.csv")) == []


def test_equilibrium_writes_when_asked(tmp_path):
    path = write_config(tmp_path, BASE)
    out_dir = tmp_path / "results"
    assert main(["equilibrium", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    header, rows = read_rows(out_dir / "equilibrium.csv")
    assert header == ["quantity", "value"]
    table = {name: float(value) for name, value in rows}
    assert table["share_primary"] == pytest.approx(0.68, abs=1e-9)
    assert table["critical_state"] == 7
    assert table["poa"] > 1.0
    meta = read_meta(out_dir / "equilibrium.csv")
    assert meta["package"] == "netsel"
    assert meta["network"]["price_gap"] == pytest.approx(0.0017229002153625265, rel=1e-12)


def test_quiet_silences_the_summary(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["equilibrium", "--config", path, "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""


# -- stationary ---------------------------------------------------------------------


def test_stationary_writes_the_product_form_law(tmp_path):
    path = write_config(tmp_path, BASE)
    out_dir = tmp_path / "res"
    assert main(["stationary", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    header, rows = read_rows(out_dir / "stationary.csv")
    assert header == ["k", "psi"]
    assert [int(k) for k, _ in rows] == list(range(11))
    psi = [float(p) for _, p in rows]
    assert sum(psi) == pytest.approx(1.0, abs=1e-9)
    meta = read_meta(out_dir / "stationary.csv")
    assert meta["chain_class"] == "irreducible"
    assert meta["distribution_kind"] == "product_form"
    assert meta["mode"] == [7]
    assert meta["expected_poa"] == pytest.approx(1.0236875600386088, rel=1e-9)


def test_stationary_noise_free_two_point_law(tmp_path):
    config = BASE.replace("type = fermi\nbeta_ratio = 1.0", "type = proportional")
    config = config.replace("anchored_primary = 1", "anchored_primary = 0")
    config = config.replace("anchored_secondary = 1", "anchored_secondary = 0")
    path = write_config(tmp_path, config)
    out_dir = tmp_path / "res"
    assert main(["stationary", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, rows = read_rows(out_dir / "stationary.csv")
    psi = {int(k): float(p) for k, p in rows}
    assert psi[6] + psi[7] == pytest.approx(1.0, abs=1e-12)
    assert psi[6] == pytest.approx(0.1850419084461624, rel=1e-9)
    assert read_meta(out_dir / "stationary.csv")["distribution_kind"] == "two_point_noise_free"


def test_stationary_absorbing_falls_back_to_absorption_report(tmp_path, capsys):
    path = write_config(tmp_path, UNANCHORED)
    out_dir = tmp_path / "res"
    assert main(["stationary", "--config", path, "--out", str(out_dir)]) == EXIT_OK
    assert "absorbing" in capsys.readouterr().out
    header, rows = read_rows(out_dir / "absorption.csv")
    assert header == ["k0", "prob_absorb_at_0", "prob_absorb_at_n", "expected_steps"]
    assert len(rows) == 11
    by_start = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert by_start[0] == (1.0, 0.0)
    assert by_start[10] == (0.0, 1.0)
    assert by_start[5][0] == pytest.approx(0.1338213963353853, rel=1e-9)
    assert not (out_dir / "stationary.csv").exists()


def test_stationary_analysis_failure_exits_three(tmp_path, capsys):
    # Equal prices put the equilibrium on the all-primary boundary, so no
    # interior two-point law exists; the one-sided anchor keeps the chain
    # out of the absorbing class, leaving no analysis route at all.
    config = """\
    [network]
    capacity = 100
    arrival = 30

    [population]
    n = 10
    anchored_primary = 1

    [rule]
    type = proportional
    """
    path = write_config(tmp_path, config)
    assert main(["stationary", "--config", path, "--quiet"]) == EXIT_ANALYSIS
    assert "analysis error" in capsys.readouterr().err


def test_one_sided_fermi_chain_names_the_missing_anchor(tmp_path, capsys):
    # Fermi's q is positive, so the down move out of n is blocked by the
    # missing secondary anchor, not by the rule.
    path = write_config(tmp_path, BASE.replace("anchored_secondary = 1", "anchored_secondary = 0"))
    assert main(["stationary", "--config", path, "--out", str(tmp_path / "res")]) == EXIT_ANALYSIS
    err = capsys.readouterr().err
    assert "blocked down moves at k=[10]" in err and "network parameters" in err
    assert "not noise-free" not in err


def test_anchor_count_beyond_exact_weights_exits_three(tmp_path, capsys):
    config = BASE.replace("anchored_primary = 1", "anchored_primary = 10000000000000000")
    path = write_config(tmp_path, config)
    assert main(["stationary", "--config", path, "--out", str(tmp_path / "res")]) == EXIT_ANALYSIS
    err = capsys.readouterr().err
    assert "analysis error:" in err and "exceeds 2**53" in err
    assert not list((tmp_path / "res").glob("*.csv"))


# delay_weight / (capacity - arrival) overflows, so both payoffs are -inf
# and their difference NaN.  Each command used to print numpy's overflow
# and invalid-value RuntimeWarnings, then blame the kernel's up entries.
OVERFLOWING_DELAY = {
    "capacity": 1.7634464087435028e-292,
    "arrival": 1.7634457883518956e-292,
    "delay_weight": 2.179636599809657e131,
    "price_primary": -3.5180632888409746e-07,
}


@pytest.mark.parametrize("command", ["stationary", "sweep", "simulate"])
def test_overflowing_delay_is_a_named_analysis_error(tmp_path, command):
    text = economy_text(OVERFLOWING_DELAY, "type = proportional", 11, 1)
    path = write_config(tmp_path, text)
    src = str(Path(netsel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "netsel.cli", command, "--config", path, "--out", "res"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_ANALYSIS
    assert "RuntimeWarning" not in proc.stderr
    if command == "sweep":  # each point's error goes to the CSV
        assert "analysis error: every sweep point failed" in proc.stderr
        assert "the delay or a price overflows" in (tmp_path / "res" / "sweep.csv").read_text()
    else:
        assert "analysis error: the payoff difference is not finite: the delay" in proc.stderr


def test_degenerate_prices_exit_three(tmp_path, capsys):
    # delay_weight == (capacity - arrival) * price gap: 1 == 70 / 70.
    config = BASE.replace("target_share = 0.68", "price_primary = 0.014285714285714285")
    path = write_config(tmp_path, config)
    assert main(["equilibrium", "--config", path, "--quiet"]) == EXIT_ANALYSIS
    assert "analysis error: degenerate prices" in capsys.readouterr().err


# -- sweep --------------------------------------------------------------------------


def test_sweep_over_arrivals_in_the_absorbing_regime(tmp_path):
    config = BASE.replace("anchored_primary = 1", "anchored_primary = 0")
    config = config.replace("anchored_secondary = 1", "anchored_secondary = 0")
    config += "\n[sweep]\nvariable = lambda\nvalues = 30, 35\n"
    path = write_config(tmp_path, config)
    out_dir = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    header, rows = read_rows(out_dir / "sweep.csv")
    assert header == ["sweep_value", "metric", "value"]
    table = {float(r[0]): (r[1], float(r[2])) for r in rows}
    assert table[30.0][0] == "poa_absorbing"
    assert table[30.0][1] == pytest.approx(1.0976, abs=1e-3)
    assert table[35.0][1] == pytest.approx(1.1202, abs=1e-3)


def test_sweep_over_population_sizes(tmp_path):
    path = write_config(tmp_path, BASE + "\n[sweep]\nvariable = n\nvalues = 10, 100\n")
    out_dir = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, rows = read_rows(out_dir / "sweep.csv")
    values = [float(r[2]) for r in rows]
    assert all(r[1] == "poa_expected" for r in rows)
    assert values[1] < values[0]


def test_sweep_over_noise_ratios_is_monotone(tmp_path):
    path = write_config(tmp_path, BASE + "\n[sweep]\nvariable = beta_ratio\nvalues = 0, 1, 10\n")
    out_dir = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, rows = read_rows(out_dir / "sweep.csv")
    values = [float(r[2]) for r in rows]
    assert values[0] >= values[1] >= values[2]
    assert all(v >= 1.0 for v in values)


def test_stationary_and_sweep_at_ratio_2000(tmp_path):
    # At n = 50 q underflows to 0 at 29 states; the law is the product form.
    config = BASE.replace("n = 10", "n = 50").replace("beta_ratio = 1.0", "beta_ratio = 2000")
    path = write_config(tmp_path, config)
    out_dir = tmp_path / "res"
    assert main(["stationary", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    meta = read_meta(out_dir / "stationary.csv")
    assert (meta["chain_class"], meta["distribution_kind"]) == ("irreducible", "product_form")
    _, rows = read_rows(out_dir / "stationary.csv")
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-12)
    path = write_config(tmp_path, config + "\n[sweep]\nvariable = n\nvalues = 50, 200\n")
    assert main(["sweep", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, rows = read_rows(out_dir / "sweep.csv")
    assert [r[1] for r in rows] == ["poa_expected"] * 2
    assert read_meta(out_dir / "sweep.csv")["failed_points"] == 0
    # Without anchors the float chain cannot be absorbed: a named error.
    unanchored = config.replace("anchored_primary = 1", "anchored_primary = 0")
    unanchored = unanchored.replace("anchored_secondary = 1", "anchored_secondary = 0")
    path = write_config(tmp_path, unanchored)
    assert main(["stationary", "--config", path, "--out", str(tmp_path / "abs")]) == EXIT_ANALYSIS


def test_sweep_keeps_going_past_a_bad_point(tmp_path):
    path = write_config(tmp_path, BASE + "\n[sweep]\nvariable = lambda\nvalues = 30, 150\n")
    out_dir = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, rows = read_rows(out_dir / "sweep.csv")
    metrics = {float(r[0]): r[1] for r in rows}
    assert metrics[30.0] == "poa_expected"
    assert metrics[150.0] == "error"
    assert read_meta(out_dir / "sweep.csv")["failed_points"] == 1


def test_sweep_with_no_good_points_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, BASE + "\n[sweep]\nvariable = lambda\nvalues = 150, 200\n")
    out_dir = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_ANALYSIS
    assert "every sweep point failed" in capsys.readouterr().err


def test_sweep_without_its_section_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["sweep", "--config", path, "--quiet"]) == EXIT_CONFIG
    assert "[sweep]" in capsys.readouterr().err


# -- simulate -----------------------------------------------------------------------


SIM = BASE + """
[simulation]
seed = 9
steps = 20000
replicas = 2
initial_state = 5
trajectory_decimation = 500
"""


@pytest.mark.parametrize(
    "text, message",
    [
        ("capacity = 100\n" + SIM, "malformed config file"),
        (SIM.replace("capacity = 100\n", ""), "missing required key 'capacity' in section [network]"),
        (SIM.replace("n = 10", "n = 1"), "[population]: population needs at least 2 genuine users"),
        (SIM.replace("beta_ratio = 1.0", "beta_ratio = 1.0\nscale = 2"), "fermi takes beta keys"),
        (SIM.replace("type = fermi", "type = moran"), "unknown type 'moran'"),
        (SIM.replace("decimation = 500", "decimation = 0"), "trajectory_decimation must be >= 1"),
    ],
    ids=["no-section-header", "missing-key", "one-user", "fermi-scale", "unknown-rule", "decimation-zero"],
)
def test_config_mistakes_exit_two_with_their_message(tmp_path, capsys, text, message):
    out_dir = tmp_path / "res"
    path = write_config(tmp_path, text)
    assert main(["simulate", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out_dir.exists()


def test_simulate_out_of_memory_is_an_analysis_error(tmp_path, capsys, monkeypatch):
    # A trajectory too long to keep: numpy raises MemoryError, naming the array.
    def refuse(*_, **__):
        raise MemoryError("Unable to allocate 728. TiB for an array with shape (100000000000001,)")

    monkeypatch.setattr(netsel.montecarlo, "run", refuse)
    out_dir = tmp_path / "res"
    path = write_config(tmp_path, SIM)
    assert main(["simulate", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_ANALYSIS
    assert capsys.readouterr() == (
        "", "analysis error: out of memory: Unable to allocate 728. TiB for an array with shape "
        "(100000000000001,)\n"
    )
    assert not out_dir.exists()


def test_simulate_writes_histogram_and_trajectory(tmp_path):
    path = write_config(tmp_path, SIM)
    out_dir = tmp_path / "res"
    assert main(["simulate", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    header, rows = read_rows(out_dir / "histogram.csv")
    assert header == ["k", "count", "frequency"]
    counts = [int(r[1]) for r in rows]
    # burn-in resolves to min(10 * n^2, steps // 2) = 1000 per replica
    assert sum(counts) == (20000 - 1000) * 2
    freqs = [float(r[2]) for r in rows]
    assert sum(freqs) == pytest.approx(1.0, abs=1e-9)
    theader, trows = read_rows(out_dir / "trajectory.csv")
    assert theader == ["event", "k"]
    assert [int(r[0]) for r in trows] == list(range(0, 20001, 500))
    meta = read_meta(out_dir / "histogram.csv")
    assert meta["burn_in"] == 1000
    assert 0.0 <= meta["tv_to_analytic"] < 0.2
    assert len(meta["final_states"]) == 2


def test_simulate_is_deterministic(tmp_path):
    path = write_config(tmp_path, SIM)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert main(["simulate", "--config", path, "--out", str(d), "--quiet"]) == EXIT_OK
    for name in ("histogram.csv", "trajectory.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_seed_flag_overrides_the_config(tmp_path):
    path = write_config(tmp_path, SIM)
    base_dir, seeded_dir = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(base_dir), "--quiet"]) == EXIT_OK
    assert (
        main(["simulate", "--config", path, "--out", str(seeded_dir), "--seed", "10", "--quiet"])
        == EXIT_OK
    )
    assert (base_dir / "histogram.csv").read_bytes() != (seeded_dir / "histogram.csv").read_bytes()
    assert read_meta(seeded_dir / "histogram.csv")["seed"] == 10


def test_seed_flag_belongs_to_simulate_only(tmp_path):
    # Only simulate draws random numbers; elsewhere --seed would be ignored.
    path = write_config(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--config", path, "--seed", "1"])
    assert exc.value.code == 2


def test_simulate_start_beyond_the_population_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, SIM.replace("initial_state = 5", "initial_state = 50"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "res")]) == EXIT_ANALYSIS
    assert "analysis error: initial_state 50 exceeds" in capsys.readouterr().err


def test_simulate_builds_the_kernel_once(tmp_path, monkeypatch):
    import netsel.chain

    calls = []
    real = netsel.chain.build_kernel
    monkeypatch.setattr(netsel.chain, "build_kernel", lambda *a: calls.append(a) or real(*a))
    path = write_config(tmp_path, SIM)
    out_dir = tmp_path / "res"
    assert main(["simulate", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    assert len(calls) == 1


# -- replicator ---------------------------------------------------------------------


def test_replicator_converges_to_the_equilibrium_share(tmp_path):
    path = write_config(tmp_path, BASE + "\n[replicator]\ninitial_share = 0.2\nrtol = 1e-10\n")
    out_dir = tmp_path / "res"
    assert main(["replicator", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    header, rows = read_rows(out_dir / "replicator.csv")
    assert header == ["time", "x_p"]
    assert float(rows[0][1]) == pytest.approx(0.2)
    assert float(rows[-1][1]) == pytest.approx(0.68, abs=1e-6)
    meta = read_meta(out_dir / "replicator.csv")
    assert meta["converged"] is True
    assert meta["fixed_point"] == pytest.approx(0.68, abs=1e-6)


def test_replicator_bad_start_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, BASE + "\n[replicator]\ninitial_share = 1.0\n")
    assert main(["replicator", "--config", path, "--quiet"]) == EXIT_CONFIG


@pytest.mark.parametrize("rtol", ["inf", "0", "-1", "nan"])
def test_replicator_bad_tolerance_is_a_config_error(tmp_path, capsys, rtol):
    text = BASE + f"\n[replicator]\ninitial_share = 0.2\nrtol = {rtol}\n"
    out_dir = tmp_path / "res"
    path = write_config(tmp_path, text)
    assert main(["replicator", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_CONFIG
    assert "rtol must be positive and finite" in capsys.readouterr().err
    assert not (out_dir / "replicator.csv").exists()


NEXT_TO_CAPACITY = f"capacity = 1.59e-11\narrival = {1.59e-11 * (1 - 1.6e-11)!r}\ntarget_share = 1e-6"


@pytest.mark.parametrize(
    "network, rtol",
    [
        # the old integrator refused this rtol: no run could settle, one grew past 2 GB
        ("capacity = 1\narrival = 0.99\ndelay_weight = 10\ntarget_share = 0.5", "1e-13"),
        # and this default one: the field in floats is rounding noise near capacity
        (NEXT_TO_CAPACITY, "1e-8"),
    ],
    ids=["rtol-1e-13", "load-next-to-capacity"],
)
def test_replicator_settles_where_the_old_integrator_refused(tmp_path, network, rtol):
    text = BASE.replace("capacity = 100\narrival = 30\ntarget_share = 0.68", network)
    path = write_config(tmp_path, text + f"\n[replicator]\ninitial_share = 0.2\nrtol = {rtol}\n")
    out_dir = tmp_path / "res"
    assert main(["replicator", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    assert read_meta(out_dir / "replicator.csv")["converged"] is True


# -- reproduce ----------------------------------------------------------------------


def test_reproduce_two_point_figure(tmp_path):
    out_dir = tmp_path / "figs"
    assert main(["reproduce", "--figure", "fig1a", "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, rows = read_rows(out_dir / "fig1a.csv")
    psi = {int(k): float(p) for k, p in rows}
    assert psi[6] + psi[7] == pytest.approx(1.0, abs=1e-12)
    meta = read_meta(out_dir / "fig1a.csv")
    assert meta["network"]["price_gap"] == pytest.approx(0.0017229002153625265, rel=1e-12)
    assert meta["equilibrium_marker"] == pytest.approx(6.8, abs=1e-9)


def test_reproduce_absorbing_poa_curve(tmp_path):
    out_dir = tmp_path / "figs"
    assert main(["reproduce", "--figure", "fig2b", "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, rows = read_rows(out_dir / "fig2b.csv")
    table = {float(r[0]): float(r[2]) for r in rows}
    assert table[30.0] == pytest.approx(1.0976, abs=1e-3)
    assert table[35.0] == pytest.approx(1.1202, abs=1e-3)


def test_reproduce_noise_comparison_figure(tmp_path):
    out_dir = tmp_path / "figs"
    assert main(["reproduce", "--figure", "fig3a", "--out", str(out_dir), "--quiet"]) == EXIT_OK
    _, dist_rows = read_rows(out_dir / "fig3a_distributions.csv")
    assert len(dist_rows) == 3 * 11
    _, summary_rows = read_rows(out_dir / "fig3a_summary.csv")
    poa = [float(r[2]) for r in summary_rows if r[1] == "poa_expected"]
    assert len(poa) == 3
    assert poa[0] >= poa[1] >= poa[2]


def test_reproduce_all_with_gnuplot_stubs(tmp_path):
    out_dir = tmp_path / "figs"
    assert main(
        ["reproduce", "--figure", "all", "--gnuplot", "--out", str(out_dir), "--quiet"]
    ) == EXIT_OK
    expected = [
        "fig1a.csv",
        "fig1b.csv",
        "fig2a_absorption.csv",
        "fig2a_distribution.csv",
        "fig2b.csv",
        "fig3a_distributions.csv",
        "fig3a_summary.csv",
        "fig3b_distributions.csv",
        "fig3b_summary.csv",
    ]
    for name in expected:
        assert (out_dir / name).exists(), name
        assert (out_dir / (Path(name).stem + ".meta.json")).exists(), name
    for fig in ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b"):
        assert (out_dir / f"{fig}.gp").exists()


# -- output directory resolution ------------------------------------------------------


@pytest.mark.parametrize(
    "command, text, code",
    [
        ("replicator", BASE + "\n[replicator]\ninitial_share = 0.2\nrtol = nan\n", EXIT_CONFIG),
        ("simulate", SIM.replace("initial_state = 5", "initial_state = 50"), EXIT_ANALYSIS),
        ("sweep", BASE + "\n[sweep]\nvariable = n\nvalues = inf\n", EXIT_CONFIG),
        ("sweep", BASE + "\n[sweep]\nvariable = n\nstart = 2\nstop = 1e300\nstep = 1\n", EXIT_CONFIG),
        ("sweep", RATIO_OF_PROPORTIONAL, EXIT_CONFIG),
        ("sweep", RATIO_OF_ABSOLUTE, EXIT_CONFIG),
        ("stationary", SINGULAR_ABSORPTION, EXIT_ANALYSIS),
    ],
    ids=[
        "replicator-nan-rtol", "simulate-start-beyond-n", "sweep-infinite-n", "sweep-huge-grid",
        "sweep-ratio-of-proportional", "sweep-ratio-of-absolute", "stationary-singular-absorption",
    ],
)
def test_failed_command_leaves_no_output_directory(tmp_path, command, text, code):
    out_dir = tmp_path / "res"
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out", str(out_dir), "--quiet"]) == code
    assert not out_dir.exists()


def test_failed_figure_leaves_no_output_directory(tmp_path, monkeypatch, capsys):
    # Every figure is computed before the first file is written.
    import netsel.cli

    def fail(*_):
        raise ValueError("figure failed")

    last = list(netsel.cli._FIGURES)[-1]
    monkeypatch.setitem(netsel.cli._FIGURES, last, (fail, netsel.cli._FIGURES[last][1]))
    out_dir = tmp_path / "figs"
    assert main(["reproduce", "--figure", "all", "--out", str(out_dir)]) == EXIT_ANALYSIS
    assert capsys.readouterr() == ("", "analysis error: figure failed\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file-exists", "not-a-directory"])
@pytest.mark.parametrize(
    "argv", [["stationary", "--config"], ["reproduce", "--figure", "fig1a"]], ids=["config", "reproduce"]
)
def test_unwritable_output_location_is_a_config_error(tmp_path, capsys, argv, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    if argv[0] == "stationary":
        argv = [*argv, write_config(tmp_path, BASE)]
    assert main([*argv, "--out", str(blocker / below), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot write {blocker / below}")
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_environment_variable_sets_the_output_directory(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("NETSEL_OUT_DIR", str(env_dir))
    path = write_config(tmp_path, BASE)
    assert main(["equilibrium", "--config", path, "--quiet"]) == EXIT_OK
    assert (env_dir / "equilibrium.csv").exists()


def test_out_flag_beats_the_environment(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("NETSEL_OUT_DIR", str(env_dir))
    path = write_config(tmp_path, BASE)
    assert main(["equilibrium", "--config", path, "--out", str(flag_dir), "--quiet"]) == EXIT_OK
    assert (flag_dir / "equilibrium.csv").exists()
    assert not (env_dir / "equilibrium.csv").exists()


def test_config_directory_beats_the_environment(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    cfg_dir = tmp_path / "from_config"
    monkeypatch.setenv("NETSEL_OUT_DIR", str(env_dir))
    path = write_config(tmp_path, BASE + f"\n[output]\ndirectory = {cfg_dir}\n")
    assert main(["stationary", "--config", path, "--quiet"]) == EXIT_OK
    assert (cfg_dir / "stationary.csv").exists()
    assert not (env_dir / "stationary.csv").exists()


# -- extreme economies ----------------------------------------------------------------


def economy_text(network, rule, n, anchors):
    """A config for every command over one economy; the sweep halves its arrival.

    The replicator runs at its default rtol.
    """
    return (
        "[network]\n" + "".join(f"{key} = {value!r}\n" for key, value in network.items())
        + f"[population]\nn = {n}\nanchored_primary = {anchors}\nanchored_secondary = {anchors}\n"
        + f"[rule]\n{rule}\n[simulation]\nsteps = 200\n[replicator]\ninitial_share = 0.2\n"
        + f"[sweep]\nvariable = lambda\nvalues = {network['arrival']!r}, {network['arrival'] / 2!r}\n"
    )


def powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def extreme_networks(draw):
    capacity = draw(powers_of_ten(-300, 300))
    load = draw(st.one_of(powers_of_ten(-300, 0), powers_of_ten(-15, 0).map(lambda e: 1.0 - e)))
    return {
        "capacity": capacity,
        "arrival": capacity * min(load, 1.0 - 1e-15),
        "delay_weight": draw(powers_of_ten(-300, 300)),
    }


@st.composite
def extreme_economies(draw):
    network = draw(extreme_networks())
    if draw(st.booleans()):
        network["target_share"] = draw(st.floats(1e-6, 1.0))
    else:
        network["price_primary"] = draw(st.sampled_from([-1.0, 1.0])) * draw(powers_of_ten(-300, 300))
    ratio = draw(st.sampled_from([None, 0.0, 1.0, 2000.0]))
    rule = "type = proportional" if ratio is None else f"type = fermi\nbeta_ratio = {ratio!r}"
    return economy_text(network, rule, draw(st.integers(2, 12)), draw(st.integers(0, 1)))


FERMI = "type = fermi\nbeta_ratio = 1.0"


# S_min, the calibration denominator and beta_reference round to 0; the
# replicator's squared slack underflows.  Each used to end in a traceback.
@settings(max_examples=200, deadline=None, database=None)
@given(extreme_economies())
@example(economy_text({"capacity": 100.0, "arrival": 1e-14, "target_share": 0.68}, FERMI, 10, 1))
@example(economy_text({"capacity": 1e-300, "arrival": 5e-301, "target_share": 0.68}, FERMI, 10, 1))
@example(economy_text({"capacity": 1e-200, "arrival": 5e-201, "price_primary": 1e-200}, FERMI, 10, 1))
@example(economy_text({"capacity": 1.0, "arrival": 1e-17}, FERMI, 10, 1))
@example(economy_text({"capacity": 1.0, "arrival": 1e-17}, FERMI, 10, 0))
@example(economy_text(OVERFLOWING_DELAY, "type = proportional", 11, 1))
def test_every_command_exits_with_a_code_on_extreme_economies(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), text)
        for command in ("equilibrium", "stationary", "sweep", "simulate", "replicator"):
            code = main([command, "--config", config, "--out", str(Path(tmp) / "out"), "--quiet"])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ANALYSIS), command


def true_optimal_share(capacity, arrival):
    with mp.workdps(50):
        cap, lam = mp.mpf(capacity), mp.mpf(arrival)
        return float(cap / (cap + mp.sqrt(cap * (cap - lam))))  # (C - root) / lam, uncancelled


def optimal_share_bound(capacity, arrival):
    """(C - sqrt(C (C - lam))) / lam with its root to 2 eps: the numerator
    cancels, so its error is up to 4 eps C / lam.  Below a load of 2^-6,
    where x_opt is taken as C / (C + sqrt(C (C - lam))), nothing cancels."""
    return 4 * 2.0**-53 * (capacity / arrival if arrival >= capacity * 2.0**-6 else 1.0)


# C (C - lam) overflows above a capacity of about 1.3e154 and leaves the
# normal range below about 1.5e-154; either used to give a wrong x_opt.
@settings(max_examples=300, deadline=None, database=None)
@given(extreme_networks())
@example({"capacity": 1e200, "arrival": 3e199, "delay_weight": 1.0})
@example({"capacity": 1e-200, "arrival": 5e-201, "delay_weight": 1.0})
@example({"capacity": 1e-160, "arrival": 3e-161, "delay_weight": 1.0})
@example({"capacity": 1.0, "arrival": 1e-12, "delay_weight": 1.0})
@example({"capacity": 1.0, "arrival": 1e-17, "delay_weight": 1.0})
@example({"capacity": 64.0, "arrival": 1.0, "delay_weight": 1.0})
def test_social_optimum_matches_mpmath_on_extreme_economies(network):
    capacity, arrival = network["capacity"], network["arrival"]
    assume(0.0 < arrival < capacity)
    x_opt, _ = model.social_optimum(model.NetworkParams(capacity, arrival))
    want = true_optimal_share(capacity, arrival)
    assert abs(x_opt - want) <= optimal_share_bound(capacity, arrival)


@pytest.mark.parametrize(
    "capacity, arrival, price",
    [(1e200, 3e199, 1e-201), (1e-200, 5e-201, 1e-201), (1e-160, 3e-161, 1e-161), (1.0, 1e-12, 1e-13)],
)
def test_equilibrium_writes_the_optimal_share_of_an_extreme_economy(
    tmp_path, capacity, arrival, price
):
    text = BASE.replace(
        "capacity = 100\narrival = 30\ntarget_share = 0.68",
        f"capacity = {capacity!r}\narrival = {arrival!r}\nprice_primary = {price!r}",
    )
    out_dir = tmp_path / "res"
    path = write_config(tmp_path, text)
    assert main(["equilibrium", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    table = {name: float(value) for name, value in read_rows(out_dir / "equilibrium.csv")[1]}
    want = true_optimal_share(capacity, arrival)
    assert abs(table["optimal_share"] - want) <= optimal_share_bound(capacity, arrival)


# -- cold start -----------------------------------------------------------------------

COLD_START = """
import sys
from netsel.cli import main
config, unanchored, out = sys.argv[1:]
for command in ("equilibrium", "stationary", "sweep", "simulate", "replicator"):
    assert main([command, "--config", config, "--out", out, "--quiet"]) == 0, command
assert main(["stationary", "--config", unanchored, "--out", out, "--quiet"]) == 0
assert main(["reproduce", "--figure", "all", "--out", out, "--quiet"]) == 0
from netsel import chain, model, montecarlo, protocols, replicator
params = model.NetworkParams(100.0, 30.0, 1.0, model.calibrate_price_gap(100.0, 30.0, 1.0, 0.68), 0.0)
def kernel(n, anchors):
    population = chain.PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    return chain.build_kernel(params, population, protocols.fermi_from_ratio(params, n, 1.0))
assert chain.stationary_eigen(kernel(1000, 1)).kind == "eigenvector"
assert chain.absorption_table(kernel(50, 0)).shape == (51, 3)
montecarlo.run(montecarlo.SimulationSpec(seed=1, steps=2000, replicas=2), kernel(20, 1))
assert replicator.integrate(params, 0.2).converged
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_numpy_only_commands_never_load_scipy(tmp_path):
    # Nothing in netsel loads scipy: the replicator flow is in closed form,
    # absorption tables are solved by its own elimination and
    # stationary_eigen's balance blocks by its own cyclic reduction.  A
    # fresh interpreter that runs every command and then each of those
    # library routes must not pay for scipy's import anywhere.
    path = write_config(
        tmp_path,
        SIM + "\n[sweep]\nvariable = lambda\nvalues = 30, 35\n[replicator]\ninitial_share = 0.2\n",
    )
    unanchored = write_config(tmp_path, UNANCHORED, name="unanchored.ini")
    src = str(Path(netsel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, path, unanchored, str(tmp_path / "res")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for name in ("histogram.csv", "absorption.csv", "fig2a_absorption.csv", "replicator.csv"):
        assert (tmp_path / "res" / name).exists(), name


LOADED = """
import json, sys, types
from netsel.cli import main
if sys.argv[1:]:
    try:
        assert main(sys.argv[1:]) == 0
    except SystemExit as exc:  # --version prints and exits
        assert exc.code == 0
run = {name: type(sys.modules["netsel." + name]) is types.ModuleType for name in ("montecarlo", "replicator")}
print(json.dumps({"numpy": "numpy" in sys.modules, "numpy.random": "numpy.random" in sys.modules, **run}))
"""
# What a step loads: numpy, numpy.random, and which of montecarlo and
# replicator ran (a layer not yet used is registered but not executed).
NOTHING = {"numpy": False, "numpy.random": False, "montecarlo": False, "replicator": False}
ARRAYS = {**NOTHING, "numpy": True}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], NOTHING),
        (["--version"], NOTHING),
        (["equilibrium", "--config", "{config}"], NOTHING),
        (["stationary", "--config", "{config}"], ARRAYS),
        (["stationary", "--config", "{unanchored}"], ARRAYS),
        (["sweep", "--config", "{config}"], ARRAYS),
        (["reproduce", "--figure", "all"], ARRAYS),
        (["simulate", "--config", "{config}"], {**ARRAYS, "numpy.random": True, "montecarlo": True}),
        (["replicator", "--config", "{config}"], {**ARRAYS, "replicator": True}),
    ],
    ids=["import", "version", "equilibrium", "stationary", "absorbing", "sweep", "reproduce",
         "simulate", "replicator"],
)  # fmt: skip
def test_each_command_loads_only_the_layers_it_uses(tmp_path, argv, loaded):
    # A fresh interpreter per step: equilibrium and --version never pay for
    # numpy, and only the commands that sample or integrate run those layers.
    path = write_config(
        tmp_path,
        SIM + "\n[sweep]\nvariable = lambda\nvalues = 30, 35\n[replicator]\ninitial_share = 0.2\n",
    )
    unanchored = write_config(tmp_path, UNANCHORED, name="unanchored.ini")
    argv = [arg.format(config=path, unanchored=unanchored) for arg in argv]
    if argv[1:]:
        argv += ["--out", str(tmp_path / "res"), "--quiet"]
    src = str(Path(netsel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded
