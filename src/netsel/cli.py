"""Command-line front end: experiments in, CSV plus JSON metadata out.

Subcommands: ``equilibrium``, ``stationary``, ``sweep``, ``simulate``,
``replicator`` (all driven by an INI config file) and ``reproduce``
(built-in figure datasets).  Every CSV gets a sidecar ``.meta.json``
recording the full parameter provenance, and outputs are deterministic:
the same config and seed always produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 analysis-domain error
(e.g. asking for a stationary law of a chain that has none).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import __version__, chain, model, montecarlo, protocols, replicator
from .config import ConfigError, ExperimentConfig, parse_config
from .model import NetworkParams, PopulationConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ANALYSIS = 3

OUT_DIR_ENV = "NETSEL_OUT_DIR"


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _resolve_out_dir(
    args: argparse.Namespace, config: ExperimentConfig | None, optional: bool = False
) -> Path | None:
    """--out flag beats the config's [output] directory beats $NETSEL_OUT_DIR
    beats the working directory, or None instead when ``optional``.  The
    directory is made by the first file written into it, so a command
    that fails leaves none behind."""
    if getattr(args, "out", None):
        return Path(args.out)
    if config is not None and config.output_directory():
        return Path(config.output_directory())
    if os.environ.get(OUT_DIR_ENV):
        return Path(os.environ[OUT_DIR_ENV])
    return None if optional else Path.cwd()


def _sidecar(
    command: str,
    config: ExperimentConfig | None,
    params: NetworkParams | None = None,
    population: PopulationConfig | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """A ``.meta.json`` body: package, command, the parsed config, the
    economy with its price gap and the population, then ``extra``."""
    meta = {"package": "netsel", "version": __version__, "command": command, **extra}
    if config is not None:
        meta["config"] = config.as_dict()
    if params is not None:
        meta["network"] = {**dataclasses.asdict(params), "price_gap": params.price_gap}
    if population is not None:
        meta["population"] = dataclasses.asdict(population)
    return meta


def _emit(
    args: argparse.Namespace,
    config: ExperimentConfig | None,
    lines: Iterable[str],
    files: Iterable[tuple[str, Any]],
) -> None:
    """The one output path, once a command has computed everything: print
    ``lines``, then write each (name, gnuplot stub) or (name, (header, rows,
    sidecar)) of ``files`` into the output directory and say so; --quiet
    silences the console.  An unwritable location is a ConfigError."""
    for line in lines:
        if not args.quiet:
            print(line)
    out_dir = _resolve_out_dir(args, config)
    for name, body in files:
        path = out_dir / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(body, str):
                path.write_text(body, encoding="utf-8")
            else:
                header, rows, meta = body
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(header)
                    writer.writerows(rows)
                text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
                path.with_name(path.stem + ".meta.json").write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None
        if not args.quiet:
            print(f"wrote {path}")


def _absorption(kernel: chain.TransitionKernel, meta: dict[str, Any]) -> tuple:
    """The exact absorption report of an absorbing chain, one row per start."""
    rows = [(k0, *row) for k0, row in enumerate(chain.absorption_table(kernel).tolist())]
    return ("k0", "prob_absorb_at_0", "prob_absorb_at_n", "expected_steps"), rows, meta


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_equilibrium(config: ExperimentConfig, args: argparse.Namespace) -> None:
    params = config.network_params()
    population = config.population()
    info = model.equilibrium(params)
    k_star = model.critical_state(params, population.n)
    welfare_eq = model.social_welfare(params, info.share_primary)
    x_opt, s_min = model.social_optimum(params)
    poa = model.poa_at(params, info.share_primary)
    lines = [
        f"equilibrium share x_p      = {info.share_primary!r}",
        f"equilibrium rate           = {info.rate_primary!r}",
        f"boundary equilibrium       = {info.boundary}",
        f"critical state k* (n={population.n})  = {k_star}",
        f"welfare at equilibrium     = {welfare_eq!r}",
        f"optimal share              = {x_opt!r}",
        f"minimal welfare            = {s_min!r}",
        f"price of anarchy           = {poa!r}",
    ]
    rows = [
        ("share_primary", info.share_primary),
        ("rate_primary", info.rate_primary),
        ("boundary", int(info.boundary)),
        ("critical_state", k_star),
        ("welfare_equilibrium", welfare_eq),
        ("optimal_share", x_opt),
        ("welfare_minimum", s_min),
        ("poa", poa),
    ]
    meta = _sidecar("equilibrium", config, params, population)
    # Written only where an output location is given.
    table = ("equilibrium.csv", (("quantity", "value"), rows, meta))
    _emit(args, config, lines, [table] if _resolve_out_dir(args, config, optional=True) else [])


def cmd_stationary(config: ExperimentConfig, args: argparse.Namespace) -> None:
    params = config.network_params()
    population = config.population()
    kernel = chain.build_kernel(params, population, config.rule(params, population.n))
    structure, distribution = chain.long_run(kernel)
    meta = _sidecar(
        "stationary", config, params, population, rule=repr(kernel.rule), chain_class=structure.kind
    )
    if distribution is None:
        # No stationary law: report exact absorption behaviour instead.
        meta["note"] = "absorbing chain; rows give exact absorption from each start"
        line = "chain is absorbing: no stationary law exists; writing absorption report instead"
        _emit(args, config, [line], [("absorption.csv", _absorption(kernel, meta))])
        return
    mode = chain.distribution_mode(distribution)
    poa_e = model.expected_poa(params, distribution)
    meta.update(distribution_kind=distribution.kind, mode=list(mode), expected_poa=poa_e)
    lines = [
        f"stationary law kind = {distribution.kind}",
        f"mode states         = {list(mode)}",
        f"expected poa        = {poa_e!r}",
    ]
    rows = [(k, float(p)) for k, p in enumerate(distribution.psi)]
    _emit(args, config, lines, [("stationary.csv", (("k", "psi"), rows, meta))])


def _sweep_point(config: ExperimentConfig) -> tuple[str, float]:
    """Evaluate one sweep point; returns (metric name, metric value)."""
    params = config.network_params()
    population = config.population()
    rule = config.rule(params, population.n)
    _, distribution = chain.long_run(chain.build_kernel(params, population, rule))
    if distribution is None:
        return "poa_absorbing", model.poa_absorbing(params)
    return "poa_expected", model.expected_poa(params, distribution)


def cmd_sweep(config: ExperimentConfig, args: argparse.Namespace) -> None:
    sweep = config.sweep()
    if sweep is None:
        raise ConfigError("sweep command needs a [sweep] section")
    rows: list[tuple[Any, ...]] = []
    for value in sweep.values:
        try:
            rows.append((value, *_sweep_point(config.swept(sweep.variable, value))))
        except (ConfigError, ValueError) as exc:
            rows.append((value, "error", str(exc)))
    failed = sum(row[1] == "error" for row in rows)
    meta = _sidecar(
        "sweep", config, variable=sweep.variable, points=len(rows), failed_points=failed
    )
    _emit(args, config, [], [("sweep.csv", (("sweep_value", "metric", "value"), rows, meta))])
    if failed == len(rows):
        raise ValueError("every sweep point failed")


def cmd_simulate(config: ExperimentConfig, args: argparse.Namespace) -> None:
    params = config.network_params()
    population = config.population()
    rule = config.rule(params, population.n)
    spec = config.simulation_spec(seed_override=args.seed)
    decimation = config.trajectory_decimation()
    kernel = chain.build_kernel(params, population, rule)
    result = montecarlo.run(spec, kernel, trajectory_decimation=decimation)
    try:
        structure, analytic = chain.long_run(kernel)
        chain_class = structure.kind
    except ValueError:
        # long_run refuses only chains that are neither irreducible nor absorbing.
        chain_class, analytic = "other", None
    if analytic is None:
        tv, line = None, "no analytic stationary law for this chain; skipping TV comparison"
    else:
        tv = chain.total_variation(result.histogram.to_distribution(), analytic)
        line = f"tv distance to analytic law = {tv!r}"
    meta = _sidecar(
        "simulate",
        config,
        params,
        population,
        rule=repr(rule),
        chain_class=chain_class,
        seed=spec.seed,
        steps=spec.steps,
        burn_in=spec.resolve_burn_in(population.n),
        replicas=spec.replicas,
        initial_state=spec.initial_state,
        trajectory_decimation=decimation,
        tv_to_analytic=tv,
        final_states=result.final_states.tolist(),
    )
    freqs = result.histogram.frequencies()
    hist_rows = [
        (k, int(c), float(f))
        for k, (c, f) in enumerate(zip(result.histogram.counts, freqs))
    ]
    files = [("histogram.csv", (("k", "count", "frequency"), hist_rows, meta))]
    if result.trajectory is not None:
        files.append(("trajectory.csv", (("event", "k"), result.trajectory.tolist(), meta)))
    _emit(args, config, [line], files)


def cmd_replicator(config: ExperimentConfig, args: argparse.Namespace) -> None:
    params = config.network_params()
    settings = config.replicator_settings()
    try:
        result = replicator.integrate(params, **settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [f"fixed point = {result.fixed_point!r}", f"converged   = {result.converged}"]
    meta = _sidecar(
        "replicator",
        config,
        params,
        settings=settings,
        fixed_point=result.fixed_point,
        converged=result.converged,
    )
    table = (("time", "x_p"), result.trajectory.tolist(), meta)
    _emit(args, config, lines, [("replicator.csv", table)])


# ---------------------------------------------------------------------------
# Figure reproduction
# ---------------------------------------------------------------------------

# Shared environment of all built-in figure datasets: a channel of
# capacity 100, unit delay weight, and the price gap calibrated so the
# equilibrium share sits at 0.68 (giving critical state 7 when n = 10).
_FIG_CAPACITY = 100.0
_FIG_ARRIVAL = 30.0
_FIG_DELAY_WEIGHT = 1.0
_FIG_TARGET_SHARE = 0.68


def _figure_params(arrival: float = _FIG_ARRIVAL) -> NetworkParams:
    gap = model.calibrate_price_gap(_FIG_CAPACITY, arrival, _FIG_DELAY_WEIGHT, _FIG_TARGET_SHARE)
    return NetworkParams(_FIG_CAPACITY, arrival, _FIG_DELAY_WEIGHT, price_primary=gap)


def _figure_meta(population: PopulationConfig | None = None, **extra: Any) -> dict[str, Any]:
    return _sidecar(
        "reproduce",
        None,
        _figure_params(),
        population,
        target_share=_FIG_TARGET_SHARE,
        note="price gap calibrated so the equilibrium share is 0.68",
        **extra,
    )


def _fig1a() -> list[tuple[str, Any]]:
    """Two-point noise-free law over 10 users, with the equilibrium marker."""
    params = _figure_params()
    population = PopulationConfig(n=10)
    rule = protocols.PairwiseProportional()
    _, distribution = chain.long_run(chain.build_kernel(params, population, rule))
    rows = [(k, float(p)) for k, p in enumerate(distribution.psi)]
    meta = _figure_meta(
        population,
        figure="fig1a",
        rule="proportional (noise-free)",
        critical_state=model.critical_state(params, population.n),
        equilibrium_marker=population.n * model.equilibrium(params).share_primary,
    )
    return [("fig1a.csv", (("k", "psi"), rows, meta))]


def _fig1b() -> list[tuple[str, Any]]:
    """Expected PoA of the noise-free law vs. arrival, n = 10 and n = 100.

    The price gap is recalibrated at every arrival so the equilibrium
    share stays at 0.68 and the critical state stays interior.
    """
    rows = []
    for arrival in (float(a) for a in range(5, 96, 5)):
        params = _figure_params(arrival=arrival)
        for n in (10, 100):
            population, rule = PopulationConfig(n=n), protocols.PairwiseProportional()
            _, distribution = chain.long_run(chain.build_kernel(params, population, rule))
            poa_e = model.expected_poa(params, distribution)
            rows.append((arrival, f"poa_expected_n{n}", poa_e))
        rows.append((arrival, "poa_nash", model.poa_at(params, _FIG_TARGET_SHARE)))
    meta = _figure_meta(
        figure="fig1b",
        rule="proportional (noise-free)",
        populations=[10, 100],
        note_sweep="gap recalibrated per arrival to hold the equilibrium share at 0.68",
    )
    return [("fig1b.csv", (("sweep_value", "metric", "value"), rows, meta))]


def _fig2a() -> list[tuple[str, Any]]:
    """Absorbing-case illustration: exact absorption report for the
    unanchored noisy chain, plus the all-primary point mass it ends in."""
    params = _figure_params()
    population = PopulationConfig(n=10)
    ratio = 1.0
    rule = protocols.fermi_from_ratio(params, population.n, ratio)
    kernel = chain.build_kernel(params, population, rule)
    meta = _figure_meta(
        population,
        figure="fig2a",
        rule=repr(rule),
        beta_ratio=ratio,
        note_rule="noise intensity ratio 1.0 chosen for the illustration and recorded here",
    )
    # The illustrated long-run outcome: everyone on the primary network.
    point_mass = [(k, 1.0 if k == population.n else 0.0) for k in range(population.n + 1)]
    return [
        ("fig2a_absorption.csv", _absorption(kernel, meta)),
        ("fig2a_distribution.csv", (("k", "psi"), point_mass, meta)),
    ]


def _fig2b() -> list[tuple[str, Any]]:
    """Closed-form absorbing-case PoA as the arrival rate fills the channel."""
    rows = []
    for arrival in (float(a) for a in range(1, 100)):
        rows.append((arrival, "poa_absorbing", model.poa_absorbing(_figure_params(arrival))))
    meta = _figure_meta(figure="fig2b")
    return [("fig2b.csv", (("sweep_value", "metric", "value"), rows, meta))]


def _law_summary(value: float, params: NetworkParams, distribution: Any, *moments: Any) -> list:
    """The fig3 summary rows of one law: its expected PoA, the (name,
    value) ``moments``, then the low and high ends of its mode."""
    mode = chain.distribution_mode(distribution)
    return [
        (value, "poa_expected", model.expected_poa(params, distribution)),
        *((value, name, moment) for name, moment in moments),
        (value, "mode_low", mode[0]),
        (value, "mode_high", mode[-1]),
    ]


def _fig3a() -> list[tuple[str, Any]]:
    """Anchored stationary laws at noise ratios 0, 1, 10 over 10 users."""
    params = _figure_params()
    population = PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1)
    ratios = (0.0, 1.0, 10.0)
    dist_rows = []
    summary_rows = []
    for ratio in ratios:
        rule = protocols.fermi_from_ratio(params, population.n, ratio)
        _, distribution = chain.long_run(chain.build_kernel(params, population, rule))
        dist_rows += [(ratio, k, float(p)) for k, p in enumerate(distribution.psi)]
        summary_rows += _law_summary(ratio, params, distribution)
    meta = _figure_meta(
        population,
        figure="fig3a",
        beta_ratios=list(ratios),
        beta_reference=protocols.beta_reference(params, population.n),
    )
    return [
        ("fig3a_distributions.csv", (("beta_ratio", "k", "psi"), dist_rows, meta)),
        ("fig3a_summary.csv", (("sweep_value", "metric", "value"), summary_rows, meta)),
    ]


def _fig3b() -> list[tuple[str, Any]]:
    """Anchored stationary laws at ratio 1 for n = 10, 100, 1000, with a
    matched-moment Gaussian overlay per population size."""
    import numpy as np  # here, as the scalar commands need no numpy
    sizes = (10, 100, 1000)
    ratio = 1.0
    dist_rows = []
    summary_rows = []
    for n in sizes:
        params = _figure_params()
        population = PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
        rule = protocols.fermi_from_ratio(params, n, ratio)
        _, distribution = chain.long_run(chain.build_kernel(params, population, rule))
        states = np.arange(n + 1)
        mean = model._chunked_dot(distribution.psi, lambda lo, hi: states[lo:hi])
        var = model._chunked_dot(distribution.psi, lambda lo, hi: (states[lo:hi] - mean) ** 2)
        sd = math.sqrt(var)
        gauss = np.exp(-((states - mean) ** 2) / (2.0 * var)) / (sd * math.sqrt(2.0 * math.pi))
        dist_rows += [(n, int(k), float(distribution.psi[k]), float(gauss[k])) for k in states]
        summary_rows += _law_summary(n, params, distribution, ("mean", mean), ("sd", sd))
    meta = _figure_meta(
        figure="fig3b",
        beta_ratio=ratio,
        populations=list(sizes),
        anchored=[1, 1],
        note_gauss="gaussian_fit matches the law's mean and variance, scaled as a density",
    )
    return [
        ("fig3b_distributions.csv", (("n", "k", "psi", "gaussian_fit"), dist_rows, meta)),
        ("fig3b_summary.csv", (("sweep_value", "metric", "value"), summary_rows, meta)),
    ]


# name -> (dataset builder, gnuplot stub)
_FIGURES = {
    "fig1a": (_fig1a, 'set datafile separator ","\nset xlabel "k"\nset ylabel "psi"\nplot "fig1a.csv" skip 1 using 1:2 with boxes title "stationary law"\n'),
    "fig1b": (_fig1b, 'set datafile separator ","\nset xlabel "arrival"\nset ylabel "expected PoA"\nplot "fig1b.csv" skip 1 using 1:3 with points title "sweep"\n'),
    "fig2a": (_fig2a, 'set datafile separator ","\nset xlabel "k"\nset ylabel "psi"\nplot "fig2a_distribution.csv" skip 1 using 1:2 with boxes title "absorbed outcome"\n'),
    "fig2b": (_fig2b, 'set datafile separator ","\nset xlabel "arrival"\nset ylabel "PoA"\nplot "fig2b.csv" skip 1 using 1:3 with lines title "absorbing PoA"\n'),
    "fig3a": (_fig3a, 'set datafile separator ","\nset xlabel "k"\nset ylabel "psi"\nplot "fig3a_distributions.csv" skip 1 using 2:3 with points title "stationary laws"\n'),
    "fig3b": (_fig3b, 'set datafile separator ","\nset xlabel "k"\nset ylabel "psi"\nplot "fig3b_distributions.csv" skip 1 using 2:3 with points title "laws", "" skip 1 using 2:($4/$1) with lines title "gaussian"\n'),
}


def cmd_reproduce(args: argparse.Namespace) -> None:
    files: list[tuple[str, Any]] = []
    for figure in _FIGURES if args.figure == "all" else [args.figure]:
        build, stub = _FIGURES[figure]
        files += build()
        if args.gnuplot:
            files.append((f"{figure}.gp", stub))
    _emit(args, None, [], files)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsel",
        description="Network-selection game: equilibria, stationary laws, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"netsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="INI experiment file")
        p.add_argument("--out", help="output directory (default: config, then $NETSEL_OUT_DIR, then cwd)")
        p.add_argument("--quiet", action="store_true", help="suppress console summary lines")

    for name, helptext in (
        ("equilibrium", "equal-cost split, critical state, welfare, PoA"),
        ("stationary", "stationary distribution (or absorption report)"),
        ("sweep", "metric across a parameter grid"),
        ("simulate", "seeded Monte Carlo run with histogram and trajectory"),
        ("replicator", "deterministic mean-dynamics trajectory"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
    repro = sub.add_parser("reproduce", help="emit built-in figure datasets")
    repro.add_argument(
        "--figure",
        required=True,
        choices=[*_FIGURES, "all"],
        help="which dataset to write",
    )
    repro.add_argument("--gnuplot", action="store_true", help="also write a gnuplot stub")
    add_common(repro, needs_config=False)
    return parser


_COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "stationary": cmd_stationary,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "replicator": cmd_replicator,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: the one place that reports an error and picks the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            cmd_reproduce(args)
        else:
            _COMMANDS[args.command](parse_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # Domain errors of the analysis, ChainStructureError among them.
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except MemoryError as exc:
        # numpy names the array it could not allocate, e.g. a trajectory too long to keep.
        print(f"analysis error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
