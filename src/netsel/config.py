"""Experiment configuration: INI files with strict key checking.

A config file describes one experiment in up to seven sections; every
key is checked against the schema below, so a typo fails loudly instead
of silently falling back to a default.  Prices can be given explicitly
or via ``target_share``, in which case the primary premium is calibrated
so the equilibrium lands on the requested share.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import model, montecarlo, protocols
from .model import NetworkParams, PopulationConfig

__all__ = ["ConfigError", "SweepSpec", "ExperimentConfig", "parse_config"]


class ConfigError(Exception):
    """The configuration file cannot be used as written."""


_SCHEMA: dict[str, dict[str, type]] = {
    "network": {
        "capacity": float,
        "arrival": float,
        "delay_weight": float,
        "price_primary": float,
        "price_secondary": float,
        "target_share": float,
    },
    "population": {
        "n": int,
        "anchored_primary": int,
        "anchored_secondary": int,
    },
    "rule": {
        "type": str,
        "scale": float,
        "beta_ratio": float,
        "beta_absolute": float,
    },
    "sweep": {
        "variable": str,
        "start": float,
        "stop": float,
        "step": float,
        "values": str,
    },
    "simulation": {
        "seed": int,
        "steps": int,
        "burn_in": int,
        "replicas": int,
        "initial_state": str,
        "trajectory_decimation": int,
    },
    "replicator": {
        "initial_share": float,
        "horizon": float,
        "rtol": float,
        "gain": float,
    },
    "output": {
        "directory": str,
    },
}

# sweep variable -> the (section, key) it sets
SWEEP_VARIABLES = {
    "lambda": ("network", "arrival"), "beta_ratio": ("rule", "beta_ratio"), "n": ("population", "n")
}

# A start/stop/step grid spans fewer steps than this; 10^9 points take 8 GB.
_SWEEP_STEPS = 10**6


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional parameter sweep: which knob, and its grid."""

    variable: str
    values: tuple[float, ...]


def _convert(section: str, key: str, raw: str) -> Any:
    target = _SCHEMA[section][key]
    if target is str:
        return raw.strip()
    try:
        return target(raw)
    except ValueError:
        raise ConfigError(
            f"key '{section}.{key}': cannot parse {raw!r} as {target.__name__}"
        ) from None


def parse_config(path: str | Path) -> "ExperimentConfig":
    """Read and type-check an INI experiment file.

    Unknown sections or keys raise ConfigError naming the offender; so do
    values that fail to parse as their schema type.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    data: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(f"unknown section [{section}]; known sections: {known}")
        data[section] = {}
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                known = ", ".join(sorted(_SCHEMA[section]))
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]; known keys: {known}"
                )
            data[section][key] = _convert(section, key, raw)
    return ExperimentConfig(data)


class ExperimentConfig:
    """Typed view of one parsed experiment file.

    Accessors build the model objects lazily so commands that do not need
    a section never trip over its absence.
    """

    def __init__(self, sections: dict[str, dict[str, Any]]):
        self._sections = sections

    def _section(self, name: str) -> dict[str, Any]:
        return self._sections.get(name, {})

    def _require(self, section: str, key: str) -> Any:
        value = self._section(section).get(key)
        if value is None:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return value

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """Deep copy of the parsed sections, for run metadata."""
        return {name: dict(body) for name, body in self._sections.items()}

    def swept(self, variable: str, value: float) -> "ExperimentConfig":
        """This experiment at one sweep point: the swept key set to ``value``."""
        section, key = SWEEP_VARIABLES[variable]
        return ExperimentConfig({**self._sections, section: {**self._section(section), key: value}})

    # -- network ---------------------------------------------------------

    def network_params(self) -> NetworkParams:
        """Build NetworkParams.

        With ``target_share`` present, the primary premium is calibrated
        against the arrival, so sweeping the arrival keeps the equilibrium
        share pinned rather than drifting to a boundary.
        """
        net = self._section("network")
        capacity = self._require("network", "capacity")
        arrival = self._require("network", "arrival")
        delay_weight = net.get("delay_weight", 1.0)
        if "target_share" in net:
            if "price_primary" in net or "price_secondary" in net:
                raise ConfigError(
                    "give either target_share or explicit prices in [network], not both"
                )
            try:
                gap = model.calibrate_price_gap(
                    capacity, arrival, delay_weight, net["target_share"]
                )
            except ValueError as exc:
                raise ConfigError(f"[network] target_share: {exc}") from None
            price_primary, price_secondary = gap, 0.0
        else:
            price_primary = net.get("price_primary", 0.0)
            price_secondary = net.get("price_secondary", 0.0)
        try:
            return NetworkParams(
                capacity=capacity,
                arrival=arrival,
                delay_weight=delay_weight,
                price_primary=price_primary,
                price_secondary=price_secondary,
            )
        except ValueError as exc:
            raise ConfigError(f"[network]: {exc}") from None

    # -- population ------------------------------------------------------

    def population(self) -> PopulationConfig:
        pop = self._section("population")
        try:
            return PopulationConfig(
                n=int(self._require("population", "n")),
                anchored_primary=pop.get("anchored_primary", 0),
                anchored_secondary=pop.get("anchored_secondary", 0),
            )
        except ValueError as exc:
            raise ConfigError(f"[population]: {exc}") from None

    # -- rule --------------------------------------------------------------

    def rule(self, params: NetworkParams, n: int) -> protocols.ImitationRule:
        """Build the imitation rule.

        Fermi intensities come either as ``beta_ratio`` (in units of the
        population's largest payoff difference — comparable across
        parameter sets) or as ``beta_absolute``; exactly one of the two.
        """
        sec = self._section("rule")
        kind = self._require("rule", "type")
        if kind == "proportional":
            if "beta_ratio" in sec or "beta_absolute" in sec:
                raise ConfigError("[rule] proportional takes 'scale', not beta keys")
            try:
                return protocols.PairwiseProportional(scale=sec.get("scale", 1.0))
            except ValueError as exc:
                raise ConfigError(f"[rule]: {exc}") from None
        if kind == "fermi":
            if "scale" in sec:
                raise ConfigError("[rule] fermi takes beta keys, not 'scale'")
            ratio = sec.get("beta_ratio")
            absolute = sec.get("beta_absolute")
            if (ratio is None) == (absolute is None):
                raise ConfigError(
                    "[rule] fermi needs exactly one of 'beta_ratio' or 'beta_absolute'"
                )
            try:
                if ratio is not None:
                    return protocols.fermi_from_ratio(params, n, ratio)
                return protocols.Fermi(beta=absolute)
            except ValueError as exc:
                raise ConfigError(f"[rule]: {exc}") from None
        raise ConfigError(f"[rule] unknown type {kind!r}; use 'proportional' or 'fermi'")

    # -- sweep -------------------------------------------------------------

    def sweep(self) -> SweepSpec | None:
        sec = self._section("sweep")
        if not sec:
            return None
        variable = self._require("sweep", "variable")
        if variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"[sweep] unknown variable {variable!r}; choose from {', '.join(SWEEP_VARIABLES)}"
            )
        rule = self._section("rule")
        if variable == "beta_ratio" and (rule.get("type") != "fermi" or "beta_absolute" in rule):
            raise ConfigError("[sweep] beta_ratio needs a fermi [rule] given by beta_ratio")
        if "values" in sec:
            if any(key in sec for key in ("start", "stop", "step")):
                raise ConfigError("[sweep] give either 'values' or start/stop/step, not both")
            try:
                values = tuple(float(tok) for tok in sec["values"].split(",") if tok.strip())
            except ValueError:
                raise ConfigError(f"[sweep] cannot parse values list {sec['values']!r}") from None
            if not values:
                raise ConfigError("[sweep] values list is empty")
        else:
            for key in ("start", "stop", "step"):
                if key not in sec:
                    raise ConfigError(f"missing required key '{key}' in section [sweep]")
            start, stop, step = sec["start"], sec["stop"], sec["step"]
            if not (0 < step < math.inf and start <= stop and (stop - start) / step < _SWEEP_STEPS):
                raise ConfigError(
                    "[sweep] needs a finite step > 0, stop >= start and finitely many points: "
                    f"fewer than {_SWEEP_STEPS} steps from start to stop"
                )
            # Point i is start + step * i: one float64 multiply and one add.
            grid = (start + step * i for i in range(int(round((stop - start) / step)) + 1))
            values = tuple(v for v in grid if v <= stop + step * 1e-9)
        if variable == "n":
            for v in values:
                if not math.isfinite(v) or v != int(v) or int(v) < 2:
                    raise ConfigError(f"[sweep] population sizes must be integers >= 2, got {v}")
        return SweepSpec(variable=variable, values=values)

    # -- simulation ----------------------------------------------------------

    def simulation_spec(self, seed_override: int | None = None) -> montecarlo.SimulationSpec:
        sec = self._section("simulation")
        seed = seed_override if seed_override is not None else sec.get("seed", 0)
        initial_raw = sec.get("initial_state", montecarlo.INITIAL_UNIFORM)
        initial: int | str
        if initial_raw == montecarlo.INITIAL_UNIFORM:
            initial = initial_raw
        else:
            try:
                initial = int(initial_raw)
            except ValueError:
                raise ConfigError(
                    f"[simulation] initial_state must be an integer or "
                    f"{montecarlo.INITIAL_UNIFORM!r}, got {initial_raw!r}"
                ) from None
        try:
            return montecarlo.SimulationSpec(
                seed=seed,
                steps=self._require("simulation", "steps"),
                burn_in=sec.get("burn_in"),
                replicas=sec.get("replicas", 1),
                initial_state=initial,
            )
        except ValueError as exc:
            raise ConfigError(f"[simulation]: {exc}") from None

    def trajectory_decimation(self) -> int:
        value = self._section("simulation").get("trajectory_decimation", 1000)
        if value < 1:
            raise ConfigError("[simulation] trajectory_decimation must be >= 1")
        return value

    # -- replicator ------------------------------------------------------------

    def replicator_settings(self) -> dict[str, float]:
        sec = self._section("replicator")
        settings = {
            "initial_share": self._require("replicator", "initial_share"),
            "horizon": sec.get("horizon", 1e6),
            "rtol": sec.get("rtol", 1e-8),
            "gain": sec.get("gain", 1.0),
        }
        return settings

    # -- output ----------------------------------------------------------------

    def output_directory(self) -> str | None:
        return self._section("output").get("directory")
