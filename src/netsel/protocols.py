"""Imitation rules: how a payoff difference becomes a switch probability.

During one revision a focal user samples an opponent, observes the
payoff difference z = (opponent's payoff) - (own payoff), and copies the
opponent's network choice with probability q(z).  Any nondecreasing q
with values in [0, 1] is a valid rule.  Noise-free rules never imitate a
worse-off opponent (q(z) = 0 for z <= 0); noisy rules keep q(z) > 0
everywhere, so payoffs can be misjudged and suboptimal switches happen.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model
from .model import _CHUNK, NetworkParams

__all__ = [
    "ImitationRule",
    "PairwiseProportional",
    "Fermi",
    "CustomRule",
    "beta_reference",
    "fermi_from_ratio",
]

class ImitationRule(abc.ABC):
    """Nondecreasing map from a payoff difference to a switch probability.

    Subclasses define :meth:`pair` on a vector: a chain needs q at the
    gain of each state to climb and at its negation to descend, and a
    rule may share work between the two.

    A rule promises q(z) > 0 at every z by defining ``log_pair``, (log q(z),
    log q(-z)) without underflow: a zero of its q in float is an underflow,
    not a blocked move.  Rules that may return 0 leave it None.
    """

    log_pair = None

    @abc.abstractmethod
    def pair(self, payoff_diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q(z), q(-z)) for each element z of a float vector."""


@dataclass(frozen=True)
class PairwiseProportional(ImitationRule):
    """Noise-free rule: switch with probability proportional to the gain.

    q(z) = min(1, scale * z) for z > 0 and exactly 0 otherwise.  The cap
    at 1 keeps the value a probability; with the default scale it only
    engages for payoff gains above 1, far beyond the delay costs this
    model produces.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def pair(self, payoff_diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q_up = self.scale * np.asarray(payoff_diffs, dtype=float)
        q_down = -q_up  # scale * -z, bit for bit
        for q in (q_up, q_down):  # min(1, scale * d), zeroed where scale * d <= 0, i.e. d <= 0
            q[np.minimum(q, 1.0, out=q) <= 0.0] = 0.0
        return q_up, q_down


@dataclass(frozen=True)
class Fermi(ImitationRule):
    """Noisy logistic rule: q(z) = 1 / (1 + exp(-beta * z)).

    beta sets how sharply the decision reacts to the payoff difference.
    beta = 0 is a fair coin regardless of payoffs; large beta approaches
    the noise-free step function.  q is strictly positive everywhere and
    satisfies q(z) + q(-z) = 1.

    Both directions share e = exp(-|beta * z|): q is 1 / (1 + e) on the
    side where beta * z >= 0 and e / (1 + e) on the other, so large |z|
    saturates to 0/1 instead of overflowing.  e is the real part of a
    complex ``np.exp``, once per element: numpy has no SIMD loop for it, so
    each element goes through C99 ``cexp``, which at a zero imaginary part
    returns libm's exp(x) bit for bit (exp(x) * cos 0 in glibc, exp(x) + 0i
    in numpy's own fallback); float ``np.exp`` differs from libm in the last
    ulp on about 5% of exponents.  The pass runs in chunks of _CHUNK
    elements, so its 16-byte complex temporaries take 64 kB, not 16 MB.
    """

    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta}")

    def log_pair(self, payoff_diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log q(z), log q(-z)): -log1p(e) where the sign makes q 1 / (1 + e),
        and -|beta * z| - log1p(e) where it makes q e / (1 + e)."""
        with np.errstate(over="ignore"):  # an infinite beta * z gives log q = 0 or -inf
            z = self.beta * np.asarray(payoff_diffs, dtype=float)
        high = -np.log1p(np.exp(-np.abs(z)))
        low = high - np.abs(z)
        return np.where(z >= 0.0, high, low), np.where(z <= 0.0, high, low)

    def pair(self, payoff_diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diffs = np.asarray(payoff_diffs, dtype=float)
        q_up, q_down = np.empty(diffs.size), np.empty(diffs.size)
        for lo in range(0, diffs.size, _CHUNK):
            with np.errstate(over="ignore"):  # an infinite beta * z gives q = 0 or 1
                z = self.beta * diffs[lo : lo + _CHUNK]
            e = np.exp((-np.abs(z)).astype(complex)).real
            total = 1.0 + e
            high, low = 1.0 / total, np.divide(e, total, out=total)
            rises = z >= 0.0  # at z = +-0, e = 1 and high = low = 0.5: either side serves
            q_up[lo : lo + _CHUNK] = np.where(rises, high, low)
            q_down[lo : lo + _CHUNK] = np.where(rises, low, high)
        return q_up, q_down


@dataclass(frozen=True)
class CustomRule(ImitationRule):
    """Wrap a user-supplied map from payoff difference to probability.

    The map must be nondecreasing with values in [0, 1]; both properties
    are spot-checked on an even grid of 129 points over ``check_range`` at
    construction and a violation raises ValueError.  The check is a sanity
    net, not a proof — a function misbehaving between grid points will
    slip through.
    """

    fn: Callable[[float], float]
    check_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.check_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"check_range must be a finite interval, got {self.check_range}")
        grid = np.linspace(lo, hi, 129)
        values = [float(self.fn(z)) for z in grid]
        for z, v in zip(grid, values):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"rule value {v} at payoff difference {z} lies outside [0, 1]")
        for a, b in zip(values, values[1:]):
            if b < a - 1e-12:
                raise ValueError("rule is not nondecreasing on the check grid")

    def pair(self, payoff_diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(payoff_diffs, dtype=float)
        return tuple(np.fromiter(map(self.fn, d.tolist()), float, d.size) for d in (z, -z))


def beta_reference(params: NetworkParams, n: int) -> float:
    """Largest payoff-difference magnitude across states, max_k |pi_P(k) - pi_S|.

    This is the payoff scale of a population of n users and the natural
    unit for quoting Fermi intensities; see :func:`fermi_from_ratio`.
    Each operation of :func:`model.utility_primary` is a monotone rounding,
    so the computed difference is monotone in k and the scan maximum sits
    at k = 0 or k = n: two evaluations give it bit for bit.
    """
    pi_s = model.utility_secondary(params)
    return max(abs(model.utility_primary(params, k, n) - pi_s) for k in (0, n))


def fermi_from_ratio(params: NetworkParams, n: int, ratio: float) -> Fermi:
    """Fermi rule with its intensity expressed in payoff-scale units.

    A ratio of 0 yields the pure-noise fair coin.  A positive ratio r
    scales the logistic so the largest attainable payoff difference maps
    to an exponent of exactly r, i.e. beta = r / beta_reference(params, n).
    Quoting intensities this way makes runs comparable across parameter
    sets whose raw payoff magnitudes differ by orders of magnitude.
    """
    if not (math.isfinite(ratio) and ratio >= 0):
        raise ValueError(f"ratio must be nonnegative and finite, got {ratio}")
    if ratio == 0.0:
        return Fermi(beta=0.0)
    reference = beta_reference(params, n)
    if reference == 0.0:
        raise ValueError("beta_reference is 0: no payoff difference to quote the ratio against")
    return Fermi(beta=ratio / reference)
