"""An asymptotic check of the kernel at large n, independent of both routes.

At n >= 10^4 Monte Carlo cannot mix, so the product form and the balance
solve check only each other, and both read the same float kernel.  The
linear-noise approximation (van Kampen, 1981) checks the kernel itself:
for the Fermi rule log(q(g) / q(-g)) = beta * g exactly, so the stationary
law of k/n concentrates at the equilibrium share x* with

    n * Var(k/n) -> 1 / (beta * |g'(x*)|),   g'(x) = -a * lambda / (C - lambda * x)^2,

where g = pi_P - pi_S.  Anchors, the n - 1 in the opponent count and the
lattice move the moments by O(1/n), so both errors are bounded by a
constant over n.
"""

import itertools

import numpy as np
import pytest

from netsel.chain import PopulationConfig, build_kernel, stationary_product
from netsel.model import NetworkParams, calibrate_price_gap
from netsel.protocols import fermi_from_ratio

CAPACITY = 100.0

# (arrival, x*, ratio, anchored primary, anchored secondary)
ECONOMIES = list(
    itertools.product((30.0, 70.0), (0.2, 0.5, 0.8), (0.5, 10.0), ((1, 1), (1, 3), (3, 1)))
)

# On this grid the largest n * |Var / LNA - 1| read 216, 291 and 300 at
# n = 10^3, 10^4 and 10^5, and the largest n * |mean - x*| read 37.1, 41.6
# and 42.1: both at arrival 70, x* = 0.2, ratio 0.5, three primary anchors
# and one secondary.  The constants leave a third or more of headroom.
# A wrong intensity, such as exp(1.5 * beta * g), reads Var / LNA = 2/3,
# which is n / 3 here: 333 at n = 10^3 and 33,333 at n = 10^5.  An O(1/n)
# slip, such as swapped anchor counts, stays inside these bounds.
C_VAR = 400.0
C_MEAN = 60.0


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_anchored_fermi_law_meets_the_linear_noise_approximation(n):
    x = np.arange(n + 1) / n
    for arrival, target, ratio, (a_p, a_s) in ECONOMIES:
        gap = calibrate_price_gap(CAPACITY, arrival, 1.0, target)
        params = NetworkParams(CAPACITY, arrival, 1.0, gap, 0.0)
        rule = fermi_from_ratio(params, n, ratio)
        psi = stationary_product(build_kernel(params, PopulationConfig(n, a_p, a_s), rule)).psi
        mean = float(psi @ x)
        var = float(psi @ (x - mean) ** 2)
        slope = arrival / (CAPACITY - arrival * target) ** 2  # |g'(x*)| with a = 1
        economy = (arrival, target, ratio, a_p, a_s)
        assert n * abs(n * var * rule.beta * slope - 1.0) <= C_VAR, economy
        assert n * abs(mean - target) <= C_MEAN, economy
