"""Acceptance gate: the ten package-level criteria, one test per criterion.

Each test evaluates every check of its criterion first, prints a single
``[PASS]``/``[FAIL]`` summary line (visible with ``pytest -s`` or in the
failure report), and only then asserts — so a red run still reports the
status of each criterion.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from netsel.chain import (
    PopulationConfig,
    absorption_analysis,
    build_kernel,
    distribution_mode,
    stationary_eigen,
    stationary_noise_free,
    stationary_product,
    total_variation,
)
from netsel.model import (
    NetworkParams,
    calibrate_price_gap,
    critical_state,
    equilibrium,
    expected_poa,
    poa_absorbing,
    social_optimum,
    social_welfare,
)
from netsel.montecarlo import SimulationSpec, absorption_frequency, run
from netsel.protocols import fermi_from_ratio
from netsel.replicator import integrate, replicator_rhs
from netsel.protocols import PairwiseProportional
from oracle import calibrated_params, imitation_flow, random_irreducible_kernel


def _report(criterion: int, description: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}")
    failed = [name for name, flag in checks if not flag]
    assert ok, f"criterion {criterion} failed checks: {failed}"


def _nonincreasing(values, slack=1e-12):
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def test_criterion_01_equilibrium_and_critical_state():
    gap = calibrate_price_gap(100.0, 30.0, 1.0, 0.68)
    params = NetworkParams(100.0, 30.0, 1.0, gap, 0.0)
    scaled_share = 10 * equilibrium(params).share_primary
    checks = [
        ("calibrated gap matches its closed form", abs(gap - 9.6 / 5572.0) <= 1e-12 * gap),
        ("calibrated gap ~ 0.00172290", abs(gap - 0.00172290) <= 5e-9),
        ("N * x* = 6.8 +- 1e-9", abs(scaled_share - 6.8) <= 1e-9),
        ("critical state is 7", critical_state(params, 10) == 7),
    ]
    _report(1, "calibrated ten-user game has N*x* = 6.8 and critical state 7", checks)


def test_criterion_02_noise_free_two_point_support():
    params = calibrated_params()
    psi = stationary_noise_free(params, PopulationConfig(n=10)).psi
    support = {int(k) for k in np.flatnonzero(psi)}
    checks = [
        ("support is exactly {6, 7}", support == {6, 7}),
        ("probabilities sum to 1 exactly", float(psi.sum()) == 1.0),
        ("both support states carry positive mass", psi[6] > 0.0 and psi[7] > 0.0),
    ]
    _report(2, "noise-free stationary law concentrates exactly on states 6 and 7", checks)


def test_criterion_03_absorbing_poa_values():
    poa_30 = poa_absorbing(calibrated_params(arrival=30.0))
    poa_35 = poa_absorbing(calibrated_params(arrival=35.0))
    checks = [
        ("PoA(30) = 1.0976 +- 1e-3", abs(poa_30 - 1.0976) <= 1e-3),
        ("PoA(35) = 1.1202 +- 1e-3", abs(poa_35 - 1.1202) <= 1e-3),
        ("PoA - 1.1 changes sign between 30 and 35", (poa_30 - 1.1) < 0.0 < (poa_35 - 1.1)),
    ]
    _report(3, "closed-form absorbing PoA crosses 1.1 between loads 30 and 35", checks)


def test_criterion_04_mode_confined_to_the_critical_pair():
    start = time.perf_counter()
    rng = np.random.default_rng(20250819)
    violations = 0
    for _ in range(500):
        capacity = rng.uniform(20.0, 200.0)
        arrival = capacity * rng.uniform(0.1, 0.9)
        alpha = rng.uniform(0.5, 2.0)
        target = rng.uniform(0.15, 0.85)
        params = NetworkParams(
            capacity, arrival, alpha, calibrate_price_gap(capacity, arrival, alpha, target), 0.0
        )
        n = int(rng.integers(4, 201))
        rule = fermi_from_ratio(params, n, rng.uniform(0.1, 10.0))
        kernel = build_kernel(params, PopulationConfig(n, 1, 1), rule)
        mode = distribution_mode(stationary_product(kernel))
        k_star = critical_state(params, n)
        if not set(mode) <= {k_star - 1, k_star}:
            violations += 1

    # The three-way split at the critical pair: the price gap below places
    # the payoff-difference magnitudes at states k*-1 and k* in a chosen
    # proportion, which decides which of the two carries the mode.
    h6 = -1.0 / (100.0 - 3.0 * 6.0) + 1.0 / 70.0
    h7 = -1.0 / (100.0 - 3.0 * 7.0) + 1.0 / 70.0
    split_ok = []
    for weight_low, expected_mode in ((0.25, (7,)), (0.5, (6, 7)), (0.75, (6,))):
        gap = weight_low * h6 + (1.0 - weight_low) * h7
        params = NetworkParams(100.0, 30.0, 1.0, gap, 0.0)
        kernel = build_kernel(
            params, PopulationConfig(10, 1, 1), fermi_from_ratio(params, 10, 1.0)
        )
        split_ok.append(distribution_mode(stationary_product(kernel)) == expected_mode)
    elapsed = time.perf_counter() - start
    checks = [
        ("0 of 500 randomized parameter sets violate mode in {k*-1, k*}", violations == 0),
        ("mode at k* when the advantage below k* dominates", split_ok[0]),
        ("tie at balanced payoff-difference magnitudes", split_ok[1]),
        ("mode at k*-1 when the deficit at k* dominates", split_ok[2]),
        ("runtime <= 30 s", elapsed <= 30.0),
    ]
    _report(4, "stationary mode confined to the critical pair on 500 random games", checks)


def test_criterion_05_zero_noise_uniform_law():
    params = calibrated_params()
    worst = 0.0
    for n in (10, 100, 1000):
        kernel = build_kernel(params, PopulationConfig(n, 1, 1), fermi_from_ratio(params, n, 0.0))
        psi = stationary_product(kernel).psi
        worst = max(worst, float(np.abs(psi - 1.0 / (n + 1)).max()))
    checks = [("max |psi_k - 1/(N+1)| <= 1e-12 for N in {10, 100, 1000}", worst <= 1e-12)]
    _report(5, "zero imitation noise yields the exact uniform law", checks)


def test_criterion_06_three_stationary_routes_agree():
    rng = np.random.default_rng(6)
    sizes = [int(rng.integers(3, 301)) for _ in range(95)] + [1000] * 5
    worst = 0.0
    for n in sizes:
        kernel = random_irreducible_kernel(rng, n)
        product = stationary_product(kernel).psi
        eigen = stationary_eigen(kernel).psi
        balance = np.zeros(n + 1)
        balance[0] = 1.0
        for k in range(n):
            balance[k + 1] = balance[k] * kernel.up[k] / kernel.down[k + 1]
        balance /= balance.sum()
        worst = max(
            worst,
            float(np.abs(product - eigen).max()),
            float(np.abs(product - balance).max()),
            float(np.abs(eigen - balance).max()),
        )
    checks = [("pairwise sup distance <= 1e-10 on 100 random kernels", worst <= 1e-10)]
    _report(6, "product form, balance solve, and direct reconstruction agree", checks)


def test_criterion_07_monte_carlo_matches_the_analytic_laws():
    start = time.perf_counter()
    params = calibrated_params()
    rule = fermi_from_ratio(params, 10, 1.0)
    recurrent = build_kernel(params, PopulationConfig(10, 1, 1), rule)
    spec = SimulationSpec(
        seed=20250819, steps=10_100_000, burn_in=100_000, replicas=1, initial_state=5
    )
    empirical = run(spec, recurrent).histogram.frequencies()
    tv = total_variation(empirical, stationary_product(recurrent).psi)

    absorbing = build_kernel(params, PopulationConfig(10), rule)
    analytic = absorption_analysis(absorbing, 5)
    replicas = 10_000
    freq = absorption_frequency(
        SimulationSpec(seed=7, steps=100_000, replicas=replicas, initial_state=5), absorbing
    )
    sigma = np.sqrt(analytic.prob_absorb_at_n * analytic.prob_absorb_at_0 / replicas)
    elapsed = time.perf_counter() - start
    checks = [
        ("TV to the analytic law < 0.02 after 1e7 counted events", tv < 0.02),
        ("every one of 1e4 replicas absorbed at a boundary", freq.unabsorbed == 0),
        (
            "absorbed fractions cover all replicas",
            freq.fraction_at_0 + freq.fraction_at_n == pytest.approx(1.0, abs=1e-12),
        ),
        (
            "boundary split within 4 sigma of the exact analysis",
            abs(freq.fraction_at_n - analytic.prob_absorb_at_n) <= 4.0 * sigma,
        ),
        ("runtime <= 60 s", elapsed <= 60.0),
    ]
    _report(7, "long simulations reproduce the stationary and absorption laws", checks)


def test_criterion_08_replicator_consistency():
    params = calibrated_params()
    settle_errors = [
        abs(integrate(params, x0, rtol=1e-10).fixed_point - 0.68) for x0 in (0.1, 0.5, 0.9)
    ]
    rule = PairwiseProportional(scale=1.0)
    grid = np.linspace(0.0, 1.0, 1001)
    field_gap = max(
        abs(imitation_flow(rule, params, float(x)) - replicator_rhs(params, float(x)))
        for x in grid
    )
    checks = [
        ("every start in {0.1, 0.5, 0.9} settles within 1e-6 of x*", max(settle_errors) <= 1e-6),
        ("imitation mean dynamics equals the replicator field within 1e-12", field_gap <= 1e-12),
    ]
    _report(8, "mean dynamics converge to and coincide with the replicator flow", checks)


def test_criterion_09_noise_and_size_trends():
    params = calibrated_params()
    poa_by_ratio = []
    mode_ok = []
    for ratio in (0.0, 1.0, 10.0):
        rule = fermi_from_ratio(params, 10, ratio)
        dist = stationary_product(build_kernel(params, PopulationConfig(10, 1, 1), rule))
        poa_by_ratio.append(expected_poa(params, dist))
        if ratio > 0.0:
            # Zero noise makes every state a mode (uniform law), so the
            # location property is meaningful only for positive noise.
            worst = max(abs(k / 10 - 0.68) for k in distribution_mode(dist))
            mode_ok.append(worst <= 1.0 / 10 + 1e-12)
    poa_by_n = []
    for n in (10, 100, 1000):
        rule = fermi_from_ratio(params, n, 1.0)
        dist = stationary_product(build_kernel(params, PopulationConfig(n, 1, 1), rule))
        poa_by_n.append(expected_poa(params, dist))
        worst = max(abs(k / n - 0.68) for k in distribution_mode(dist))
        mode_ok.append(worst <= 1.0 / n + 1e-12)
    checks = [
        ("expected PoA nonincreasing in the noise ratio {0, 1, 10}", _nonincreasing(poa_by_ratio)),
        ("expected PoA nonincreasing in N over {10, 100, 1000}", _nonincreasing(poa_by_n)),
        ("every positive-noise mode lies within 1/N of x*", all(mode_ok)),
    ]
    _report(9, "more noise and larger populations never worsen expected PoA", checks)


def test_criterion_10_welfare_identities():
    params = calibrated_params()
    boundary_value = 30.0 / 70.0
    grid = np.linspace(0.0, 1.0, 100_001)
    welfare_min = min(social_welfare(params, float(x)) for x in grid)
    _, s_min = social_optimum(params)

    poa_values = []
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        poa_values.append(expected_poa(params, rng.dirichlet(np.ones(n + 1))))
    poa_values.append(expected_poa(params, stationary_noise_free(params, PopulationConfig(10))))
    for n in (10, 1000):
        for ratio in (0.0, 1.0):
            rule = fermi_from_ratio(params, n, ratio)
            dist = stationary_product(build_kernel(params, PopulationConfig(n, 1, 1), rule))
            poa_values.append(expected_poa(params, dist))
    checks = [
        (
            "S(0) = lambda/(C - lambda) to 1e-12",
            abs(social_welfare(params, 0.0) - boundary_value) <= 1e-12,
        ),
        (
            "S(1) = lambda/(C - lambda) to 1e-12",
            abs(social_welfare(params, 1.0) - boundary_value) <= 1e-12,
        ),
        ("grid minimum matches the closed-form optimum within 1e-6", abs(welfare_min - s_min) <= 1e-6),
        ("expected PoA >= 1 on every tested distribution", min(poa_values) >= 1.0),
    ]
    _report(10, "welfare boundary identities, optimum, and PoA lower bound", checks)
