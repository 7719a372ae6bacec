"""What the tests check netsel against, each kept once.

- **Exact oracles**: independent routes to what netsel computes, in
  ``mpmath``, scalar loops or ``scipy``.  They share no code path with
  the function they check beyond the float inputs they are given.
- **Frozen references**, one per ``src`` function, named
  ``reference_<function>``: the code of that function before a
  bit-for-bit change, kept verbatim except for the names of the other
  references it calls, so that a property can assert the same bytes, the
  same exception and message, and no new warning.  A reference never
  calls the live function its own property checks.
- **Shared builders**: economies, kernels and ``hypothesis`` strategies
  that several test modules draw from, and ``bits``/``outcome``/``same``,
  which compare what two calls gave.

A test module imports from here, never from another test module;
``test_oracle.py`` keeps it that way.
"""

import math
import struct
import warnings

import mpmath as mp
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from netsel import chain, model
from netsel.chain import (
    _CHUNK,
    _DISTRIBUTION_KINDS,
    ChainClass,
    ChainStructureError,
    StationaryDistribution,
    TransitionKernel,
    _frozen,
    _readonly,
)
from netsel.model import NetworkParams, calibrate_price_gap
from netsel.protocols import CustomRule, Fermi, PairwiseProportional, fermi_from_ratio

# -- shared builders -------------------------------------------------------------


def calibrated_params(arrival=30.0, target=0.68, capacity=100.0, delay_weight=1.0):
    """The figures' economy: equal secondary price 0, and the primary premium
    that puts the equilibrium share at ``target``."""
    gap = calibrate_price_gap(capacity, arrival, delay_weight, target)
    return NetworkParams(capacity, arrival, delay_weight, gap, 0.0)


def random_irreducible_kernel(rng, n, spread=120.0):
    """Hand-made irreducible kernel with a bounded stationary dynamic range.

    The log-stationary profile is a rescaled random walk, so the product
    form spans at most e^spread — large enough to stress log-space
    accumulation, small enough that a direct-space reconstruction stays
    representable for cross-checks.
    """
    steps = rng.normal(scale=rng.uniform(0.05, 0.7), size=n)
    profile = np.concatenate(([0.0], np.cumsum(steps)))
    span = profile.max() - profile.min()
    if span > spread:
        profile *= spread / span
    ratios = np.exp(np.diff(profile))
    scale = rng.uniform(0.2, 0.45)
    up = np.zeros(n + 1)
    down = np.zeros(n + 1)
    up[:n] = scale * np.minimum(1.0, ratios)
    down[1:] = scale * np.minimum(1.0, 1.0 / ratios)
    return TransitionKernel(up=up, down=down)


def dense_matrix(kernel):
    """The (n+1) x (n+1) transition matrix of a kernel, from its vectors."""
    stay = 1.0 - kernel.up - kernel.down
    return np.diag(stay) + np.diag(kernel.up[:-1], 1) + np.diag(kernel.down[1:], -1)


def q_at(rule, z):
    """q(z) at one payoff difference, read from ``pair``."""
    return float(rule.pair(np.array([z], dtype=float))[0][0])


def imitation_flow(rule, params, share):
    """Expected drift of the imitation process at one share value.

    share * (1 - share) * (q(diff) - q(-diff)) with diff the primary payoff
    advantage, from the rule's ``pair``: the rate of secondary users copying
    primaries minus the reverse.
    """
    diff = model.utility_primary_at_share(params, share) - model.utility_secondary(params)
    q_up, q_down = rule.pair(np.array([diff]))
    return share * (1.0 - share) * float(q_up[0] - q_down[0])


# What the bit-for-bit properties draw.  Loads up to near capacity, each with
# its equilibrium share at the target (a target of 1 puts k* on the boundary);
# or prices up to the float limit, where the payoff difference overflows.
calibrated = st.builds(
    calibrated_params,
    st.one_of(st.sampled_from([5.0, 30.0, 95.0, 99.9]), st.floats(0.5, 99.99)),
    st.one_of(st.sampled_from([0.68, 0.8, 1.0]), st.floats(0.01, 1.0)),
)
wild = st.builds(
    lambda load, p_primary, p_secondary: NetworkParams(
        100.0, load, 1.0, p_primary, p_secondary
    ),
    st.floats(0.5, 99.99),
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e308, -1e308])),
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e308, -1e308])),
)
economies = st.one_of(calibrated, calibrated, wild)
# Across the seam of the 4,096-state chunks.
sizes = st.one_of(st.integers(2, 60), st.integers(2, 5000), st.integers(4090, 4200))
anchors = st.integers(0, 3)
# q underflows at ratio 2,000 from n = 10 on.
ratios = st.one_of(st.sampled_from([0.0, 1.0, 10.0, 100.0, 2000.0]), st.floats(0.0, 1e5))
rule_specs = st.one_of(
    st.tuples(st.just("ratio"), ratios),
    st.tuples(st.just("fermi"), st.floats(0.0, 1e4)),
    st.tuples(st.just("proportional"), st.floats(1e-3, 1e3)),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("none"), st.none()),
)


def step(z):
    """The noise-free step q: copy exactly when the other network pays more."""
    return 1.0 if z > 0.0 else 0.0


def make_rule(spec, params, n):
    """The rule a spec names; None for the default of stationary_noise_free."""
    kind, value = spec
    if kind == "ratio":
        try:
            return fermi_from_ratio(params, n, value)
        except ValueError:
            assume(False)  # no payoff scale to quote the ratio against
    if kind == "fermi":
        return Fermi(beta=value)
    if kind == "proportional":
        return PairwiseProportional(scale=value)
    if kind == "step":
        return CustomRule(fn=step)
    return None


# -- what a call gave ----------------------------------------------------------------


def bits(value):
    """A value's bytes: arrays with their dtype, shape and writeable flag, kernels
    and laws by their vectors, floats by their bits."""
    if isinstance(value, TransitionKernel):
        return bits(value.up), bits(value.down)
    if isinstance(value, StationaryDistribution):
        return value.kind, bits(value.psi)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes(), value.flags.writeable
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value  # a ChainClass compares field by field


def outcome(fn, *args):
    """(the bits of fn(*args) or the type and message of what it raised, the
    set of (category, message) of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = bits(fn(*args))
        except Exception as exc:
            result = type(exc), str(exc)
    return result, {(w.category, str(w.message)) for w in caught}


def same(new, old):
    """Same result, and no warning that the reference did not raise."""
    assert new[0] == old[0]
    assert new[1] <= old[1]


# -- exact oracles -----------------------------------------------------------------


def scalar_q(rule, z):
    """The rule's formula on one Python float: the reference for ``pair``."""
    if isinstance(rule, PairwiseProportional):
        return 0.0 if z <= 0.0 else min(1.0, rule.scale * z)
    if isinstance(rule, Fermi):
        z = rule.beta * z
        if z >= 0.0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)
    return float(rule.fn(z))


def loop_kernel(params, population, rule):
    """The per-k kernel loop, plus the states whose payoff gap was snapped to a tie.
    It takes q from the rule's scalar formula, not from the rule object."""
    n = population.n
    a_p = population.anchored_primary
    a_s = population.anchored_secondary
    denom = n * (n - 1 + a_p + a_s)
    pi_s = model.utility_secondary(params)
    tie_snap = 32.0 * np.finfo(float).eps
    up = np.zeros(n + 1)
    down = np.zeros(n + 1)
    snapped = []
    for k in range(n + 1):
        pi_p = model.utility_primary(params, k, n)
        gain = pi_p - pi_s
        if abs(gain) <= tie_snap * max(abs(pi_p), abs(pi_s)):
            gain = 0.0
            snapped.append(k)
        up[k] = ((n - k) * (k + a_p)) / denom * scalar_q(rule, gain)
        down[k] = (k * (n - k + a_s)) / denom * scalar_q(rule, -gain)
    return up, down, 1.0 - up - down, snapped


def loop_expected_poa(params, psi):
    n = psi.size - 1
    welfare = np.array([model.social_welfare(params, k / n) for k in range(n + 1)])
    _, s_min = model.social_optimum(params)
    return float(np.dot(welfare, psi)) / s_min


def mp_log_profile(kernel):
    """log psi of the kernel's law from its float gains, in 50 digits:
    the exact counting weights and log q of each float exponent beta * g."""
    params, population, rule = kernel.params, kernel.population, kernel.rule
    n, a_p, a_s = population.n, population.anchored_primary, population.anchored_secondary
    pi_s = model.utility_secondary(params)
    z = rule.beta * chain._gain(params, pi_s, np.arange(n + 1, dtype=float) / n)
    with mp.workdps(50):
        log_q = [-mp.log1p(mp.exp(-mp.mpf(v))) for v in z.tolist()]
        log_q_minus = [-mp.log1p(mp.exp(mp.mpf(v))) for v in z.tolist()]
        log_psi, total = [mp.mpf(0)], mp.mpf(0)
        for k in range(1, n + 1):
            weight = mp.mpf((n - k + 1) * (k - 1 + a_p)) / (k * (n + a_s - k))
            total += mp.log(weight) + log_q[k - 1] - log_q_minus[k]
            log_psi.append(total)
        peak = max(log_psi)
        psi = [mp.exp(v - peak) for v in log_psi]
        norm = mp.fsum(psi)
        return np.array([float(v / norm) for v in psi]), float(max(abs(v) for v in log_psi))


def power_reference(kernel):
    """Stationary law by power iteration of the tridiagonal operator from
    the uniform vector, until the sup change drops below 1e-13."""
    psi = np.full(kernel.n + 1, 1.0 / (kernel.n + 1))
    up, down, stay = kernel.up, kernel.down, 1.0 - kernel.up - kernel.down
    for _ in range(200_000):
        nxt = psi * stay
        nxt[1:] += psi[:-1] * up[:-1]
        nxt[:-1] += psi[1:] * down[1:]
        nxt /= nxt.sum()
        delta = float(np.abs(nxt - psi).max())
        psi = nxt
        if delta < 1e-13:
            return psi / psi.sum()
    raise AssertionError("power iteration did not converge in 200,000 iterations")


def loop_balance_block(kernel, lo, hi, anchor_above):
    """A balance block of stationary_eigen, assembled row by row and solved by
    scipy's solve_banded: the oracle to a bound, since cyclic reduction rounds
    differently from a banded LU."""
    up, down = kernel.up, kernel.down
    size = hi - lo + 1
    ab = np.zeros((3, size))
    rhs = np.zeros(size)
    for s in range(lo, hi + 1):
        r = s - lo
        ab[1, r] = -(up[s] + down[s])
        if r + 1 < size:
            ab[0, r + 1] = down[s + 1]
        if r - 1 >= 0:
            ab[2, r - 1] = up[s - 1]
    if anchor_above:
        rhs[size - 1] = -down[hi + 1]
    else:
        rhs[0] = -up[lo - 1]
    return solve_banded((1, 1), ab, rhs)


def oracle_eigen(kernel):
    """stationary_eigen's law with each block solved by loop_balance_block."""
    n = kernel.n
    anchor = int(np.argmax(chain._log_profile(kernel)))
    psi = np.zeros(n + 1)
    psi[anchor] = 1.0
    if anchor > 0:
        psi[:anchor] = loop_balance_block(kernel, 0, anchor - 1, anchor_above=True)
    if anchor < n:
        psi[anchor + 1 :] = loop_balance_block(kernel, anchor + 1, n, anchor_above=False)
    psi = np.clip(psi, 0.0, None)
    return psi / psi.sum()


def exact_flow(params, gain):
    """The field at the working precision, from the float parameters taken
    exactly, and its rest point B / A (where A > 0; else -1)."""
    cap, lam, weight = (mp.mpf(v) for v in (params.capacity, params.arrival, params.delay_weight))
    margin = weight / (cap - lam) - mp.mpf(params.price_primary) + mp.mpf(params.price_secondary)

    def field(x):
        x = mp.mpf(x)
        return gain * x * (1 - x) * (margin - weight / (cap - lam * x))

    return field, (cap * margin - weight) / (lam * margin) if margin > 0 else mp.mpf(-1)


def exact_time(field, star, start, share):
    """The integral of 1 / field from start to share, split where the distance
    to the rest point falls by each factor of 16, so that every piece is smooth."""
    start, share = mp.mpf(start), mp.mpf(share)
    rest = star if 0 < star < 1 else mp.mpf(field(start) > 0)
    points, gap = [start], abs(start - rest)
    while gap / 16 > abs(share - rest):
        gap /= 16
        points.append(rest + mp.sign(start - rest) * gap)
    return mp.quad(lambda x: 1 / field(x), points + [share])


# -- frozen references ---------------------------------------------------------------


def reference_fermi_pair(rule, payoff_diffs):
    """Fermi.pair."""
    diffs = np.asarray(payoff_diffs, dtype=float)
    q_up, q_down = np.empty(diffs.size), np.empty(diffs.size)
    for lo in range(0, diffs.size, _CHUNK):
        z = rule.beta * diffs[lo : lo + _CHUNK]
        e = np.exp((-np.abs(z)).astype(complex)).real
        high, low = 1.0 / (1.0 + e), e / (1.0 + e)
        q_up[lo : lo + _CHUNK] = np.where(z >= 0.0, high, low)
        q_down[lo : lo + _CHUNK] = np.where(z <= 0.0, high, low)
    return q_up, q_down


def reference_pair(rule, payoff_diffs):
    """``rule.pair``: the reference body for Fermi, the rule's own otherwise."""
    if isinstance(rule, Fermi):
        return reference_fermi_pair(rule, payoff_diffs)
    return rule.pair(payoff_diffs)


def reference_gain(params, pi_s, shares):
    """chain._gain."""
    pi_p = model.utility_primary_at_share(params, shares)
    gain = pi_p - pi_s
    tie = np.maximum(np.abs(pi_p, out=pi_p), abs(pi_s), out=pi_p)
    tie *= 32.0 * np.finfo(float).eps
    gain[np.abs(gain) <= tie] = 0.0
    return gain


def reference_rates(params, population, rule):
    """chain._rates, in one array pass over all n + 1 states: (up, down)."""
    n = population.n
    a_p = int(population.anchored_primary)
    a_s = int(population.anchored_secondary)
    denom = n * (n - 1 + a_p + a_s)
    if denom > 2**53:
        raise ValueError(f"n*(n-1+a_p+a_s) = {denom} exceeds 2**53, the limit of exact weights")
    pi_s = model.utility_secondary(params)
    # The gain is monotone in k: finite at k = 0 and k = n, it is finite at every k.
    if not all(math.isfinite(model.utility_primary_at_share(params, x) - pi_s) for x in (0.0, 1.0)):
        raise ValueError("the payoff difference is not finite: the delay or a price overflows")
    k = np.arange(n + 1.0)
    q_up, q_down = reference_pair(rule, reference_gain(params, pi_s, k / n))
    return (n - k) * (k + a_p) / denom * q_up, k * (n + a_s - k) / denom * q_down


def reference_build_kernel(params, population, rule):
    """build_kernel: the (up, down) its kernel would keep."""
    return reference_kernel_post_init(*reference_rates(params, population, rule))


def reference_check_rates(up, down):
    """chain._check_rates: ValueError unless up and down are probabilities whose
    sum stays within 1."""
    for name, arr in (("up", up), ("down", down)):
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # false on a NaN too
            raise ValueError(f"{name} entries must be probabilities in [0, 1]")
    for lo in range(0, up.size, _CHUNK):
        if (1.0 - up[lo : lo + _CHUNK] - down[lo : lo + _CHUNK]).min() < 0.0:
            raise ValueError("rows must sum to 1: up + down exceeds 1 at some state")


def reference_kernel_post_init(up, down):
    """TransitionKernel.__post_init__ on (up, down): the vectors it would keep."""
    up, down = _frozen(up), _frozen(down)
    if up.shape != down.shape or up.ndim != 1 or up.size < 3:
        raise ValueError("up/down must be equal-length vectors over k = 0..n with n >= 2")
    reference_check_rates(up, down)
    if up[-1] != 0.0 or down[0] != 0.0:
        raise ValueError("structural zeros violated: need up[n] == 0 and down[0] == 0")
    return _readonly(up), _readonly(down)


def reference_min_rate(kernel):
    """TransitionKernel._min_rate."""
    population, rule = kernel.population, kernel.rule
    if kernel.params is None or population is None or rule is None or rule.log_pair is None:
        return math.inf
    up = kernel.up[0 if population.anchored_primary else 1 : kernel.n]
    down = kernel.down[1 : kernel.n + 1 if population.anchored_secondary else kernel.n]
    return float(min(up.min(), down.min()))


# The decision whether a zero rate is an underflowed q, as five places made it
# before each kernel kept its smallest rate.  Only ``rule.positive`` is gone;
# it was true on Fermi alone, so the reference reads the rule's type instead.


def reference_positive_rule(kernel):
    """chain._positive_rule."""
    rule = kernel.rule
    built = kernel.params is not None and kernel.population is not None
    return built and rule is not None and isinstance(rule, Fermi)


def reference_classify(kernel):
    """chain._classify."""
    up, down = kernel.up, kernel.down
    n = kernel.n
    if up[:n].min() > 0.0 and down[1:].min() > 0.0:
        return ChainClass(kind="irreducible", detail="all interior moves possible")
    up_pos, down_pos = up > 0.0, down > 0.0
    if reference_positive_rule(kernel):
        k, population = np.arange(n + 1), kernel.population
        up_pos = (k < n) & ((k > 0) | (population.anchored_primary > 0))
        down_pos = (k > 0) & ((k < n) | (population.anchored_secondary > 0))
        if up_pos[:n].all() and down_pos[1:].all():
            return ChainClass(
                kind="irreducible",
                detail="all interior moves possible; some rates underflow to 0 in float",
            )
    if not up_pos[0] and not down_pos[n]:
        suffix_up = np.logical_and.accumulate(up_pos[n - 1 : 0 : -1])[::-1]
        prefix_down = np.logical_and.accumulate(down_pos[1:n])
        if (suffix_up | prefix_down).all():
            return ChainClass(
                kind="absorbing",
                absorbing_states=(0, n),
                detail="boundary states trap and every interior state drains to a boundary",
            )
    zero_up = np.flatnonzero(~up_pos[:n]).tolist()
    zero_down = (np.flatnonzero(~down_pos[1:]) + 1).tolist()
    return ChainClass(
        kind="other",
        detail=f"blocked up moves at k={zero_up}, blocked down moves at k={zero_down}",
    )


def reference_refuses_underflow(kernel, up, down):
    """Whether chain._refuse_underflow refuses the kernel, given the slices of
    the rates the solve couples."""
    return reference_positive_rule(kernel) and min(up.min(), down.min()) == 0.0


def reference_log_profile(kernel):
    """chain._log_profile, with its log-domain steps in one array pass."""
    up, down = kernel.up[:-1], kernel.down[1:]
    tiny = np.finfo(float).tiny
    if not reference_positive_rule(kernel) or min(up.min(), down.min()) >= tiny:
        return np.concatenate(([0.0], np.cumsum(np.log(up) - np.log(down))))
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.log(up) - np.log(down)
    j = np.flatnonzero((up < tiny) | (down < tiny))
    n, population = kernel.n, kernel.population
    a_p, a_s = population.anchored_primary, population.anchored_secondary
    lower = j.astype(float)
    upper = lower + 1.0
    pi_s = model.utility_secondary(kernel.params)
    gain = reference_gain(kernel.params, pi_s, np.append(lower, upper) / n)
    log_q, log_q_minus = kernel.rule.log_pair(gain)
    weights = (n - lower) * (lower + a_p) / (upper * (n + a_s - upper))
    steps[j] = np.log(weights) + log_q[: j.size] - log_q_minus[j.size :]
    return np.concatenate(([0.0], np.cumsum(steps)))


def reference_stationary_noise_free(params, population, rule=None):
    """stationary_noise_free."""
    up, down = reference_rates(params, population, PairwiseProportional() if rule is None else rule)
    return reference_two_point(params, population.n, lambda lo, hi: (up[lo:hi], down[lo:hi]))


def reference_two_point(params, n, rates):
    """chain._two_point on rates (lo, hi) -> (up, down), which it checks chunk by chunk."""
    k_star = model.critical_state(params, n)
    away = False  # a move down from below k* or up from k* onwards
    for lo in range(0, n + 1, _CHUNK):
        up, down = rates(lo, min(lo + _CHUNK, n + 1))
        reference_check_rates(up, down)  # so no rate is negative, and down[0] is 0
        cut = max(k_star - lo, 0)
        away = away or down[:cut].any() or up[cut:].any()
    if not 1 <= k_star <= n - 1:
        raise ChainStructureError(
            f"critical state k*={k_star} sits on the boundary of 0..{n}; "
            "the two-point law needs an interior critical state"
        )
    if away:
        raise ChainStructureError(
            "rule is not noise-free: the kernel allows moves away from the critical pair"
        )
    up, down = rates(k_star - 1, k_star + 1)
    t_up, t_down = float(up[0]), float(down[1])
    if t_up + t_down == 0.0:
        raise ChainStructureError(
            "chain is frozen around the critical state; two-point law undefined"
        )
    psi = np.zeros(n + 1)
    psi[k_star - 1] = t_down / (t_up + t_down)
    psi[k_star] = 1.0 - psi[k_star - 1]
    return StationaryDistribution(psi=_readonly(psi), kind="two_point_noise_free")


def reference_law_post_init(psi, kind):
    """StationaryDistribution.__post_init__ on (psi, kind): the kind and vector
    it would keep."""
    if kind not in _DISTRIBUTION_KINDS:
        raise ValueError(f"kind must be one of {_DISTRIBUTION_KINDS}, got {kind!r}")
    psi = _frozen(psi)
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError("psi must be a vector over at least two states")
    if not np.isfinite(psi).all():
        raise ValueError("psi entries must be finite")
    if psi.min() < 0.0:
        if psi.min() < -1e-12:
            raise ValueError(f"negative probability in psi: min entry {psi.min()!r}")
        psi = np.clip(psi, 0.0, None)
    if abs(float(psi.sum()) - 1.0) > 1e-9:
        raise ValueError(f"psi must sum to 1, got {float(psi.sum())!r}")
    return kind, _readonly(psi)


def reference_expected_poa(params, distribution):
    """model.expected_poa, summing every chunk of states, those without mass too."""
    psi = np.asarray(getattr(distribution, "psi", distribution), dtype=float)
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError("distribution must be a vector over at least two states")
    if psi.min() < -1e-12:
        raise ValueError(f"distribution has negative mass: min entry {psi.min()!r}")
    total = float(psi.sum())
    if not math.isfinite(total):  # a NaN entry passes the sign test and the tolerance below
        raise ValueError(f"distribution has non-finite mass: entries sum to {total!r}")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution is not normalised: entries sum to {total!r}")
    n = psi.size - 1
    mean_welfare = 0.0
    for lo in range(0, psi.size, _CHUNK):
        welfare = model.social_welfare(params, np.arange(lo, min(lo + _CHUNK, psi.size)) / n)
        mean_welfare += float(np.dot(welfare, psi[lo : lo + _CHUNK]))
    return mean_welfare / model._minimal_welfare(params)
