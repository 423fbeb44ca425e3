import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from quadrature_reference import hypoexp_mp, log_expect_mp
from secrelay import analytics, specfun
from secrelay.model import EveModel, SystemConfig, mean_gains_from_topology, paper_topology
from secrelay.specfun import (
    EULER_GAMMA,
    _hypoexp_row,
    digamma_int,
    hypoexp_cdf,
    hypoexp_tail_integral,
    maxexp_cdf,
    maxexp_log_expect,
    q_function,
    scaled_e1,
    signed_subset_eval,
    subset_terms,
)


def test_scaled_e1_matches_scipy_across_regimes():
    # Span both branches: series below 1, maxexp_log_expect's trapezoid above.
    s = np.logspace(-8, 2.5, 400)
    np.testing.assert_allclose(scaled_e1(s), np.exp(s) * special.exp1(s), rtol=1e-12)


def test_scaled_e1_array_call_equals_scalar_calls():
    # The series stops only once no term left can change any element, and
    # above 1 the trapezoid's grid is fixed by the one unit mean, whatever s.
    rng = np.random.default_rng(10)
    s = np.concatenate([
        rng.uniform(1.0, 6.0, 50_000),
        np.exp(rng.uniform(math.log(1e-8), math.log(500.0), 50_000)),
    ])
    rng.shuffle(s)
    got = scaled_e1(s)
    # Scalar calls cost ~0.3 ms each, so every 25th element is checked one by
    # one (both branches are spread evenly through the shuffled array).
    picked = s[::25]
    want = np.array([scaled_e1(float(x)) for x in picked])
    assert got[::25].tobytes() == want.tobytes()
    np.testing.assert_allclose(got, np.exp(s) * special.exp1(s), rtol=1e-12)


def test_scaled_e1_matches_mpmath_above_one():
    # The trapezoid branch out to the top of its range, at 40 digits.
    s = np.concatenate([[np.nextafter(1.0, 2.0)], np.logspace(0.0, 300.0, 901)[1:]])
    with mpmath.workdps(40):
        want = [float(mpmath.exp(mpmath.mpf(v)) * mpmath.e1(mpmath.mpf(v))) for v in s]
    np.testing.assert_allclose(scaled_e1(s), want, rtol=1e-15, atol=0.0)


def _ei(x):
    # Ei(x) = -exp(x) * scaled_e1(-x) on x < 0: the form the closed forms use.
    return -np.exp(x) * scaled_e1(-np.asarray(x, dtype=float))


def test_exp_int_ei_frozen_values():
    assert math.isclose(_ei(-1.0), -0.2193839343955205, rel_tol=1e-12)
    assert math.isclose(_ei(-0.01), -4.037929576538113, rel_tol=1e-12)


def test_exp_int_ei_matches_scipy():
    x = -np.logspace(-8, 2.7, 300)
    np.testing.assert_allclose(_ei(x), special.expi(x), rtol=1e-11)


def test_exp_int_ei_tail_and_domain():
    # Out to the underflow edge, the value stays a negative normal float.
    assert _ei(-700.0) < 0.0
    assert abs(_ei(-700.0)) < 1e-300
    # x >= 0 or non-finite maps to a scaled_e1 argument it rejects.
    for bad in (0.0, 1.0, np.inf):
        with pytest.raises(ValueError):
            _ei(bad)


def test_scaled_e1_scalar_type_and_bounds():
    v = scaled_e1(1.0)
    assert isinstance(v, float)
    # Bounds separated by ~1/s^2 relative: only resolvable for moderate s.
    s = np.logspace(-6, 5, 200)
    out = scaled_e1(s)
    assert np.all(out > 1.0 / (s + 1.0))
    assert np.all(out < 1.0 / s)
    assert np.all(np.diff(out) < 0)
    # Far beyond where the bounds are resolvable, the value tracks 1/s.
    assert math.isclose(scaled_e1(1e290), 1e-290, rel_tol=1e-10)


def test_scaled_e1_huge_argument_asymptotic():
    s = 1000.0
    asym = 1.0 / s - 1.0 / s**2 + 2.0 / s**3
    assert math.isclose(scaled_e1(s), asym, rel_tol=1e-7)


def test_scaled_e1_domain_errors():
    with pytest.raises(ValueError):
        scaled_e1(0.0)
    with pytest.raises(ValueError):
        scaled_e1(-2.0)
    with pytest.raises(ValueError):
        scaled_e1([1.0, np.inf])


def test_q_function_values():
    assert q_function(0.0) == 0.5
    assert math.isclose(q_function(1.0), 0.15865525393145707, rel_tol=1e-12)
    assert q_function(40.0) < 1e-300
    assert math.isclose(q_function(-40.0), 1.0, rel_tol=1e-15)
    arr = q_function(np.array([0.0, 1.0]))
    assert arr.shape == (2,)


def test_digamma_matches_scipy():
    assert math.isclose(digamma_int(1), -EULER_GAMMA, rel_tol=1e-15)
    assert math.isclose(digamma_int(3), 0.9227843350984671, rel_tol=1e-12)
    for n in range(1, 30):
        assert math.isclose(digamma_int(n), float(special.psi(n)), rel_tol=1e-13)


def test_harmonic_identity_with_digamma():
    # psi(k+1) + eulergamma is the harmonic number H_k.
    for k in range(1, 21):
        h_k = math.fsum(1.0 / j for j in range(1, k + 1))
        assert math.isclose(digamma_int(k + 1) + EULER_GAMMA, h_k, rel_tol=1e-14)
    with pytest.raises(ValueError):
        digamma_int(0)


def test_subset_terms_bitmask_order():
    sizes, sums = subset_terms([1.0, 10.0, 100.0])
    assert sizes.tolist() == [1, 1, 2, 1, 2, 2, 3]
    np.testing.assert_allclose(sums, [1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0])


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_subset_terms_equals_the_bitmask_construction(n):
    # The construction subset_terms replaced: one masked pass per element.
    rates = np.random.default_rng(n).uniform(0.01, 100.0, n)
    idx = np.arange(1 << n, dtype=np.uint32)
    sums = np.zeros(1 << n)
    for i in range(n):
        sums[(idx >> np.uint32(i)) & 1 == 1] += rates[i]
    sizes = np.bitwise_count(idx).astype(np.int64)
    got_sizes, got_sums = subset_terms(rates)
    assert got_sizes.dtype == np.int64 and got_sums.dtype == np.float64
    assert got_sizes.tobytes() == sizes[1:].tobytes()
    assert got_sums.tobytes() == sums[1:].tobytes()


def _enumerated(rates, array_fn):
    # Reference: every subset's term from one array_fn call, summed by fsum.
    sizes, sums = subset_terms(rates)
    return _signed_fsum(np.asarray(array_fn(sizes, sums), dtype=float), sizes)


def test_subset_sum_constant_term_is_minus_one():
    for rates in ([2.0], [1.0, 3.0], [0.5, 0.5, 4.0, 9.0]):
        got = signed_subset_eval(rates, lambda sz, s: np.ones_like(s))
        assert math.isclose(got, -1.0, rel_tol=1e-15)


def test_subset_sum_single_rate():
    got = signed_subset_eval([0.5], lambda sz, s: np.exp(-s))
    assert math.isclose(got, -math.exp(-0.5), rel_tol=1e-15)


def test_subset_sum_matches_direct_enumeration():
    rates = [0.3, 1.1, 2.7]
    s_val = 0.8
    direct = 0.0
    for mask in range(1, 8):
        members = [rates[i] for i in range(3) if mask >> i & 1]
        direct += (-1.0) ** len(members) * math.exp(-s_val * sum(members))
    got = signed_subset_eval(rates, lambda sz, s: np.exp(-s_val * s))
    assert math.isclose(got, direct, rel_tol=1e-12)


def test_subset_sum_is_maxexp_complement():
    # At f(u) = exp(-x * sum(u)), inclusion-exclusion gives F_max(x) - 1.
    rates = [1.0, 0.25, 0.8]
    means = [1.0 / r for r in rates]
    for x in (0.1, 1.0, 5.0):
        lhs = signed_subset_eval(rates, lambda sz, s: np.exp(-x * s))
        assert math.isclose(lhs, maxexp_cdf(means, x) - 1.0, rel_tol=1e-12)


# The two array_fns analytics passes: the power offset's and the SER's.
ANALYTICS_ARRAY_FNS = {
    "offset": lambda _sz, s: np.log2(s),
    "ser": lambda _sz, s: 1.0 / np.sqrt(1.0 + 2.0 * s * 2.5 / 2.0),
}


def _signed_fsum(vals, odd):
    return math.fsum(np.where(np.asarray(odd) & 1, -vals, vals).tolist())


# Plus one that reads the sizes, so a block total negated by the wrong
# parity changes the sum.
ARRAY_FNS = {**ANALYTICS_ARRAY_FNS, "sized": lambda sz, s: sz / (1.0 + s)}


def test_signed_subset_eval_matches_subset_sum():
    # The exact accumulator rounds once, as fsum does: equal, not close.
    # Past 2^14 subsets the sum runs in blocks that share their high bits.
    # At 30 dB the SER's terms cancel to rounding noise, which must match too.
    for k in (1, 4, 9, 13, 14, 15, 17, 18, 20):
        for rho in (10.0, 1000.0):
            rates = 1.0 / mean_gains_from_topology(paper_topology(k, 0)).gbar_rd(rho)
            for name, array_fn in ARRAY_FNS.items():
                want = _enumerated(rates, array_fn)
                assert signed_subset_eval(rates, array_fn) == want, (k, rho, name)


@pytest.mark.parametrize("k", [2, 3, 9])
def test_signed_subset_eval_carries_across_blocks(monkeypatch, k):
    # Blocks of 2^2 subsets: K=9 walks 128 of them, each adding its high-bit
    # rates to the low sums and its exact total to the carry.
    monkeypatch.setattr(specfun, "_BLOCK_BITS", 2)
    rates = 1.0 / mean_gains_from_topology(paper_topology(k, 0)).gbar_rd(10.0)
    for name, array_fn in ARRAY_FNS.items():
        assert signed_subset_eval(rates, array_fn) == _enumerated(rates, array_fn), name
    # The low bits' 3 non-empty subsets, then 4 subsets per high-bit pattern.
    lengths = []
    signed_subset_eval(rates, lambda sz, s: lengths.append(len(sz)) or np.ones_like(s))
    assert lengths == [3] + [4] * ((1 << (k - 2)) - 1)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subset_sums_run_in_bounded_memory():
    # At K=20 the whole 2^20-term arrays took 52 MB; blocks of 2^14 need ~1 MB.
    gains = mean_gains_from_topology(paper_topology(20, 0, relay_ring=0.1))
    for name, call in (("esr", lambda: analytics.esr_dbcj(gains, 100.0)),
                       ("ser", lambda: analytics.ser_dbcj(gains, 10.0))):
        peak = _traced_peak(call)
        assert peak < 4 << 20, (name, peak)


def test_collusion_dt_bound_runs_in_bounded_memory():
    # The eavesdroppers' tail integral takes the 2^16 relay subsets a few
    # dozen at a time, about 4 MB at the peak; the partial-fraction form it
    # replaced peaked at about 17 MB.
    gains = mean_gains_from_topology(paper_topology(16, 5, relay_ring=0.1))
    cfg = SystemConfig(n_antennas=64, n_relays=16, n_eves=5, snr_linear=100.0,
                       eve_model=EveModel.CE)
    peak = _traced_peak(lambda: analytics.esr_dt_lb(gains, cfg, EveModel.CE))
    assert peak < 8 << 20, peak


def _exact_sum_cases():
    rng = np.random.default_rng(13)
    n = 5000
    spread = rng.standard_normal(n) * np.exp2(rng.integers(-700, 701, n).astype(float))
    x = rng.standard_normal(1000) * np.exp2(rng.integers(-30, 31, 1000).astype(float))
    spread_odd = rng.integers(0, 26, n)
    huge = rng.uniform(1.0e308, 1.7e308, 4095)
    pair_odd = rng.integers(0, 2, 4095)
    tiny = rng.integers(1, 1 << 52, 8192) * 5e-324
    # Below 2^1015, so that the signed total stays far from overflow.
    every_binade = np.ldexp(rng.uniform(1.0, 2.0, 1 << 14), rng.integers(-1074, 1015, 1 << 14))
    return {
        "exponents-700-to-700": (spread, spread_odd),
        "signed-zeros": (np.array([0.0, -0.0, 3.5, -0.0, -3.5, 0.0]), np.arange(6)),
        "subnormal-total": (np.array([5e-324, 5e-324, -1e-310]), np.zeros(3, dtype=np.int64)),
        "cancellation-plus-residue": (np.concatenate([x, x, [2.0**-1000]]),
                                      np.concatenate([np.zeros(1000, np.int64),
                                                      np.ones(1000, np.int64), [0]])),
        "2^20-max-significands": (np.full(1 << 20, np.nextafter(2.0, 0.0)),
                                  np.zeros(1 << 20, dtype=np.int64)),
        "tie-to-even": (np.array([1.0 + 2.0**-52, 2.0**-53]), np.zeros(2, dtype=np.int64)),
        "just-past-a-tie": (np.array([1.0, 2.0**-53, 2.0**-300]), np.zeros(3, dtype=np.int64)),
        # Pairs near 1.7e308 that cancel to their last bits, one pair that
        # cancels exactly, and subnormals: the part summed at 2^-600.
        "overflow-part": (np.concatenate([np.column_stack([huge, np.nextafter(huge, 0.0)]).ravel(),
                                          [1.7e308, 1.7e308], tiny]),
                          np.concatenate([np.repeat(pair_odd, 2) + np.tile([0, 1], 4095),
                                          [0, 1], rng.integers(0, 2, 8192)])),
        # n terms within 2^-22 of -2, on either side of n + 2 = 2^14, where
        # the extraction's 2^m >= n + 2 moves m up by one: with 2^m < n,
        # their parts' sum would pass -2^(m+1) and lose its last bit.
        **{f"max-significands-{n}": (2.0 - rng.integers(1, 1 << 30, n) * 2.0**-52,
                                     np.ones(n, dtype=np.int64))
           for n in ((1 << 14) - 2, (1 << 14) - 1, 1 << 14, (1 << 14) + 1)},
        # One block from the least subnormal to 2^1023: the most passes.
        "exponents-1074-to-1023": (np.concatenate([[5e-324, 2.0**1023], every_binade]),
                                   rng.integers(0, 2, (1 << 14) + 2)),
    }


def _both_sum_paths(monkeypatch):
    # _FSUM_BELOW at 0 sends every sum to the exact accumulator, at 2^21 to
    # math.fsum; each case runs on both sides of the threshold.
    for fsum_below in (0, 1 << 21):
        monkeypatch.setattr(specfun, "_FSUM_BELOW", fsum_below)
        yield fsum_below


@pytest.mark.parametrize("case", list(_exact_sum_cases()))
def test_exact_signed_sum_equals_fsum(case, monkeypatch):
    vals, odd = _exact_sum_cases()[case]
    want = _signed_fsum(vals, odd)
    for path in _both_sum_paths(monkeypatch):
        got = specfun._exact_signed_sum(vals, odd)
        assert got == want, path
        assert math.copysign(1.0, got) == math.copysign(1.0, want), path


@pytest.mark.parametrize("case", list(_exact_sum_cases()))
def test_exact_units_is_the_exact_total(case):
    # The integer total shows every lost bit, also one the rounding would hide.
    vals, odd = _exact_sum_cases()[case]
    signed = np.where(odd & 1, -vals, vals)
    want = sum((num << specfun._UNIT_BITS) // den
               for num, den in map(float.as_integer_ratio, signed.tolist()))
    assert specfun._exact_units(signed) == want


def test_exact_signed_sum_refuses_non_finite_terms(monkeypatch):
    cases = [([1.0, bad, 2.0], [0, 1, 2]) for bad in (math.nan, math.inf, -math.inf)]
    cases.append(([math.inf, -math.inf, 0.0], [0, 0, 0]))  # fsum raises ValueError here
    for path in _both_sum_paths(monkeypatch):
        for vals, odd in cases:
            with pytest.raises(ArithmeticError):
                specfun._exact_signed_sum(np.array(vals), np.array(odd))


def test_exact_signed_sum_survives_an_intermediate_overflow(monkeypatch):
    # fsum raises on a partial sum past the float range; the total is finite.
    vals = np.array([1e308, 1e308, 1e308])
    for path in _both_sum_paths(monkeypatch):
        assert specfun._exact_signed_sum(vals, np.array([0, 0, 1])) == 1e308, path


def test_signed_subset_eval_iid_collapse_agrees(monkeypatch):
    # 16 identical rates collapse to 16 binomial terms; 15 still enumerate.
    fn = lambda sz, s: 1.0 / np.sqrt(1.0 + s)
    enumerated = []
    monkeypatch.setattr(
        specfun, "subset_terms", lambda r: enumerated.append(len(r)) or subset_terms(r)
    )
    for n, enumerates in ((16, False), (15, True)):
        enumerated.clear()
        got = signed_subset_eval([1.3] * n, fn)
        assert math.isclose(got, _enumerated([1.3] * n, fn), rel_tol=1e-10)
        assert bool(enumerated) is enumerates, n
    # The collapsed sum is the 16 binomial terms added exactly.
    j = np.arange(1, 17)
    terms = np.array([float(math.comb(16, m)) for m in j]) * fn(j, 1.3 * j)
    assert signed_subset_eval([1.3] * 16, fn) == _signed_fsum(terms, j)


def test_rate_list_validation():
    with pytest.raises(ValueError):
        subset_terms([])
    with pytest.raises(ValueError):
        subset_terms([1.0, -1.0])
    with pytest.raises(ValueError):
        subset_terms(list(np.ones(26)))


def test_maxexp_cdf_values():
    assert maxexp_cdf([1.0], 0.0) == 0.0
    want = (1.0 - math.exp(-1.0)) ** 2
    assert math.isclose(maxexp_cdf([1.0, 1.0], 1.0), want, rel_tol=1e-14)
    assert math.isclose(maxexp_cdf([2.0], 2.0), 1.0 - math.exp(-1.0), rel_tol=1e-14)
    x = np.linspace(0.0, 30.0, 200)
    out = maxexp_cdf([1.0, 3.0, 0.5], x)
    assert np.all(np.diff(out) >= 0)
    assert out[-1] > 1.0 - 1e-4
    with pytest.raises(ValueError):
        maxexp_cdf([1.0], -0.5)
    with pytest.raises(ValueError):
        maxexp_cdf([], 1.0)


def test_maxexp_cdf_refuses_nan_and_keeps_infinity():
    # A NaN x came back as a NaN CDF, where hypoexp_cdf refuses it.
    for x in (math.nan, np.array([1.0, math.nan]), np.array([[0.5], [-math.inf]])):
        with pytest.raises(ValueError, match="x >= 0"):
            maxexp_cdf([1.0, 2.0], x)
    assert maxexp_cdf([1.0, 2.0], math.inf) == 1.0
    assert maxexp_cdf([1.0, 2.0], np.array([0.0, math.inf])).tolist() == [0.0, 1.0]


def test_maxexp_cdf_against_sampling():
    rng = np.random.default_rng(7)
    means = [0.5, 1.0, 2.0]
    draws = np.max(rng.exponential(means, size=(200_000, 3)), axis=1)
    for x in (0.5, 1.5, 4.0):
        emp = np.mean(draws <= x)
        assert abs(emp - maxexp_cdf(means, x)) < 5e-3


C_NO_COLLUSION = 1.0 + math.sqrt(2.0)  # the ESR's c = 1+B at C = 0


def _mean_layouts(k):
    """Per-unit-SNR means: the paper's relay ring, iid, and spread over 14
    decades (K=1 takes the smallest)."""
    return {
        "paper": mean_gains_from_topology(paper_topology(k, 0)).mu_rd,
        "iid": np.ones(k),
        "spread": np.logspace(-8, 6, k),
    }


@pytest.mark.parametrize("db", [-10, 0, 20, 40, 60])
@pytest.mark.parametrize("k", [1, 2, 4, 8, 12, 18, 20, 25])
def test_maxexp_log_expect_matches_mpmath(k, db):
    for name, mu in _mean_layouts(k).items():
        means = 10.0 ** (db / 10.0) * mu
        want = log_expect_mp(means, C_NO_COLLUSION)
        assert maxexp_log_expect(means, C_NO_COLLUSION) == pytest.approx(want, rel=1e-13), name


def test_log_expect_oracle_matches_the_mpmath_subset_sum():
    # The oracle itself, against the inclusion-exclusion form at 40 digits:
    # sum over non-empty subsets u of (-1)^(|u|+1) e^s E1(s), s = c sum_u 1/m.
    means = [0.03, 0.7, 2.0, 5e3]
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for mask in range(1, 1 << len(means)):
            u = [m for i, m in enumerate(means) if mask >> i & 1]
            s = mpmath.mpf(C_NO_COLLUSION) * mpmath.fsum(1 / mpmath.mpf(m) for m in u)
            total += (-1) ** (len(u) + 1) * mpmath.exp(s) * mpmath.e1(s)
    assert log_expect_mp(means, C_NO_COLLUSION) == pytest.approx(float(total), rel=1e-25)


def test_maxexp_log_expect_of_one_mean_is_scaled_e1():
    # One exponential with mean m: E[ln(1 + X/c)] = e^s E1(s) at s = c/m.
    for s in np.logspace(-6, 6, 49):
        got = maxexp_log_expect(np.array([C_NO_COLLUSION / s]), C_NO_COLLUSION)
        assert got == pytest.approx(scaled_e1(float(s)), rel=1e-14)


def test_maxexp_log_expect_domain_errors():
    for means in ([], [1.0, 0.0], [1.0, np.inf], [[1.0]]):
        with pytest.raises(ValueError, match="means"):
            maxexp_log_expect(means, 1.0)
    for c in (0.0, -1.0, np.nan, np.inf, [2.0, 0.0], np.array([1.0, -3.0]), [[1.0, np.inf]]):
        with pytest.raises(ValueError, match="c must be positive"):
            maxexp_log_expect([1.0], c)


def test_maxexp_log_expect_array_c_equals_scalar_calls(monkeypatch):
    # Blocks of a few c: every element is the float one scalar call gives,
    # since with min(means) <= e^13 min(c) the grid does not depend on c.
    monkeypatch.setattr(specfun, "_GRID_BLOCK", 1000)
    means = 100.0 * mean_gains_from_topology(paper_topology(5, 0)).mu_rd
    c = np.geomspace(1e-5 * means.min(), 1e6, 40)
    got = maxexp_log_expect(means, c)
    want = np.array([maxexp_log_expect(means, float(v)) for v in c])
    assert got.tobytes() == want.tobytes()
    assert maxexp_log_expect(means, c.reshape(5, 8)).shape == (5, 8)
    assert isinstance(maxexp_log_expect(means, np.float64(1.0)), float)


@pytest.mark.parametrize("k", [1, 5])
def test_ergodic_terms_match_mpmath_up_to_200_db(monkeypatch, k):
    # E[ln(1 + X/c)] as esr_dbcj (c = 1 + B) and the NCE esr_dt_lb (c = 1)
    # form it.  Where the means dwarf c the grid must start below c as well:
    # 40 e-folds below the smallest mean, x/(c + x) has not decayed, and the
    # terms were off by up to 7.5e-6 relative (K=1, 180 dB).
    calls = []

    def spy(means, c):
        calls.append((means, c, maxexp_log_expect(means, c)))
        return calls[-1][2]

    monkeypatch.setattr(analytics, "maxexp_log_expect", spy)
    gains = mean_gains_from_topology(paper_topology(k, 2))
    for db in range(0, 201, 20):
        cfg = SystemConfig(n_antennas=16, n_relays=k, n_eves=2, snr_linear=10.0 ** (db / 10.0))
        analytics.esr_dbcj(gains, cfg.snr_linear)
        analytics.esr_dt_lb(gains, cfg, EveModel.NCE)
    assert len(calls) == 22
    for means, c, got in calls:
        assert got == pytest.approx(log_expect_mp(means, c, dps=40), rel=1e-15), (len(means), c)


def test_hypoexp_cdf_two_distinct_means():
    want = 1.0 + math.exp(-1.0) - 2.0 * math.exp(-0.5)
    assert math.isclose(hypoexp_cdf([1.0, 2.0], 1.0), want, rel_tol=1e-12)


def test_hypoexp_cdf_single_mean_is_exponential():
    x = np.linspace(0.0, 10.0, 50)
    np.testing.assert_allclose(hypoexp_cdf([2.0], x), -np.expm1(-x / 2.0), rtol=1e-12)


def test_hypoexp_cdf_erlang_matches_gamma():
    x = np.linspace(0.0, 20.0, 80)
    np.testing.assert_allclose(
        hypoexp_cdf([2.0, 2.0, 2.0], x),
        stats.gamma.cdf(x, a=3, scale=2.0),
        atol=1e-12,
    )


def test_hypoexp_cdf_mixed_repeated_means():
    # Convolution oracle: Erlang(2, mean 1) + Exp(mean 2), CDF at 2.5.
    assert math.isclose(hypoexp_cdf([1.0, 1.0, 2.0], 2.5), 0.30544830499068293, rel_tol=1e-9)


def test_hypoexp_cdf_monotone_in_unit_interval():
    x = np.linspace(0.0, 60.0, 500)
    out = hypoexp_cdf([1.0, 1.0000001, 3.0], x)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.all(np.diff(out) >= -1e-12)


def test_hypoexp_cdf_holds_at_close_means():
    # Ten means within 1e-4 of each other: the partial-fraction weights grew
    # like 1/(spread)^9 and cancelled to a CDF of 1.0.
    means = [1.0 + 1e-4 * j / 9 for j in range(10)]
    assert math.isclose(hypoexp_cdf(means, 5.0), 0.0318189923220236, rel_tol=1e-13)


def _spread_means(n, spread):
    return [1.0 + spread * j / max(n - 1, 1) for j in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 30, 50])
def test_hypoexp_cdf_matches_the_uniformization_series(n):
    # Against the 40-digit mpmath series, every term positive.  The means run
    # from 1 to 1 + spread: exact ties, 1e-6, 1e-3, 1 and 1e3.  The x values
    # reach from CDFs far below 1e-7 to survivals near 1e-12; the oracle costs
    # about q x steps, so only x with q x <= 1000 are checked.
    worst_cdf = worst_small = worst_surv = 0.0
    for spread in (0.0, 1e-6, 1e-3, 1.0, 1e3):
        means = _spread_means(n, spread)
        total = sum(means)
        xs = [f * total for f in (1e-3, 0.05, 0.3, 1.0, 2.0, 2.5)] + [total + 28 * max(means)]
        xs = [x for x in xs if x / min(means) <= 1000.0]
        cdf_mp, surv_mp = hypoexp_mp(means, xs)
        cdf = hypoexp_cdf(means, np.array(xs))
        surv = _hypoexp_row(means, np.array(xs))[:, :-1].sum(axis=1)
        for want_c, want_s, got_c, got_s in zip(cdf_mp, surv_mp, cdf, surv):
            if want_c >= 1e-7:
                worst_cdf = max(worst_cdf, abs(got_c - want_c) / want_c)
            else:
                worst_small = max(worst_small, abs(got_c - want_c))
            if want_s >= 1e-12:
                worst_surv = max(worst_surv, abs(got_s - want_s) / want_s)
        assert [hypoexp_cdf(means, x) for x in xs] == cdf.tolist()
    assert worst_cdf < 1e-13 and worst_small < 1e-19 and worst_surv < 1e-13


def test_hypoexp_survival_holds_through_many_squarings():
    # Means 1e-6 and 1: q x reaches 3e7, so x = 30 takes 25 squarings.  The
    # survival is e^-x/(1 - 1e-6) plus a term below 1e-300; without the
    # diagonal reset each squaring would add its rounding error again.
    for x in (5.0, 30.0):
        surv = _hypoexp_row([1e-6, 1.0], x)[:-1].sum()
        assert math.isclose(surv, math.exp(-x) / (1.0 - 1e-6), rel_tol=1e-14), x


def test_hypoexp_cdf_scales_with_its_means():
    means = np.array(_spread_means(8, 1e-3))
    x = np.array([0.5, 8.0, 30.0])
    base = hypoexp_cdf(means, x)
    for scale in (2.0**-40, 2.0**40):
        assert hypoexp_cdf(means * scale, x * scale).tobytes() == base.tobytes()


def test_hypoexp_cdf_domain():
    for x in (-1.0, np.nan, np.inf, np.array([1.0, -0.5])):
        with pytest.raises(ValueError, match="x >= 0"):
            hypoexp_cdf([1.0, 2.0], x)
    with pytest.raises(ValueError, match="means"):
        hypoexp_cdf([1.0, 0.0], 1.0)
    assert hypoexp_cdf([1.0, 2.0], 0.0) == 0.0
    assert isinstance(hypoexp_cdf([1.0, 2.0], np.float64(1.0)), float)


def _tail_integral_quad(means, s):
    # int_0^inf e^(-s x) P[S > x]/(1 + x) dx in panels of x, the survival
    # from the matrix kernel that the mpmath series checks.
    def f(x):
        return math.exp(-s * x) * float(_hypoexp_row(means, x)[:-1].sum()) / (1.0 + x)

    top = 60.0 * (sum(means) + 1.0)
    breaks = [0.0] + list(np.geomspace(1e-3 * min(means), top, 12))
    return math.fsum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for lo, hi in zip(breaks[:-1], breaks[1:]))


@pytest.mark.parametrize("means", [[0.7], [2.0, 2.0, 2.0], [0.05, 0.3, 4.0, 11.0], [3e4, 3.1e4]])
def test_hypoexp_tail_integral_matches_quadrature(means):
    got = hypoexp_tail_integral(means, np.array([0.0, 0.02, 1.0, 40.0]))
    for s, value in zip((0.0, 0.02, 1.0, 40.0), got):
        assert math.isclose(value, _tail_integral_quad(means, s), rel_tol=1e-12), s


def test_hypoexp_tail_integral_of_one_mean():
    # One exponential: J(s) = int e^(-(s + r) x)/(1 + x) dx = e^(s+r) E1(s+r).
    for m in (0.01, 1.0, 300.0):
        for s in (0.0, 0.5, 1e4):
            want = scaled_e1(s + 1.0 / m)
            assert math.isclose(hypoexp_tail_integral([m], s), want, rel_tol=2e-15), (m, s)


def test_hypoexp_tail_integral_array_equals_scalar_calls(monkeypatch):
    # Blocks of a few values: every element is the float one scalar call gives.
    monkeypatch.setattr(specfun, "_GRID_BLOCK", 1000)
    means = [0.4, 1.3, 1.3, 9.0]
    s = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 40)])
    got = hypoexp_tail_integral(means, s)
    want = np.array([hypoexp_tail_integral(means, float(v)) for v in s])
    assert got.tobytes() == want.tobytes()
    assert hypoexp_tail_integral(means, s[1:].reshape(5, 8)).shape == (5, 8)
    assert isinstance(hypoexp_tail_integral(means, np.float64(1.0)), float)


def test_hypoexp_tail_integral_domain():
    for s in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="s >= 0"):
            hypoexp_tail_integral([1.0], s)
    with pytest.raises(ValueError, match="means"):
        hypoexp_tail_integral([], 1.0)
