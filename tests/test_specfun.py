import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from quadrature_reference import log_expect_mp
from secrelay import analytics, specfun
from secrelay.model import mean_gains_from_topology, paper_topology
from secrelay.specfun import (
    EULER_GAMMA,
    digamma_int,
    exp_poly_recip_integral,
    hypoexp_cdf,
    hypoexp_terms,
    maxexp_cdf,
    maxexp_log_expect,
    q_function,
    scaled_e1,
    signed_subset_eval,
    subset_terms,
)


def test_scaled_e1_matches_scipy_across_regimes():
    # Span both branches: series below 1, continued fraction above.
    s = np.logspace(-8, 2.5, 400)
    np.testing.assert_allclose(scaled_e1(s), np.exp(s) * special.exp1(s), rtol=1e-12)


def test_scaled_e1_array_call_equals_scalar_calls():
    # Each element stops at its own first converged continued-fraction step.
    # A batch used to iterate until every element converged at once, which a
    # large batch above 1 could miss until it raised ArithmeticError.
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


def test_signed_subset_eval_matches_subset_sum():
    # The exact accumulator rounds once, as fsum does: equal, not close.
    # Past 2^14 subsets the sum runs in blocks that share their high bits.
    for k in (1, 4, 9, 13, 14, 15, 17, 18, 20):
        rates = 1.0 / mean_gains_from_topology(paper_topology(k, 0)).gbar_rd(10.0)
        for name, array_fn in ANALYTICS_ARRAY_FNS.items():
            assert signed_subset_eval(rates, array_fn) == _enumerated(rates, array_fn), (k, name)


@pytest.mark.parametrize("k", [2, 3, 9])
def test_signed_subset_eval_carries_across_blocks(monkeypatch, k):
    # Blocks of 2^2 subsets: K=9 walks 128 of them, each adding its high-bit
    # rates to the low sums and its exact total to the carry.
    monkeypatch.setattr(specfun, "_BLOCK_BITS", 2)
    rates = 1.0 / mean_gains_from_topology(paper_topology(k, 0)).gbar_rd(10.0)
    for name, array_fn in ANALYTICS_ARRAY_FNS.items():
        assert signed_subset_eval(rates, array_fn) == _enumerated(rates, array_fn), name
    # The low bits' 3 non-empty subsets, then 4 subsets per high-bit pattern.
    lengths = []
    signed_subset_eval(rates, lambda sz, s: lengths.append(len(sz)) or np.ones_like(s))
    assert lengths == [3] + [4] * ((1 << (k - 2)) - 1)


def test_subset_sums_run_in_bounded_memory():
    # At K=20 the whole 2^20-term arrays took 52 MB; blocks of 2^14 need ~1 MB.
    gains = mean_gains_from_topology(paper_topology(20, 0, relay_ring=0.1))
    for name, call in (("esr", lambda: analytics.esr_dbcj(gains, 100.0)),
                       ("ser", lambda: analytics.ser_dbcj(gains, 10.0))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (name, peak)


def _exact_sum_cases():
    rng = np.random.default_rng(13)
    n = 5000
    spread = rng.standard_normal(n) * np.exp2(rng.integers(-700, 701, n).astype(float))
    x = rng.standard_normal(1000) * np.exp2(rng.integers(-30, 31, 1000).astype(float))
    return {
        "exponents-700-to-700": (spread, rng.integers(0, 26, n)),
        "signed-zeros": (np.array([0.0, -0.0, 3.5, -0.0, -3.5, 0.0]), np.arange(6)),
        "subnormal-total": (np.array([5e-324, 5e-324, -1e-310]), np.zeros(3, dtype=np.int64)),
        "cancellation-plus-residue": (np.concatenate([x, x, [2.0**-1000]]),
                                      np.concatenate([np.zeros(1000, np.int64),
                                                      np.ones(1000, np.int64), [0]])),
        "2^20-max-significands": (np.full(1 << 20, np.nextafter(2.0, 0.0)),
                                  np.zeros(1 << 20, dtype=np.int64)),
        "tie-to-even": (np.array([1.0 + 2.0**-52, 2.0**-53]), np.zeros(2, dtype=np.int64)),
        "just-past-a-tie": (np.array([1.0, 2.0**-53, 2.0**-300]), np.zeros(3, dtype=np.int64)),
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


def test_exact_signed_sum_carries_across_chunks(monkeypatch):
    # Past 2^25 terms (the collusion DT bound at large K and L) the sum runs
    # in chunks whose bins meet as Python ints; small chunks show the seam.
    vals, odd = _exact_sum_cases()["exponents-700-to-700"]
    monkeypatch.setattr(specfun, "_EXACT_CHUNK", 7)
    assert specfun._exact_signed_sum(vals, odd) == _signed_fsum(vals, odd)


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
    for c in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="c must be positive"):
            maxexp_log_expect([1.0], c)


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


def test_hypoexp_terms_weights_sum_to_one():
    # Survival function at 0 is 1, so the power-zero coefficients sum to 1.
    for means in ([1.0, 2.0, 3.0], [1.0, 1.0, 2.0], [0.5] * 4):
        total = math.fsum(c for c, p, r in hypoexp_terms(means) if p == 0)
        assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_hypoexp_terms_reconstruct_survival():
    means = [1.0, 1.0, 3.0, 0.5]
    terms = hypoexp_terms(means)
    for x in (0.3, 2.0, 7.0):
        sf = math.fsum(
            c * (r * x) ** p / math.factorial(p) * math.exp(-r * x) for c, p, r in terms
        )
        assert math.isclose(1.0 - sf, hypoexp_cdf(means, x), abs_tol=1e-12)


def test_exp_poly_recip_integral_zero_power_is_scaled_e1():
    for d in (0.3, 1.0, 4.0):
        assert math.isclose(exp_poly_recip_integral(0, d, d), scaled_e1(d), rel_tol=1e-12)


@pytest.mark.parametrize(
    "power,scale,decay,want",
    [
        (1, 1.0, 1.0, 0.4036526376768058),
        (2, 0.5, 1.0, 0.07454342029039925),
        (3, 2.0, 2.5, 0.08596555135202132),
        (5, 0.3, 0.9, 0.0006779566660175024),
    ],
)
def test_exp_poly_recip_integral_against_quadrature(power, scale, decay, want):
    got = exp_poly_recip_integral(power, scale, decay)
    assert math.isclose(got, want, rel_tol=1e-8)


def test_exp_poly_recip_integral_fresh_quadrature():
    p, w, d = 4, 1.2, 1.8
    f = lambda x: (w * x) ** p / math.factorial(p) * math.exp(-d * x) / (1.0 + x)
    ref, err = integrate.quad(f, 0.0, np.inf, limit=300)
    assert err < 1e-7
    assert math.isclose(exp_poly_recip_integral(p, w, d), ref, rel_tol=1e-7)


def test_exp_poly_recip_integral_array_equals_scalar_calls():
    decay = np.linspace(0.7, 40.0, 301)
    for power in range(5):
        got = exp_poly_recip_integral(power, 0.7, decay)
        want = [exp_poly_recip_integral(power, 0.7, float(d)) for d in decay]
        assert got.tobytes() == np.array(want).tobytes()
    assert isinstance(exp_poly_recip_integral(2, 0.7, np.float64(1.0)), float)


def test_exp_poly_recip_integral_domain():
    with pytest.raises(ValueError):
        exp_poly_recip_integral(-1, 1.0, 1.0)
    with pytest.raises(ValueError):
        exp_poly_recip_integral(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        exp_poly_recip_integral(1, 2.0, 1.0)
    with pytest.raises(ValueError):
        exp_poly_recip_integral(1, 1.0, np.array([2.0, 0.5]))
    with pytest.raises(ValueError):
        exp_poly_recip_integral(1, 1.0, np.array([2.0, np.inf]))
