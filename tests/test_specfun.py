import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from secrelay import specfun
from secrelay.specfun import (
    EULER_GAMMA,
    digamma_int,
    exp_poly_recip_integral,
    hypoexp_cdf,
    hypoexp_terms,
    maxexp_cdf,
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
    # Reference: every subset one at a time, summed exactly.
    sizes, sums = subset_terms(rates)
    return math.fsum(
        (-1.0) ** int(c) * float(array_fn(np.array([c]), np.array([v]))[0])
        for c, v in zip(sizes, sums)
    )


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


def test_signed_subset_eval_matches_subset_sum():
    rates = [0.2, 0.9, 1.7, 3.0]
    fn = lambda sz, s: np.log1p(s)
    assert math.isclose(signed_subset_eval(rates, fn), _enumerated(rates, fn), rel_tol=1e-13)


def test_signed_subset_eval_iid_collapse_agrees(monkeypatch):
    # 16 identical rates collapse to 16 binomial terms; 15 still enumerate.
    fn = lambda sz, s: 1.0 / np.sqrt(1.0 + s)
    enumerated = []
    monkeypatch.setattr(
        specfun, "subset_terms", lambda r: enumerated.append(len(r)) or subset_terms(r)
    )
    for n in (16, 15):
        got = signed_subset_eval([1.3] * n, fn)
        assert math.isclose(got, _enumerated([1.3] * n, fn), rel_tol=1e-10)
    assert enumerated == [15]


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
