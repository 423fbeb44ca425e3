"""Special functions and combinatorial sums used by the closed-form metrics.

Everything here is deterministic scalar/array math: the exponential integral
in the overflow-safe scaled form exp(s)*E1(s), the Gaussian tail Q, integer
digamma, the distribution functions of the maximum and of the sum of
independent exponentials, and signed_subset_eval: the one vectorized kernel
for every signed inclusion-exclusion sum over relay subsets.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import special as sp

EULER_GAMMA = float(np.euler_gamma)

# Power series below this point, modified-Lentz continued fraction above.
# The alternating series loses ~exp(2s) in relative accuracy, so the
# crossover has to sit near 1 to hold 1e-12 everywhere.
_SERIES_CUTOFF = 1.0
_CF_MAX_ITER = 400
_CF_TINY = 1e-300

_MAX_SUBSET_NODES = 25  # 2**25 - 1 subset terms is the hard ceiling
_IID_COLLAPSE_FROM = 16  # from here n identical rates sum as n binomial terms
_HYPOEXP_MERGE_TOL = 1e-6  # relative gap below which hypoexp merges two means


def _scaled_e1_series(s: np.ndarray) -> np.ndarray:
    # exp(s) * (-gamma - ln s + sum_{k>=1} (-1)^(k+1) s^k / (k k!)), s <= 1
    acc = -EULER_GAMMA - np.log(s)
    term = np.ones_like(s)
    for k in range(1, 30):
        term = term * s / k
        acc = acc + (term / k if k % 2 == 1 else -term / k)
    return np.exp(s) * acc


def _scaled_e1_cf(s: np.ndarray) -> np.ndarray:
    # Modified Lentz on the continued fraction
    # exp(s) E1(s) = 1/(s+1- 1/(s+3- 4/(s+5- 9/(...)))).
    b = s + 1.0
    c = np.full_like(s, 1.0 / _CF_TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i * i)
        b = b + 2.0
        d = b + a * d
        d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
        d = 1.0 / d
        c = b + a / c
        c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
        delta = c * d
        h = h * delta
        # A converged element's delta can keep oscillating by one ulp, so the
        # stop threshold must sit a few ulp above 1.0 or batches never finish.
        if np.all(np.abs(delta - 1.0) < 4e-16):
            return h
    raise ArithmeticError("continued fraction for exp(s)E1(s) did not converge")


def scaled_e1(s):
    """exp(s) * E1(s) for s > 0, overflow-safe up to s ~ 1e300.

    E1 is the upper exponential integral; the scaled product stays between
    1/(s+1) and 1/s, so huge arguments are fine.  Accepts scalars or arrays.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size and not ((arr > 0).all() and np.isfinite(arr).all()):
        raise ValueError("scaled_e1 requires s > 0 and finite")
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUTOFF
    if small.any():
        out[small] = _scaled_e1_series(arr[small])
    if (~small).any():
        out[~small] = _scaled_e1_cf(arr[~small])
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    out = 0.5 * sp.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def digamma_int(n: int) -> float:
    """Digamma at a positive integer: psi(n) = -euler_gamma + H_{n-1}."""
    if n != int(n) or n < 1:
        raise ValueError(f"digamma_int needs an integer n >= 1, got {n}")
    return -EULER_GAMMA + math.fsum(1.0 / k for k in range(1, int(n)))


def subset_count_problem(n: int) -> str | None:
    """Why a sum over the subsets of n rates is refused, or None if it is not."""
    if n > _MAX_SUBSET_NODES:
        return (
            f"{n} rates would enumerate 2^{n}-1 subsets; "
            f"the supported maximum is {_MAX_SUBSET_NODES}"
        )
    return None


def _check_rates(rates: Sequence[float]) -> np.ndarray:
    arr = np.asarray(rates, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("need a one-dimensional, non-empty rate list")
    problem = subset_count_problem(arr.size)
    if problem:
        raise ValueError(problem)
    if not (np.isfinite(arr).all() and (arr > 0).all()):
        raise ValueError("rates must be positive and finite")
    return arr


def subset_terms(rates: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Cardinality and rate-sum of every non-empty subset of `rates`.

    Subsets are ordered by increasing bitmask (bit i = element i present),
    which makes downstream sums reproducible.  Returns (sizes, sums).
    """
    arr = _check_rates(rates)
    n = arr.size
    total = 1 << n
    idx = np.arange(total, dtype=np.uint32 if n <= 25 else np.uint64)
    sums = np.zeros(total)
    for i in range(n):
        sums[(idx >> np.uint32(i)) & 1 == 1] += arr[i]
    sizes = np.bitwise_count(idx).astype(np.int64)
    return sizes[1:], sums[1:]


def signed_subset_eval(
    rates: Sequence[float],
    array_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """sum over non-empty subsets u of (-1)^|u| * array_fn(|u|, sum of rates in u).

    array_fn maps the arrays (sizes, rate_sums) to term values; with
    array_fn == 1 the sum is -1.  When all rates coincide (to 1e-12 relative)
    and the list is long, the 2^n enumeration collapses to n binomial terms.
    """
    arr = _check_rates(rates)
    n = arr.size
    lo, hi = float(arr.min()), float(arr.max())
    if n >= _IID_COLLAPSE_FROM and (hi - lo) <= 1e-12 * hi:
        j = np.arange(1, n + 1, dtype=np.int64)
        weights = np.array([math.comb(n, int(m)) * (-1.0) ** m for m in j])
        vals = np.asarray(array_fn(j, j * arr[0]), dtype=float)
        return float(math.fsum(weights * vals))
    sizes, sums = subset_terms(arr)
    signs = np.where(sizes % 2 == 1, -1.0, 1.0)
    vals = np.asarray(array_fn(sizes, sums), dtype=float)
    return float(math.fsum(signs * vals))


def maxexp_cdf(means: Sequence[float], x) -> float | np.ndarray:
    """CDF of max of independent exponentials with the given means:
    prod_i (1 - exp(-x / mean_i)).  Negative x is a domain error."""
    arr = np.asarray(means, dtype=float)
    if arr.ndim != 1 or arr.size < 1 or not ((arr > 0).all() and np.isfinite(arr).all()):
        raise ValueError("means must be a non-empty list of positive reals")
    xv = np.asarray(x, dtype=float)
    if (xv < 0).any():
        raise ValueError("maxexp_cdf needs x >= 0")
    out = np.prod(-np.expm1(-xv[..., None] / arr), axis=-1)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Sum of independent exponentials (hypoexponential distribution).
#
# The survival function is represented as a list of terms
#     S(x) = sum_t coef_t * (rate_t * x)**power_t / power_t! * exp(-rate_t * x).
# Distinct means give the classic single-pole weights (all powers zero);
# means that coincide within tolerance are merged into a group whose poles
# have higher multiplicity, which brings in the polynomial powers.  The
# normalized (r*x)^p/p! form keeps coefficients O(1) in the common cases.
# ---------------------------------------------------------------------------


def _group_rates(means: np.ndarray) -> list[tuple[float, int]]:
    order = np.argsort(means)
    groups: list[list[float]] = []
    for m in means[order]:
        if groups and (m - groups[-1][0]) <= _HYPOEXP_MERGE_TOL * m:
            groups[-1].append(float(m))
        else:
            groups.append([float(m)])
    # rate = 1/mean, one multiplicity per merged group
    return [(1.0 / float(np.mean(g)), len(g)) for g in groups]


def _pole_coefficients(groups: list[tuple[float, int]], g: int) -> np.ndarray:
    """Taylor coefficients (orders 0..m_g-1) of prod_{g'!=g} (r'/(s+r'))^m'
    times r_g^m_g, expanded around s = -r_g."""
    rate_g, mult_g = groups[g]
    series = np.zeros(mult_g)
    series[0] = rate_g**mult_g
    for gp, (rate, mult) in enumerate(groups):
        if gp == g:
            continue
        delta = rate - rate_g
        fac = np.zeros(mult_g)
        base = (rate / delta) ** mult
        for t in range(mult_g):
            fac[t] = base * (-1.0) ** t * math.comb(mult + t - 1, t) / delta**t
        out = np.zeros(mult_g)
        for t in range(mult_g):
            out[t] = np.dot(series[: t + 1], fac[t::-1])
        series = out
    return series


def hypoexp_terms(means: Sequence[float]) -> list[tuple[float, int, float]]:
    """Survival-function terms (coef, power, rate) for a sum of independent
    exponentials with the given means.

    Means closer than 1e-6 (relative) are merged into one repeated rate;
    a fully repeated list reduces to the Erlang tail (all coefs 1.0).
    """
    arr = np.asarray(means, dtype=float)
    if arr.ndim != 1 or arr.size < 1 or not ((arr > 0).all() and np.isfinite(arr).all()):
        raise ValueError("means must be a non-empty list of positive reals")
    groups = _group_rates(arr)
    terms: list[tuple[float, int, float]] = []
    if len(groups) == 1:
        rate, mult = groups[0]
        return [(1.0, p, rate) for p in range(mult)]
    for g, (rate, mult) in enumerate(groups):
        taylor = _pole_coefficients(groups, g)
        # A_{g,k} = taylor[m_g - k] is the weight of (s + r_g)^{-k}; its
        # tail integral contributes (r x)^i/i! e^{-rx} for every i < k.
        for power in range(mult):
            coef = math.fsum(
                taylor[mult - k] / rate**k for k in range(power + 1, mult + 1)
            )
            terms.append((float(coef), power, rate))
    return terms


def _poisson_weight(power: np.ndarray, z: np.ndarray) -> np.ndarray:
    # z**p / p! * exp(-z), safe for large p via the log-gamma form.
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = power * np.log(z) - z - sp.gammaln(power + 1.0)
    return np.where(z > 0, np.exp(logw), np.where(power == 0, 1.0, 0.0))


def hypoexp_cdf(means: Sequence[float], x) -> float | np.ndarray:
    """CDF of a sum of independent exponentials with the given means.

    Distinct means use the standard partial-fraction weights; repeated means
    (within 1e-6 relative) fall back to the generalized Erlang form.  A single mean
    reduces to the exponential CDF, and the result is clamped to [0, 1].
    """
    terms = hypoexp_terms(means)
    xv = np.asarray(x, dtype=float)
    if (xv < 0).any():
        raise ValueError("hypoexp_cdf needs x >= 0")
    coefs = np.array([t[0] for t in terms])
    powers = np.array([t[1] for t in terms], dtype=float)
    rates = np.array([t[2] for t in terms])
    surv = np.sum(coefs * _poisson_weight(powers, rates * xv[..., None]), axis=-1)
    out = np.clip(1.0 - surv, 0.0, 1.0)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def exp_poly_recip_integral(power: int, scale_rate: float, decay_rate: float) -> float:
    """integral_0^inf (scale_rate*x)^power/power! * exp(-decay_rate*x)/(1+x) dx.

    Evaluated by the stable forward recurrence
        T_0 = exp(d) E1(d),   T_p = (w/d)^p / p - (w/p) T_{p-1},
    which needs scale_rate <= decay_rate (always true here: the decay carries
    the scale rate plus a nonnegative shift).
    """
    if power < 0 or power != int(power):
        raise ValueError(f"power must be a nonnegative integer, got {power}")
    if not (0.0 < scale_rate <= decay_rate) or not math.isfinite(decay_rate):
        raise ValueError("need 0 < scale_rate <= decay_rate, both finite")
    t = scaled_e1(decay_rate)
    ratio = scale_rate / decay_rate
    for p in range(1, int(power) + 1):
        t = ratio**p / p - (scale_rate / p) * t
    return float(t)
