"""Special functions and combinatorial sums used by the closed-form metrics.

Everything here is deterministic scalar/array math: the exponential integral
in the overflow-safe scaled form exp(s)*E1(s), the Gaussian tail Q, integer
digamma, the distribution functions of the maximum and of the sum of
independent exponentials, and two kernels for expectations over the maximum
X of independent exponentials:

- maxexp_log_expect: E[ln(1 + X/c)] by the trapezoid rule in ln x over the
  positive survival function.  Every term is positive, so it costs O(K) and
  holds ~1e-16 relative at any K.  The ergodic secrecy rates use it.
- signed_subset_eval: a signed inclusion-exclusion sum over all 2^K - 1
  subsets of the rates, walked in blocks of 2^_BLOCK_BITS: O(2^K) time,
  O(2^_BLOCK_BITS) memory.  It adds its terms exactly, with a vectorized
  correctly rounded accumulator (_exact_units, rounded once; the value
  math.fsum would give), but its terms still cancel, so the result loses
  accuracy as K grows.  The power offset and the SER use it, and the
  collusion DT bound uses its parts.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

EULER_GAMMA = float(np.euler_gamma)

# Power series below this point, modified-Lentz continued fraction above.
# The alternating series loses ~exp(2s) in relative accuracy, so the
# crossover has to sit near 1 to hold 1e-12 everywhere.
_SERIES_CUTOFF = 1.0
_CF_MAX_ITER = 400
_CF_TINY = 1e-300

MAX_SUBSET_NODES = 25  # 2**25 - 1 subset terms is the hard ceiling
# Trapezoid step in t = ln x for maxexp_log_expect.  The integrand is analytic
# in a strip about the real t axis, so the error falls like exp(-const/h):
# against 30-digit mpmath, 1/8 holds 5e-16 relative up to K=25; 1/4 is off by
# 2.5e-11 at K=25.
_LOG_GRID_STEP = 1.0 / 8.0
_IID_COLLAPSE_FROM = 16  # from here n identical rates sum as n binomial terms
# _exact_signed_sum: frexp exponents of finite doubles start at -1073;
# adding and subtracting 3 * 2^25 (ulp 2^-26) rounds a frexp fraction to a
# multiple of 2^-26.
_FREXP_EXP_MIN = -1073
_SPLIT = 3.0 * 2.0**25
_EXACT_CHUNK = 1 << MAX_SUBSET_NODES
# Below this many terms math.fsum outruns the exact accumulator's fixed cost:
# on the power offset's terms on one x86 core, 7 against 40 us at K=5, 39
# against 58 us at K=10 (1023 terms), but 75 against 38 us at K=11.
_FSUM_BELOW = 1 << 10
# signed_subset_eval walks 2^14 subsets at a time: 128 KB per float array.
_BLOCK_BITS = 14
_HYPOEXP_MERGE_TOL = 1e-6  # relative gap below which hypoexp merges two means


def _scaled_e1_series(s: np.ndarray) -> np.ndarray:
    # exp(s) * (-gamma - ln s + sum_{k>=1} (-1)^(k+1) s^k / (k k!)), s <= 1
    acc = -EULER_GAMMA - np.log(s)
    term = np.ones_like(s)
    step = np.empty_like(s)
    for k in range(1, 30):
        term *= s
        term /= k
        np.divide(term, k, out=step)
        # Steps shrink at least fourfold from here on (s <= 1), so once every
        # one is below a quarter ulp of every |acc| none can change acc.
        if step.max() < np.spacing(np.abs(acc).min()) / 4:
            break
        if k % 2 == 1:
            acc += step
        else:
            acc -= step
    return np.exp(s) * acc


def _scaled_e1_cf(s: np.ndarray) -> np.ndarray:
    # Modified Lentz on the continued fraction
    # exp(s) E1(s) = 1/(s+1- 1/(s+3- 4/(s+5- 9/(...)))).
    # Each element leaves the iteration at its own first converged step, so
    # an array call gives exactly what one call per element gives.
    out = np.empty_like(s)
    left = np.arange(s.size)
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
        # stop threshold must sit a few ulp above 1.0.
        done = np.abs(delta - 1.0) < 4e-16
        if done.any():
            out[left[done]] = h[done]
            left, b, c, d, h = (x[~done] for x in (left, b, c, d, h))
        if not left.size:
            return out
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
    from scipy.special import erfc  # imported on first use: see the package docstring

    out = 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def digamma_int(n: int) -> float:
    """Digamma at a positive integer: psi(n) = -euler_gamma + H_{n-1}."""
    if n != int(n) or n < 1:
        raise ValueError(f"digamma_int needs an integer n >= 1, got {n}")
    return -EULER_GAMMA + math.fsum(1.0 / k for k in range(1, int(n)))


def _check_rates(rates: Sequence[float]) -> np.ndarray:
    arr = np.asarray(rates, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("need a one-dimensional, non-empty rate list")
    if arr.size > MAX_SUBSET_NODES:
        raise ValueError(
            f"{arr.size} rates would enumerate 2^{arr.size}-1 subsets; "
            f"the supported maximum is {MAX_SUBSET_NODES}"
        )
    if not (np.isfinite(arr).all() and (arr > 0).all()):
        raise ValueError("rates must be positive and finite")
    return arr


def _check_means(means: Sequence[float]) -> np.ndarray:
    arr = np.asarray(means, dtype=float)
    if arr.ndim != 1 or arr.size < 1 or not ((arr > 0).all() and np.isfinite(arr).all()):
        raise ValueError("means must be a non-empty list of positive reals")
    return arr


def subset_terms(rates: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Cardinality and rate-sum of every non-empty subset of `rates`.

    Subsets are ordered by increasing bitmask (bit i = element i present),
    which makes downstream sums reproducible.  Returns (sizes, sums).
    """
    arr = _check_rates(rates)
    sizes = np.zeros(1 << arr.size, dtype=np.int64)
    sums = np.zeros(1 << arr.size)
    # Subsets with highest bit i are those below bit i plus element i, so
    # each sum adds its elements in increasing bit order.
    for i, rate in enumerate(arr):
        lo, hi = slice(0, 1 << i), slice(1 << i, 2 << i)
        np.add(sizes[lo], 1, out=sizes[hi])
        np.add(sums[lo], rate, out=sums[hi])
    return sizes[1:], sums[1:]


def _exact_units(vals: np.ndarray, odd: np.ndarray) -> int:
    """Exact sum of (-1)^odd[i] * vals[i] over a 1-D array, as a Python int
    counting units of 2^(_FREXP_EXP_MIN - 53), the lowest a term can have.
    Totals of separate arrays add exactly; _round_units rounds one to float.

    Each term is f * 2^e with 1/2 <= |f| < 1 and f a 53-bit fraction, split
    exactly into f = hi + lo, hi a multiple of 2^-26 and lo of 2^-53, with
    |hi| * 2^26 and |lo| * 2^53 at most 2^26.  np.bincount adds the halves
    into bins keyed by (e, parity of odd[i]).  A chunk holds at most
    2^MAX_SUBSET_NODES = 2^25 terms, so every partial sum of a bin is an
    integer multiple of its unit below 2^25 * 2^26 = 2^51 units, which
    float64 holds exactly whatever the order of the adds.  The few non-empty
    bins are then combined as Python ints.  A non-finite term raises
    ArithmeticError.
    """
    total = 0
    for start in range(0, vals.size, _EXACT_CHUNK):
        lo, exp = np.frexp(vals[start:start + _EXACT_CHUNK])
        hi = lo + _SPLIT
        hi -= _SPLIT
        with np.errstate(invalid="ignore"):  # inf - inf: caught on the bins below
            lo -= hi
        e_lo, e_hi = int(exp.min()), int(exp.max())
        exp -= e_lo
        exp <<= 1
        idx = odd[start:start + _EXACT_CHUNK] & 1
        idx += exp
        # Even bin minus odd bin stays below 2^52 units, so still exact.
        hi_net, lo_net = (
            (b[0::2] - b[1::2]).tolist()
            for b in (np.bincount(idx, weights=w, minlength=2 * (e_hi - e_lo + 1))
                      for w in (hi, lo))
        )
        for e, (h, l) in enumerate(zip(hi_net, lo_net), start=e_lo - _FREXP_EXP_MIN):
            if not math.isfinite(h + l):
                raise ArithmeticError("non-finite term in an exact sum")
            if h or l:
                total += ((int(h * 2.0**26) << 27) + int(l * 2.0**53)) << e
    return total


def _round_units(total: int) -> float:
    """The float nearest an _exact_units total, ties to even."""
    return total / (1 << (53 - _FREXP_EXP_MIN))


def _exact_signed_sum(vals: np.ndarray, odd: np.ndarray) -> float:
    """Correctly rounded sum of (-1)^odd[i] * vals[i] over a 1-D array: the
    value math.fsum returns for that list.

    Below _FSUM_BELOW terms math.fsum itself is the faster of the two; where
    it cannot give a finite value (a non-finite term, or a partial sum past
    the float range) the exact accumulator decides.  A non-finite term
    raises ArithmeticError.
    """
    if vals.size < _FSUM_BELOW:
        try:
            total = math.fsum(np.where(odd & 1, -vals, vals).tolist())
        except (ValueError, OverflowError):  # inf - inf, or an intermediate overflow
            total = math.nan
        if math.isfinite(total):
            return total
    return _round_units(_exact_units(vals, odd))


def signed_subset_eval(
    rates: Sequence[float],
    array_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """sum over non-empty subsets u of (-1)^|u| * array_fn(|u|, sum of rates in u).

    array_fn maps the arrays (sizes, rate_sums) to term values; with
    array_fn == 1 the sum is -1.  When all rates coincide (to 1e-12 relative)
    and the list is long, the 2^n enumeration collapses to n binomial terms.

    Otherwise the subsets are walked in blocks of 2^_BLOCK_BITS that share
    their high bits: subset_terms enumerates the low bits once, and each
    block adds its set high-bit rates to those sums in increasing bit order,
    so every subset sum is the float subset_terms(rates) would give.
    array_fn sees one block at a time, and each block's exact total
    (_exact_units) joins one Python int that is rounded once at the end.
    Time stays O(2^n), memory falls to O(2^_BLOCK_BITS), and when the terms
    cancel the result is no better than the terms themselves.
    """
    arr = _check_rates(rates)
    n = arr.size
    lo, hi = float(arr.min()), float(arr.max())
    if n >= _IID_COLLAPSE_FROM and (hi - lo) <= 1e-12 * hi:
        j = np.arange(1, n + 1, dtype=np.int64)
        binom = np.array([float(math.comb(n, m)) for m in range(1, n + 1)])
        return _exact_signed_sum(binom * np.asarray(array_fn(j, j * arr[0]), dtype=float), j)
    low = min(n, _BLOCK_BITS)
    sizes, sums = subset_terms(arr[:low])
    if low == n:
        return _exact_signed_sum(np.asarray(array_fn(sizes, sums), dtype=float), sizes)

    def units(block_sizes: np.ndarray, block_sums: np.ndarray) -> int:
        return _exact_units(np.asarray(array_fn(block_sizes, block_sums), dtype=float),
                            block_sizes)

    def walk(block_sums: np.ndarray, count: int, next_bit: int) -> int:
        # The block whose highest set bit is next_bit - 1, then every block
        # that sets more bits above it.
        total = units(low_sizes + count, block_sums)
        for bit in range(next_bit, n):
            total += walk(block_sums + arr[bit], count + 1, bit + 1)
        return total

    # The low subsets again with the empty one, which the high bits complete.
    low_sizes = np.concatenate([[0], sizes])
    low_sums = np.concatenate([[0.0], sums])
    total = units(sizes, sums)
    for bit in range(low, n):
        total += walk(low_sums + arr[bit], 1, bit + 1)
    return _round_units(total)


def maxexp_cdf(means: Sequence[float], x) -> float | np.ndarray:
    """CDF of max of independent exponentials with the given means:
    prod_i (1 - exp(-x / mean_i)).  Negative x is a domain error."""
    arr = _check_means(means)
    xv = np.asarray(x, dtype=float)
    if (xv < 0).any():
        raise ValueError("maxexp_cdf needs x >= 0")
    out = np.prod(-np.expm1(-xv[..., None] / arr), axis=-1)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def maxexp_log_expect(means: Sequence[float], c: float) -> float:
    """E[ln(1 + X/c)] for X the maximum of independent exponentials with the
    given means, c > 0.

    The expectation is the integral of S(x)/(c + x) over x > 0, where
    S = 1 - prod_i(1 - exp(-x/mean_i)) is the survival function, formed as
    -expm1(sum_i log(-expm1(-x/mean_i))): no factor cancels, and where S is
    small its few-ulp absolute error is far below the integral.  With x = e^t
    the integrand decays exponentially at both ends, and the trapezoid rule
    in t converges geometrically.  The grid runs from 40 e-folds below the
    smallest mean, where S = 1 to rounding and the integral ln(1 + x_lo/c) is
    added in closed form, up to where S < K^-3 e^-40 above the largest mean.
    """
    arr = _check_means(means)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be positive and finite, got {c}")
    t_lo = math.log(arr.min()) - 40.0
    t_hi = math.log(arr.max()) + math.log(40.0 + 4.0 * math.log(arr.size))
    x = np.exp(t_lo + _LOG_GRID_STEP * np.arange(math.ceil((t_hi - t_lo) / _LOG_GRID_STEP) + 1))
    surv = -np.expm1(np.log(-np.expm1(-x[:, None] / arr)).sum(axis=1))
    # dx = x dt.  Every term is positive, so the plain sum inside np.trapezoid
    # loses nothing.  Its half weight at x_lo matters: when the means dwarf c,
    # x_lo/c reaches 1e-12 and a full weight would add h*x_lo/(2c).
    return math.log1p(x[0] / c) + float(np.trapezoid(surv * x / (c + x), dx=_LOG_GRID_STEP))


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
    arr = _check_means(means)
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
    # z**p / p! * exp(-z), safe for large p via the log-gamma form; power is
    # one small integer per survival term.
    log_fact = np.array([math.lgamma(p + 1.0) for p in power.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = power * np.log(z) - z - log_fact
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


def exp_poly_recip_integral(power: int, scale_rate: float, decay_rate):
    """integral_0^inf (scale_rate*x)^power/power! * exp(-decay_rate*x)/(1+x) dx.

    Evaluated by the stable forward recurrence
        T_0 = exp(d) E1(d),   T_p = (w/d)^p / p - (w/p) T_{p-1},
    which needs scale_rate <= decay_rate (always true here: the decay carries
    the scale rate plus a nonnegative shift).  decay_rate may be an array;
    a scalar gives a float.
    """
    if power < 0 or power != int(power):
        raise ValueError(f"power must be a nonnegative integer, got {power}")
    d = np.asarray(decay_rate, dtype=float)
    if not (0.0 < scale_rate and (scale_rate <= d).all() and np.isfinite(d).all()):
        raise ValueError("need 0 < scale_rate <= decay_rate, both finite")
    t = scaled_e1(d)
    ratio = scale_rate / d
    for p in range(1, int(power) + 1):
        # libm's pow on each element, as a scalar call takes it: numpy's
        # vectorized power can round differently in the last bit.
        rp = np.array([r**p for r in np.ravel(ratio).tolist()]).reshape(d.shape)
        t = rp / p - (scale_rate / p) * t
    return float(t) if d.ndim == 0 else t
