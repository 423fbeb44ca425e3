"""Special functions and combinatorial sums used by the closed-form metrics.

Everything here is deterministic scalar/array math: the exponential integral
in the overflow-safe scaled form exp(s)*E1(s) (a power series up to s = 1,
maxexp_log_expect of one unit mean above), the Gaussian tail Q, integer
digamma, the CDF of the maximum of independent exponentials, and four
kernels:

- maxexp_log_expect: E[ln(1 + X/c)], X the maximum of independent
  exponentials, at one c or an array of them, by the trapezoid rule in ln x
  over the positive survival function.  Every term is positive, so it costs
  O(K) and holds ~1e-16 relative at any K and any mean-to-c ratio.  The
  ergodic secrecy rates and scaled_e1 use it.
- hypoexp_cdf: the CDF of a sum S of L independent exponentials, from the
  matrix exponential of the chain through its L stages, by a non-negative
  Taylor series and squaring: ties and close means need no special case.
- hypoexp_tail_integral: J(s) = int_0^inf e^(-s x) P[S > x]/(1 + x) dx by
  the trapezoid rule in ln y over a positive integrand.
- signed_subset_eval: a signed inclusion-exclusion sum over all 2^K - 1
  subsets of the rates, walked in blocks of 2^_BLOCK_BITS: O(2^K) time,
  O(2^_BLOCK_BITS) memory.  It adds its terms exactly and rounds once (the
  value math.fsum would give), by error-free extraction (Rump, Ogita and
  Oishi, SIAM J. Sci. Comput. 31, 2008; _exact_units): each pass splits
  every term at one power of two into a high part, whose plain float sum
  is exact, and a residual, about 52 - log2(n) bits smaller, for the next
  pass.  Its terms still cancel, so the result loses accuracy as K grows.
  The power offset and the SER use it, and the collusion DT bound adds J
  over the relay subsets with the same exact sum.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

EULER_GAMMA = float(np.euler_gamma)

# Power series up to this point, maxexp_log_expect of one unit mean above.
# The alternating series loses ~exp(2s) in relative accuracy, so it must stop
# near 1.  Below 1 the trapezoid's fixed grid, which starts 40 e-folds below
# the unit mean, is off by 2.5e-12 at s = 1e-10, and a grid that moved with s
# would no longer give each element of an array call its scalar value.
_SERIES_CUTOFF = 1.0

MAX_SUBSET_NODES = 25  # 2**25 - 1 subset terms is the hard ceiling
# Trapezoid step in t = ln x for maxexp_log_expect.  The integrand is analytic
# in a strip about the real t axis, so the error falls like exp(-const/h):
# against 30-digit mpmath, 1/8 holds 5e-16 relative up to K=25; 1/4 is off by
# 2.5e-11 at K=25.
_LOG_GRID_STEP = 1.0 / 8.0
_IID_COLLAPSE_FROM = 16  # from here n identical rates sum as n binomial terms
# _exact_units counts units of 2^-1126, a whole number of them in any double.
_UNIT_BITS = 1126
# Below this many terms math.fsum outruns the exact accumulator's fixed cost:
# on the power offset's terms on one x86 core, 6 against 36 us at K=5 and
# 26 against 42 us at K=9; at K=10 (1023 terms) the two tie, 47-50 against
# 45-47 us, and at K=11 fsum takes 84-94 against 45-56 us.
_FSUM_BELOW = 1 << 10
# signed_subset_eval walks 2^14 subsets at a time: 128 KB per float array.
_BLOCK_BITS = 14
# hypoexp_cdf's Taylor series runs this many terms past the L-th, where its
# last entry starts: with q tau <= 1, term L + m of an entry is at most 1/m!
# of its first, so what is left out is about 1/21! (2e-20) of it.
_TAYLOR_EXTRA = 20
# Trapezoid step in t = ln y for hypoexp_tail_integral.  The integrand is
# analytic in a strip about pi/2 wide (past it e^-y grows without bound), so
# the error falls like exp(-pi^2/h), about 7e-18 at 1/4; step 1/8 cost
# twice as much for no gain.
_TAIL_GRID_STEP = 1.0 / 4.0
# maxexp_log_expect's (c, x) and hypoexp_tail_integral's (s, y) arrays hold
# about 2^13 values (64 KB): in cache and under glibc's 128 KB mmap
# threshold; 3 MB arrays ran 10% slower at K=16.
_GRID_BLOCK = 1 << 13


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
        # E[ln(1 + X/s)] = e^s E1(s) for X exponential with mean 1.
        out[~small] = maxexp_log_expect([1.0], arr[~small])
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
    arr = _check_means(rates)
    if arr.size > MAX_SUBSET_NODES:
        raise ValueError(
            f"{arr.size} rates would enumerate 2^{arr.size}-1 subsets; "
            f"the supported maximum is {MAX_SUBSET_NODES}"
        )
    return arr


def _check_means(means: Sequence[float]) -> np.ndarray:
    arr = np.asarray(means, dtype=float)
    # A NaN makes min NaN, which fails the comparison.
    if arr.ndim != 1 or arr.size < 1 or not (arr.min() > 0.0 and arr.max() < math.inf):
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


def _exact_units(vals: np.ndarray) -> int:
    """Exact sum of a 1-D array, as a Python int counting units of
    2^-_UNIT_BITS.  Totals of separate arrays add exactly; _round_units
    rounds one to float.  vals is overwritten: it ends as all zeros.

    Error-free extraction, for any n < 2^50 terms: with 2^e > max|v| and
    2^m >= n + 2, sigma = 2^(e+m), each pass forms q = (v + sigma) - sigma,
    the part of v above sigma's last bit, and leaves v - q, both exactly.
    Every q is a multiple of 2^(e+m-53) and at most 2^e, so every partial
    sum of the n of them stays below sigma and q.sum() is exact in any
    order.  The residuals are at most 2^(e+m-53), so each pass drops at
    least 52 - m binades, and the sum needs about (exponent spread + 53) /
    (52 - m) passes: 2 for the closed forms' blocks of 2^14 terms, about 60
    for one spanning every double.  Terms of 2^(1021-m) or more, where sigma
    would overflow, are summed apart, scaled by 2^-600.  A non-finite term
    raises ArithmeticError.
    """
    total = 0
    m = (vals.size + 1).bit_length()
    top = max(vals.max(), -vals.min())
    if not math.isfinite(top):
        raise ArithmeticError("non-finite term in an exact sum")
    if top >= 2.0 ** (1021 - m):
        big = np.abs(vals) >= 2.0 ** (1021 - m)
        total += _exact_units(vals[big] * 2.0**-600) << 600
        vals[big] = 0.0
        top = max(vals.max(), -vals.min())
    q = np.empty_like(vals)
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        np.add(vals, sigma, out=q)
        q -= sigma
        vals -= q
        num, den = float(q.sum()).as_integer_ratio()
        total += (num << _UNIT_BITS) // den
        top = max(vals.max(), -vals.min())
    return total


def _round_units(total: int) -> float:
    """The float nearest an _exact_units total, ties to even."""
    return total / (1 << _UNIT_BITS)


def _exact_signed_sum(vals: np.ndarray, odd: np.ndarray) -> float:
    """Correctly rounded sum of (-1)^odd[i] * vals[i] over a 1-D array: the
    value math.fsum returns for that list.

    Below _FSUM_BELOW terms math.fsum itself is the faster of the two; where
    it cannot give a finite value (a non-finite term, or a partial sum past
    the float range) the exact accumulator (_exact_units) decides.  A
    non-finite term raises ArithmeticError.
    """
    signed = np.where(odd & 1, -vals, vals)
    if signed.size < _FSUM_BELOW:
        try:
            total = math.fsum(signed.tolist())
        except (ValueError, OverflowError):  # inf - inf, or an intermediate overflow
            total = math.nan
        if math.isfinite(total):
            return total
    return _round_units(_exact_units(signed))


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
    array_fn sees one block at a time.  The low subsets' signs (-1)^|u| are
    one +-1.0 vector, built once; each block's terms are multiplied by it
    (exactly), added exactly by _exact_units, and the block's total is
    negated when it sets an odd number of high bits.  The totals join one
    Python int that is rounded once at the end.  Time stays O(2^n), memory
    falls to O(2^_BLOCK_BITS), and when the terms cancel the result is no
    better than the terms themselves.
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

    def units(block_sizes: np.ndarray, block_sums: np.ndarray, sign: np.ndarray) -> int:
        return _exact_units(sign * np.asarray(array_fn(block_sizes, block_sums), dtype=float))

    def walk(block_sums: np.ndarray, count: int, next_bit: int) -> int:
        # The block whose highest set bit is next_bit - 1, then every block
        # that sets more bits above it.
        total = (-1) ** count * units(low_sizes + count, block_sums, low_sign)
        for bit in range(next_bit, n):
            total += walk(block_sums + arr[bit], count + 1, bit + 1)
        return total

    # The low subsets again with the empty one, which the high bits complete.
    low_sizes = np.concatenate([[0], sizes])
    low_sums = np.concatenate([[0.0], sums])
    low_sign = np.where(low_sizes & 1, -1.0, 1.0)
    total = units(sizes, sums, low_sign[1:])
    for bit in range(low, n):
        total += walk(low_sums + arr[bit], 1, bit + 1)
    return _round_units(total)


def _maxexp_cdf(means: np.ndarray, x) -> np.ndarray:
    """prod_i (1 - exp(-x / mean_i)) over the last axis; x broadcasts, unchecked."""
    return np.prod(-np.expm1(-x / means), axis=-1)


def maxexp_cdf(means: Sequence[float], x) -> float | np.ndarray:
    """CDF of max of independent exponentials with the given means:
    prod_i (1 - exp(-x / mean_i)).  x must be >= 0 (+inf gives 1)."""
    arr = _check_means(means)
    xv = np.asarray(x, dtype=float)
    if not (xv >= 0).all():  # a NaN fails the comparison
        raise ValueError("maxexp_cdf needs x >= 0")
    out = _maxexp_cdf(arr, xv[..., None])
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def maxexp_log_expect(means: Sequence[float], c) -> float | np.ndarray:
    """E[ln(1 + X/c)] for X the maximum of independent exponentials with the
    given means, at each c > 0 (a scalar or an array).

    The expectation is the integral of S(x)/(c + x) over x > 0, where
    S = 1 - prod_i(1 - exp(-x/mean_i)) is the survival function, formed as
    -expm1(sum_i log(-expm1(-x/mean_i))): no factor cancels, and where S is
    small its few-ulp absolute error is far below the integral.  With x = e^t
    the integrand decays exponentially at both ends, and the trapezoid rule
    in t converges geometrically.  The grid starts 40 e-folds below the
    smallest mean, where S = 1 to rounding, or 27 below the smallest c if
    that is lower, so that x/(c + x) has decayed there as well when the
    means dwarf c; ln(1 + x_lo/c), the integral below x_lo, is added in
    closed form.  It stops where S < K^-3 e^-40 above the largest mean.
    S is formed once and the c are taken in row blocks.  Where
    min(means) <= e^13 min(c) the grid does not depend on c, so each element
    of an array call is the float its scalar call gives.
    """
    arr = _check_means(means)
    cv = np.asarray(c, dtype=float)
    if not (cv.size and cv.min() > 0.0 and cv.max() < math.inf):
        raise ValueError(f"c must be positive and finite, got {c}")
    t_lo = min(math.log(arr.min()) - 40.0, math.log(cv.min()) - 27.0)
    t_hi = math.log(arr.max()) + math.log(40.0 + 4.0 * math.log(arr.size))
    x = np.exp(t_lo + _LOG_GRID_STEP * np.arange(math.ceil((t_hi - t_lo) / _LOG_GRID_STEP) + 1))
    surv_x = -np.expm1(np.log(-np.expm1(-x[:, None] / arr)).sum(axis=1)) * x
    flat, out, rows = cv.ravel(), np.empty(cv.size), max(1, _GRID_BLOCK // x.size)
    for start in range(0, flat.size, rows):
        cc = flat[start:start + rows]
        # dx = x dt.  Every term is positive, so the plain sum inside
        # np.trapezoid loses nothing.  Its half weight at x_lo matters: when
        # the means dwarf c, x_lo/c reaches 1e-12 and a full weight would add
        # h*x_lo/(2c).
        out[start:start + rows] = np.log1p(x[0] / cc) + np.trapezoid(
            surv_x / (cc[:, None] + x), dx=_LOG_GRID_STEP, axis=1)
    return float(out[0]) if np.isscalar(c) or cv.ndim == 0 else out.reshape(cv.shape)


def _hypoexp_row(means: Sequence[float], x) -> np.ndarray:
    """Row 0 of exp(G x) for each finite x >= 0.  G has -r_i on its diagonal
    and r_i above it, the last state absorbing; the last entry is P[S <= x]
    and the others sum to P[S > x].  With q = max r_i and tau = x/2^s <= 1/q,
    exp(G tau) is e^(-q tau) times the Taylor series of (qI + G) tau; each of
    the s squarings then resets the diagonal to exp(-tau 2^j/m_i) (Al-Mohy
    and Higham, SIAM J. Matrix Anal. Appl. 31, 2009).  Each x has its own s:
    squarings chained along a grid doubled a row sum's excess at every step.
    """
    arr = _check_means(means)
    xv = np.asarray(x, dtype=float)
    if not (np.isfinite(xv).all() and (xv >= 0).all()):
        raise ValueError("hypoexp_cdf needs finite x >= 0")
    n, q, flat = arr.size, 1.0 / arr.min(), xv.ravel()
    ext = np.append(arr, np.inf)  # the absorbing state's rate is 1/inf = 0
    with np.errstate(divide="ignore"):
        squarings = np.maximum(0.0, np.ceil(np.log2(q) + np.log2(flat))).astype(np.int64)
    tau = np.ldexp(flat, -squarings)
    diag = np.arange(n + 1)
    a = (np.diag(q - 1.0 / ext) + np.diag(1.0 / arr, 1)) * tau[:, None, None]
    e = eye = np.eye(n + 1)
    for k in range(n + _TAYLOR_EXTRA, 0, -1):  # Horner: I + a(I + a/2(...))
        e = eye + e @ a / k
    e *= np.exp(-q * tau)[:, None, None]
    for j in range(int(squarings.max(initial=0)) + 1):
        live = np.flatnonzero(squarings >= j)
        block = e[live] @ e[live] if j else e[live]
        block[:, diag, diag] = np.exp(-np.ldexp(tau[live], j)[:, None] / ext)
        e[live] = block
    return e[:, 0, :].reshape(xv.shape + (n + 1,))


def hypoexp_cdf(means: Sequence[float], x) -> float | np.ndarray:
    """CDF of a sum S of independent exponentials with the given means, at
    finite x >= 0: _hypoexp_row's absorbing entry up to 1/2, one minus its
    survival above; both are sums of non-negative terms at any means."""
    row = _hypoexp_row(means, x)
    out = np.where(row[..., -1] <= 0.5, row[..., -1], 1.0 - row[..., :-1].sum(axis=-1))
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def hypoexp_tail_integral(means: Sequence[float], s) -> float | np.ndarray:
    """J(s) = int_0^inf e^(-s x) P[S > x]/(1 + x) dx for each finite s >= 0,
    S a sum of independent exponentials with the given means.

    With 1/(1+x) = int_0^inf e^(-y(1+x)) dy, J(s) integrates e^(-y) (1 -
    prod_l 1/(1 + z m_l))/z over y, z = s + y, and 1 - prod is
    -expm1(-sum_l log1p(z m_l)).  The grid in t = ln y runs from 36 e-folds
    below min(1, 1/max m_l) up to y = 40; the piece over [0, y_0] is y_0
    times the integrand at y_0/2.
    """
    arr = _check_means(means)
    sv = np.asarray(s, dtype=float)
    if not (np.isfinite(sv).all() and (sv >= 0).all()):
        raise ValueError("hypoexp_tail_integral needs finite s >= 0")
    h, t_lo = _TAIL_GRID_STEP, math.log(min(1.0, 1.0 / arr.max())) - 36.0
    y = np.exp(t_lo + h * np.arange((math.log(40.0) - t_lo) // h + 2))
    # dy = y dt; both ends hold under 1e-16 of the sum, so take full weights.
    w = h * y * np.exp(-y)
    y, w = np.append(0.5 * y[0], y), np.append(y[0] * math.exp(-0.5 * y[0]), w)
    flat, out, rows = sv.ravel(), np.empty(sv.size), max(1, _GRID_BLOCK // y.size)
    for start in range(0, flat.size, rows):
        z = flat[start:start + rows, None] + y
        acc = np.zeros_like(z)
        for m in arr:
            acc += np.log1p(z * m)
        out[start:start + rows] = (-np.expm1(-acc) / z * w).sum(axis=1)
    return float(out[0]) if np.isscalar(s) or sv.ndim == 0 else out.reshape(sv.shape)
