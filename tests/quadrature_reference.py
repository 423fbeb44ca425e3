"""Adaptive-quadrature oracles for the relayed ESR and SER closed forms.

Each scipy oracle integrates a positive CDF or survival function directly
with `scipy.integrate.quad`.  The relayed ones share nothing with
`secrelay.analytics` beyond `maxexp_cdf` and `leakage_floor`, and the
collusion DT one shares only `specfun._hypoexp_row`, which `hypoexp_mp`
checks on its own, so agreement with the closed forms is meaningful.
`log_expect_mp` is the 30-digit mpmath oracle for
`specfun.maxexp_log_expect`: Gauss-Legendre quadrature in mpmath, which
shares neither its rule nor its float arithmetic.  `hypoexp_mp` is the
40-digit mpmath oracle for the law of a sum of exponentials: the
uniformization series, a sum of positive terms that is not the package's
matrix method.  This is verification
code: it lives here, not in the package, so that importing `secrelay` never
loads `scipy.integrate`.  It is a plain module that test files import, not a
test file itself.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

from secrelay.analytics import leakage_floor
from secrelay.model import MeanGains, Modulation, SystemConfig
from secrelay.specfun import _hypoexp_row, maxexp_cdf

_QPSK = Modulation.psk(4)
_LN2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def ser_quadrature_oracle(
    gains: MeanGains,
    rho: float,
    c: float = 0.0,
    modulation: Modulation = _QPSK,
    abs_tol: float = 1e-10,
) -> float:
    """Average SER by adaptive quadrature of
    (alpha/sqrt(2*pi)) * int_0^inf F_maxhop((1+B) t^2/beta) exp(-t^2/2) dt."""
    if abs_tol <= 0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol}")
    b = leakage_floor(c)
    gbar = gains.gbar_rd(rho)
    beta = modulation.beta_m

    def integrand(t: float) -> float:
        return maxexp_cdf(gbar, (1.0 + b) * t * t / beta) * math.exp(-0.5 * t * t)

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300)
    pref = modulation.alpha_m / math.sqrt(2.0 * math.pi)
    if pref * err > abs_tol:
        raise QuadratureError(
            f"SER quadrature error {pref * err:.3e} above requested {abs_tol:.1e} "
            f"(K={gains.n_relays}, rho={rho:g}, C={c:g})"
        )
    return pref * val


def esr_quadrature_oracle(
    gains: MeanGains, rho: float, c: float = 0.0, abs_tol: float = 1e-10
) -> float:
    """Ergodic secrecy rate by adaptive quadrature of
    (1/(2 ln2)) int_0^inf (1 - F_maxhop(g)) / (g + 1 + B) dg - 0.5*log2(1+B),
    clamped at zero like the closed form."""
    if abs_tol <= 0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol}")
    b = leakage_floor(c)
    gbar = gains.gbar_rd(rho)
    scale = float(np.max(gbar))

    def integrand(y: float) -> float:
        g = scale * y
        return scale * (1.0 - maxexp_cdf(gbar, g)) / (g + 1.0 + b)

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300)
    pref = 1.0 / (2.0 * _LN2)
    if pref * err > abs_tol:
        raise QuadratureError(
            f"ESR quadrature error {pref * err:.3e} above requested {abs_tol:.1e} "
            f"(K={gains.n_relays}, rho={rho:g}, C={c:g})"
        )
    return max(0.0, pref * val - 0.5 * math.log2(1.0 + b))


def log_expect_mp(means, c: float, dps: int = 30) -> float:
    """E[ln(1 + X/c)], X the max of independent exponentials with the given
    means, as the integral of the survival function S(x)/(c + x) at `dps`
    digits.

    x runs linearly up to min(c, smallest mean), where the integrand is
    analytic in a disc around the interval, then over t = ln x with a break
    at the means (at most one per e-fold), up to 200 times the largest mean
    (S < K e^-200 beyond).  At 30 digits, 1 - prod(1 - e^-x/m) is good to
    about K*1e-30 absolute, far below the 1e-13 relative the tests ask for.
    """
    with mpmath.workdps(dps):
        rates = [1 / mpmath.mpf(float(m)) for m in means]
        cc = mpmath.mpf(c)

        def surv(x):
            return 1 - mpmath.fprod(1 - mpmath.exp(-x * r) for r in rates)

        x0 = min(cc, 1 / max(rates))
        head = mpmath.quad(lambda x: surv(x) / (cc + x), [0, x0], method="gauss-legendre")
        top = -mpmath.log(min(rates))
        breaks = [mpmath.log(x0)]
        for t in sorted(-mpmath.log(r) for r in rates) + [top + 2, top + mpmath.log(200)]:
            if t > breaks[-1] + 1:  # one panel per e-fold at most
                breaks.append(t)
        tail = mpmath.quad(lambda t: surv(mpmath.exp(t)) / (cc * mpmath.exp(-t) + 1), breaks,
                           method="gauss-legendre")
        return float(head + tail)


def hypoexp_mp(means, xs, dps: int = 40) -> tuple[list[float], list[float]]:
    """(CDF, survival) at each x of a sum S of independent exponentials with
    the given means, by uniformization at `dps` digits.

    With q the largest rate, S is absorbed within n jumps of the chain
    P = I + G/q, whose jumps come at Poisson(q x) many times, so
    P[S <= x] = sum_n Pois(n; q x) (P^n)[0, L] and P[S > x] is the same sum
    over the other entries of row 0.  Every term is positive, repeated means
    included.  Each x's sums stop past its Poisson mode once a term falls
    below 10^-dps of the smaller sum; the cost is about q x steps.
    """
    with mpmath.workdps(dps):
        rates = [1 / mpmath.mpf(float(m)) for m in means]
        q = max(rates)
        stay = [1 - r / q for r in rates]
        move = [r / q for r in rates]
        last = len(rates)
        qx = [q * mpmath.mpf(float(x)) for x in xs]
        pois = [mpmath.exp(-v) for v in qx]
        row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * last
        cdf = [mpmath.mpf(0)] * len(xs)
        surv = list(pois)  # no jump yet: all mass in the first stage
        tiny = mpmath.mpf(10) ** -dps
        live = list(range(len(xs)))
        n = 0
        while live:
            n += 1
            row = ([row[0] * stay[0]]
                   + [row[j] * stay[j] + row[j - 1] * move[j - 1] for j in range(1, last)]
                   + [row[last] + row[last - 1] * move[last - 1]])
            absorbed, waiting = row[last], mpmath.fsum(row[:last])
            still = []
            for i in live:
                pois[i] *= qx[i] / n
                cdf[i] += pois[i] * absorbed
                surv[i] += pois[i] * waiting
                if n <= max(qx[i], last) or pois[i] > tiny * min(cdf[i], surv[i]):
                    still.append(i)
            live = still
        return [float(c) for c in cdf], [float(v) for v in surv]


def esr_dt_lb_ce_quad(gains: MeanGains, config: SystemConfig) -> float:
    """analytics.esr_dt_lb under collusion, with eavesdroppers present, by
    adaptive quadrature of the positive integrand
    ((1 - F_M) + F_M P[S > x])/(1 + x), M the relay maximum and S the
    eavesdroppers' sum; P[S > x] is the survival of specfun._hypoexp_row.

    Over x = e^t from 1e-6 of the smallest scale (the piece below is added
    by the midpoint rule, off by about 1e-12 of itself) up to where both
    tails are below e^-40, in panels of about eight e-folds.
    """
    rho = config.snr_linear
    leak = gains.leak_means_dt(rho)
    k = gains.n_relays
    relay, eves = leak[:k], leak[k:]

    def integrand(x: float) -> float:
        f_m = float(np.prod(-np.expm1(-x / relay)))
        surv_m = -math.expm1(float(np.sum(np.log(-np.expm1(-x / relay)))))
        surv_s = float(_hypoexp_row(eves, x)[:-1].sum())
        return (surv_m + f_m * surv_s) / (1.0 + x)

    x0 = 1e-6 * min(1.0, float(relay.min()), float(eves.min()))
    x_hi = 45.0 * (1.0 + float(relay.max()) + float(eves.sum()))
    breaks = np.linspace(math.log(x0), math.log(x_hi), math.ceil(math.log(x_hi / x0) / 8.0) + 1)
    e_ln = x0 * integrand(0.5 * x0)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        val, _ = integrate.quad(lambda t: integrand(math.exp(t)) * math.exp(t), lo, hi,
                                epsabs=0.0, epsrel=1e-12, limit=200)
        e_ln += val
    cap = math.log2(1.0 + config.n_antennas * gains.gbar_sd(rho))
    return max(0.0, cap - e_ln / _LN2)
