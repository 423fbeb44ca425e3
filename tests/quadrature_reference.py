"""Adaptive-quadrature oracles for the relayed ESR and SER closed forms.

Each scipy oracle integrates the max-over-relays CDF directly with
`scipy.integrate.quad`; it shares nothing with `secrelay.analytics` beyond
`maxexp_cdf` and `leakage_floor`, so agreement with the closed forms is
meaningful.  `log_expect_mp` is the 30-digit mpmath oracle for
`specfun.maxexp_log_expect`: Gauss-Legendre quadrature in mpmath, which
shares neither its rule nor its float arithmetic.  This is verification
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
from secrelay.model import MeanGains, Modulation
from secrelay.specfun import maxexp_cdf

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
