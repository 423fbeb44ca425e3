"""Closed-form performance metrics.

For the relayed scheme with best-second-hop selection and closed-form power
split, the destination SNR concentrates on gamma_max/(1+B) and the leakage on
B = sqrt(2(1+C)), where C >= 0 is the average collusion penalty (zero when
nodes do not collude).  Every metric then reduces to order statistics of the
K relay->destination links: inclusion-exclusion sums over their rate subsets,
each evaluated by the one kernel specfun.signed_subset_eval.

The direct-transmission forms instead harden the main link at N_s*gbar_sd and
keep the leakage random: the max (and, under collusion, the worse of max and
sum) of independent exponentials.  Relayed forms take the transmit SNR rho
directly; direct-transmission forms need n_antennas too and take the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EveModel, MeanGains, Modulation, SystemConfig
from .specfun import (
    EULER_GAMMA,
    exp_poly_recip_integral,
    hypoexp_cdf,
    hypoexp_terms,
    maxexp_cdf,
    scaled_e1,
    signed_subset_eval,
    subset_terms,
)

_LN2 = math.log(2.0)
_QPSK = Modulation.psk(4)


@dataclass(frozen=True)
class EsrBreakdown:
    """Ergodic secrecy rate with its high-SNR affine description
    esr ~= high_snr_slope * (log2(rho) - power_offset)."""

    esr: float
    high_snr_slope: float
    power_offset: float
    asymptotic_esr: float


def leakage_floor(c: float) -> float:
    """Average-leakage proxy B = sqrt(2(1+C)); C >= 0 comes from
    policy.c_params (zero without collusion)."""
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"collusion penalty must be >= 0, got {c}")
    return math.sqrt(2.0 * (1.0 + c))


def outage_threshold(c: float, target_rate: float) -> float:
    """Outage threshold r_tilde = (1+B)(2^(2*Rt)(1+B)-1) on the selected second
    hop: the secrecy rate misses the target iff the best relay->destination
    SNR falls below it.  At Rt=0 it is B(1+B)."""
    if not (math.isfinite(target_rate) and target_rate >= 0.0):
        raise ValueError(f"target_rate must be >= 0, got {target_rate}")
    b = leakage_floor(c)
    return (1.0 + b) * (2.0 ** (2.0 * target_rate) * (1.0 + b) - 1.0)


def _outage_product(gains: MeanGains, rho: float, c: float, target_rate: float) -> float:
    r_tilde = outage_threshold(c, target_rate)
    return float(np.prod(-np.expm1(-r_tilde / gains.gbar_rd(rho))))


def sop_dbcj(gains: MeanGains, rho: float, c: float = 0.0, target_rate: float = 1.0) -> float:
    """Secrecy outage probability of the relayed scheme: the best second hop
    fails to clear the threshold, prod_i(1 - exp(-r_tilde/gbar_id))."""
    return _outage_product(gains, rho, c, target_rate)


def sop_dbcj_asymptotic(
    gains: MeanGains, rho: float, c: float = 0.0, target_rate: float = 1.0
) -> float:
    """High-SNR companion of sop_dbcj: r_tilde^K / prod(gbar_id), slope -K."""
    r_tilde = outage_threshold(c, target_rate)
    return float(r_tilde ** gains.n_relays * np.prod(1.0 / gains.gbar_rd(rho)))


def ppos_dbcj(gains: MeanGains, rho: float, c: float = 0.0) -> float:
    """Probability of a strictly positive secrecy rate for the relayed
    scheme: the exact complement of sop_dbcj at zero target rate."""
    return 1.0 - _outage_product(gains, rho, c, 0.0)


def ppos_dbcj_asymptotic(gains: MeanGains, rho: float, c: float = 0.0) -> float:
    """High-SNR companion of ppos_dbcj: 1 - (B(1+B))^K / prod(gbar_id)."""
    r_tilde = outage_threshold(c, 0.0)
    return 1.0 - float(r_tilde ** gains.n_relays * np.prod(1.0 / gains.gbar_rd(rho)))


def esr_dbcj(gains: MeanGains, rho: float, c: float = 0.0) -> EsrBreakdown:
    """Ergodic secrecy rate of the relayed scheme, with its high-SNR line.

    esr = (1/(2 ln2)) sum_u (-1)^(|u|+1) e^s E1(s) at s = s_u(1+B), minus
    (1/2)log2(1+B), clamped at zero after full evaluation; s_u sums 1/gbar_id
    over the non-empty relay subset u.  The asymptote replaces e^s E1(s) by
    -ln(s) - eulergamma and is reported unclamped as the line
    0.5*(log2(rho) - power_offset), which is that sum exactly: s_u = m_u/rho
    and sum_u (-1)^|u| = -1 leave only the sum over the m_u.
    """
    b = leakage_floor(c)
    rates = 1.0 / gains.gbar_rd(rho)
    e_ln = -signed_subset_eval(rates, lambda _sz, s: scaled_e1(s * (1.0 + b)))
    esr = max(0.0, e_ln / (2.0 * _LN2) - 0.5 * math.log2(1.0 + b))
    mu_part = signed_subset_eval(1.0 / gains.mu_rd, lambda _sz, s: np.log2(s))
    offset = -mu_part + EULER_GAMMA / _LN2 + 2.0 * math.log2(1.0 + b)
    asym = 0.5 * (math.log2(rho) - offset)
    return EsrBreakdown(esr=esr, high_snr_slope=0.5, power_offset=offset, asymptotic_esr=asym)


def ser_dbcj(
    gains: MeanGains, rho: float, c: float = 0.0, modulation: Modulation = _QPSK
) -> float:
    """Average symbol error rate at the destination for the relayed scheme:
    (alpha/2)(1 + sum_u (-1)^|u| / sqrt(1 + 2 s_u (1+B)/beta))."""
    b = leakage_floor(c)
    rates = 1.0 / gains.gbar_rd(rho)
    inner = signed_subset_eval(
        rates, lambda _sz, s: 1.0 / np.sqrt(1.0 + 2.0 * s * (1.0 + b) / modulation.beta_m)
    )
    return 0.5 * modulation.alpha_m * (1.0 + inner)


def ser_dbcj_asymptotic(
    gains: MeanGains, rho: float, c: float = 0.0, modulation: Modulation = _QPSK
) -> float:
    """High-SNR companion of ser_dbcj; decays as rho^-K (diversity order K)."""
    b = leakage_floor(c)
    k = gains.n_relays
    lead = modulation.alpha_m * math.factorial(2 * k) * (1.0 + b) ** k
    denom = modulation.beta_m**k * 2.0 ** (k + 1) * math.factorial(k)
    return lead / denom * float(np.prod(1.0 / gains.gbar_rd(rho)))


# ---------------------------------------------------------------------------
# Direct transmission.  The beamformed main link hardens at N_s*gbar_sd while
# each malicious node only sees O(1) beamformer leakage, an exponential with
# the plain per-antenna mean.  The decoding model is passed explicitly.
# ---------------------------------------------------------------------------


def _dt_leak_cdf(gains: MeanGains, rho: float, model: EveModel, x: float) -> float:
    leak = gains.leak_means_dt(rho)
    if model is EveModel.NCE or gains.n_eves == 0:
        return maxexp_cdf(leak, x)
    k = gains.n_relays
    return maxexp_cdf(leak[:k], x) * hypoexp_cdf(leak[k:], x)


def ppos_dt(gains: MeanGains, config: SystemConfig, model: EveModel) -> float:
    """Probability of positive secrecy rate under direct transmission.

    P[leakage < N_s*gbar_sd] with the hardened main link; independent of the
    transmit SNR because both sides scale with rho.
    """
    rho = config.snr_linear
    return _dt_leak_cdf(gains, rho, model, config.n_antennas * gains.gbar_sd(rho))


def sop_dt(
    gains: MeanGains, config: SystemConfig, model: EveModel, target_rate: float = 1.0
) -> float:
    """Secrecy outage probability under direct transmission (full-rate
    prefactor, no 1/2).  A threshold at or below zero means the hardened
    main link cannot carry the target at all: outage with certainty."""
    if not (math.isfinite(target_rate) and target_rate >= 0.0):
        raise ValueError(f"target_rate must be >= 0, got {target_rate}")
    rho = config.snr_linear
    x = (1.0 + config.n_antennas * gains.gbar_sd(rho)) / (2.0**target_rate) - 1.0
    if x <= 0.0:
        return 1.0
    return 1.0 - _dt_leak_cdf(gains, rho, model, x)


def esr_dt_lb(gains: MeanGains, config: SystemConfig, model: EveModel) -> float:
    """Lower bound on the direct-transmission ergodic secrecy rate.

    log2 of the hardened main link minus the exact E[log2(1 + leakage)].
    Without collusion the leakage is a max of K+L exponentials; with it, the
    worse of the relay maximum and the eavesdroppers' sum, integrated through
    the survival-function terms of the sum.  Clamped at zero at the end.
    """
    rho = config.snr_linear
    leak = gains.leak_means_dt(rho)
    cap = math.log2(1.0 + config.n_antennas * gains.gbar_sd(rho))
    if model is EveModel.NCE or gains.n_eves == 0:
        e_ln = -signed_subset_eval(1.0 / leak, lambda _sz, s: scaled_e1(s))
    else:
        k = gains.n_relays
        sizes, sums = subset_terms(1.0 / leak[:k])
        signs = np.where(sizes % 2 == 1, -1.0, 1.0)
        terms = hypoexp_terms(leak[k:])
        # fsum rounds the whole list once, so the order of its parts is free.
        parts = [coef * exp_poly_recip_integral(p, r, r) for coef, p, r in terms]
        parts += (-signs * scaled_e1(sums)).tolist()
        for coef, p, r in terms:
            parts += (signs * coef * exp_poly_recip_integral(p, r, sums + r)).tolist()
        e_ln = math.fsum(parts)
    return max(0.0, cap - e_ln / _LN2)


def dmt_secrecy(n_relays: int, multiplexing_gain: float) -> float:
    """Secrecy diversity-multiplexing curve d(r) = K(1-2r) on r in [0, 1/2];
    one protocol phase in two carries payload, halving the usable gain."""
    return _dmt_line(n_relays, multiplexing_gain, 2.0)


def dmt_reliability(n_relays: int, multiplexing_gain: float) -> float:
    """Reliability (no-secrecy-constraint) curve d(r) = K(1-r) on r in [0, 1]."""
    return _dmt_line(n_relays, multiplexing_gain, 1.0)


def _dmt_line(n_relays: int, r: float, slope: float) -> float:
    if n_relays < 1:
        raise ValueError(f"need n_relays >= 1, got {n_relays}")
    if not (math.isfinite(r) and 0.0 <= r <= 1.0 / slope):
        raise ValueError(f"multiplexing gain must be in [0, {1.0 / slope:g}], got {r}")
    return n_relays * (1.0 - slope * r)
