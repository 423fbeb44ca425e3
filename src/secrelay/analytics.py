"""Closed-form performance metrics.

For the relayed scheme with best-second-hop selection and closed-form power
split, the destination SNR concentrates on gamma_max/(1+B) and the leakage on
B = sqrt(2(1+C)), where C >= 0 is the average collusion penalty (zero when
nodes do not collude).  Every metric then reduces to order statistics of the
K relay->destination links, the maximum X of K independent exponentials:

- the ESR's ergodic term E[ln(1 + X/(1+B))] is specfun.maxexp_log_expect, a
  quadrature over the positive survival function of X (O(K), ~1e-16);
- the outage metrics are the positive product CDF of X itself;
- the ESR's power offset and the SER are still signed inclusion-exclusion
  sums over all 2^K - 1 relay subsets, through specfun.signed_subset_eval.
  It adds the terms exactly and rounds once, by error-free extraction (each
  pass splits every term at one power of two into a high part whose float
  sum is exact and a smaller residual; 2 passes a block here), and walks
  the subsets in blocks of 2^14, so it costs O(2^K) time but only O(2^14)
  memory.  The SER's terms cancel to ~1e-15 absolute at high SNR.
  They stay there until the benchmark changes with them: bench/tracing.py
  requires a signed_subset_eval call in every simulation round, and
  bench/test_bench.py counts the SER's two cancellation faults as known.

The direct-transmission forms instead harden the main link at N_s*gbar_sd and
keep the leakage random: the max (and, under collusion, the worse of max and
sum) of independent exponentials.  Without collusion the DT ESR bound is the
same quadrature over all K+L leakages.  With it, the bound is E ln(1 + M) plus
the eavesdroppers' positive tail integral J summed over the relay subsets: the
benchmark traces that subset sum, which int (1 - F_M F_S)/(1 + x) dx would
drop.  Relayed forms take rho; direct-transmission forms take the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EveModel, MeanGains, Modulation, SystemConfig
from .specfun import (
    EULER_GAMMA,
    _exact_signed_sum,
    _maxexp_cdf,
    hypoexp_cdf,
    hypoexp_tail_integral,
    maxexp_cdf,
    maxexp_log_expect,
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


def _rate_factor(target_rate: float, phases: float) -> float:
    """2^(phases*Rt), the SNR ratio that rate Rt over `phases` protocol phases
    needs; inf past the float range, where no link clears it (outage 1)."""
    if not (math.isfinite(target_rate) and target_rate >= 0.0):
        raise ValueError(f"target_rate must be >= 0, got {target_rate}")
    return 2.0 ** (phases * target_rate) if phases * target_rate < 1024.0 else math.inf


def outage_threshold(c: float, target_rate: float) -> float:
    """Outage threshold r_tilde = (1+B)(2^(2*Rt)(1+B)-1) on the selected second
    hop: the secrecy rate misses the target iff the best relay->destination
    SNR falls below it.  At Rt=0 it is B(1+B); past the float range, inf."""
    factor = _rate_factor(target_rate, 2.0)
    b = leakage_floor(c)
    return (1.0 + b) * (factor * (1.0 + b) - 1.0)


def sop_dbcj(gains: MeanGains, rho: float, c: float = 0.0, target_rate: float = 1.0) -> float:
    """Secrecy outage probability of the relayed scheme: the best second hop
    fails to clear the threshold, specfun.maxexp_cdf of the gbar_id at r_tilde."""
    return float(_maxexp_cdf(gains.gbar_rd(rho), outage_threshold(c, target_rate)))


def sop_dbcj_asymptotic(
    gains: MeanGains, rho: float, c: float = 0.0, target_rate: float = 1.0
) -> float:
    """High-SNR companion of sop_dbcj: prod_i r_tilde/gbar_id, slope -K.  One
    product of K ratios: r_tilde^K alone can overflow where the line is finite."""
    return float(np.prod(outage_threshold(c, target_rate) / gains.gbar_rd(rho)))


def ppos_dbcj(gains: MeanGains, rho: float, c: float = 0.0) -> float:
    """Probability of a strictly positive secrecy rate for the relayed
    scheme: the exact complement of sop_dbcj at zero target rate."""
    return 1.0 - sop_dbcj(gains, rho, c, 0.0)


def ppos_dbcj_asymptotic(gains: MeanGains, rho: float, c: float = 0.0) -> float:
    """High-SNR companion of ppos_dbcj: 1 - (B(1+B))^K / prod(gbar_id)."""
    return 1.0 - sop_dbcj_asymptotic(gains, rho, c, 0.0)


def esr_dbcj(gains: MeanGains, rho: float, c: float = 0.0) -> EsrBreakdown:
    """Ergodic secrecy rate of the relayed scheme, with its high-SNR line.

    esr = E[ln(1 + X/(1+B))]/(2 ln2) - (1/2)log2(1+B), clamped at zero after
    full evaluation, where X is the best second hop (the max of exponentials
    with means gbar_id).  The expectation is the integral
    int_0^inf (1 - F_X(x))/(1+B+x) dx, evaluated by maxexp_log_expect.
    The asymptote replaces that expectation by E[ln X] - ln(1+B), where
    E[ln X] = sum_u (-1)^|u| (ln s_u + eulergamma) is a signed sum over the
    non-empty relay subsets u, s_u summing 1/gbar_id over u.  It is reported
    unclamped as the line 0.5*(log2(rho) - power_offset), which is that sum
    exactly: s_u = m_u/rho and sum_u (-1)^|u| = -1 leave only the sum over
    the m_u, which signed_subset_eval evaluates.
    """
    b = leakage_floor(c)
    e_ln = maxexp_log_expect(gains.gbar_rd(rho), 1.0 + b)
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

    def term(_sizes, s):
        # 1/sqrt(1 + 2*s*(1+B)/beta), op by op in one scratch array.
        t = 2.0 * s
        t *= 1.0 + b
        t /= modulation.beta_m
        t += 1.0
        np.sqrt(t, out=t)
        return np.divide(1.0, t, out=t)

    inner = signed_subset_eval(rates, term)
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
    factor = _rate_factor(target_rate, 1.0)
    rho = config.snr_linear
    x = (1.0 + config.n_antennas * gains.gbar_sd(rho)) / factor - 1.0
    if x <= 0.0:
        return 1.0
    return 1.0 - _dt_leak_cdf(gains, rho, model, x)


def esr_dt_lb(gains: MeanGains, config: SystemConfig, model: EveModel) -> float:
    """Lower bound on the direct-transmission ergodic secrecy rate.

    log2 of the hardened main link minus the exact E[log2(1 + leakage)].
    Without collusion the leakage is a max of K+L exponentials and the
    expectation is maxexp_log_expect over all K+L leakage means, with no
    ceiling on K+L.  With it, the leakage is max(M, S), M the relay maximum
    and S the eavesdroppers' sum: E ln(1 + M) plus sum_u (-1)^|u| J(s_u) over
    all relay subsets u, the empty one too, J the tail integral of S
    (specfun.hypoexp_tail_integral) at u's rate sum.  Clamped at zero.
    """
    rho = config.snr_linear
    leak = gains.leak_means_dt(rho)
    cap = math.log2(1.0 + config.n_antennas * gains.gbar_sd(rho))
    if model is EveModel.NCE or gains.n_eves == 0:
        e_ln = maxexp_log_expect(leak, 1.0)
    else:
        k = gains.n_relays
        sizes, sums = subset_terms(1.0 / leak[:k])
        tails = hypoexp_tail_integral(leak[k:], np.concatenate([[0.0], sums]))
        # Added exactly and rounded once, so the order of the parts is free.
        parts = np.concatenate([[maxexp_log_expect(leak[:k], 1.0)], tails])
        e_ln = _exact_signed_sum(parts, np.concatenate([[0, 0], sizes]))
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
