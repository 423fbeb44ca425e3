"""Power allocation and relay selection policies.

Closed-form allocation comes from the large-antenna regime where the
first hop is far stronger than the second: splitting power so the served
relay's own SINR falls to about sqrt(2) (NCE), or its colluding-world
equivalent, maximizes the secrecy rate.  The numeric split search and the
exhaustive selector (EXACT_JRP) make no such approximation and act as the
in-simulation reference the closed forms are judged against.  Every scheme
runs on a whole BatchDraws at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import LAMBDA_EPS, BatchDraws, dt_leakage, leakage_batch, sinr_destination
from .model import EveModel, MeanGains, SystemConfig
from .specfun import EULER_GAMMA, digamma_int, scaled_e1

_LN2 = math.log(2.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bracket width at which the golden-section split search stops.
_SPLIT_TOL = 1e-6


class RegimeWarning(UserWarning):
    """A closed-form split landed outside (0, 1): draw outside the
    large-antenna regime; the value was clamped."""


class Scheme(Enum):
    """Transmission policies.

    JRP: strongest-second-hop relay, split optimized per draw.
    EXACT_JRP: per-draw maximization over both relay and split.
    EPRR / OPRR: uniformly random relay with equal / optimized split.
    EPRS: equal split with the best relay under exact leakage.
    DT: direct transmission, no relay at all.

    Allocating schemes run a golden-section search over the split, then
    keep the equal split or a closed-form candidate wherever it rates
    higher.  That is what honest finite-antenna evaluation takes: the closed
    forms are asymptotic in the antenna count and sit in analytics, where
    the simulated schemes validate them.
    """

    JRP = "jrp"
    EXACT_JRP = "exact-jrp"
    EPRR = "eprr"
    OPRR = "oprr"
    EPRS = "eprs"
    DT = "dt"


@dataclass(frozen=True)
class CParams:
    """Average collusion penalty C = eta * theta_hat (zero under NCE).

    theta_hat aggregates the eavesdroppers' mean jammed leakage; eta is the
    selected second hop's mean strength over the first hop's.
    """

    theta_hat: float
    eta: float
    c: float


def _clamp_split(lam, warn: bool = False):
    """Clamp splits into (0, 1); with warn, flag any that moved with a
    RegimeWarning.  Scalars stay scalars."""
    if warn:
        arr = np.asarray(lam)
        outside = ~((arr > LAMBDA_EPS) & (arr < 1.0 - LAMBDA_EPS))
        if outside.any():
            warnings.warn(
                f"{np.count_nonzero(outside)} closed-form split(s) outside (0, 1), "
                f"first {arr[outside].flat[0]:.3g}; clamping",
                RegimeWarning,
                stacklevel=3,
            )
    return np.clip(lam, LAMBDA_EPS, 1.0 - LAMBDA_EPS)


def _nce_split(gamma_si, gamma_id):
    # Drives the served relay's own SINR to about sqrt(2).
    return math.sqrt(2.0) * gamma_id / gamma_si


def _closed_split_batch(
    batch: BatchDraws, relay_idx, model: EveModel, warn: bool = False
) -> np.ndarray:
    """Closed-form split per trial for the served relay (the formula of
    opa_nce or opa_ce), clamped into (0, 1)."""
    rows = np.arange(batch.n_trials)
    g_si = batch.g_sr[rows, relay_idx]
    g_id = batch.g_rd[rows, relay_idx]
    if model is EveModel.NCE:
        return _clamp_split(_nce_split(g_si, g_id), warn)
    k = batch.n_relays
    null_e = batch.g_null_r[rows, relay_idx][:, k:]
    delta = g_si / (g_id + 1.0) + np.sum(null_e / (batch.g_ld[:, k:] + 1.0), axis=1)
    return _clamp_split(np.sqrt(2.0 * g_id / (g_si * delta)), warn)


def opa_nce(gamma_si, gamma_id):
    """Closed-form split against non-colluding nodes: sqrt(2)*gamma_id/gamma_si.

    Takes scalars or per-trial arrays.  Valid when the first hop dominates
    (gamma_si > sqrt(2)*gamma_id); outside that regime the value is clamped
    into (0, 1) with a RegimeWarning.
    """
    if np.any(np.less_equal(gamma_si, 0)) or np.any(np.less(gamma_id, 0)):
        raise ValueError("SNRs must be positive")
    return _clamp_split(_nce_split(gamma_si, gamma_id), warn=True)


def opa_nce_statistical(h_id_gain: float, n_antennas: int, mu_si: float) -> float:
    """NCE split from channel statistics only: sqrt(2)*|h_id|^2/(N_s*mu_si).

    Replaces the instantaneous first hop with its mean, so the source needs
    no first-hop estimate; halves when the antenna count doubles.
    """
    if h_id_gain < 0 or n_antennas < 1 or mu_si <= 0:
        raise ValueError("need |h_id|^2 >= 0, n_antennas >= 1, mu_si > 0")
    return _clamp_split(_nce_split(n_antennas * mu_si, h_id_gain), warn=True)


def opa_ce(batch: BatchDraws, relay_idx) -> np.ndarray:
    """Closed-form split against colluding eavesdroppers, per trial.

    Uses the per-draw aggregate delta = gamma_si/(gamma_id+1)
    + sum_l gamma_null_l/(gamma_ld+1) over the L eavesdroppers and returns
    sqrt(2*gamma_id/(gamma_si*delta)), clamped into (0, 1) with a
    RegimeWarning.  relay_idx is one relay for every trial or one per trial.
    """
    return _closed_split_batch(batch, relay_idx, EveModel.CE, warn=True)


def c_params(gains: MeanGains, config: SystemConfig) -> CParams:
    """Average collusion parameters for the closed-form metrics.

    theta_hat = sum_l (mu_se_l/mu_ed_l) * exp(s_l) E1(s_l) with
    s_l = 1/(rho*mu_ed_l); eta = mean(mu_rd) * H_K / ((N_s-1) * mean(mu_sr)).
    C multiplies them under CE and is zero under NCE.  The eta display
    averages per-relay gains, exact when relays share statistics.
    """
    if config.n_antennas < 2:
        raise ValueError("collusion parameters need n_antennas >= 2")
    rho = config.snr_linear
    k = gains.n_relays
    if gains.n_eves:
        theta = float(
            np.sum(gains.mu_se / gains.mu_ed * scaled_e1(1.0 / (rho * gains.mu_ed)))
        )
    else:
        theta = 0.0
    h_k = digamma_int(k + 1) + EULER_GAMMA
    eta = float(np.mean(gains.mu_rd)) * h_k / ((config.n_antennas - 1) * float(np.mean(gains.mu_sr)))
    c = eta * theta if config.eve_model is EveModel.CE else 0.0
    return CParams(theta_hat=theta, eta=eta, c=c)


def secrecy_rate(gamma_d, gamma_e, half: bool = True):
    """Achievable secrecy rate [log2(1+gamma_d) - log2(1+gamma_e)]^+ in
    bit/s/Hz, halved for the two-phase relay protocol."""
    pref = 0.5 if half else 1.0
    rate = pref * (np.log1p(gamma_d) - np.log1p(gamma_e)) / _LN2
    out = np.maximum(rate, 0.0)
    return float(out) if np.isscalar(gamma_d) and np.isscalar(gamma_e) else out


def select_relay_maxgain(batch: BatchDraws) -> np.ndarray:
    """Per trial, the relay with the strongest second hop (ties: lowest index).

    Only needs the relay->destination gains, which the destination can feed
    back, and is invariant to any common rescaling of them.
    """
    return np.argmax(batch.g_rd, axis=1)


def feedback_overhead_bits(n_relays: int, csi_bits: int) -> int:
    """Feedback cost of max-gain selection: one quantized gain report plus
    the winning relay index.  Reported as a statistic only; the signaling
    itself is not simulated."""
    if n_relays < 1 or csi_bits < 0:
        raise ValueError("need n_relays >= 1 and csi_bits >= 0")
    return csi_bits + math.ceil(math.log2(n_relays))


@dataclass(eq=False)
class SchemeBatchResult:
    """Per-trial operating points of one scheme over a batch.

    gamma_e is always the exact leakage for the chosen (relay, split), so
    simulation stays an honest check on any closed-form shortcut used to
    choose them.  Relay and split are None for direct transmission.
    """

    scheme: Scheme
    selected_relay: np.ndarray | None
    lam: np.ndarray | None
    gamma_d: np.ndarray
    gamma_e: np.ndarray
    rate: np.ndarray


def _rate_batch(batch, relay_idx, lam, model):
    g_d = sinr_destination(batch, relay_idx, lam)
    g_e = leakage_batch(batch, relay_idx, lam, model)
    return g_d, g_e, secrecy_rate(g_d, g_e)


def _numeric_split_batch(
    batch: BatchDraws, relay_idx: np.ndarray, model: EveModel
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the exact secrecy rate over the split for a fixed per-trial
    relay.

    Golden-section search on (0, 1) to bracket width _SPLIT_TOL, then the
    best of the bracket result, the equal split and the closed-form
    candidates; the returned rate therefore never falls below rate(0.5) or
    rate(lam*).  Returns (split, rate) per trial.
    """
    n = batch.n_trials
    a = np.full(n, LAMBDA_EPS)
    b = np.full(n, 1.0 - LAMBDA_EPS)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _rate_batch(batch, relay_idx, x1, model)[2]
    f2 = _rate_batch(batch, relay_idx, x2, model)[2]
    width = 1.0 - 2.0 * LAMBDA_EPS
    while width > _SPLIT_TOL:
        left = f1 >= f2
        b_new = np.where(left, x2, b)
        a_new = np.where(left, a, x1)
        x1_new = np.where(left, b_new - _GOLDEN * (b_new - a_new), x2)
        x2_new = np.where(left, x1, a_new + _GOLDEN * (b_new - a_new))
        f_keep = np.where(left, f1, f2)
        probe = np.where(left, x1_new, x2_new)
        f_probe = _rate_batch(batch, relay_idx, probe, model)[2]
        f1 = np.where(left, f_probe, f_keep)
        f2 = np.where(left, f_keep, f_probe)
        a, b, x1, x2 = a_new, b_new, x1_new, x2_new
        width *= _GOLDEN
    best = np.where(f1 >= f2, x1, x2)
    rate = np.where(f1 >= f2, f1, f2)
    # Guard with the equal split and the closed-form candidates.
    cands = [np.full(n, 0.5), _closed_split_batch(batch, relay_idx, EveModel.NCE)]
    if batch.n_nodes > batch.n_relays:
        cands.append(_closed_split_batch(batch, relay_idx, EveModel.CE))
    for lam_c in cands:
        r = _rate_batch(batch, relay_idx, lam_c, model)[2]
        better = r > rate
        best = np.where(better, lam_c, best)
        rate = np.where(better, r, rate)
    return best, rate


def run_scheme_batch(batch: BatchDraws, scheme: Scheme, config: SystemConfig) -> SchemeBatchResult:
    """Apply a scheme to every trial of the batch and report its exact
    operating points."""
    model = config.eve_model
    n, k = batch.n_trials, batch.n_relays
    if scheme is Scheme.DT:
        g_e = np.asarray(dt_leakage(batch.g_null_d, k, model), dtype=float)
        rate = secrecy_rate(batch.g_sd, g_e, half=False)
        return SchemeBatchResult(scheme, None, None, batch.g_sd.copy(), g_e, rate)
    if scheme in (Scheme.EPRR, Scheme.OPRR):
        relay = np.minimum((batch.u_rand * k).astype(np.int64), k - 1)
        lam = np.full(n, 0.5) if scheme is Scheme.EPRR else _numeric_split_batch(batch, relay, model)[0]
    elif scheme is Scheme.JRP:
        relay = select_relay_maxgain(batch)
        lam = _numeric_split_batch(batch, relay, model)[0]
    elif scheme is Scheme.EPRS:
        half = np.full(n, 0.5)
        rates = np.stack(
            [_rate_batch(batch, np.full(n, i), half, model)[2] for i in range(k)], axis=1
        )
        relay = np.argmax(rates, axis=1)
        lam = half
    elif scheme is Scheme.EXACT_JRP:
        best_rate = np.full(n, -1.0)
        relay = np.zeros(n, dtype=np.int64)
        lam = np.full(n, 0.5)
        for i in range(k):
            idx = np.full(n, i)
            lam_i, rate_i = _numeric_split_batch(batch, idx, model)
            better = rate_i > best_rate
            best_rate = np.where(better, rate_i, best_rate)
            relay = np.where(better, i, relay)
            lam = np.where(better, lam_i, lam)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    g_d, g_e, rate = _rate_batch(batch, relay, lam, model)
    return SchemeBatchResult(scheme, relay, lam, g_d, g_e, rate)
