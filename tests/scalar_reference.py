"""Per-draw scalar reference for the batch scheme evaluation.

The package evaluates SINRs, leakage, the split search and every scheme over
a whole `BatchDraws` at once.  This module keeps the direct per-draw
construction that the batch path replaced: one draw, one served relay, one
split at a time, with a scalar golden-section loop and a Python loop over
relays.  Tests compare the batch results against it, exactly where the
arithmetic is the same.  It also keeps the collusion branch of
`analytics.esr_dt_lb` as one scalar call per (subset, survival term), and
`math.fsum` copies of the three closed forms that are signed subset sums
(the ESR power offset, the SER and the collusion DT bound).  It is a plain
module that test files import, not a test file itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from secrelay.analytics import leakage_floor
from secrelay.channel import LAMBDA_EPS, BatchDraws, dt_leakage
from secrelay.model import EveModel, MeanGains, Modulation, SystemConfig
from secrelay.policy import Scheme, secrecy_rate
from secrelay.specfun import (
    EULER_GAMMA,
    exp_poly_recip_integral,
    hypoexp_terms,
    scaled_e1,
    subset_terms,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bracket width of the split search, as in the package.
SPLIT_TOL = 1e-6


@dataclass(eq=False)
class ChannelDraw:
    """One trial of a BatchDraws, with the trial axis dropped (same fields)."""

    g_sr: np.ndarray
    g_rd: np.ndarray
    g_null_r: np.ndarray
    g_rl: np.ndarray
    g_ld: np.ndarray
    g_sd: float
    g_null_d: np.ndarray
    u_rand: float

    @property
    def n_relays(self) -> int:
        return len(self.g_sr)

    @property
    def n_nodes(self) -> int:
        return len(self.g_ld)


@dataclass(frozen=True)
class PolicyOutcome:
    """Realized operating point of a scheme on one draw; relay and split are
    None for direct transmission."""

    scheme: Scheme
    selected_relay: int | None
    lam: float | None
    gamma_d: float
    gamma_e: float
    secrecy_rate: float


def row(batch: BatchDraws, t: int) -> ChannelDraw:
    """Trial t of the batch; array fields are views into it."""
    return ChannelDraw(
        g_sr=batch.g_sr[t],
        g_rd=batch.g_rd[t],
        g_null_r=batch.g_null_r[t],
        g_rl=batch.g_rl[t],
        g_ld=batch.g_ld[t],
        g_sd=float(batch.g_sd[t]),
        g_null_d=batch.g_null_d[t],
        u_rand=float(batch.u_rand[t]),
    )


def one_row_batch(**fields) -> BatchDraws:
    """A hand-made draw as a one-row BatchDraws: every field gains a leading
    trial axis of length one."""
    return BatchDraws(**{name: np.asarray(v, dtype=float)[None] for name, v in fields.items()})


def sinr_relay(draw: ChannelDraw, relay: int, lam: float) -> float:
    """First-phase SINR at the served (untrusted) relay."""
    return float(lam * draw.g_sr[relay] / ((1.0 - lam) * draw.g_rd[relay] + 1.0))


def sinr_eve_phase1(draw: ChannelDraw, relay: int, node: int, lam: float) -> float:
    """First-phase SINR at `node` while `relay` is served: beamforming
    leakage over destination jamming."""
    return float(lam * draw.g_null_r[relay, node] / ((1.0 - lam) * draw.g_ld[node] + 1.0))


def sinr_eve_phase2(draw: ChannelDraw, relay: int, node: int, lam: float) -> float:
    """Second-phase SINR at `node` listening to the relay's amplified forward."""
    g_si, g_id = draw.g_sr[relay], draw.g_rd[relay]
    g_il = draw.g_rl[relay, node]
    return float(
        lam * g_si * g_il / (lam * g_si + (1.0 + (1.0 - lam) * g_id) * (1.0 + g_il))
    )


def sinr_destination(draw: ChannelDraw, relay: int, lam: float) -> float:
    """End-to-end SINR at the destination after self-interference cancellation."""
    g_si, g_id = draw.g_sr[relay], draw.g_rd[relay]
    return float(lam * g_si * g_id / (lam * g_si + (2.0 - lam) * g_id + 1.0))


def leakage(draw: ChannelDraw, relay: int, lam: float, model: EveModel) -> float:
    """Exact leakage of one draw: both phases at every node, the served
    relay's own phase-1 SINR included through its self column."""
    g_si, g_id = draw.g_sr[relay], draw.g_rd[relay]
    rl = draw.g_rl[relay]
    p1 = lam * draw.g_null_r[relay] / ((1.0 - lam) * draw.g_ld + 1.0)
    p2 = lam * g_si * rl / (lam * g_si + (1.0 + (1.0 - lam) * g_id) * (1.0 + rl))
    per_node = np.maximum(p1, p2)
    if model is EveModel.NCE:
        return float(np.max(per_node))
    k = draw.n_relays
    return float(max(np.max(per_node[:k]), np.sum(p1[k:] + p2[k:])))


def rate_at(draw: ChannelDraw, relay: int, lam: float, model: EveModel) -> float:
    return secrecy_rate(sinr_destination(draw, relay, lam), leakage(draw, relay, lam, model))


def _clamp(lam: float) -> float:
    return min(max(lam, LAMBDA_EPS), 1.0 - LAMBDA_EPS)


def closed_candidates(draw: ChannelDraw, relay: int) -> list[float]:
    """The NCE closed-form split, plus the CE one when there are eavesdroppers."""
    g_si, g_id = float(draw.g_sr[relay]), float(draw.g_rd[relay])
    cands = [_clamp(math.sqrt(2.0) * g_id / g_si)]
    k = draw.n_relays
    if draw.n_nodes > k:
        delta = g_si / (g_id + 1.0) + float(
            np.sum(draw.g_null_r[relay, k:] / (draw.g_ld[k:] + 1.0))
        )
        cands.append(_clamp(math.sqrt(2.0 * g_id / (g_si * delta))))
    return cands


def opa_numeric(draw: ChannelDraw, relay: int, model: EveModel) -> tuple[float, float]:
    """Golden-section search of the exact rate over the split, then the best
    of the bracket result, the equal split and the closed-form candidates.
    Returns (split, rate)."""
    a, b = LAMBDA_EPS, 1.0 - LAMBDA_EPS
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = rate_at(draw, relay, x1, model)
    f2 = rate_at(draw, relay, x2, model)
    # Tracking the width analytically keeps the probe sequence identical to
    # the batch search.
    width = 1.0 - 2.0 * LAMBDA_EPS
    while width > SPLIT_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = rate_at(draw, relay, x1, model)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = rate_at(draw, relay, x2, model)
        width *= _GOLDEN
    best_lam, best = (x1, f1) if f1 >= f2 else (x2, f2)
    for lam in [0.5, *closed_candidates(draw, relay)]:
        f = rate_at(draw, relay, lam, model)
        if f > best:
            best_lam, best = lam, f
    return best_lam, best


def select_relay_exact(draw: ChannelDraw, model: EveModel) -> tuple[int, float, float]:
    """Numeric split per relay, best exact rate wins (ties: lowest index).
    Returns (relay, split, rate)."""
    best = (-1, 0.5, -1.0)
    for i in range(draw.n_relays):
        lam, rate = opa_numeric(draw, i, model)
        if rate > best[2]:
            best = (i, lam, rate)
    return best


def run_scheme(draw: ChannelDraw, scheme: Scheme, config: SystemConfig) -> PolicyOutcome:
    """Apply a scheme to one draw and report its exact operating point."""
    model = config.eve_model
    k = draw.n_relays
    if scheme is Scheme.DT:
        g_d = draw.g_sd
        g_e = float(dt_leakage(draw.g_null_d, k, model))
        return PolicyOutcome(scheme, None, None, g_d, g_e, secrecy_rate(g_d, g_e, half=False))
    if scheme in (Scheme.EPRR, Scheme.OPRR):
        relay = min(int(draw.u_rand * k), k - 1)
        lam = 0.5 if scheme is Scheme.EPRR else opa_numeric(draw, relay, model)[0]
    elif scheme is Scheme.JRP:
        relay = int(np.argmax(draw.g_rd))
        lam = opa_numeric(draw, relay, model)[0]
    elif scheme is Scheme.EPRS:
        rates = [rate_at(draw, i, 0.5, model) for i in range(k)]
        relay, lam = int(np.argmax(rates)), 0.5
    elif scheme is Scheme.EXACT_JRP:
        relay, lam, _ = select_relay_exact(draw, model)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    g_d = sinr_destination(draw, relay, lam)
    g_e = leakage(draw, relay, lam, model)
    return PolicyOutcome(scheme, relay, lam, g_d, g_e, secrecy_rate(g_d, g_e))


def esr_dt_lb_collusion(gains: MeanGains, config: SystemConfig) -> float:
    """analytics.esr_dt_lb under collusion (with eavesdroppers present),
    evaluated one subset and one survival term at a time."""
    rho = config.snr_linear
    leak = gains.leak_means_dt(rho)
    cap = math.log2(1.0 + config.n_antennas * gains.gbar_sd(rho))
    k = gains.n_relays
    sizes, sums = subset_terms(1.0 / leak[:k])
    signs = np.where(sizes % 2 == 1, -1.0, 1.0)
    terms = hypoexp_terms(leak[k:])
    parts = [coef * exp_poly_recip_integral(p, r, r) for coef, p, r in terms]
    parts.extend(-sg * scaled_e1(a) for sg, a in zip(signs, sums))
    parts.extend(
        sg * coef * exp_poly_recip_integral(p, r, a + r)
        for sg, a in zip(signs, sums)
        for coef, p, r in terms
    )
    return max(0.0, cap - math.fsum(parts) / math.log(2.0))


# ---------------------------------------------------------------------------
# math.fsum copies of the signed subset sums.  Each builds its term arrays as
# the package does and adds the signed list with math.fsum, which rounds the
# exact sum once, so the package's exact accumulator must match them with ==.


def signed_fsum(vals: np.ndarray, odd: np.ndarray) -> float:
    """math.fsum of (-1)^odd[i] * vals[i]."""
    return math.fsum(np.where(odd & 1, -vals, vals).tolist())


def power_offset_fsum(gains: MeanGains, c: float) -> float:
    """analytics.esr_dbcj(...).power_offset (SNR-free)."""
    sizes, sums = subset_terms(1.0 / gains.mu_rd)
    mu_part = signed_fsum(np.log2(sums), sizes)
    return -mu_part + EULER_GAMMA / math.log(2.0) + 2.0 * math.log2(1.0 + leakage_floor(c))


def ser_dbcj_fsum(gains: MeanGains, rho: float, c: float, modulation: Modulation) -> float:
    """analytics.ser_dbcj."""
    b = leakage_floor(c)
    sizes, sums = subset_terms(1.0 / gains.gbar_rd(rho))
    inner = signed_fsum(1.0 / np.sqrt(1.0 + 2.0 * sums * (1.0 + b) / modulation.beta_m), sizes)
    return 0.5 * modulation.alpha_m * (1.0 + inner)


def esr_dt_lb_collusion_fsum(gains: MeanGains, config: SystemConfig) -> float:
    """esr_dt_lb_collusion with each survival term evaluated on all subsets
    at once, fast enough for K = 18."""
    rho = config.snr_linear
    leak = gains.leak_means_dt(rho)
    cap = math.log2(1.0 + config.n_antennas * gains.gbar_sd(rho))
    k = gains.n_relays
    sizes, sums = subset_terms(1.0 / leak[:k])
    terms = hypoexp_terms(leak[k:])
    signs = np.where(sizes & 1, -1.0, 1.0)
    parts = [coef * exp_poly_recip_integral(p, r, r) for coef, p, r in terms]
    parts += (-signs * scaled_e1(sums)).tolist()
    for coef, p, r in terms:
        parts += (signs * coef * exp_poly_recip_integral(p, r, sums + r)).tolist()
    return max(0.0, cap - math.fsum(parts) / math.log(2.0))
