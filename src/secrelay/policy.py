"""Power allocation and relay selection policies.

Closed-form allocation comes from the large-antenna regime where the
first hop is far stronger than the second: splitting power so the served
relay's own SINR falls to about sqrt(2) (NCE), or its colluding-world
equivalent, maximizes the secrecy rate.  The numeric split search and the
exhaustive selector (EXACT_JRP) make no such approximation and act as the
in-simulation reference the closed forms are judged against.  Under NCE the
search is exact: in t = 1/lam every leakage inverse is a line, so the rate
is maximized piece by piece along their lower envelope.  Under CE it is a
golden-section search.  Every scheme runs on a whole BatchDraws at once.
A relaying scheme is a relay rule and a split rule (searched or equal),
read from one pair table per batch, eavesdropper model and split rule.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
    BatchDraws,
    ServedView,
    _sinr_destination,
    dt_leakage,
    leakage_batch,
    served,
    sinr_destination,
)
from .model import EveModel, MeanGains, SystemConfig, _check_count, _check_eve_model
from .specfun import EULER_GAMMA, digamma_int, scaled_e1

_LN2 = math.log(2.0)
# Open-interval guard for the power split.
LAMBDA_EPS = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bracket width at which the golden-section (CE) split search stops.
_SPLIT_TOL = 1e-6
# The split interval [LAMBDA_EPS, 1 - LAMBDA_EPS] in t = 1/lam.
_T_LO = 1.0 / (1.0 - LAMBDA_EPS)
_T_HI = 1.0 / LAMBDA_EPS
# What the searched rate bound adds, in bit/s/Hz, for rounding: the bound and
# the search reach their best splits on different float paths, and without it
# a searched rate exceeded its bound by up to 7.1e-15 on draws at 160 dB.
_BOUND_SLACK = 1e-12
# Most (trial, relay) pairs one served view takes: simulate's default chunk,
# so stacking several relays' pairs never needs more memory than searching
# one relay over a default chunk.
_PAIR_ROWS = 2048


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

    A relaying scheme is a relay rule and a split rule.  The relay rule
    takes the strongest second hop (JRP), a random relay (EPRR, OPRR) or
    the best of all K under the split rule (EXACT_JRP, EPRS); the split
    rule is the equal split (EPRR, EPRS) or a per-draw search (the rest):
    exact under NCE (a walk along the envelope of the leakage lines in
    1/lam), and under CE by golden section, guarded by the equal split and
    the closed-form splits.  That is what honest finite-antenna evaluation
    takes: the closed forms are asymptotic in the antenna count and sit in
    analytics, where the simulated schemes validate them.  There is one
    pair table per batch, eavesdropper model and split rule, so each
    (trial, relay) pair is rated at most once per rule: whichever scheme
    needs it first rates it and the others read the stored (split, rate).
    EXACT_JRP and EPRS rate a pair only when its bound (_rate_bound) can
    reach the trial's best: JRP's pair first, then the pairs whose bound
    reaches its rate, so every pair they skip rates below the best.  EPRR
    needs no rating to pick its relay or split, so it reads no table.  A
    rating gathers its pairs' served gains once into a node-major
    channel.ServedView and rates every candidate on it; only each scheme's
    final operating point is rated through leakage_batch.
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


def _closed_split(view: ServedView, model: EveModel, warn: bool = False) -> np.ndarray:
    """Closed-form split per row of the served view (the formula of opa_nce
    or opa_ce), clamped into (0, 1)."""
    g_si, g_id = view.g_si, view.g_id
    if model is EveModel.NCE:
        return _clamp_split(_nce_split(g_si, g_id), warn)
    delta = g_si / (g_id + 1.0) + view.eve_sum(view.g_null / (view.g_ld + 1.0))
    return _clamp_split(np.sqrt(2.0 * g_id / (g_si * delta)), warn)


def opa_nce(gamma_si, gamma_id):
    """Closed-form split against non-colluding nodes: sqrt(2)*gamma_id/gamma_si.

    Takes scalars or per-trial arrays.  Valid when the first hop dominates
    (gamma_si > sqrt(2)*gamma_id); outside that regime the value is clamped
    into (0, 1) with a RegimeWarning.
    """
    g_si, g_id = np.asarray(gamma_si), np.asarray(gamma_id)
    if not (np.all((g_si > 0) & (g_si < np.inf)) and np.all((g_id >= 0) & (g_id < np.inf))):
        raise ValueError("SNRs must be positive and finite")
    return _clamp_split(_nce_split(gamma_si, gamma_id), warn=True)


def opa_nce_statistical(h_id_gain: float, n_antennas: int, mu_si: float) -> float:
    """NCE split from channel statistics only: sqrt(2)*|h_id|^2/(N_s*mu_si).

    Replaces the instantaneous first hop with its mean, so the source needs
    no first-hop estimate; halves when the antenna count doubles.
    """
    _check_count("n_antennas", n_antennas, 1)
    if not (0 <= h_id_gain < math.inf and 0 < mu_si < math.inf):
        raise ValueError("need finite |h_id|^2 >= 0 and finite mu_si > 0")
    return _clamp_split(_nce_split(n_antennas * mu_si, h_id_gain), warn=True)


def opa_ce(batch: BatchDraws, relay_idx) -> np.ndarray:
    """Closed-form split against colluding eavesdroppers, per trial.

    Uses the per-draw aggregate delta = gamma_si/(gamma_id+1)
    + sum_l gamma_null_l/(gamma_ld+1) over the L eavesdroppers and returns
    sqrt(2*gamma_id/(gamma_si*delta)), clamped into (0, 1) with a
    RegimeWarning.  relay_idx is one relay for every trial or one per trial,
    indexed as numpy does: -K to K - 1, a negative index counting back from
    relay K; any other raises IndexError.
    """
    k = batch.n_relays
    relay_idx = np.asarray(relay_idx)
    # served reads flat (trial, relay) offsets, where an index past the relays
    # would read another trial's relay.
    if relay_idx.size and not (-k <= relay_idx.min() and relay_idx.max() < k):
        raise IndexError(f"relay index out of range for {k} relays")
    return _closed_split(served(batch, relay_idx % k), EveModel.CE, warn=True)


def c_params(gains: MeanGains, config: SystemConfig) -> CParams:
    """Average collusion parameters for the closed-form metrics.

    theta_hat = sum_l (mu_se_l/mu_ed_l) * exp(s_l) E1(s_l) with
    s_l = 1/(rho*mu_ed_l); eta = mean(mu_rd) * H_K / ((N_s-1) * mean(mu_sr)).
    C multiplies them under CE and is zero under NCE.  The eta display
    averages per-relay gains, exact when relays share statistics.
    """
    _check_count("n_antennas", config.n_antennas, 2)
    _check_eve_model("eve_model", config.eve_model)
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
    c = 0.0 if config.eve_model is EveModel.NCE else eta * theta
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
    _check_count("n_relays", n_relays, 1)
    _check_count("csi_bits", csi_bits, 0)
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


def _view_rate(view: ServedView, lam, model: EveModel) -> np.ndarray:
    return secrecy_rate(view.sinr_destination(lam), view.leakage(lam, model))


def _envelope_score(alpha, beta, gam, dlt, t):
    # (1 + gamma_d)/(1 + gamma_e) with 1/gamma_d = alpha + beta*t and
    # 1/gamma_e = gam + dlt*t: increasing in the secrecy rate.
    x = alpha + beta * t
    m = gam + dlt * t
    return (x + 1.0) / x * (m / (m + 1.0))


def _stationary_points(alpha, beta, dest, gam, dlt):
    # Where the rate is stationary on the piece 1/gamma_e = gam + dlt*t: the
    # roots of (beta-dlt)t^2 + 2(alpha-gam)t + dest - gam(gam+1)/dlt, with
    # dest = alpha(alpha+1)/beta, in the cancellation-free form; NaN where
    # there are none.
    a_q, b_q = beta - dlt, alpha - gam
    c_q = dest - gam * (gam + 1.0) / dlt
    q = -(b_q + np.copysign(np.sqrt(b_q * b_q - a_q * c_q), b_q))
    return q / a_q, c_q / q


# Zero gains divide by zero, and pieces with no stationary point take a
# square root of a negative number: both give values the walk discards.
@np.errstate(divide="ignore", invalid="ignore")
def _nce_envelope_split(view: ServedView) -> np.ndarray:
    """The split that maximizes the NCE secrecy rate per row of the view.

    In t = 1/lam, 1/gamma_d = alpha + beta*t with alpha = 1/g_id - 1/g_si
    and beta = (2*g_id+1)/(g_si*g_id), and each node's phase-1 leakage
    inverse is the line ((g_ld+1)/g_null)*t - g_ld/g_null.  Phase-2 leakage
    adds no line: at every split it stays below the served relay's own
    phase-1 SINR (the self row), as 1/p2 - 1/p_self = (1 + (1+(1-lam)g_id)/
    (lam*g_si))/g_rl > 0.  So 1/gamma_e is the lower envelope of the K+L
    lines, and on a piece gam + dlt*t the stationary points of the rate
    solve (beta-dlt)t^2 + 2(alpha-gam)t + alpha(alpha+1)/beta -
    gam(gam+1)/dlt = 0: the optimum is a root or a piece end.  Each row
    walks the envelope from t = 1/(1-LAMBDA_EPS): it steps to the first
    crossing with a line of smaller slope, scores the piece's clipped roots
    and its end, and leaves the walk once it reaches t = 1/LAMBDA_EPS.
    Every step works row by row, so a row's split does not depend on the
    rows searched with it.  A node with zero leakage gain gets an infinite
    slope and a zero intercept, so it is never the lowest line."""
    slope = (view.g_ld + 1.0) / view.g_null
    icpt = -view.g_ld / view.g_null
    icpt[np.isinf(slope)] = 0.0
    g_si, g_id = view.g_si, view.g_id
    alpha = 1.0 / g_id - 1.0 / g_si
    beta = (2.0 * g_id + 1.0) / (g_si * g_id)
    dest = alpha * (alpha + 1.0) / beta
    n = g_si.size
    live = np.arange(n)
    line = np.argmin(icpt + slope * _T_LO, axis=0)
    t = np.full(n, _T_LO)
    best_t = t.copy()
    best = _envelope_score(alpha, beta, icpt[line, live], slope[line, live], t)
    while live.size:
        sl, ic = slope[:, live], icpt[:, live]
        cols = np.arange(live.size)
        gam, dlt = ic[line, cols], sl[line, cols]
        al, be = alpha[live], beta[live]
        cross = (ic - gam) / (dlt - sl)
        cross[sl >= dlt] = np.inf
        nxt = np.argmin(cross, axis=0)
        end = np.minimum(np.maximum(cross[nxt, cols], t), _T_HI)
        for cand in (*_stationary_points(al, be, dest[live], gam, dlt), end):
            tc = np.minimum(np.maximum(cand, t), end)
            score = _envelope_score(al, be, gam, dlt, tc)
            up = score > best[live]
            best[live[up]] = score[up]
            best_t[live[up]] = tc[up]
        go = end < _T_HI
        live, line, t = live[go], nxt[go], end[go]
    lam = np.minimum(1.0 / best_t, 1.0 - LAMBDA_EPS)
    lam[best_t == _T_LO] = 1.0 - LAMBDA_EPS
    return lam


def _golden_split(view: ServedView) -> tuple[np.ndarray, np.ndarray]:
    """CE split per row: golden-section search of the rate to bracket width
    _SPLIT_TOL (31 probes), then the equal split or a closed-form split
    wherever it rates higher, as the search can be stranded.  Returns
    (split, rate) per row."""
    model = EveModel.CE
    n = view.g_si.size
    a = np.full(n, LAMBDA_EPS)
    b = np.full(n, 1.0 - LAMBDA_EPS)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _view_rate(view, x1, model)
    f2 = _view_rate(view, x2, model)
    width = 1.0 - 2.0 * LAMBDA_EPS
    while width > _SPLIT_TOL:
        left = f1 >= f2
        b_new = np.where(left, x2, b)
        a_new = np.where(left, a, x1)
        x1_new = np.where(left, b_new - _GOLDEN * (b_new - a_new), x2)
        x2_new = np.where(left, x1, a_new + _GOLDEN * (b_new - a_new))
        f_keep = np.where(left, f1, f2)
        probe = np.where(left, x1_new, x2_new)
        f_probe = _view_rate(view, probe, model)
        f1 = np.where(left, f_probe, f_keep)
        f2 = np.where(left, f_keep, f_probe)
        a, b, x1, x2 = a_new, b_new, x1_new, x2_new
        width *= _GOLDEN
    best, rate = np.where(f1 >= f2, x1, x2), np.where(f1 >= f2, f1, f2)
    cands = [np.full(n, 0.5), _closed_split(view, EveModel.NCE)]
    if view.g_null.shape[0] > view.n_relays:
        cands.append(_closed_split(view, EveModel.CE))
    for lam_c in cands:
        r = _view_rate(view, lam_c, model)
        better = r > rate
        best = np.where(better, lam_c, best)
        rate = np.where(better, r, rate)
    return best, rate


def _search(view: ServedView, model: EveModel) -> tuple[np.ndarray, np.ndarray]:
    """The split that maximizes the exact secrecy rate per row of the view,
    and its rate.  NCE: the exact optimum of the envelope walk
    (_nce_envelope_split), rated once, so one leakage row per pair.  CE:
    the guarded golden-section search (_golden_split), 34 leakage rows per
    pair.  A row's result does not depend on the rows searched with it."""
    if model is EveModel.NCE:
        best = _nce_envelope_split(view)
        return best, _view_rate(view, best, model)
    return _golden_split(view)


def _equal_split(view: ServedView, model: EveModel) -> tuple[float, np.ndarray]:
    """The equal split, one for every row, and its rate per row."""
    return 0.5, _view_rate(view, 0.5, model)


# Per batch, per (eavesdropper model, split rule): each (trial, relay) pair's
# split and rate, the split NaN until the pair is rated.  Weak keys
# (BatchDraws hashes by identity) let the tables live exactly as long as
# their batch; they assume its arrays do not change once a scheme has run.
_PAIR_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _pair_table(
    batch: BatchDraws, trials: np.ndarray, relays: np.ndarray, model: EveModel, rule
) -> tuple[np.ndarray, np.ndarray]:
    """(split, rate) under the split rule of relay relays[i] of trial
    trials[i].  Pairs not yet in the batch's table for (model, rule) are
    rated on served views of at most _PAIR_ROWS pairs and stored."""
    tables = _PAIR_TABLES.setdefault(batch, {})
    if (model, rule) not in tables:
        shape = (batch.n_trials, batch.n_relays)
        tables[model, rule] = (np.full(shape, np.nan), np.empty(shape))
    lam, rate = tables[model, rule]
    todo = np.isnan(lam[trials, relays])
    t, r = trials[todo], relays[todo]
    for s in range(0, t.size, _PAIR_ROWS):
        tt, rr = t[s : s + _PAIR_ROWS], r[s : s + _PAIR_ROWS]
        lam[tt, rr], rate[tt, rr] = rule(served(batch, rr, tt), model)
    return lam[trials, relays], rate[trials, relays]


# Gains that divide by zero, and a piece with no stationary point, give
# values that the bound skips or that keep their pair.
@np.errstate(divide="ignore", invalid="ignore")
def _rate_bound(batch: BatchDraws, rule) -> np.ndarray:
    """An upper bound on each (trial, relay) pair's rate under the split
    rule, as an (n, K) array.

    Every model's leakage is at least the served relay's own phase-1 SINR
    p_self(lam) = lam*g_self/((1-lam)*g_jam + 1), from its g_null_r and
    g_ld entries (the self row of ServedView.leakage), so a pair rates at
    most its rate against p_self alone.  Equal split: that rate at lam =
    1/2, in the float expressions of ServedView.leakage, so it is at least
    the rating exactly.  Search: the envelope walk with the self line
    1/p_self = ((g_jam+1)/g_self)*t - g_jam/g_self alone, one piece scored
    at its clipped stationary points and both ends of [_T_LO, _T_HI], plus
    _BOUND_SLACK for rounding.  It reads two hops and two diagonal entries
    a pair, with no served view.  Gains that give no bound give NaN."""
    k = batch.n_relays
    diag = np.arange(k)
    g_si, g_id = batch.g_sr, batch.g_rd
    g_self, g_jam = batch.g_null_r[:, diag, diag], batch.g_ld[:, :k]
    if rule is _equal_split:
        lam = 0.5
        return secrecy_rate(
            _sinr_destination(g_si, g_id, lam), lam * g_self / ((1.0 - lam) * g_jam + 1.0)
        )
    alpha = 1.0 / g_id - 1.0 / g_si
    beta = (2.0 * g_id + 1.0) / (g_si * g_id)
    gam, dlt = -g_jam / g_self, (g_jam + 1.0) / g_self
    roots = _stationary_points(alpha, beta, alpha * (alpha + 1.0) / beta, gam, dlt)
    # The best candidate's score; a NaN root (no stationary point) is skipped.
    score = np.fmax.reduce([
        _envelope_score(alpha, beta, gam, dlt, np.minimum(np.maximum(t, _T_LO), _T_HI))
        for t in (*roots, _T_LO, _T_HI)
    ])
    return np.maximum(np.log(score) / (2.0 * _LN2), 0.0) + _BOUND_SLACK


def run_scheme_batch(batch: BatchDraws, scheme: Scheme, config: SystemConfig) -> SchemeBatchResult:
    """Apply a scheme to every row of the batch and report its exact
    operating points.

    Of the config it reads only eve_model: the SNR is in the batch's gains,
    so one call serves a batch that BatchDraws.at_snr stacked over several
    SNRs.  Every step works row by row, so a row's result does not depend
    on the rows it runs with."""
    _check_eve_model("eve_model", config.eve_model)
    model = config.eve_model
    n, k = batch.n_trials, batch.n_relays
    if scheme is Scheme.DT:
        g_e = dt_leakage(batch.g_null_d, k, model)
        rate = secrecy_rate(batch.g_sd, g_e, half=False)
        return SchemeBatchResult(scheme, None, None, batch.g_sd.copy(), g_e, rate)
    rows = np.arange(n)
    if scheme in (Scheme.EPRS, Scheme.EXACT_JRP):
        rule = _equal_split if scheme is Scheme.EPRS else _search
        bound = _rate_bound(batch, rule)
        # JRP's pair first, then only the pairs whose bound reaches its rate
        # (a NaN bound keeps its pair, a NaN rate every pair): every pruned
        # pair rates below the trial's best.
        first = select_relay_maxgain(batch)
        best = _pair_table(batch, rows, first, model, rule)[1]
        keep = ~(bound < best[:, None])
        keep[rows, first] = True
        trials, relays = np.nonzero(keep)
        rates = np.full((n, k), -np.inf)
        rates[trials, relays] = _pair_table(batch, trials, relays, model, rule)[1]
        # The first maximum: ties go to the lowest relay index.
        relay = np.argmax(rates, axis=1)
        lam = _pair_table(batch, rows, relay, model, rule)[0]
    elif scheme in (Scheme.JRP, Scheme.EPRR, Scheme.OPRR):
        if scheme is Scheme.JRP:
            relay = select_relay_maxgain(batch)
        else:
            relay = np.minimum((batch.u_rand * k).astype(np.int64), k - 1)
        if scheme is Scheme.EPRR:
            lam = np.full(n, 0.5)
        else:
            lam = _pair_table(batch, rows, relay, model, _search)[0]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    g_d = sinr_destination(batch, relay, lam)
    g_e = leakage_batch(batch, relay, lam, model)
    return SchemeBatchResult(scheme, relay, lam, g_d, g_e, secrecy_rate(g_d, g_e))
