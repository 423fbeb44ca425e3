"""Rayleigh channel sampling and instantaneous SINRs.

Transmission is two-phase: the source beamforms toward a selected relay with
power fraction lam while the destination jams with 1 - lam; the relay then
amplifies and forwards with power lam.  All SINR expressions below are exact
in the drawn vectors (true norms and inner products); the large-antenna
simplifications live in policy.py and analytics.py, never here.

The protocol sees each realization only through Gram statistics, so those
are drawn instead of antenna vectors.  Stack the K relay beams and the
destination beam as columns of an Ns x (K+1) matrix and take its QR
factorization: by the complex Bartlett decomposition the d x (K+1)
upper-trapezoidal factor R (d = min(Ns, K+1)) has independent entries,
|R_jj|^2 ~ Gamma(Ns - j, 1) on the diagonal and CN(0, 1) above it.  An
eavesdropper vector enters only through its d components in the beam span,
which are again i.i.d. CN(0, 1).  So with columns scaled by the mean gains,
R^H [R | W] holds every norm and inner product, with no O(Ns) work.  Scalar
links are exponentials.

Sampling is counter-based: a run with master seed m reads one Philox stream
keyed from m, and every trial consumes the same number of uniforms (see
flat_draw_size), padded to whole counter blocks of four 64-bit words.  Trial
t therefore starts at a known counter that `advance` reaches directly, and
results are bit-identical however trials are chunked or scheduled.  Per
trial, in stream order: the scheme uniform, the d diagonal gammas (inverse
CDF), the entries above the diagonal, the eavesdropper components (two
uniforms per complex normal, Box-Muller), then one uniform per exponential
link gain (relay-destination, eavesdropper-destination, malicious pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import gammaincinv

from .model import EveModel, MeanGains, SystemConfig

# Open-interval guard for the power split.
LAMBDA_EPS = 1e-9

# 64-bit outputs per Philox counter increment; each trial reads whole blocks.
_BLOCK_WORDS = 4


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: trial stream_id of the run seeded master_seed."""

    master_seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= v < 2**64):
                raise ValueError(f"{name} must fit in an unsigned 64-bit value, got {v}")

    def generator(self, blocks_per_trial: int = 1) -> Generator:
        """Philox generator keyed from master_seed (through numpy's
        SeedSequence, so small or adjacent seeds still get well-mixed keys),
        advanced to the start of trial stream_id when every trial reads
        blocks_per_trial counter blocks."""
        bits = Philox(seed=self.master_seed)
        bits.advance(self.stream_id * blocks_per_trial)
        return Generator(bits)


@dataclass(eq=False)
class ChannelDraw:
    """One network realization, reduced to the gains the protocol sees.

    g_sr[i]: rho*||h_si||^2, source->relay i beamforming gain.
    g_rd[i]: rho*|h_id|^2, relay i <-> destination (reciprocal, so it is both
        the forwarding and the jamming gain at relay i).
    g_null_r[i, l]: rho*|(h_si/||h_si||)^H h_sl|^2, residual beamforming
        leakage toward malicious node l when relay i is served.  Malicious
        node columns are the K relays then the L eavesdroppers; the diagonal
        l == i entry equals g_sr[i] by construction.
    g_rl[i, l]: rho*|h_il|^2 between relay i and malicious node l (zero on
        the self entry, symmetric within the relay block).
    g_ld[l]: rho*|h_ld|^2 destination->node jamming gains; the relay part
        repeats g_rd by reciprocity.
    g_sd: rho*||h_sd||^2 and g_null_d[l]: leakage toward node l when the
        source beamforms to the destination (direct transmission).
    u_rand: one uniform variate reserved for scheme-level randomness
        (uniform relay pick), so policies stay deterministic per trial.
    """

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


@dataclass(eq=False)
class BatchDraws:
    """ChannelDraw fields with a leading trial axis (row t == trial t)."""

    g_sr: np.ndarray
    g_rd: np.ndarray
    g_null_r: np.ndarray
    g_rl: np.ndarray
    g_ld: np.ndarray
    g_sd: np.ndarray
    g_null_d: np.ndarray
    u_rand: np.ndarray

    @property
    def n_trials(self) -> int:
        return len(self.g_sd)

    def row(self, t: int) -> ChannelDraw:
        return ChannelDraw(
            g_sr=self.g_sr[t],
            g_rd=self.g_rd[t],
            g_null_r=self.g_null_r[t],
            g_rl=self.g_rl[t],
            g_ld=self.g_ld[t],
            g_sd=float(self.g_sd[t]),
            g_null_d=self.g_null_d[t],
            u_rand=float(self.u_rand[t]),
        )


def _pair_list(k: int, l: int) -> list[tuple[int, int]]:
    # Inter-malicious links that matter: relay-relay (unordered), relay-eve.
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pairs += [(i, k + j) for i in range(k) for j in range(l)]
    return pairs


def _segment_sizes(config: SystemConfig, gains: MeanGains) -> tuple[int, ...]:
    """Uniforms per trial for each segment, in stream order: scheme uniform,
    diagonal gammas, upper entries, eavesdropper components, link gains."""
    k, l = gains.n_relays, gains.n_eves
    d = min(config.n_antennas, k + 1)
    # Entries strictly above the diagonal of the d x (K+1) Bartlett factor;
    # columns j >= d lie wholly above it.
    n_upper = sum(min(j, d) for j in range(k + 1))
    return 1, d, 2 * n_upper, 2 * d * l, k + l + len(_pair_list(k, l))


def flat_draw_size(config: SystemConfig, gains: MeanGains) -> int:
    """Uniforms consumed per trial, padded to whole Philox counter blocks."""
    used = sum(_segment_sizes(config, gains))
    return -(-used // _BLOCK_WORDS) * _BLOCK_WORDS


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to (k + 1/2) * 2^-52, exactly, for the top 52 bits
    k: uniforms in [2^-53, 1 - 2^-53], so every log and inverse CDF is finite
    and every drawn gain is positive."""
    u = (raw >> np.uint64(12)).astype(np.float64)
    u *= 2.0**-52
    u += 2.0**-53
    return u


def _complex_normals(u: np.ndarray) -> np.ndarray:
    # Box-Muller on 2m uniforms: modulus^2 = -log u1 ~ Exp(1), phase 2*pi*u2.
    m = u.shape[-1] // 2
    return np.sqrt(-np.log(u[..., :m])) * np.exp(2j * np.pi * u[..., m:])


def _build_batch(u: np.ndarray, gains: MeanGains, config: SystemConfig) -> BatchDraws:
    k, l, ns = gains.n_relays, gains.n_eves, config.n_antennas
    rho = config.snr_linear
    n = u.shape[0]
    d = min(ns, k + 1)
    bounds = np.cumsum(_segment_sizes(config, gains))
    u_rand, u_diag, u_upper, u_eve, u_link, _pad = np.split(u, bounds, axis=1)
    # Bartlett factor of the beam matrix, columns: relays, destination.
    r = np.zeros((n, d, k + 1), dtype=complex)
    diag = np.arange(d)
    r[:, diag, diag] = np.sqrt(gammaincinv(float(ns) - diag, u_diag))
    rows, cols = np.triu_indices(d, 1, k + 1)
    r[:, rows, cols] = _complex_normals(u_upper)
    r *= np.sqrt(np.append(gains.mu_sr, gains.mu_sd))
    w = _complex_normals(u_eve).reshape(n, d, l) * np.sqrt(gains.mu_se)
    # Gram rows for the K relay beamformers plus the destination beamformer,
    # columns for the relays then the eavesdroppers.
    gram = np.matmul(np.conj(np.swapaxes(r, 1, 2)), np.concatenate([r[:, :, :k], w], axis=2))
    norms = np.sum(r.real**2 + r.imag**2, axis=1)
    leak = (gram.real**2 + gram.imag**2) / norms[:, :, None]
    # The self entry is the full beamforming gain, exactly.
    leak[:, np.arange(k), np.arange(k)] = norms[:, :k]
    g_sr = rho * norms[:, :k]
    g_sd = rho * norms[:, k]
    g_null_r = rho * leak[:, :k, :]
    g_null_d = rho * leak[:, k, :]

    links = -np.log(u_link)
    g_rd = rho * gains.mu_rd * links[:, :k]
    g_ed = rho * gains.mu_ed * links[:, k : k + l]
    g_ld = np.concatenate([g_rd, g_ed], axis=1)
    g_rl = np.zeros((n, k, k + l))
    pairs = _pair_list(k, l)
    if pairs:
        pi, pj = np.array(pairs).T
        gp = rho * gains.mu_rl[pi, pj] * links[:, k + l :]
        g_rl[:, pi, pj] = gp
        rr = pj < k
        g_rl[:, pj[rr], pi[rr]] = gp[:, rr]
    return BatchDraws(
        g_sr=g_sr,
        g_rd=g_rd,
        g_null_r=g_null_r,
        g_rl=g_rl,
        g_ld=g_ld,
        g_sd=g_sd,
        g_null_d=g_null_d,
        u_rand=u_rand[:, 0].copy(),
    )


def draw_batch(
    gains: MeanGains,
    config: SystemConfig,
    master_seed: int,
    first_trial: int,
    n_trials: int,
) -> BatchDraws:
    """Draw trials [first_trial, first_trial + n_trials) as stacked arrays.

    Row t is bit-identical to draw_realization with stream_id first_trial+t,
    independent of how the range is split across calls.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    size = flat_draw_size(config, gains)
    g = RngStream(master_seed, first_trial).generator(size // _BLOCK_WORDS)
    raw = g.bit_generator.random_raw(n_trials * size)
    return _build_batch(_open_uniforms(raw).reshape(n_trials, size), gains, config)


def draw_realization(gains: MeanGains, config: SystemConfig, rng: RngStream) -> ChannelDraw:
    """Draw one network realization from the given stream."""
    return draw_batch(gains, config, rng.master_seed, rng.stream_id, 1).row(0)


def _check_lam(lam) -> None:
    arr = np.asarray(lam, dtype=float)
    if ((arr <= 0.0) | (arr >= 1.0)).any() or not np.isfinite(arr).all():
        raise ValueError(f"power split must lie strictly inside (0, 1), got {lam}")


def _jammed_ratio(signal, jam, lam):
    # lam * signal / ((1 - lam) * jam + 1): first-phase SINR shape shared by
    # the served relay and every overhearing node.
    return lam * signal / ((1.0 - lam) * jam + 1.0)


def sinr_relay(draw: ChannelDraw, relay: int, lam: float) -> float:
    """First-phase SINR at the served (untrusted) relay."""
    _check_lam(lam)
    return float(_jammed_ratio(draw.g_sr[relay], draw.g_rd[relay], lam))


def sinr_eve_phase1(draw: ChannelDraw, relay: int, node: int, lam: float) -> float:
    """First-phase SINR at malicious node `node` while relay `relay` is served:
    beamforming leakage over destination jamming."""
    _check_lam(lam)
    return float(_jammed_ratio(draw.g_null_r[relay, node], draw.g_ld[node], lam))


def sinr_eve_phase2(draw: ChannelDraw, relay: int, node: int, lam: float) -> float:
    """Second-phase SINR at `node` listening to the relay's amplified forward.

    The relay's own forwarded signal rides on its first-phase observation, so
    this is bounded by the served relay's SINR no matter how strong the
    inter-malicious link is.
    """
    _check_lam(lam)
    if node == relay:
        raise ValueError("second-phase SINR is undefined at the served relay itself")
    g_si, g_id = draw.g_sr[relay], draw.g_rd[relay]
    g_il = draw.g_rl[relay, node]
    return float(
        lam * g_si * g_il / (lam * g_si + (1.0 + (1.0 - lam) * g_id) * (1.0 + g_il))
    )


def sinr_destination(draw: ChannelDraw, relay: int, lam: float) -> float:
    """End-to-end SINR at the destination after self-interference cancellation."""
    _check_lam(lam)
    g_si, g_id = draw.g_sr[relay], draw.g_rd[relay]
    return float(lam * g_si * g_id / (lam * g_si + (2.0 - lam) * g_id + 1.0))


def _leakage_parts(g_si, g_id, null_row, rl_row, g_ld, lam):
    """Per-node max(phase1, phase2) plus both phases, broadcast over trials.

    The self column reproduces the served relay's own SINR in phase 1 (its
    leakage entry is the full beamforming gain and its jamming gain is g_id)
    and zero in phase 2 (self link is zero), so taking node-wise maxima over
    all columns already includes the served relay.
    """
    lam_c = 1.0 - lam
    p1 = lam[..., None] * null_row / (lam_c[..., None] * g_ld + 1.0)
    num = lam[..., None] * g_si[..., None] * rl_row
    den = (lam * g_si)[..., None] + (1.0 + lam_c * g_id)[..., None] * (1.0 + rl_row)
    p2 = num / den
    return p1, p2


def _leakage_core(g_si, g_id, null_row, rl_row, g_ld, lam, model: EveModel, n_relays: int):
    p1, p2 = _leakage_parts(g_si, g_id, null_row, rl_row, g_ld, lam)
    per_node = np.maximum(p1, p2)
    if model is EveModel.NCE:
        return np.max(per_node, axis=-1)
    relay_part = np.max(per_node[..., :n_relays], axis=-1)
    eve_part = np.sum(p1[..., n_relays:] + p2[..., n_relays:], axis=-1)
    return np.maximum(relay_part, eve_part)


def leakage(draw: ChannelDraw, relay: int, lam: float, model: EveModel) -> float:
    """Exact information leakage toward the malicious set.

    NCE: strongest single observation over both phases and all K+L nodes
    (the served relay's own first-phase SINR included).  CE: the worse of the
    relay part and the L pooled eavesdroppers combining both phases.
    """
    _check_lam(lam)
    return float(
        _leakage_core(
            np.asarray(draw.g_sr[relay]),
            np.asarray(draw.g_rd[relay]),
            draw.g_null_r[relay],
            draw.g_rl[relay],
            draw.g_ld,
            np.asarray(float(lam)),
            model,
            draw.n_relays,
        )
    )


def leakage_batch(
    batch: BatchDraws, relay_idx: np.ndarray, lam: np.ndarray, model: EveModel
) -> np.ndarray:
    """Vectorized leakage with per-trial served relay and power split."""
    rows = np.arange(batch.n_trials)
    return _leakage_core(
        batch.g_sr[rows, relay_idx],
        batch.g_rd[rows, relay_idx],
        batch.g_null_r[rows, relay_idx],
        batch.g_rl[rows, relay_idx],
        batch.g_ld,
        np.asarray(lam, dtype=float),
        model,
        batch.g_sr.shape[1],
    )


def dt_snrs(draw: ChannelDraw) -> tuple[float, np.ndarray]:
    """Direct transmission: destination SNR and per-node leakage SNRs."""
    return draw.g_sd, draw.g_null_d.copy()


def dt_leakage(g_null_d: np.ndarray, n_relays: int, model: EveModel) -> np.ndarray | float:
    """Leakage under direct transmission: strongest node (NCE) or the worse
    of strongest relay and pooled eavesdroppers (CE).  Works on a single
    draw's vector or on a batch with a leading trial axis."""
    arr = np.asarray(g_null_d, dtype=float)
    if arr.shape[-1] == 0:
        return np.zeros(arr.shape[:-1]) if arr.ndim > 1 else 0.0
    if model is EveModel.NCE:
        return np.max(arr, axis=-1)
    relay_part = (
        np.max(arr[..., :n_relays], axis=-1)
        if n_relays
        else np.zeros(arr.shape[:-1])
    )
    eve_part = np.sum(arr[..., n_relays:], axis=-1)
    return np.maximum(relay_part, eve_part)
