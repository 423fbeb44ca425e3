"""Rayleigh channel sampling and instantaneous SINRs.

Transmission is two-phase: the source beamforms toward a selected relay with
power fraction lam while the destination jams with 1 - lam; the relay then
amplifies and forwards with power lam.  All SINR expressions below are exact
in the drawn vectors (true norms and inner products); the large-antenna
simplifications live in policy.py and analytics.py, never here.  Every step
has one form, the batch form: the SINR and leakage functions take a
BatchDraws with one served relay and one split per trial, dt_leakage takes
its (n, K+L) direct-transmission rows, and a single realization is a
one-row batch.  The relayed SINR and leakage evaluate on one path, the
served-relay view (`served`): the served relay's gains and its rows of the
per-node arrays, gathered once, each array by one flat take over its
(trial, relay) pairs, and stored node-major, as contiguous (K+L, n)
arrays.  A split search rates all its probes on one view, and the per-node
maxima reduce across contiguous node rows instead of along the short
trailing axis of trial-major (n, K+L) arrays: 6 against 86 us for
1500 trials and 10 nodes on one x86 core.

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

Nothing drawn depends on the transmit SNR rho until the last step, which
multiplies each statistic by rho; draw_batch and at_snr refuse, with a
ValueError, any rho outside validate's box (0, MAX_SNR_LINEAR], NaN
included.  A drawn batch keeps the statistics from before that step, each
in the layout of the gain it becomes (the pair links already laid out as
g_rl, beside their means), so BatchDraws.at_snr rebuilds it at another SNR
without drawing again, with one product per gain, tobytes()-identical to
draw_batch at that SNR.  Given several SNRs, at_snr stacks the draws once
per SNR, SNR-major, so a row is then a (rho, trial) pair; every function
here works row by row, so each block evaluates exactly as the batch at its
SNR alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random import Philox

from .model import (_U64_MAX, MAX_SNR_LINEAR, EveModel, MeanGains, SystemConfig, _check_count,
                    _check_eve_model)

# 64-bit outputs per Philox counter increment; each trial reads whole blocks.
_BLOCK_WORDS = 4


@dataclass(eq=False)
class BatchDraws:
    """Network realizations, reduced to the gains the protocol sees, with a
    leading row axis (row t == trial t; a single draw is a one-row batch).
    A batch that at_snr stacks over m SNRs has m * n rows, SNR-major: row
    j*n + t is trial t at the j-th SNR.  Every [t] below indexes a row.

    g_sr[t, i]: rho*||h_si||^2, source->relay i beamforming gain.
    g_rd[t, i]: rho*|h_id|^2, relay i <-> destination (reciprocal, so it is
        both the forwarding and the jamming gain at relay i).
    g_null_r[t, i, l]: rho*|(h_si/||h_si||)^H h_sl|^2, residual beamforming
        leakage toward malicious node l when relay i is served.  Malicious
        node columns are the K relays then the L eavesdroppers; the diagonal
        l == i entry equals g_sr[t, i] by construction.
    g_rl[t, i, l]: rho*|h_il|^2 between relay i and malicious node l (zero on
        the self entry, symmetric within the relay block).
    g_ld[t, l]: rho*|h_ld|^2 destination->node jamming gains; the relay part
        repeats g_rd by reciprocity.
    g_sd[t]: rho*||h_sd||^2 and g_null_d[t, l]: leakage toward node l when
        the source beamforms to the destination (direct transmission).
    u_rand[t]: one uniform variate reserved for scheme-level randomness
        (uniform relay pick), so policies stay deterministic per trial.

    A drawn batch also keeps its statistics before rho scales them, so
    at_snr rebuilds it at another SNR without drawing again.  They live in
    a slot, outside the fields and vars(), which hold exactly the gains the
    schemes read; a batch built from fields alone has none.
    """

    __slots__ = ("__dict__", "__weakref__", "_unscaled")

    g_sr: np.ndarray
    g_rd: np.ndarray
    g_null_r: np.ndarray
    g_rl: np.ndarray
    g_ld: np.ndarray
    g_sd: np.ndarray
    g_null_d: np.ndarray
    u_rand: np.ndarray

    def at_snr(self, rho: float | Sequence[float]) -> BatchDraws:
        """The same draws at transmit SNR rho (linear), without drawing again:
        every array is tobytes()-identical to draw_batch's at that SNR.

        Given a sequence of m SNRs, the draws are stacked once per SNR in
        that order: block j (rows j*n to j*n + n - 1, for the n drawn
        trials) is tobytes()-identical to at_snr(rho[j]).  A stacked batch
        rebuilds from the drawn trials, so its at_snr has n rows per SNR.
        """
        free = getattr(self, "_unscaled", None)
        if free is None:
            raise ValueError("at_snr needs a drawn batch; this one was built by hand")
        return _scaled(free, rho)

    @property
    def n_trials(self) -> int:
        return len(self.g_sd)

    @property
    def n_relays(self) -> int:
        return self.g_sr.shape[1]


@lru_cache(maxsize=64)
def _pair_index(k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The drawn inter-malicious links as read-only index arrays (relay,
    malicious node), built once per (K, L): the relay-relay pairs i < j,
    then relay i to eavesdropper j, each in row-major order."""
    pi, pj = np.triu_indices(k, 1)
    pi = np.concatenate([pi, np.repeat(np.arange(k), l)])
    pj = np.concatenate([pj, np.tile(np.arange(k, k + l), k)])
    pi.flags.writeable = pj.flags.writeable = False
    return pi, pj


def _segment_sizes(config: SystemConfig, gains: MeanGains) -> tuple[int, ...]:
    """Uniforms per trial for each segment, in stream order: scheme uniform,
    diagonal gammas, upper entries, eavesdropper components, link gains."""
    k, l = gains.n_relays, gains.n_eves
    d = min(config.n_antennas, k + 1)
    # Entries strictly above the diagonal of the d x (K+1) Bartlett factor;
    # columns j >= d lie wholly above it.
    n_upper = sum(min(j, d) for j in range(k + 1))
    return 1, d, 2 * n_upper, 2 * d * l, k + l + _pair_index(k, l)[0].size


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


@dataclass(frozen=True, eq=False)
class _Unscaled:
    """What a batch draws, before the transmit SNR scales it: the Gram norms
    (n, K+1) of the relay beams then the destination beam, their leakage
    ratios (n, K+1, K+L) toward the malicious nodes, the Exp(1) gains of the
    K+L node-destination links (n, K+L), the Exp(1) pair links laid out as
    g_rl (n, K, K+L) with their means mu_rl (K, K+L) (both zero on the self
    entry and mirrored from the upper relay block), and the scheme uniform."""

    norms: np.ndarray
    leak: np.ndarray
    links: np.ndarray
    rl: np.ndarray
    mu_rl: np.ndarray
    u_rand: np.ndarray
    gains: MeanGains


def _build_unscaled(u: np.ndarray, gains: MeanGains, config: SystemConfig) -> _Unscaled:
    from scipy.special import gammaincinv  # imported on first use: see the package docstring

    k, l, ns = gains.n_relays, gains.n_eves, config.n_antennas
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
    links = -np.log(u_link)
    # Each pair link is drawn once; the relay-relay ones serve both directions
    # at the mean of the drawn (upper) entry.
    pi, pj = _pair_index(k, l)
    rr = pj < k
    rl = np.zeros((n, k, k + l))
    rl[:, pi, pj] = links[:, k + l :]
    rl[:, pj[rr], pi[rr]] = rl[:, pi[rr], pj[rr]]
    mu_rl = np.zeros((k, k + l))
    mu_rl[pi, pj] = gains.mu_rl[pi, pj]
    mu_rl[pj[rr], pi[rr]] = mu_rl[pi[rr], pj[rr]]
    return _Unscaled(norms, leak, links[:, : k + l].copy(), rl, mu_rl, u_rand[:, 0].copy(), gains)


def _scaled(free: _Unscaled, rho: float | Sequence[float]) -> BatchDraws:
    """The batch at transmit SNR rho, or stacked SNR-major over a sequence
    of SNRs: every gain, g_rl included, is one product of rho (times the
    mean, for a link gain) and its drawn statistic, multiplied in the same
    order for every rho, so a stacked block is tobytes()-identical to the
    batch at its SNR alone.  Each rho must lie in (0, MAX_SNR_LINEAR]."""
    gains, norms, leak, links = free.gains, free.norms, free.leak, free.links
    k = gains.n_relays
    rhos = np.asarray(rho, dtype=float).reshape(-1)
    if rhos.size == 0:
        raise ValueError("need at least one SNR")
    if not ((rhos > 0.0) & (rhos <= MAX_SNR_LINEAR)).all():  # NaN fails too
        raise ValueError(f"transmit SNR rho must be in (0, {MAX_SNR_LINEAR:g}], got {rho}")
    n = len(norms)
    rows = rhos.size * n

    def times_rho(stat: np.ndarray, mu=None) -> np.ndarray:
        # rho * stat, or (rho * mu) * stat, once per SNR, SNR-major.
        r = rhos.reshape((-1,) + (1,) * stat.ndim)
        if mu is not None:
            r = r * mu
        return (r * stat).reshape((rows,) + stat.shape[1:])

    g_rd = times_rho(links[:, :k], gains.mu_rd)
    g_ed = times_rho(links[:, k:], gains.mu_ed)
    batch = BatchDraws(
        g_sr=times_rho(norms[:, :k]),
        g_rd=g_rd,
        g_null_r=times_rho(leak[:, :k, :]),
        g_rl=times_rho(free.rl, free.mu_rl),
        g_ld=np.concatenate([g_rd, g_ed], axis=1),
        g_sd=times_rho(norms[:, k]),
        g_null_d=times_rho(leak[:, k, :]),
        u_rand=free.u_rand if rhos.size == 1 else np.tile(free.u_rand, rhos.size),
    )
    batch._unscaled = free
    return batch


def draw_batch(
    gains: MeanGains,
    config: SystemConfig,
    master_seed: int,
    first_trial: int,
    n_trials: int,
) -> BatchDraws:
    """Draw trials [first_trial, first_trial + n_trials) at config's SNR,
    which must lie in (0, MAX_SNR_LINEAR].

    Philox keyed from master_seed (numpy's SeedSequence mixes small or
    adjacent seeds) is advanced straight to trial first_trial's counter
    block, so row t is bit-identical to the one-row draw_batch at
    first_trial + t however the range is split.  Seed, trial index and
    n_trials are integers (model._check_count); the first two fit in an
    unsigned 64-bit value.
    """
    _check_count("n_trials", n_trials, 1)
    _check_count("master_seed", master_seed, 0, _U64_MAX)
    _check_count("first_trial", first_trial, 0, _U64_MAX)
    size = flat_draw_size(config, gains)
    bits = Philox(seed=master_seed)
    bits.advance(int(first_trial) * size // _BLOCK_WORDS)
    u = _open_uniforms(bits.random_raw(n_trials * size)).reshape(n_trials, size)
    return _scaled(_build_unscaled(u, gains, config), config.snr_linear)


@dataclass(frozen=True, eq=False)
class ServedView:
    """One served relay per row, gathered once.  g_si[t] and g_id[t] are
    row t's two hops; g_null and g_rl (and rl1 = 1 + g_rl) hold its relay's
    g_null_r and g_rl rows, and g_ld the jamming gains, node-major as
    (K+L, n) arrays, so node l is the contiguous row l.  Elementwise
    operations follow the per-draw formulas in their order, and per-node
    maxima are exact in any order.  Only the pooled eavesdropper sums must
    run along a contiguous trailing axis of an (n, L) array, as the
    trial-major sum did, because numpy adds eight or more terms pairwise.
    So results are bit-identical to trial-major evaluation."""

    g_si: np.ndarray
    g_id: np.ndarray
    g_null: np.ndarray
    g_rl: np.ndarray
    rl1: np.ndarray
    g_ld: np.ndarray
    n_relays: int

    def eve_sum(self, per_node: np.ndarray) -> np.ndarray:
        """Per-row sum over the eavesdropper rows of a node-major array."""
        return np.ascontiguousarray(per_node[self.n_relays :].T).sum(axis=-1)

    def sinr_destination(self, lam) -> np.ndarray:
        """End-to-end SINR at the destination after self-interference
        cancellation, at per-row split lam."""
        return _sinr_destination(self.g_si, self.g_id, lam)

    def leakage(self, lam, model: EveModel) -> np.ndarray:
        """Exact information leakage toward the malicious set at per-row
        split lam (see leakage_batch)."""
        lam = np.asarray(lam, dtype=float)
        lam_c = 1.0 - lam
        lam_si = lam * self.g_si
        p1 = lam * self.g_null / (lam_c * self.g_ld + 1.0)
        p2 = lam_si * self.g_rl / (lam_si + (1.0 + lam_c * self.g_id) * self.rl1)
        per_node = np.maximum(p1, p2)
        if model is EveModel.NCE:
            return per_node.max(axis=0)
        return np.maximum(per_node[: self.n_relays].max(axis=0), self.eve_sum(p1 + p2))


def served(batch: BatchDraws, relay_idx, trials: np.ndarray | None = None) -> ServedView:
    """The served-relay view of the batch: relay relay_idx[i] of trial
    trials[i] per row (every trial in order when trials is None).  relay_idx
    is one relay per row or one for all, each in [0, K), unchecked; trials
    index rows in [0, n).  Each array is gathered by one take at the flat
    pair index trial*K + relay, from the (n*K, K+L) reshape of a per-pair
    array or the flattened hops, and the per-node ones are stored
    node-major; the jamming gains of every trial in order are copied
    node-major straight from g_ld."""
    n, k = batch.n_trials, batch.n_relays
    rows = np.arange(n) if trials is None else trials
    flat = rows * k + relay_idx

    def node_major(per_pair: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(per_pair.reshape(n * k, -1).take(flat, axis=0).T)

    g_rl = node_major(batch.g_rl)
    g_ld = batch.g_ld.T if trials is None else batch.g_ld.take(trials, axis=0).T
    return ServedView(
        g_si=batch.g_sr.reshape(-1).take(flat),
        g_id=batch.g_rd.reshape(-1).take(flat),
        g_null=node_major(batch.g_null_r),
        g_rl=g_rl,
        rl1=1.0 + g_rl,
        g_ld=np.ascontiguousarray(g_ld),
        n_relays=k,
    )


def _sinr_destination(g_si: np.ndarray, g_id: np.ndarray, lam) -> np.ndarray:
    lam_si = lam * g_si
    return lam_si * g_id / (lam_si + (2.0 - lam) * g_id + 1.0)


def sinr_destination(batch: BatchDraws, relay_idx: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """End-to-end SINR at the destination after self-interference
    cancellation, with per-trial served relay and power split.  It reads only
    the two hops, so it gathers them alone rather than a served view."""
    rows = np.arange(batch.n_trials)
    return _sinr_destination(batch.g_sr[rows, relay_idx], batch.g_rd[rows, relay_idx], lam)


def leakage_batch(
    batch: BatchDraws, relay_idx: np.ndarray, lam: np.ndarray, model: EveModel
) -> np.ndarray:
    """Exact information leakage toward the malicious set, with per-trial
    served relay (in [0, K), unchecked, as in served) and power split,
    evaluated on the served view.

    Each node hears lam*leak/((1-lam)*jam + 1) in phase 1 and the relay's
    amplified forward in phase 2, which its first-phase observation bounds.
    The self column reproduces the served relay's own SINR in phase 1 (its
    leakage entry is the full beamforming gain and its jamming gain is g_id)
    and zero in phase 2 (self link is zero), so node-wise maxima over all
    columns already include the served relay.  NCE: strongest single
    observation over both phases and all K+L nodes.  CE: the worse of the
    relay part and the L pooled eavesdroppers combining both phases.
    Repeated evaluations of one (trial, relay) set, as in a split search,
    should build the view once with `served` and call its methods.
    """
    _check_eve_model("model", model)
    return served(batch, relay_idx).leakage(lam, model)


def dt_leakage(g_null_d: np.ndarray, n_relays: int, model: EveModel) -> np.ndarray:
    """Leakage under direct transmission, per row of the (n, K+L) per-node
    SNRs g_null_d: the strongest node (NCE), or the worse of the strongest
    relay and the pooled eavesdroppers (CE)."""
    _check_eve_model("model", model)
    if model is EveModel.NCE:
        return np.max(g_null_d, axis=-1)
    relay_part = np.max(g_null_d[..., :n_relays], axis=-1)
    eve_part = np.sum(g_null_d[..., n_relays:], axis=-1)
    return np.maximum(relay_part, eve_part)
