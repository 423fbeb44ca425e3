"""The Gram-statistics sampler against an antenna-vector reference.

`channel.draw_batch` draws Bartlett factors and link exponentials instead of
antenna vectors.  The reference below is the direct construction it
replaced: draw every source-side vector's Ns complex entries, form the Gram
rows by an explicit inner product over antennas, and draw each scalar link as a complex normal.
Both must give the same distribution of every gain the schemes read, which
two-sample KS tests check at pinned seeds and trial counts.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.stats import ks_2samp

from secrelay.channel import (
    BatchDraws,
    _build_unscaled,
    _open_uniforms,
    _scaled,
    draw_batch,
    flat_draw_size,
)
from secrelay.model import MeanGains, SystemConfig, mean_gains_from_topology, paper_topology
from secrelay.policy import Scheme, run_scheme_batch

# Smallest p-value any KS comparison below may show.
KS_ALPHA = 1e-3


def pair_list(k: int, l: int) -> list[tuple[int, int]]:
    """The inter-malicious links that are drawn: relay-relay pairs i < j,
    then relay i to eavesdropper k + j, row by row."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return pairs + [(i, k + j) for i in range(k) for j in range(l)]


def antenna_batch(
    z: np.ndarray, u: np.ndarray, gains: MeanGains, config: SystemConfig
) -> BatchDraws:
    """Reference build from standard normals z, laid out per trial as: the
    source-side vectors (relays, eves, destination; Ns complex each), then
    relay-destination, eve-destination and malicious-pair links."""
    k, l, ns = gains.n_relays, gains.n_eves, config.n_antennas
    rho = config.snr_linear
    n = z.shape[0]
    nv = k + l + 1
    pos = 2 * ns * nv
    scales = np.sqrt(np.concatenate([gains.mu_sr, gains.mu_se, [gains.mu_sd]]) / 2.0)
    vec = z[:, :pos].reshape(n, nv, ns, 2)
    hv = (vec[..., 0] + 1j * vec[..., 1]) * scales[None, :, None]
    beam_rows = list(range(k)) + [nv - 1]
    gram = np.einsum("nbs,nvs->nbv", np.conj(hv[:, beam_rows, :]), hv)
    norms = np.real(gram[:, np.arange(k + 1), beam_rows])
    leak = np.abs(gram[:, :, : k + l]) ** 2 / norms[:, :, None]

    def cplx_gain(block: np.ndarray, mu: np.ndarray) -> np.ndarray:
        h = (block[..., 0] + 1j * block[..., 1]) * np.sqrt(mu / 2.0)
        return rho * np.abs(h) ** 2

    g_rd = cplx_gain(z[:, pos : pos + 2 * k].reshape(n, k, 2), gains.mu_rd)
    pos += 2 * k
    g_ed = cplx_gain(z[:, pos : pos + 2 * l].reshape(n, l, 2), gains.mu_ed)
    pos += 2 * l
    pairs = pair_list(k, l)
    g_rl = np.zeros((n, k, k + l))
    if pairs:
        mu_pairs = np.array([gains.mu_rl[i, j] for i, j in pairs])
        gp = cplx_gain(z[:, pos : pos + 2 * len(pairs)].reshape(n, len(pairs), 2), mu_pairs)
        for m, (i, j) in enumerate(pairs):
            g_rl[:, i, j] = gp[:, m]
            if j < k:
                g_rl[:, j, i] = gp[:, m]
    return BatchDraws(
        g_sr=rho * norms[:, :k],
        g_rd=g_rd,
        g_null_r=rho * leak[:, :k, :],
        g_rl=g_rl,
        g_ld=np.concatenate([g_rd, g_ed], axis=1),
        g_sd=rho * norms[:, k],
        g_null_d=rho * leak[:, k, :],
        u_rand=u,
    )


def antenna_draws(gains, config, seed: int, n_trials: int, chunk: int = 100) -> BatchDraws:
    k, l, ns = gains.n_relays, gains.n_eves, config.n_antennas
    size = 2 * ns * (k + l + 1) + 2 * k + 2 * l + 2 * len(pair_list(k, l))
    rng = np.random.default_rng(seed)
    parts = []
    for start in range(0, n_trials, chunk):
        m = min(chunk, n_trials - start)
        parts.append(antenna_batch(rng.standard_normal((m, size)), rng.random(m), gains, config))
    return BatchDraws(**{
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in BatchDraws.__dataclass_fields__
    })


def gain_statistics(b: BatchDraws, config: SystemConfig) -> dict[str, np.ndarray]:
    """One column per gain family the schemes read, plus joint statistics."""
    k = b.g_sr.shape[1]
    return {
        "jrp rate": run_scheme_batch(b, Scheme.JRP, config).rate,
        "g_sr": b.g_sr[:, 0],
        "g_sd": b.g_sd,
        "g_null_r relay": b.g_null_r[:, 0, 1],
        "g_null_r eve": b.g_null_r[:, k - 1, -1],
        "g_null_d relay": b.g_null_d[:, 0],
        "g_null_d eve": b.g_null_d[:, -1],
        "g_rl relay": b.g_rl[:, 0, 1],
        "g_rl eve": b.g_rl[:, k - 1, -1],
        "g_ld relay": b.g_ld[:, 0],
        "g_ld eve": b.g_ld[:, -1],
        # Squared cosine between two relay beams: Beta(1, Ns - 1).
        "beam cosine": b.g_null_r[:, 0, 1] / b.g_sr[:, 1],
        "max leakage": b.g_null_r[:, 0, 1:].max(axis=1),
    }


def setup(ns: int, k: int, l: int) -> tuple[MeanGains, SystemConfig]:
    gains = mean_gains_from_topology(paper_topology(k, l))
    return gains, SystemConfig(n_antennas=ns, n_relays=k, n_eves=l, snr_linear=10.0)


@pytest.mark.parametrize(
    "ns, k, l, trials",
    [(16, 5, 5, 4000), (256, 10, 50, 2000), (2, 5, 3, 4000)],
    ids=["ns16-k5-l5", "ns256-k10-l50", "rank-deficient-ns2-k5-l3"],
)
def test_gram_sampler_matches_antenna_reference(ns, k, l, trials):
    gains, cfg = setup(ns, k, l)
    new = gain_statistics(draw_batch(gains, cfg, 8101, 0, trials), cfg)
    ref = gain_statistics(antenna_draws(gains, cfg, 8102, trials), cfg)
    pvalues = {name: ks_2samp(new[name], ref[name]).pvalue for name in new}
    low = {name: p for name, p in pvalues.items() if p < KS_ALPHA}
    assert not low, f"KS rejects the Gram sampler on {low}"


@pytest.mark.parametrize("ns, k, l", [(16, 5, 5), (256, 10, 50), (2, 5, 3)])
def test_gram_sampler_marginals_are_exact(ns, k, l):
    # Reference-free: beamforming gains are Gamma(Ns), the squared cosine
    # between two beams is Beta(1, Ns - 1), and leakage toward any other node
    # is exponential with that node's plain per-antenna mean.
    gains, cfg = setup(ns, k, l)
    rho = cfg.snr_linear
    b = draw_batch(gains, cfg, 8103, 0, 20_000)
    checks = {
        "g_sr": (b.g_sr[:, -1] / (rho * gains.mu_sr[-1]), stats.gamma(ns).cdf),
        "g_sd": (b.g_sd / (rho * gains.mu_sd), stats.gamma(ns).cdf),
        "beam cosine": (b.g_null_r[:, 0, 1] / b.g_sr[:, 1], stats.beta(1, ns - 1).cdf),
        "relay leakage": (b.g_null_r[:, -1, 0] / (rho * gains.mu_sr[0]), stats.expon.cdf),
        "eve leakage": (b.g_null_d[:, -1] / (rho * gains.mu_se[-1]), stats.expon.cdf),
    }
    pvalues = {name: stats.kstest(x, cdf).pvalue for name, (x, cdf) in checks.items()}
    low = {name: p for name, p in pvalues.items() if p < KS_ALPHA}
    assert not low, f"KS rejects the exact marginals on {low}"


def test_chunk_invariance_far_into_the_stream():
    gains, cfg = setup(16, 5, 5)
    first = 2**40 + 3
    whole = draw_batch(gains, cfg, 17, first, 9)
    tail = draw_batch(gains, cfg, 17, first + 5, 4)
    for name in BatchDraws.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(whole, name)[5:], getattr(tail, name))
    one = draw_batch(gains, cfg, 17, first + 7, 1)
    np.testing.assert_array_equal(one.g_null_r[0], whole.g_null_r[7])
    np.testing.assert_array_equal(one.g_rl[0], whole.g_rl[7])
    assert one.u_rand[0] == whole.u_rand[7]


@pytest.mark.parametrize("ns, k, l", [(16, 5, 5), (256, 10, 50), (2, 5, 3), (1, 3, 2)])
def test_extreme_uniforms_give_finite_positive_gains(ns, k, l):
    gains, cfg = setup(ns, k, l)
    size = flat_draw_size(cfg, gains)
    lo, hi = _open_uniforms(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert 0.0 < lo and hi < 1.0
    u = np.repeat([[lo], [hi]], size, axis=1)
    b = _scaled(_build_unscaled(u, gains, cfg), cfg.snr_linear)
    off_self = ~np.eye(k, k + l, dtype=bool)
    for name in ("g_sr", "g_rd", "g_null_r", "g_ld", "g_sd", "g_null_d"):
        arr = getattr(b, name)
        assert np.isfinite(arr).all() and (arr > 0.0).all(), name
    assert np.isfinite(b.g_rl).all() and (b.g_rl[:, off_self] > 0.0).all()
    assert ((0.0 < b.u_rand) & (b.u_rand < 1.0)).all()
