"""A pinned-seed sweep of the validated box: scheme invariants that must hold
per trial at every configuration `validate` accepts, not only on the
paper's figure grid.

Each configuration draws K, L, Ns, two SNRs, the path-loss exponent and the
ring radii at random, and runs all six schemes under both eavesdropper
models on 64 trials at both SNRs.  The closed forms are left out while
the SER's subset sum still cancels to noise at high SNR (ROADMAP item 3).
"""

import numpy as np
import pytest

import scalar_reference as ref
from secrelay.channel import draw_batch
from secrelay.model import EveModel, SystemConfig, mean_gains_from_topology, paper_topology
from secrelay.montecarlo import simulate
from secrelay.policy import Scheme

TRIALS = 64
ANTENNAS = (1, 2, 3, 8, 16, 64, 256)


def _configs(n: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k, l = int(rng.integers(1, 9)), int(rng.integers(0, 60))
        ns = int(rng.choice(ANTENNAS))
        dbs = tuple(float(x) for x in np.round(rng.uniform(-60.0, 200.0, 2), 2))
        relay_ring = float(rng.uniform(0.005, 0.5))
        # A wider eavesdropper ring keeps every eavesdropper off the relays.
        eve_ring = relay_ring * float(rng.uniform(1.1, 1.6))
        exponent = float(rng.uniform(1.5, 5.0))
        master = int(rng.integers(0, 2**64, dtype=np.uint64))
        out.append((ns, k, l, dbs, relay_ring, eve_ring, exponent, master))
    return out


CONFIGS = _configs(40, 20261020)


@pytest.mark.parametrize(
    "ns, k, l, dbs, relay_ring, eve_ring, exponent, seed", CONFIGS,
    ids=[f"ns{c[0]}-k{c[1]}-l{c[2]}-{c[3][0]:g}dB" for c in CONFIGS],
)
def test_schemes_keep_their_invariants_across_the_box(
    ns, k, l, dbs, relay_ring, eve_ring, exponent, seed
):
    gains = mean_gains_from_topology(paper_topology(k, l, relay_ring, eve_ring, exponent))
    base = SystemConfig(n_antennas=ns, n_relays=k, n_eves=l, snr_linear=1.0)
    # simulate validates every point, so each one is inside the box.
    points = [(m, base.with_snr_db(db).snr_linear) for db in dbs for m in EveModel]
    out = simulate(base, gains, list(Scheme), TRIALS, seed=seed, points=points)
    chunk = int(np.random.default_rng(seed).integers(5, TRIALS))
    again = simulate(base, gains, list(Scheme), TRIALS, seed=seed, chunk_size=chunk, points=points)
    for key, traces in out.items():
        rate = {s: traces[s].rates for s in Scheme}
        for s in Scheme:
            assert np.isfinite(rate[s]).all() and (rate[s] >= 0.0).all(), (key, s)
            # Chunk invariance, at stacked SNRs too.
            assert again[key][s].rates.tobytes() == rate[s].tobytes(), (key, s, chunk)
            assert again[key][s].gamma_d.tobytes() == traces[s].gamma_d.tobytes(), (key, s)
        # Per trial: the exhaustive search beats max-gain selection and the
        # best equal split; OPRR serves EPRR's relay and its search covers 1/2.
        assert (rate[Scheme.EXACT_JRP] >= rate[Scheme.JRP]).all(), key
        assert (rate[Scheme.EXACT_JRP] >= rate[Scheme.EPRS]).all(), key
        assert (rate[Scheme.OPRR] >= rate[Scheme.EPRR]).all(), key
        # Direct transmission equals the per-draw reference on the same draws.
        m, rho = key
        cfg = SystemConfig(ns, k, l, rho, eve_model=m)
        batch = draw_batch(gains, cfg, seed, 0, TRIALS)
        for t in range(TRIALS):
            one = ref.run_scheme(ref.row(batch, t), Scheme.DT, cfg)
            assert traces[Scheme.DT].rates[t] == one.secrecy_rate, (key, t)
            assert traces[Scheme.DT].gamma_d[t] == one.gamma_d, (key, t)
