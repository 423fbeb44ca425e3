import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import scalar_reference as ref
from secrelay.channel import (
    BatchDraws,
    _pair_index,
    draw_batch,
    dt_leakage,
    flat_draw_size,
    leakage_batch,
    served,
    sinr_destination,
)
from secrelay.model import (
    MAX_SNR_LINEAR,
    EveModel,
    MeanGains,
    SystemConfig,
    mean_gains_from_topology,
    paper_topology,
)
from secrelay.policy import LAMBDA_EPS, RegimeWarning, Scheme, opa_ce, run_scheme_batch


def small_draw() -> BatchDraws:
    # One trial: two relays, one eavesdropper; relay 0 is the served one in
    # every check.
    return ref.one_row_batch(
        g_sr=[10.0, 3.0],
        g_rd=[4.0, 9.0],
        g_null_r=[[10.0, 1.0, 2.0], [0.5, 3.0, 0.25]],
        g_rl=[[0.0, 0.7, 2.0], [0.7, 0.0, 0.3]],
        g_ld=[4.0, 9.0, 9.0],
        g_sd=5.0,
        g_null_d=[0.8, 0.1, 0.3],
        u_rand=0.6,
    )


def default_setup(n_antennas=8, k=2, l=1, rho=2.0):
    gains = MeanGains(
        mu_sr=np.array([0.5, 1.0][:k]),
        mu_rd=np.array([1.0, 2.0][:k]),
        mu_se=np.array([0.5] * l),
        mu_ed=np.array([1.5] * l),
        mu_sd=1.25,
    )
    cfg = SystemConfig(n_antennas=n_antennas, n_relays=k, n_eves=l, snr_linear=rho)
    return gains, cfg


def test_sinr_relay_hand_value():
    d = ref.row(small_draw(), 0)
    assert math.isclose(ref.sinr_relay(d, 0, 0.5), 5.0 / 3.0, rel_tol=1e-14)


def test_sinr_destination_hand_value():
    # 0.5*10*4 / (0.5*10 + 1.5*4 + 1)
    (got,) = sinr_destination(small_draw(), np.array([0]), np.array([0.5]))
    assert math.isclose(got, 20.0 / 12.0, rel_tol=1e-14)
    assert got == ref.sinr_destination(ref.row(small_draw(), 0), 0, 0.5)


def test_sinr_eve_phase1_hand_value():
    d = ref.row(small_draw(), 0)
    # leak 2 jammed by g_ld 9: 0.5*2 / (0.5*9 + 1)
    assert math.isclose(ref.sinr_eve_phase1(d, 0, 2, 0.5), 1.0 / 5.5, rel_tol=1e-14)


def test_sinr_eve_phase2_hand_value():
    d = ref.row(small_draw(), 0)
    # 0.5*10*2 / (0.5*10 + (1 + 0.5*4)(1 + 2))
    assert math.isclose(ref.sinr_eve_phase2(d, 0, 2, 0.5), 10.0 / 14.0, rel_tol=1e-14)


def test_phase1_and_phase2_vanish_without_a_link():
    d = ref.row(small_draw(), 0)
    d.g_null_r[0, 1] = 0.0
    assert ref.sinr_eve_phase1(d, 0, 1, 0.3) == 0.0
    d.g_rl[0, 1] = 0.0
    assert ref.sinr_eve_phase2(d, 0, 1, 0.3) == 0.0


def test_self_column_reproduces_relay_sinr():
    d = ref.row(small_draw(), 0)
    for lam in (0.1, 0.5, 0.9):
        assert math.isclose(
            ref.sinr_eve_phase1(d, 0, 0, lam), ref.sinr_relay(d, 0, lam), rel_tol=1e-14
        )


def test_forwarded_sinr_bounded_by_relay_sinr():
    gains, cfg = default_setup()
    batch = draw_batch(gains, cfg, 11, 0, 50)
    for t in range(50):
        d = ref.row(batch, t)
        for lam in (0.2, 0.5, 0.8):
            gi = ref.sinr_relay(d, 0, lam)
            for node in (1, 2):
                assert ref.sinr_eve_phase2(d, 0, node, lam) < gi


def test_destination_sinr_bounds():
    gains, cfg = default_setup()
    batch = draw_batch(gains, cfg, 12, 0, 50)
    served = np.zeros(50, dtype=np.int64)
    for lam in (0.2, 0.5, 0.8):
        gd = sinr_destination(batch, served, np.full(50, lam))
        assert np.all(gd < lam * batch.g_sr[:, 0])
        assert np.all(gd < batch.g_rd[:, 0])


def test_leakage_combines_per_node_phase_maxima():
    d = ref.row(small_draw(), 0)
    lam = 0.5
    per_node = []
    for node in range(3):
        p1 = ref.sinr_eve_phase1(d, 0, node, lam)
        p2 = 0.0 if node == 0 else ref.sinr_eve_phase2(d, 0, node, lam)
        per_node.append(max(p1, p2))
    want_nce = max(per_node)
    (got,) = leakage_batch(small_draw(), np.array([0]), np.array([lam]), EveModel.NCE)
    assert math.isclose(got, want_nce, rel_tol=1e-14)
    eve_sum = ref.sinr_eve_phase1(d, 0, 2, lam) + ref.sinr_eve_phase2(d, 0, 2, lam)
    want_ce = max(max(per_node[:2]), eve_sum)
    (got,) = leakage_batch(small_draw(), np.array([0]), np.array([lam]), EveModel.CE)
    assert math.isclose(got, want_ce, rel_tol=1e-14)


def test_leakage_nce_at_least_relay_sinr():
    gains, cfg = default_setup()
    batch = draw_batch(gains, cfg, 13, 0, 30)
    for relay in range(2):
        for lam in (0.3, 0.7):
            # The served relay's first-phase SINR.  Self column and norm
            # follow different float paths: 1 ulp slack.
            gi = lam * batch.g_sr[:, relay] / ((1.0 - lam) * batch.g_rd[:, relay] + 1.0)
            got = leakage_batch(batch, np.full(30, relay), np.full(30, lam), EveModel.NCE)
            assert np.all(got >= gi * (1.0 - 1e-12))


def test_leakage_single_relay_no_eves_is_relay_sinr():
    gains = MeanGains.iid(1, 0, mu_sr=0.5, mu_rd=2.0)
    cfg = SystemConfig(n_antennas=4, n_relays=1, n_eves=0, snr_linear=3.0)
    batch = draw_batch(gains, cfg, 5, 0, 1)
    for lam in (0.2, 0.5, 0.9):
        want = ref.sinr_relay(ref.row(batch, 0), 0, lam)
        for model in EveModel:
            (got,) = leakage_batch(batch, np.array([0]), np.array([lam]), model)
            assert math.isclose(got, want, rel_tol=1e-14)


def test_no_jamming_limit_kills_secrecy():
    # lam -> 1 is conventional AF without destination jamming: the served
    # relay hears at least as much as the destination on every draw.
    gains, cfg = default_setup()
    batch = draw_batch(gains, cfg, 14, 0, 30)
    served, lam = np.zeros(30, dtype=np.int64), np.full(30, 1.0 - 1e-9)
    g_d = sinr_destination(batch, served, lam)
    g_e = leakage_batch(batch, served, lam, EveModel.NCE)
    assert np.all(g_e >= g_d)
    rate = 0.5 * (np.log2(1.0 + g_d) - np.log2(1.0 + g_e))
    assert np.all(np.maximum(rate, 0.0) == 0.0)


def test_draw_layout_and_reciprocity():
    gains, cfg = default_setup()
    d = draw_batch(gains, cfg, 3, 9, 1)
    assert d.n_trials == 1 and d.n_relays == 2 and d.g_ld.shape[1] == 3
    # Self leakage column carries the full beamforming gain.
    assert d.g_null_r[0, 0, 0] == d.g_sr[0, 0]
    assert d.g_null_r[0, 1, 1] == d.g_sr[0, 1]
    # Jamming gains toward relays repeat the forwarding gains.
    np.testing.assert_array_equal(d.g_ld[:, :2], d.g_rd)
    # Inter-malicious block: zero self link, symmetric between relays.
    assert d.g_rl[0, 0, 0] == 0.0 and d.g_rl[0, 1, 1] == 0.0
    assert d.g_rl[0, 0, 1] == d.g_rl[0, 1, 0]
    assert 0.0 <= d.u_rand[0] < 1.0
    assert d.g_sd[0] > 0.0 and np.all(d.g_null_d >= 0.0)


def test_draw_is_deterministic():
    gains, cfg = default_setup()
    a = draw_batch(gains, cfg, 42, 7, 1)
    b = draw_batch(gains, cfg, 42, 7, 1)
    for name in BatchDraws.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = draw_batch(gains, cfg, 42, 8, 1)
    assert not np.array_equal(a.g_sr, c.g_sr)


def test_batch_rows_match_scalar_draws():
    gains, cfg = default_setup()
    batch = draw_batch(gains, cfg, 21, 4, 6)
    assert batch.n_trials == 6
    for t in range(6):
        single = draw_batch(gains, cfg, 21, 4 + t, 1)
        for name in BatchDraws.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(batch, name)[t], getattr(single, name)[0])


def test_batch_split_invariance():
    gains, cfg = default_setup()
    whole = draw_batch(gains, cfg, 77, 0, 10)
    tail = draw_batch(gains, cfg, 77, 6, 4)
    np.testing.assert_array_equal(whole.g_sr[6:], tail.g_sr)
    np.testing.assert_array_equal(whole.u_rand[6:], tail.u_rand)


@pytest.mark.parametrize("ns, k, l", [(8, 1, 0), (16, 5, 5), (256, 10, 50), (4, 5, 3)])
def test_at_snr_is_draw_batch_at_that_snr(ns, k, l):
    # Heterogeneous gains, so every rho * mu product is checked; Ns=4 < K+1
    # gives a rank-deficient Bartlett factor.
    gains = mean_gains_from_topology(paper_topology(k, l))
    base = SystemConfig(n_antennas=ns, n_relays=k, n_eves=l, snr_linear=1.0)
    # A stacked at_snr has one 37-row block per SNR, SNR-major, and each
    # block is draw_batch at its SNR.
    drawn = draw_batch(gains, base.with_snr_db(20.0), 5, 3, 37)
    dbs = (20.0, -7.5, 0.0, 33.0, 200.0)
    rhos = [base.with_snr_db(db).snr_linear for db in dbs]
    stacked = drawn.at_snr(rhos)
    assert stacked.n_trials == 37 * len(dbs)
    for j, (db, rho) in enumerate(zip(dbs, rhos)):
        want = draw_batch(gains, base.with_snr_db(db), 5, 3, 37)
        block = BatchDraws(**{name: getattr(stacked, name)[37 * j : 37 * (j + 1)]
                              for name in BatchDraws.__dataclass_fields__})
        for got in (drawn.at_snr(rho), drawn.at_snr(2.0).at_snr(rho), drawn.at_snr([rho]),
                    stacked.at_snr(rho), block):
            for name in BatchDraws.__dataclass_fields__:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (db, name)
    with pytest.raises(ValueError, match="drawn batch"):
        small_draw().at_snr(2.0)
    with pytest.raises(ValueError, match="at least one SNR"):
        drawn.at_snr([])


def test_relay_pairs_share_one_draw_at_the_upper_mean():
    # A hand-given mu_rl that is not symmetric in the relay block: each
    # relay pair is drawn once, so both directions carry that draw scaled by
    # the upper entry's mean, in draw_batch and in every stacked block.
    k, l, n = 3, 2, 20
    mu_rl = np.arange(1.0, 1.0 + k * (k + l)).reshape(k, k + l)
    np.fill_diagonal(mu_rl[:, :k], 0.0)
    assert mu_rl[0, 1] != mu_rl[1, 0]
    upper = np.triu(mu_rl[:, :k], 1)
    mu_sym = np.concatenate([upper + upper.T, mu_rl[:, k:]], axis=1)
    unit_gains = MeanGains.iid(k, l)
    gains = MeanGains(mu_sr=unit_gains.mu_sr, mu_rd=unit_gains.mu_rd, mu_se=unit_gains.mu_se,
                      mu_ed=unit_gains.mu_ed, mu_sd=unit_gains.mu_sd, mu_rl=mu_rl)
    cfg = SystemConfig(n_antennas=8, n_relays=k, n_eves=l, snr_linear=2.0)
    drawn = draw_batch(gains, cfg, 4, 0, n)
    unit = draw_batch(unit_gains, cfg, 4, 0, n)
    rhos = [2.0, 30.0, 0.5]
    stacked = drawn.at_snr(rhos)
    blocks = [(drawn.g_rl, unit.g_rl)]
    blocks += [(stacked.g_rl[j * n : (j + 1) * n], unit.at_snr(rho).g_rl)
               for j, rho in enumerate(rhos)]
    for g_rl, g_unit in blocks:
        assert g_rl[:, 1, 0].tobytes() == g_rl[:, 0, 1].tobytes()
        assert (g_rl[:, np.arange(k), np.arange(k)] == 0.0).all()
        np.testing.assert_allclose(g_rl, mu_sym * g_unit, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10])
@pytest.mark.parametrize("l", [0, 1, 50])
def test_pair_count_and_index_follow_the_pair_list(k, l):
    # Relay-relay pairs i < j, then relay i to eavesdropper j, row by row.
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pairs += [(i, k + j) for i in range(k) for j in range(l)]
    pi, pj = _pair_index(k, l)
    assert list(zip(pi.tolist(), pj.tolist())) == pairs
    assert not (pi.flags.writeable or pj.flags.writeable)


def test_flat_draw_size_counts_all_uniforms():
    gains, cfg = default_setup(n_antennas=8, k=2, l=1)
    # d = min(8, 3) = 3: 1 scheme uniform + 3 diagonal gammas + 3 complex
    # upper entries + 3x1 complex eve components + (2 rd + 1 ed + 3 pair)
    # exponentials = 22, padded to a multiple of 4.
    assert flat_draw_size(cfg, gains) == 24
    # Rank-deficient Ns=2 < K+1=6: d = 2, 9 upper entries (columns 2..5 full),
    # 2x3 eve components, 5 + 3 + 10 + 15 links: 1 + 2 + 18 + 12 + 33 = 66.
    gains = MeanGains.iid(5, 3)
    cfg = SystemConfig(n_antennas=2, n_relays=5, n_eves=3, snr_linear=1.0)
    assert flat_draw_size(cfg, gains) == 68


def test_sample_means_match_link_statistics():
    gains, cfg = default_setup(n_antennas=8, k=2, l=1, rho=2.0)
    batch = draw_batch(gains, cfg, 2024, 0, 20_000)
    rho, ns = 2.0, 8
    np.testing.assert_allclose(batch.g_sr.mean(axis=0), rho * ns * gains.mu_sr, rtol=0.01)
    np.testing.assert_allclose(batch.g_rd.mean(axis=0), rho * gains.mu_rd, rtol=0.02)
    assert math.isclose(batch.g_sd.mean(), rho * ns * 1.25, rel_tol=0.01)
    # Beamforming leakage toward an unintended node averages the plain
    # per-antenna gain, with no array gain.
    np.testing.assert_allclose(
        batch.g_null_d.mean(axis=0), rho * np.array([0.5, 1.0, 0.5]), rtol=0.02
    )
    np.testing.assert_allclose(batch.g_null_r[:, 0, 1:].mean(axis=0), rho * np.array([1.0, 0.5]), rtol=0.03)
    np.testing.assert_allclose(batch.g_ld[:, 2].mean(), rho * 1.5, rtol=0.02)
    assert math.isclose(batch.g_rl[:, 0, 1].mean(), rho * 1.0, rel_tol=0.03)
    # The scheme-randomness uniform is uniform.
    assert abs(batch.u_rand.mean() - 0.5) < 0.01


def test_leakage_batch_matches_scalar():
    gains, cfg = default_setup()
    batch = draw_batch(gains, cfg, 9, 0, 16)
    relay_idx = np.tile(np.array([0, 1]), 8)
    lam = np.linspace(0.05, 0.95, 16)
    for model in EveModel:
        out = leakage_batch(batch, relay_idx, lam, model)
        for t in range(16):
            want = ref.leakage(ref.row(batch, t), int(relay_idx[t]), float(lam[t]), model)
            assert math.isclose(out[t], want, rel_tol=1e-13)


@pytest.mark.parametrize("k, l", [(10, 50), (5, 5), (1, 0)])
def test_sinr_destination_equals_the_served_view(k, l):
    # sinr_destination gathers only the two hops it reads, not a whole view.
    gains = MeanGains.iid(k, l, mu_sr=0.5, mu_rd=1.0, mu_se=0.5, mu_ed=1.0)
    cfg = SystemConfig(n_antennas=16, n_relays=k, n_eves=l, snr_linear=100.0)
    batch = draw_batch(gains, cfg, 23, 0, 300)
    rng = np.random.default_rng(5)
    relay_idx = rng.integers(0, k, 300)
    lam = rng.uniform(0.01, 0.99, 300)
    want = served(batch, relay_idx).sinr_destination(lam)
    assert sinr_destination(batch, relay_idx, lam).tobytes() == want.tobytes()


@pytest.mark.parametrize("k, l", [(10, 50), (5, 5)])
@pytest.mark.parametrize("model", list(EveModel), ids=lambda m: m.value)
def test_served_view_is_bit_identical_to_trial_major(k, l, model):
    # Pooled eavesdropper sums of eight or more terms are added pairwise, so
    # summing the node-major rows in another order would move their last
    # bits; rtol checks cannot see that.
    gains = MeanGains.iid(k, l, mu_sr=0.5, mu_rd=1.0, mu_se=0.5, mu_ed=1.0)
    cfg = SystemConfig(n_antennas=16, n_relays=k, n_eves=l, snr_linear=100.0, eve_model=model)
    batch = draw_batch(gains, cfg, 17, 0, 300)
    rng = np.random.default_rng(4)
    relay_idx = rng.integers(0, k, 300)
    lam = rng.uniform(0.01, 0.99, 300)
    want = ref.leakage_batch(batch, relay_idx, lam, model)
    assert served(batch, relay_idx).leakage(lam, model).tobytes() == want.tobytes()
    assert leakage_batch(batch, relay_idx, lam, model).tobytes() == want.tobytes()
    # A view of chosen (trial, relay) pairs equals those trials gathered
    # into a batch of their own.
    trials = rng.integers(0, 300, 200)
    sub = BatchDraws(**{f: getattr(batch, f)[trials] for f in vars(batch)})
    want = ref.leakage_batch(sub, relay_idx[:200], lam[:200], model)
    got = served(batch, relay_idx[:200], trials).leakage(lam[:200], model)
    assert got.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        split = opa_ce(batch, relay_idx)
    want = np.clip(ref.closed_split_ce_batch(batch, relay_idx), LAMBDA_EPS, 1.0 - LAMBDA_EPS)
    assert split.tobytes() == want.tobytes()


def test_dt_snrs_and_leakage():
    d = small_draw()
    cfg = SystemConfig(n_antennas=4, n_relays=2, n_eves=1, snr_linear=1.0)
    out = run_scheme_batch(d, Scheme.DT, cfg)
    np.testing.assert_array_equal(out.gamma_d, [5.0])
    np.testing.assert_array_equal(out.gamma_e, dt_leakage(d.g_null_d, 2, EveModel.NCE))
    out.gamma_d[0] = -1.0  # the result must not alias the draw
    assert d.g_sd[0] == 5.0

    batch = np.array([[3.0, 1.0, 4.0, 2.0], [1.0, 9.0, 0.5, 0.5]])
    np.testing.assert_allclose(dt_leakage(batch, 2, EveModel.CE), [6.0, 9.0])
    np.testing.assert_allclose(dt_leakage(batch, 2, EveModel.NCE), [4.0, 9.0])


def test_draw_batch_refuses_a_seed_or_trial_past_64_bits():
    gains, cfg = default_setup()
    for name in ("master_seed", "first_trial"):
        for value in (-1, 2**64):
            args = {"master_seed": 3, "first_trial": 4, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be an integer in "
                                                 rf"\[0, {2**64 - 1}\], got {value}"):
                draw_batch(gains, cfg, n_trials=1, **args)


@pytest.mark.parametrize("rho", [-1.0, 0.0, math.nan, math.inf, 1e300])
def test_snr_outside_the_validated_box_is_refused(rho):
    # Below zero the gains go negative; NaN, inf and 1e300 give NaN rates.
    gains, cfg = default_setup()
    with pytest.raises(ValueError, match="transmit SNR rho must be in"):
        draw_batch(gains, replace(cfg, snr_linear=rho), 3, 0, 4)
    drawn = draw_batch(gains, cfg, 3, 0, 4)
    for snrs in (rho, [2.0, rho], [rho, 2.0]):
        with pytest.raises(ValueError, match="transmit SNR rho must be in"):
            drawn.at_snr(snrs)
    # The box's upper edge is in it.
    assert np.isfinite(drawn.at_snr([1e-6, MAX_SNR_LINEAR]).g_sd).all()
