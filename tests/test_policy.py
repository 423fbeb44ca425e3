import math
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from secrelay import policy
from secrelay.channel import (
    BatchDraws,
    ServedView,
    draw_batch,
    leakage_batch,
    served,
    sinr_destination,
)
from secrelay.model import EveModel, MeanGains, SystemConfig
from secrelay.montecarlo import simulate
from secrelay.policy import (
    LAMBDA_EPS,
    RegimeWarning,
    Scheme,
    c_params,
    feedback_overhead_bits,
    opa_ce,
    opa_nce,
    opa_nce_statistical,
    run_scheme_batch,
    secrecy_rate,
    select_relay_maxgain,
)

ROOT2 = math.sqrt(2.0)


def strong_first_hop_draw(eves=()) -> BatchDraws:
    """Single relay deep in the large-antenna regime, as a one-row batch;
    optional (null, jam) eavesdropper columns with a unit relay-eve link."""
    l = len(eves)
    return ref.one_row_batch(
        g_sr=[1e4],
        g_rd=[100.0],
        g_null_r=[[1e4] + [float(n) for n, _ in eves]],
        g_rl=[[0.0] + [1.0] * l],
        g_ld=[100.0] + [float(j) for _, j in eves],
        g_sd=3.0,
        g_null_d=[0.4] + [0.2] * l,
        u_rand=0.3,
    )


def rich_setup(k=3, l=2, n_antennas=8, rho=10.0):
    gains = MeanGains.iid(k, l, mu_sr=0.5, mu_rd=1.0, mu_se=0.5, mu_ed=1.0)
    cfg = SystemConfig(n_antennas=n_antennas, n_relays=k, n_eves=l, snr_linear=rho)
    return gains, cfg


def search(batch, relays, model, trials=None):
    """Searched (split, rate) of relay relays[i] of trial trials[i] (every
    trial in order when trials is None)."""
    return policy._search(served(batch, relays, trials), model)


def rate_at(batch, relay_idx, lam, model):
    """Exact secrecy rate per trial at the given relays and splits (one for
    all trials, or one per trial)."""
    return secrecy_rate(
        sinr_destination(batch, relay_idx, lam), leakage_batch(batch, relay_idx, lam, model)
    )


def test_opa_nce_values():
    assert math.isclose(opa_nce(10_000.0, 100.0), ROOT2 / 100.0, rel_tol=1e-12)
    assert math.isclose(opa_nce(2.0 * ROOT2 * 4.0, 4.0), 0.5, rel_tol=1e-12)


def test_opa_nce_clamps_with_warning():
    with pytest.warns(RegimeWarning):
        hi = opa_nce(1.0, 10.0)
    assert hi == 1.0 - LAMBDA_EPS
    with pytest.warns(RegimeWarning):
        lo = opa_nce(5.0, 0.0)
    assert lo == LAMBDA_EPS
    bad = [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
           (1.0, math.inf), (np.array([4.0, math.nan]), 1.0)]
    for gamma_si, gamma_id in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and finite"):
                opa_nce(gamma_si, gamma_id)
    for h_id, n, mu_si in [(math.nan, 4, 1.0), (math.inf, 4, 1.0), (1.0, 4, math.nan),
                           (1.0, 4, math.inf)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                opa_nce_statistical(h_id, n, mu_si)


def test_opa_nce_statistical_values():
    assert math.isclose(opa_nce_statistical(1.0, 100, 1.0), ROOT2 / 100.0, rel_tol=1e-12)
    one = opa_nce_statistical(2.0, 64, 0.5)
    two = opa_nce_statistical(2.0, 128, 0.5)
    assert math.isclose(one, 2.0 * two, rel_tol=1e-12)
    with pytest.raises(ValueError):
        opa_nce_statistical(-1.0, 64, 1.0)
    with pytest.raises(ValueError):
        opa_nce_statistical(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        opa_nce_statistical(1.0, 64, 0.0)


def test_opa_nce_statistical_tracks_exact_in_the_mean():
    gains = MeanGains.iid(1, 0)
    cfg = SystemConfig(n_antennas=256, n_relays=1, n_eves=0, snr_linear=100.0)
    batch = draw_batch(gains, cfg, 311, 0, 1000)
    stat = ROOT2 * batch.g_rd[:, 0] / (256 * 100.0 * 1.0)
    exact = ROOT2 * batch.g_rd[:, 0] / batch.g_sr[:, 0]
    assert abs(stat.mean() / exact.mean() - 1.0) < 0.05


def test_opa_ce_reduces_to_closed_form_without_eves():
    (lam,) = opa_ce(strong_first_hop_draw(), 0)
    # delta = g_si/(g_id+1); split = sqrt(2 g_id (g_id+1)) / g_si.
    assert math.isclose(lam, math.sqrt(2.0 * 100.0 * 101.0) / 1e4, rel_tol=1e-12)
    # Large g_id: consistent with the non-colluding split to 1%.
    assert math.isclose(lam, opa_nce(1e4, 100.0), rel_tol=0.01)


def test_opa_ce_shrinks_with_added_eves():
    (base,) = opa_ce(strong_first_hop_draw(), 0)
    (one,) = opa_ce(strong_first_hop_draw(eves=[(50.0, 20.0)]), 0)
    (two,) = opa_ce(strong_first_hop_draw(eves=[(50.0, 20.0), (80.0, 5.0)]), 0)
    assert two < one < base


def test_closed_splits_warn_from_public_functions_only():
    # A first hop weaker than the second puts both closed forms above 1.
    weak = ref.one_row_batch(
        g_sr=[1.0], g_rd=[10.0], g_null_r=[[1.0, 0.5]], g_rl=[[0.0, 1.0]],
        g_ld=[10.0, 2.0], g_sd=3.0, g_null_d=[0.4, 0.2], u_rand=0.3,
    )
    with pytest.warns(RegimeWarning):
        (lam,) = opa_ce(weak, 0)
    assert lam == 1.0 - LAMBDA_EPS
    with pytest.warns(RegimeWarning):
        lam = opa_nce(weak.g_sr[:, 0], weak.g_rd[:, 0])
    np.testing.assert_array_equal(lam, [1.0 - LAMBDA_EPS])
    # The split search compares the same clamped candidates, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in EveModel:
            cfg = SystemConfig(n_antennas=4, n_relays=1, n_eves=1, snr_linear=1.0, eve_model=model)
            for scheme in Scheme:
                run_scheme_batch(weak, scheme, cfg)


def test_opa_ce_below_nce_split_on_random_draws():
    # Ordering statement of the colluding-regime analysis.  It is not a
    # per-draw identity: a draw whose eavesdroppers happen to be deeply
    # jammed loses the collusion correction and the (gamma_id+1)/gamma_id
    # factor wins.  In regime (large array, strong overhearing) the split
    # ordering holds on nearly every draw.
    gains = MeanGains(
        mu_sr=np.array([0.12]),
        mu_rd=np.array([1.0]),
        mu_se=np.full(5, 0.12),
        mu_ed=np.ones(5),
        mu_sd=1.0,
    )
    cfg = SystemConfig(n_antennas=256, n_relays=1, n_eves=5, snr_linear=1e4)
    batch = draw_batch(gains, cfg, 55, 0, 10_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        hold = opa_ce(batch, 0) < opa_nce(batch.g_sr[:, 0], batch.g_rd[:, 0])
    assert hold.mean() >= 0.95


def test_c_params_values():
    gains = MeanGains.iid(5, 5)
    cfg = SystemConfig(n_antennas=256, n_relays=5, n_eves=5, snr_linear=100.0,
                       eve_model=EveModel.CE)
    p = c_params(gains, cfg)
    assert math.isclose(p.eta, 0.008954248366013072, rel_tol=1e-12)
    assert math.isclose(p.theta_hat, 20.392557217282125, rel_tol=1e-10)
    assert math.isclose(p.c, p.eta * p.theta_hat, rel_tol=1e-15)
    nce = c_params(gains, SystemConfig(n_antennas=256, n_relays=5, n_eves=5,
                                       snr_linear=100.0))
    assert nce.c == 0.0
    assert nce.theta_hat == p.theta_hat


def test_c_params_edge_cases():
    gains = MeanGains.iid(2, 0)
    cfg = SystemConfig(n_antennas=16, n_relays=2, n_eves=0, snr_linear=10.0,
                       eve_model=EveModel.CE)
    p = c_params(gains, cfg)
    assert p.theta_hat == 0.0 and p.c == 0.0
    with pytest.raises(ValueError):
        c_params(gains, SystemConfig(n_antennas=1, n_relays=2, n_eves=0, snr_linear=10.0))


def test_opa_numeric_dominates_fixed_candidates():
    gains, cfg = rich_setup()
    batch = draw_batch(gains, cfg, 23, 0, 30)
    served = np.zeros(30, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        closed = opa_nce(batch.g_sr[:, 0], batch.g_rd[:, 0])
    for model in EveModel:
        lam, rate = search(batch, served, model)
        assert np.all((0.0 < lam) & (lam < 1.0))
        assert np.all(rate >= rate_at(batch, served, 0.5, model) - 1e-9)
        assert np.all(rate >= rate_at(batch, served, closed, model) - 1e-9)


def test_opa_numeric_beats_dense_grid():
    gains, cfg = rich_setup(k=1, l=1, n_antennas=64, rho=50.0)
    batch = draw_batch(gains, cfg, 29, 0, 5)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    vals = np.stack([rate_at(batch, 0, x, EveModel.NCE) for x in grid], axis=1)
    _, rate = search(batch, np.zeros(5, dtype=np.int64), EveModel.NCE)
    assert np.all(rate >= vals.max(axis=1) - 1e-6)


def test_rate_profile_is_unimodal_in_regime():
    # No interior grid point sits below both neighbors by more than noise.
    gains = MeanGains.iid(1, 0)
    cfg = SystemConfig(n_antennas=256, n_relays=1, n_eves=0, snr_linear=100.0)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    batch = draw_batch(gains, cfg, 31, 0, 10)
    vals = np.stack([rate_at(batch, 0, x, EveModel.NCE) for x in grid], axis=1)
    dips = (vals[:, 1:-1] < vals[:, :-2] - 1e-9) & (vals[:, 1:-1] < vals[:, 2:] - 1e-9)
    assert not dips.any()


def test_numeric_split_matches_closed_form_at_large_antenna_count():
    gains = MeanGains.iid(5, 0)
    cfg = SystemConfig(n_antennas=1024, n_relays=5, n_eves=0, snr_linear=100.0)
    batch = draw_batch(gains, cfg, 101, 0, 1000)
    res = run_scheme_batch(batch, Scheme.JRP, cfg)
    rows = np.arange(1000)
    closed = ROOT2 * batch.g_rd[rows, res.selected_relay] / batch.g_sr[rows, res.selected_relay]
    agree = np.abs(res.lam - closed) / closed < 0.1
    assert agree.mean() >= 0.95


def test_closed_split_rate_near_numeric_optimum():
    gains = MeanGains.iid(5, 0)
    cfg = SystemConfig(n_antennas=256, n_relays=5, n_eves=0, snr_linear=100.0)
    batch = draw_batch(gains, cfg, 101, 0, 1000)
    res = run_scheme_batch(batch, Scheme.JRP, cfg)
    rows, relay = np.arange(1000), res.selected_relay
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        closed = opa_nce(batch.g_sr[rows, relay], batch.g_rd[rows, relay])
    ok = rate_at(batch, relay, closed, EveModel.NCE) >= res.rate * 0.99
    assert ok.mean() >= 0.95


def test_regime_draw_concentrates_leakage_near_root_two():
    d = strong_first_hop_draw()
    lam = np.array([opa_nce(1e4, 100.0)])
    # With no other node the leakage is the served relay's own SINR.
    (leak,) = leakage_batch(d, np.array([0]), lam, EveModel.NCE)
    assert math.isclose(leak, ROOT2, rel_tol=0.01)
    # Destination keeps about 1/(1+sqrt(2)) of the second hop.
    (ratio,) = sinr_destination(d, np.array([0]), lam) / 100.0
    assert 0.40 <= ratio <= 0.43


def test_select_relay_maxgain():
    np.testing.assert_array_equal(select_relay_maxgain(strong_first_hop_draw()), [0])
    gains, cfg = rich_setup()
    batch = draw_batch(gains, cfg, 1, 1, 2)
    batch.g_rd[:] = [[1.0, 5.0, 3.0], [7.0, 35.0, 21.0]]
    np.testing.assert_array_equal(select_relay_maxgain(batch), [1, 1])
    batch.g_rd[1] = [4.0, 2.0, 4.0]
    np.testing.assert_array_equal(select_relay_maxgain(batch), [1, 0])


def test_select_relay_exact_single_candidate():
    gains, cfg = rich_setup(k=1, l=1)
    batch = draw_batch(gains, cfg, 41, 0, 8)
    res = run_scheme_batch(batch, Scheme.EXACT_JRP, cfg)
    np.testing.assert_array_equal(res.selected_relay, 0)
    lam, rate = search(batch, np.zeros(8, dtype=np.int64), EveModel.NCE)
    np.testing.assert_array_equal(res.lam, lam)
    np.testing.assert_array_equal(res.rate, rate)


def test_select_relay_exact_dominates_maxgain():
    gains, _ = rich_setup()
    for model in EveModel:
        cfg = SystemConfig(n_antennas=8, n_relays=3, n_eves=2, snr_linear=10.0, eve_model=model)
        batch = draw_batch(gains, cfg, 43, 0, 20)
        exact = run_scheme_batch(batch, Scheme.EXACT_JRP, cfg).rate
        _, greedy = search(batch, select_relay_maxgain(batch), model)
        assert np.all(exact >= greedy)


def test_exact_and_maxgain_selection_mostly_agree():
    gains = MeanGains.iid(5, 0)
    cfg = SystemConfig(n_antennas=256, n_relays=5, n_eves=0, snr_linear=100.0)
    batch = draw_batch(gains, cfg, 347, 0, 400)
    jrp = run_scheme_batch(batch, Scheme.JRP, cfg)
    exact = run_scheme_batch(batch, Scheme.EXACT_JRP, cfg)
    assert np.mean(jrp.selected_relay == exact.selected_relay) >= 0.90


def test_run_scheme_eprr_is_random_relay_equal_split():
    gains, cfg = rich_setup()
    batch = draw_batch(gains, cfg, 47, 0, 10)
    out = run_scheme_batch(batch, Scheme.EPRR, cfg)
    np.testing.assert_array_equal(out.lam, 0.5)
    np.testing.assert_array_equal(
        out.selected_relay, np.minimum((batch.u_rand * 3).astype(int), 2)
    )
    np.testing.assert_array_equal(
        out.gamma_d, sinr_destination(batch, out.selected_relay, np.full(10, 0.5))
    )


def test_run_scheme_dt_uses_full_rate_prefactor():
    gains, cfg = rich_setup()
    batch = draw_batch(gains, cfg, 53, 0, 4)
    out = run_scheme_batch(batch, Scheme.DT, cfg)
    assert out.selected_relay is None and out.lam is None
    np.testing.assert_array_equal(out.gamma_d, batch.g_sd)
    want_e = np.max(batch.g_null_d, axis=1)
    np.testing.assert_array_equal(out.gamma_e, want_e)
    np.testing.assert_allclose(
        out.rate, np.maximum(0.0, np.log2(1.0 + batch.g_sd) - np.log2(1.0 + want_e)), rtol=1e-12
    )


def test_run_scheme_jrp_and_eprs_selection():
    gains, cfg = rich_setup()
    batch = draw_batch(gains, cfg, 59, 0, 6)
    jrp = run_scheme_batch(batch, Scheme.JRP, cfg)
    np.testing.assert_array_equal(jrp.selected_relay, np.argmax(batch.g_rd, axis=1))
    eprs = run_scheme_batch(batch, Scheme.EPRS, cfg)
    np.testing.assert_array_equal(eprs.lam, 0.5)
    half_rates = np.stack([rate_at(batch, i, 0.5, cfg.eve_model) for i in range(3)], axis=1)
    np.testing.assert_array_equal(eprs.selected_relay, np.argmax(half_rates, axis=1))
    np.testing.assert_allclose(eprs.rate, half_rates.max(axis=1), rtol=1e-12)


def test_exact_jrp_dominates_jrp_pointwise():
    gains, _ = rich_setup()
    for model in EveModel:
        cfg = SystemConfig(n_antennas=8, n_relays=3, n_eves=2, snr_linear=10.0, eve_model=model)
        batch = draw_batch(gains, cfg, 61, 0, 15)
        hi = run_scheme_batch(batch, Scheme.EXACT_JRP, cfg).rate
        lo = run_scheme_batch(batch, Scheme.JRP, cfg).rate
        assert np.all(hi >= lo) and np.all(lo >= 0.0)


def test_secrecy_rate_formula():
    assert secrecy_rate(5.0, 5.0) == 0.0
    assert math.isclose(secrecy_rate(3.0, 1.0), 0.5, rel_tol=1e-15)
    assert secrecy_rate(1.0, 3.0) == 0.0
    assert math.isclose(secrecy_rate(3.0, 1.0, half=False), 1.0, rel_tol=1e-15)
    out = secrecy_rate(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
    np.testing.assert_allclose(out, [0.5, 0.0])


def test_feedback_overhead_bits():
    assert feedback_overhead_bits(1, 8) == 8
    assert feedback_overhead_bits(5, 8) == 11
    assert feedback_overhead_bits(8, 3) == 6
    assert feedback_overhead_bits(1, 0) == 0
    with pytest.raises(ValueError):
        feedback_overhead_bits(0, 3)
    with pytest.raises(ValueError):
        feedback_overhead_bits(2, -1)


def test_batch_agrees_with_scalar_for_every_scheme():
    gains, _ = rich_setup()
    for model in EveModel:
        cfg = SystemConfig(n_antennas=8, n_relays=3, n_eves=2, snr_linear=10.0,
                           eve_model=model)
        batch = draw_batch(gains, cfg, 71, 0, 12)
        for scheme in Scheme:
            res = run_scheme_batch(batch, scheme, cfg)
            for t in range(12):
                one = ref.run_scheme(ref.row(batch, t), scheme, cfg)
                assert res.rate[t] == one.secrecy_rate, (scheme, t)
                assert res.gamma_d[t] == one.gamma_d
                assert res.gamma_e[t] == one.gamma_e
                if scheme is Scheme.DT:
                    assert res.selected_relay is None and res.lam is None
                else:
                    assert res.selected_relay[t] == one.selected_relay
                    assert res.lam[t] == one.lam


def model_setup(model):
    gains, cfg = rich_setup()
    return gains, SystemConfig(n_antennas=8, n_relays=3, n_eves=2, snr_linear=10.0, eve_model=model)


def pruned_pairs(batch, model, rule):
    """The (trial, relay) pairs EXACT_JRP (rule _search) or EPRS (rule
    _equal_split) rates, as an (n, K) mask: JRP's pair and every pair whose
    bound reaches its rate."""
    rows, jrp = np.arange(batch.n_trials), select_relay_maxgain(batch)
    best = rule(served(batch, jrp), model)[1]
    keep = policy._rate_bound(batch, rule) >= best[:, None]
    assert keep[rows, jrp].all()
    return keep


@pytest.mark.parametrize("model", list(EveModel), ids=lambda m: m.value)
def test_each_trial_relay_split_is_searched_once(monkeypatch, model):
    # The searches build their served views through policy.served; each
    # scheme's final rating goes through leakage_batch, whose view channel
    # builds.  Count the (trial, relay) rows entering each.
    gains, cfg = model_setup(model)
    # simulate draws these 100 trials in chunks of 37; every step works row
    # by row, so the pairs rated per chunk are the whole batch's.
    batch = draw_batch(gains, cfg, 5, 0, 100)
    k = cfg.n_relays
    searched_pairs = pruned_pairs(batch, model, policy._search)
    equal_pairs = pruned_pairs(batch, model, policy._equal_split)
    oprr = np.zeros_like(searched_pairs)
    oprr[np.arange(100), np.minimum((batch.u_rand * k).astype(np.int64), k - 1)] = True
    exact, eprs = searched_pairs.sum() / 100, equal_pairs.sum() / 100
    with_oprr = (searched_pairs | oprr).sum() / 100
    # The bound prunes, and OPRR's random relay is not always among the pairs left.
    assert 1 < exact < k and 1 < eprs < k and exact < with_oprr
    searched, rated = [], []
    build, leakage = policy.served, policy.leakage_batch

    def counting_view(batch, relay_idx, trials=None):
        searched.append(len(relay_idx))
        return build(batch, relay_idx, trials)

    def counting_leakage(batch, relay_idx, lam, model):
        rated.append(len(relay_idx))
        return leakage(batch, relay_idx, lam, model)

    monkeypatch.setattr(policy, "served", counting_view)
    monkeypatch.setattr(policy, "leakage_batch", counting_leakage)

    def rows_per_trial(schemes):
        searched.clear()
        rated.clear()
        simulate(cfg, gains, schemes, 100, seed=5, chunk_size=37)
        return sum(searched) / 100, sum(rated) / 100

    assert rows_per_trial([Scheme.JRP]) == (1, 1)
    # EXACT_JRP searches JRP's relay and the relays whose bound reaches its
    # rate; JRP reads its split from it, and OPRR searches its relay where
    # EXACT_JRP left it out.  In either order no pair is searched twice.
    # Each scheme rates its own (relay, split): one leakage row each.
    assert rows_per_trial([Scheme.EXACT_JRP]) == (exact, 1)
    assert rows_per_trial([Scheme.EXACT_JRP, Scheme.JRP]) == (exact, 2)
    assert rows_per_trial([Scheme.EXACT_JRP, Scheme.OPRR]) == (with_oprr, 2)
    assert rows_per_trial([Scheme.EXACT_JRP, Scheme.JRP, Scheme.OPRR]) == (with_oprr, 3)
    assert rows_per_trial([Scheme.OPRR, Scheme.JRP, Scheme.EXACT_JRP]) == (with_oprr, 3)
    # The equal split has a table of its own: EPRS rates the relays its
    # bound leaves, and EXACT_JRP still searches its own.  EPRR rates only
    # its final row.
    assert rows_per_trial([Scheme.EPRR]) == (0, 1)
    assert rows_per_trial([Scheme.EPRS]) == (eprs, 1)
    assert rows_per_trial([Scheme.EPRS, Scheme.EPRR]) == (eprs, 2)
    assert rows_per_trial([Scheme.EPRS, Scheme.EXACT_JRP]) == (eprs + exact, 2)


@pytest.mark.parametrize("model", list(EveModel), ids=lambda m: m.value)
def test_rate_bound_covers_every_rating(model):
    # Every pair's searched and equal-split rates are at most its bound,
    # over the antenna counts and from -60 to 200 dB, with no RuntimeWarning.
    # The single antenna and the low SNRs give draws where every pair rates
    # zero.
    zero_rate_draws = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ns in (1, 4, 16, 256):
            for db in (-60.0, 0.0, 20.0, 200.0):
                batch, trials, relays = nce_setup(ns, 4, 3, db, 40 + ns, 50)
                for rule in (policy._search, policy._equal_split):
                    bound = policy._rate_bound(batch, rule)
                    rate = rule(served(batch, relays, trials), model)[1].reshape(50, 4)
                    assert (bound >= rate).all(), (ns, db, rule.__name__)
                    zero_rate_draws += np.count_nonzero(rate.max(axis=1) == 0.0)
    assert zero_rate_draws > 0


def test_a_nan_bound_keeps_its_pair(monkeypatch):
    # A zero bound leaves EXACT_JRP only JRP's relay wherever JRP's pair
    # rates above zero; a NaN bound on the best relay keeps that relay.
    gains, cfg = model_setup(EveModel.NCE)
    n, k = 200, cfg.n_relays
    batch = draw_batch(gains, cfg, 13, 0, n)
    rows, jrp = np.arange(n), select_relay_maxgain(batch)
    rate = search(batch, np.tile(np.arange(k), n), EveModel.NCE, np.repeat(rows, k))[1]
    rate = rate.reshape(n, k)
    best = np.argmax(rate, axis=1)
    beaten = (best != jrp) & (rate[rows, jrp] > 0.0)
    assert beaten.any()
    bound = np.zeros((n, k))
    monkeypatch.setattr(policy, "_rate_bound", lambda batch, rule: bound)
    assert (run_scheme_batch(batch, Scheme.EXACT_JRP, cfg).selected_relay[beaten] == jrp[beaten]).all()
    bound[rows, best] = np.nan
    # A fresh draw of the same trials, so no pair is in a table yet.
    fresh = draw_batch(gains, cfg, 13, 0, n)
    assert run_scheme_batch(fresh, Scheme.EXACT_JRP, cfg).selected_relay.tobytes() == best.tobytes()


@pytest.mark.parametrize("chunk", [7, 2048])
@pytest.mark.parametrize("model", list(EveModel), ids=lambda m: m.value)
def test_shared_splits_do_not_depend_on_scheme_order_or_subset(model, chunk):
    gains, cfg = model_setup(model)
    schemes = list(Scheme)
    runs = [simulate(cfg, gains, schemes, 60, seed=9, chunk_size=chunk),
            simulate(cfg, gains, schemes[::-1], 60, seed=9, chunk_size=chunk)]
    runs += [simulate(cfg, gains, [s], 60, seed=9, chunk_size=chunk) for s in schemes]
    for s in schemes:
        want = runs[0][s]
        for traces in runs[1:]:
            if s in traces:
                assert traces[s].rates.tobytes() == want.rates.tobytes(), s
                assert traces[s].gamma_d.tobytes() == want.gamma_d.tobytes(), s


def test_split_tables_are_kept_per_eavesdropper_model():
    # One batch run under both models, with the searched and the equal
    # split's schemes in either order, must match a fresh copy per scheme.
    gains, nce = model_setup(EveModel.NCE)
    for first, second in ((Scheme.EPRS, Scheme.EXACT_JRP), (Scheme.EXACT_JRP, Scheme.EPRS)):
        batch = draw_batch(gains, nce, 73, 0, 12)
        for model in EveModel:
            _, cfg = model_setup(model)
            for scheme in (Scheme.JRP, first, second, Scheme.OPRR, Scheme.EPRR):
                fresh = BatchDraws(**{f: getattr(batch, f).copy()
                                      for f in BatchDraws.__dataclass_fields__})
                shared = run_scheme_batch(batch, scheme, cfg)
                alone = run_scheme_batch(fresh, scheme, cfg)
                np.testing.assert_array_equal(shared.selected_relay, alone.selected_relay)
                np.testing.assert_array_equal(shared.lam, alone.lam)
                np.testing.assert_array_equal(shared.rate, alone.rate)


def test_an_unknown_scheme_is_refused():
    gains, cfg = rich_setup()
    batch = draw_batch(gains, cfg, 3, 0, 4)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_scheme_batch(batch, "jrp", cfg)


# ---------------------------------------------------------------------------
# The exact NCE split: envelope walk against independent oracles.

T_LO, T_HI = ref.T_LO, ref.T_HI


def nce_rates(draw: ref.ChannelDraw, relay: int, lam: np.ndarray) -> np.ndarray:
    """Exact NCE secrecy rate of one draw at each split of lam."""
    lam = np.asarray(lam, dtype=float)[:, None]
    g_si, g_id = draw.g_sr[relay], draw.g_rd[relay]
    rl = draw.g_rl[relay]
    p1 = lam * draw.g_null_r[relay] / ((1.0 - lam) * draw.g_ld + 1.0)
    p2 = lam * g_si * rl / (lam * g_si + (1.0 + (1.0 - lam) * g_id) * (1.0 + rl))
    g_e = np.maximum(p1, p2).max(axis=1)
    lam = lam[:, 0]
    return secrecy_rate(lam * g_si * g_id / (lam * g_si + (2.0 - lam) * g_id + 1.0), g_e)


def brute_force_nce(draw: ref.ChannelDraw, relay: int) -> tuple[float, float, str]:
    """Best (rate, split, kind) over every candidate the rate can peak at:
    both ends, all pairwise crossings of the leakage lines in t = 1/lam
    (both phases of every node) and every line's stationary roots."""
    s, d = float(draw.g_sr[relay]), float(draw.g_rd[relay])
    nodes = zip(draw.g_null_r[relay].tolist(), draw.g_ld.tolist())
    lines = [((b + 1.0) / a, -b / a) for a, b in nodes if a > 0.0]
    for g in draw.g_rl[relay].tolist():
        if g > 0.0:
            c = (1.0 + g) / (s * g)
            lines.append(((1.0 + d) * c, 1.0 / g - d * c))
    alpha, beta = 1.0 / d - 1.0 / s, (2.0 * d + 1.0) / (s * d)
    cands = [(T_LO, "end"), (T_HI, "end")]
    for i, (d1, c1) in enumerate(lines):
        cands += [((c2 - c1) / (d1 - d2), "kink") for d2, c2 in lines[i + 1 :] if d2 != d1]
        a, b = beta - d1, alpha - c1
        c = alpha * (alpha + 1.0) / beta - c1 * (c1 + 1.0) / d1
        if a == 0.0 and b != 0.0:
            cands.append((-c / (2.0 * b), "root"))
        elif a != 0.0 and b * b - a * c >= 0.0:
            r = math.sqrt(b * b - a * c)
            cands += [((-b + r) / a, "root"), ((-b - r) / a, "root")]
    cands = [(t, kind) for t, kind in cands if T_LO <= t <= T_HI]
    lam = np.clip([1.0 / t for t, _ in cands], LAMBDA_EPS, 1.0 - LAMBDA_EPS)
    rates = nce_rates(draw, relay, lam)
    i = int(np.argmax(rates))
    return float(rates[i]), float(lam[i]), cands[i][1]


def walk(batch: BatchDraws, relays, trials=None) -> np.ndarray:
    return policy._nce_envelope_split(served(batch, relays, trials))


def nce_setup(ns, k, l, db, seed, trials):
    gains = MeanGains.iid(k, l, mu_sr=0.5, mu_rd=1.0, mu_se=0.5, mu_ed=1.0, mu_rl=0.7)
    cfg = SystemConfig(n_antennas=ns, n_relays=k, n_eves=l, snr_linear=10.0 ** (db / 10.0))
    batch = draw_batch(gains, cfg, seed, 0, trials)
    return batch, np.repeat(np.arange(trials), k), np.tile(np.arange(k), trials)


def oracle_grid():
    """The oracle layouts and SNRs: two draws per point, every (trial,
    relay) pair searched."""
    layouts = [(ns, k, l) for ns in (4, 8, 16, 256) for k in (1, 3, 5, 10) for l in (0, 1, 5, 50)]
    for idx, (ns, k, l) in enumerate(layouts):
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            yield (ns, k, l, db), nce_setup(ns, k, l, db, 900 + idx, 2)


def test_nce_split_matches_brute_force_oracle():
    # The walk's split, and so the searched rate, is within 1e-12 of the
    # best candidate; the per-draw walk of the reference agrees exactly.
    pairs = 0
    for point, (batch, trials, relays) in oracle_grid():
        lam = walk(batch, relays, trials)
        _, rate = search(batch, relays, EveModel.NCE, trials)
        for i, (t, r) in enumerate(zip(trials, relays)):
            draw = ref.row(batch, t)
            best, _, _ = brute_force_nce(draw, r)
            at_walk = nce_rates(draw, r, [lam[i]])[0]
            assert at_walk >= best - 1e-12, (point, i)
            assert abs(rate[i] - best) <= 1e-12, (point, i)
            assert ref.nce_envelope_split(draw, r) == lam[i]
            pairs += 1
    assert pairs == 2 * 5 * 4 * 4 * (1 + 3 + 5 + 10)


def test_nce_split_rates_at_least_every_fixed_candidate():
    # The NCE search rates no split but its own, so nothing keeps the equal
    # split or a closed-form split in reserve: on the oracle grid each rates
    # at most the searched rate, up to 4 ulp of it.
    for point, (batch, trials, relays) in oracle_grid():
        _, rate = search(batch, relays, EveModel.NCE, trials)
        view = served(batch, relays, trials)
        cands = [0.5, policy._closed_split(view, EveModel.NCE)]
        if point[2]:
            cands.append(policy._closed_split(view, EveModel.CE))
        for lam in cands:
            fixed = policy._view_rate(view, lam, EveModel.NCE)
            assert np.all(rate >= fixed - 4.0 * np.spacing(rate)), point


def test_nce_split_beats_dense_grid_at_low_snr_and_small_ns():
    grid = np.linspace(LAMBDA_EPS, 1.0 - LAMBDA_EPS, 4001)
    for db in (0.0, 3.0):
        batch, trials, relays = nce_setup(4, 3, 2, db, 37, 100)
        _, rate = search(batch, relays, EveModel.NCE, trials)
        for i, (t, r) in enumerate(zip(trials, relays)):
            dense = nce_rates(ref.row(batch, t), r, grid).max()
            assert rate[i] >= dense - 1e-12, (db, i)


def test_nce_split_never_rates_below_golden_section(monkeypatch):
    # The CE search, golden section and fixed candidates alike, rated
    # under NCE instead.
    view_rate = policy._view_rate
    monkeypatch.setattr(policy, "_view_rate", lambda view, lam, _: view_rate(view, lam, EveModel.NCE))
    pairs = 0
    for ns, k, l in ((4, 1, 1), (8, 3, 5), (16, 5, 5), (256, 10, 50)):
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            batch, trials, relays = nce_setup(ns, k, l, db, 41 + k, 120)
            _, rate = search(batch, relays, EveModel.NCE, trials)
            _, golden = policy._golden_split(served(batch, relays, trials))
            assert np.all(rate >= golden - 1e-12), (ns, k, l, db)
            pairs += rate.size
    assert pairs >= 10_000


def hand_draw(g_si, g_id, nodes, g_rl):
    """One relay (node 0) with (g_null, g_ld) per other node and its links."""
    return ref.one_row_batch(
        g_sr=[g_si], g_rd=[g_id], g_null_r=[[g_si] + [a for a, _ in nodes]],
        g_rl=[[0.0] + list(g_rl)], g_ld=[g_id] + [b for _, b in nodes],
        g_sd=1.0, g_null_d=[1.0] * (1 + len(nodes)), u_rand=0.5,
    )


def test_nce_split_without_phase_two_line():
    # K=1, L=0: the relay's own SINR is the only leakage, and its line's
    # stationary root is the optimum.
    batch = ref.one_row_batch(g_sr=[400.0], g_rd=[20.0], g_null_r=[[400.0]], g_rl=[[0.0]],
                              g_ld=[20.0], g_sd=1.0, g_null_d=[1.0], u_rand=0.5)
    (lam,) = walk(batch, np.array([0]))
    s, d = 400.0, 20.0
    alpha, beta = 1.0 / d - 1.0 / s, (2.0 * d + 1.0) / (s * d)
    dlt, gam = (d + 1.0) / s, -d / s
    a, b = beta - dlt, alpha - gam
    c = alpha * (alpha + 1.0) / beta - gam * (gam + 1.0) / dlt
    roots = [(-b + sg * math.sqrt(b * b - a * c)) / a for sg in (1.0, -1.0)]
    inside = [t for t in roots if T_LO < t < T_HI]
    assert len(inside) == 1
    assert math.isclose(lam, 1.0 / inside[0], rel_tol=1e-12)
    best, _, kind = brute_force_nce(ref.row(batch, 0), 0)
    assert kind == "root"
    (rate,) = search(batch, np.array([0]), EveModel.NCE)[1]
    assert abs(rate - best) <= 1e-12


def test_nce_split_lands_on_a_kink():
    # The relay's own line crosses a weakly jammed eavesdropper's line
    # where the rate rises on the left piece and falls on the right one.
    batch = hand_draw(13.5, 133.5, [(0.84, 0.38)], [0.01])
    (lam,) = walk(batch, np.array([0]))
    d1, c1 = 134.5 / 13.5, -133.5 / 13.5
    d2, c2 = 1.38 / 0.84, -0.38 / 0.84
    assert math.isclose(lam, (d1 - d2) / (c2 - c1), rel_tol=1e-12)
    best, _, kind = brute_force_nce(ref.row(batch, 0), 0)
    assert kind == "kink"
    near = nce_rates(ref.row(batch, 0), 0, [lam * (1 - 1e-6), lam, lam * (1 + 1e-6)])
    assert near[1] > near[0] and near[1] > near[2]
    assert abs(search(batch, np.array([0]), EveModel.NCE)[1][0] - best) <= 1e-12


def test_nce_split_at_the_lambda_eps_clamp():
    # An eavesdropper that hears more than the destination at every split:
    # the rate is zero everywhere, and its unclipped value rises toward
    # lam -> 0, so the walk stops at the clamp.
    batch = hand_draw(10.0, 1.0, [(50.0, 0.0)], [1.0])
    np.testing.assert_array_equal(walk(batch, np.array([0])), [LAMBDA_EPS])
    lam, rate = search(batch, np.array([0]), EveModel.NCE)
    np.testing.assert_array_equal(lam, [LAMBDA_EPS])
    np.testing.assert_array_equal(rate, [0.0])
    grid = np.linspace(LAMBDA_EPS, 1.0 - LAMBDA_EPS, 1001)
    view = served(batch, np.zeros(grid.size, dtype=np.int64), np.zeros(grid.size, dtype=np.int64))
    unclipped = np.log1p(view.sinr_destination(grid)) - np.log1p(view.leakage(grid, EveModel.NCE))
    assert np.all(unclipped < 0.0) and np.argmax(unclipped) == 0


@pytest.mark.parametrize("dup_first", [True, False])
def test_nce_split_ignores_tied_lines(dup_first):
    # A second eavesdropper with the same gains adds a line equal to an
    # existing one; the walk must not stall on it or change its answer.
    nodes = [(3.0, 0.5), (1.0, 2.0)]
    base = hand_draw(900.0, 30.0, nodes, [0.3, 0.2])
    twin = nodes[:1] + nodes if dup_first else nodes + nodes[1:]
    tied = hand_draw(900.0, 30.0, twin, [0.3, 0.3, 0.2] if dup_first else [0.3, 0.2, 0.2])
    np.testing.assert_array_equal(walk(tied, np.array([0])), walk(base, np.array([0])))
    best, _, _ = brute_force_nce(ref.row(tied, 0), 0)
    assert abs(search(tied, np.array([0]), EveModel.NCE)[1][0] - best) <= 1e-12


def test_nce_split_skips_a_node_that_hears_nothing():
    # A zero beamforming leakage gives a line of infinite slope, which must
    # neither start the walk nor poison its crossings with NaN.
    nodes = [(3.0, 0.5), (1.0, 2.0)]
    base = hand_draw(900.0, 30.0, nodes, [0.3, 0.2])
    for deaf in ((0.0, 0.0), (0.0, 4.0)):
        batch = hand_draw(900.0, 30.0, [deaf, *nodes], [0.0, 0.3, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(walk(batch, np.array([0])), walk(base, np.array([0])))


def test_nce_split_of_a_row_does_not_depend_on_its_neighbours():
    batch, trials, relays = nce_setup(16, 5, 5, 20.0, 19, 410)
    trials, relays = trials[:2048], relays[:2048]
    whole = search(batch, relays, EveModel.NCE, trials)
    parts = [search(batch, relays[s : s + 37], EveModel.NCE, trials[s : s + 37])
             for s in range(0, 2048, 37)]
    for got, want in zip(whole, zip(*parts)):
        assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize(("model", "l", "rows"), [
    (EveModel.NCE, 2, 1), (EveModel.NCE, 0, 1), (EveModel.CE, 2, 34),
])
def test_leakage_rows_per_searched_pair(monkeypatch, model, l, rows):
    # The walk rates its split once and nothing else.  The golden section
    # rates 31 probes, then its guards: 0.5, the NCE closed split and,
    # with eavesdroppers, the CE one.
    counted = []
    leakage = ServedView.leakage

    def counting(view, lam, m):
        counted.append(view.g_si.size)
        return leakage(view, lam, m)

    monkeypatch.setattr(ServedView, "leakage", counting)
    batch, trials, relays = nce_setup(8, 3, l, 10.0, 3, 50)
    search(batch, relays, model, trials)
    assert sum(counted) == rows * relays.size
