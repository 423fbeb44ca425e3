import math
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from secrelay.channel import LAMBDA_EPS, BatchDraws, draw_batch, leakage_batch, sinr_destination
from secrelay.model import EveModel, MeanGains, SystemConfig
from secrelay.policy import (
    RegimeWarning,
    Scheme,
    _numeric_split_batch,
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
    with pytest.raises(ValueError):
        opa_nce(0.0, 1.0)
    with pytest.raises(ValueError):
        opa_nce(1.0, -1.0)


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
        lam, rate = _numeric_split_batch(batch, served, model)
        assert np.all((0.0 < lam) & (lam < 1.0))
        assert np.all(rate >= rate_at(batch, served, 0.5, model) - 1e-9)
        assert np.all(rate >= rate_at(batch, served, closed, model) - 1e-9)


def test_opa_numeric_beats_dense_grid():
    gains, cfg = rich_setup(k=1, l=1, n_antennas=64, rho=50.0)
    batch = draw_batch(gains, cfg, 29, 0, 5)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    vals = np.stack([rate_at(batch, 0, x, EveModel.NCE) for x in grid], axis=1)
    _, rate = _numeric_split_batch(batch, np.zeros(5, dtype=np.int64), EveModel.NCE)
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
    lam, rate = _numeric_split_batch(batch, np.zeros(8, dtype=np.int64), EveModel.NCE)
    np.testing.assert_array_equal(res.lam, lam)
    np.testing.assert_array_equal(res.rate, rate)


def test_select_relay_exact_dominates_maxgain():
    gains, _ = rich_setup()
    for model in EveModel:
        cfg = SystemConfig(n_antennas=8, n_relays=3, n_eves=2, snr_linear=10.0, eve_model=model)
        batch = draw_batch(gains, cfg, 43, 0, 20)
        exact = run_scheme_batch(batch, Scheme.EXACT_JRP, cfg).rate
        _, greedy = _numeric_split_batch(batch, select_relay_maxgain(batch), model)
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
