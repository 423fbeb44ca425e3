import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quadrature_reference import QuadratureError, esr_quadrature_oracle, ser_quadrature_oracle
from secrelay import policy
from secrelay.analytics import esr_dbcj, ser_dbcj, sop_dbcj
from secrelay.model import (
    MAX_SNR_DB,
    ConfigError,
    EveModel,
    MeanGains,
    SystemConfig,
    mean_gains_from_topology,
    paper_topology,
)
from secrelay.montecarlo import (
    Metric,
    MetricEstimate,
    SchemeTrace,
    derive_seed,
    estimate,
    estimate_from_trace,
    simulate,
    sweep,
)
from secrelay.policy import Scheme
from secrelay.specfun import q_function


def small_setup(k=2, l=1, n_antennas=8, rho=10.0, **cfg_kw):
    gains = MeanGains.iid(k, l, mu_sr=0.5, mu_rd=1.0, mu_se=0.5, mu_ed=1.0)
    cfg = SystemConfig(
        n_antennas=n_antennas, n_relays=k, n_eves=l, snr_linear=rho, **cfg_kw
    )
    return gains, cfg


# ---------------------------------------------------------------------------
# seeds


def test_derive_seed_frozen_values():
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 10451216379200822465
    m = 0xDEADBEEFCAFEBABE
    assert derive_seed(m, 7) == m ^ derive_seed(0, 7)


def test_derive_seed_domain():
    with pytest.raises(ValueError):
        derive_seed(-1, 0)
    with pytest.raises(ValueError):
        derive_seed(2**64, 0)
    with pytest.raises(ValueError):
        derive_seed(0, -1)


# ---------------------------------------------------------------------------
# simulate


def test_chunking_does_not_change_results():
    gains, cfg = small_setup()
    runs = [
        simulate(cfg, gains, [Scheme.JRP, Scheme.DT], 53, seed=5, chunk_size=cs)
        for cs in (7, 53, 2048)
    ]
    for scheme in (Scheme.JRP, Scheme.DT):
        base = runs[0][scheme]
        for other in runs[1:]:
            assert np.array_equal(base.rates, other[scheme].rates)
            assert np.array_equal(base.gamma_d, other[scheme].gamma_d)


def test_seed_defaults_to_config_master_seed():
    gains, cfg = small_setup(master_seed=99)
    a = simulate(cfg, gains, [Scheme.EPRR], 40)[Scheme.EPRR]
    b = simulate(cfg, gains, [Scheme.EPRR], 40, seed=99)[Scheme.EPRR]
    c = simulate(cfg, gains, [Scheme.EPRR], 40, seed=100)[Scheme.EPRR]
    assert np.array_equal(a.rates, b.rates)
    assert not np.array_equal(a.rates, c.rates)


def test_schemes_share_draws_within_a_run():
    # Selection at the fixed half split can only improve on a random pick
    # trial by trial, which is only observable on shared channels.
    gains, cfg = small_setup(k=3, l=1)
    out = simulate(cfg, gains, [Scheme.EPRR, Scheme.EPRS], 200, seed=3)
    assert np.all(out[Scheme.EPRS].rates >= out[Scheme.EPRR].rates - 1e-12)


def test_duplicate_schemes_collapse():
    gains, cfg = small_setup()
    out = simulate(cfg, gains, [Scheme.JRP, Scheme.JRP, Scheme.DT], 10, seed=1)
    assert set(out) == {Scheme.JRP, Scheme.DT}


@pytest.mark.parametrize("chunk_size", [37, 2048])
@pytest.mark.parametrize("models", [[EveModel.NCE, EveModel.CE], [EveModel.CE, EveModel.NCE]])
def test_eve_models_share_draws_bit_for_bit(chunk_size, models):
    # config.eve_model and config.snr_linear are ignored once points are given.
    gains, cfg = small_setup(k=3, l=2, eve_model=EveModel.CE)
    schemes = list(Scheme)
    points = [(m, rho) for rho in (10.0, 0.5, 300.0) for m in models]
    out = simulate(cfg, gains, schemes, 150, seed=11, chunk_size=chunk_size, points=points)
    assert list(out) == points
    for m, rho in points:
        alone = simulate(replace(cfg, eve_model=m, snr_linear=rho), gains, schemes, 150,
                         seed=11, chunk_size=chunk_size)
        assert list(out[m, rho]) == schemes
        for s in schemes:
            assert out[m, rho][s].rates.tobytes() == alone[s].rates.tobytes()
            assert out[m, rho][s].gamma_d.tobytes() == alone[s].gamma_d.tobytes()


def test_eve_models_collapse_and_must_not_be_empty():
    gains, cfg = small_setup()
    out = simulate(cfg, gains, [Scheme.JRP], 10, seed=1, points=[(EveModel.CE, 2.0)] * 2)
    assert list(out) == [(EveModel.CE, 2.0)] and list(out[EveModel.CE, 2.0]) == [Scheme.JRP]
    with pytest.raises(ValueError):
        simulate(cfg, gains, [Scheme.JRP], 10, points=[])
    with pytest.raises(ConfigError, match="snr_linear"):
        simulate(cfg, gains, [Scheme.JRP], 10, points=[(EveModel.CE, 2.0), (EveModel.CE, 0.0)])


def test_simulate_validation():
    gains, cfg = small_setup()
    with pytest.raises(ValueError):
        simulate(cfg, gains, [Scheme.JRP], 0)
    with pytest.raises(ValueError):
        simulate(cfg, gains, [], 10)
    with pytest.raises(ValueError):
        simulate(cfg, gains, [Scheme.JRP], 10, chunk_size=0)
    wrong = MeanGains.iid(4, 1)
    with pytest.raises(ValueError):
        simulate(cfg, wrong, [Scheme.JRP], 10)


@pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
def test_simulate_estimate_and_sweep_refuse_unvalidated_configs(snr_db):
    # Linear SNR 0 (underflow) or inf (overflow): a ConfigError before any draw,
    # not an ESR of 0 with a standard error of 0, nor a bare OverflowError.
    gains = MeanGains.iid(2, 1)
    cfg = SystemConfig(4, 2, 1, 1.0)
    with pytest.raises(ConfigError, match="snr_linear"):
        sweep(Metric.ESR, Scheme.JRP, cfg, gains, [snr_db], 50)
    bad = cfg.with_snr_db(snr_db)
    with pytest.raises(ConfigError, match="snr_linear"):
        estimate(Metric.ESR, Scheme.JRP, bad, gains, 50)
    with pytest.raises(ConfigError, match="snr_linear"):
        simulate(bad, gains, [Scheme.JRP], 50)


def test_simulate_refuses_snrs_past_the_cap():
    # At 1520 dB the split search's leakage products overflow to NaN on these
    # gains and steered JRP to a mean rate of 71.4 (247.4 at 1500 dB, 0.0 at
    # 1530 dB) without an error.  validate now stops every SNR past 200 dB.
    gains = mean_gains_from_topology(paper_topology(3, 2))
    cfg = SystemConfig(8, 3, 2, 1.0)
    with pytest.raises(ConfigError, match=r"snr_linear must be <= 1e\+20 \(200 dB\), got 1e\+152"):
        simulate(cfg.with_snr_db(1520.0), gains, [Scheme.JRP], 200, seed=3)
    trace = simulate(cfg.with_snr_db(MAX_SNR_DB), gains, [Scheme.JRP], 200, seed=3)[Scheme.JRP]
    assert np.isfinite(trace.rates).all() and trace.rates.mean() > 0.0


def test_simulate_refuses_non_finite_rates(monkeypatch):
    # No validated config overflows, so a scheme is made to return one value
    # that is not finite; simulate must say so instead of returning it.
    gains, cfg = small_setup(k=3, l=2)
    real = policy.run_scheme_batch

    def poisoned(field):
        def run(batch, scheme, config):
            res = real(batch, scheme, config)
            if scheme is Scheme.JRP:
                values = getattr(res, field).copy()
                values[-1] = math.nan
                res = replace(res, **{field: values})
            return res
        return run

    for field, what in (("rate", "rate or destination SINR"),
                        ("gamma_d", "rate or destination SINR"),
                        ("gamma_e", "leakage SINR")):
        monkeypatch.setattr(policy, "run_scheme_batch", poisoned(field))
        simulate(cfg, gains, [Scheme.DT], 200, seed=3)  # only JRP is poisoned
        with pytest.raises(ArithmeticError,
                           match=f"jrp: non-finite {what} in trials 0-63 "):
            simulate(cfg, gains, [Scheme.DT, Scheme.JRP], 200, seed=3, chunk_size=64)


def test_non_finite_error_names_the_point_at_fault(monkeypatch):
    # 64 trials and a chunk_size of 192 stack all three SNRs of one chunk in
    # one batch, SNR-major: row j*64 + t is trial t at the j-th SNR.  Only
    # the second SNR is poisoned under CE: the message must name that point,
    # not the first one, whose SNR the chunk was drawn at.  The third SNR is
    # poisoned too, under NCE, which runs first on the stack but comes later
    # in (SNR, model, scheme) order, the order a run of one SNR per batch
    # meets the points in.
    gains, cfg = small_setup(k=3, l=2)
    real = policy.run_scheme_batch

    def poisoned(batch, scheme, config):
        res = real(batch, scheme, config)
        assert batch.n_trials == 3 * 64
        j = {EveModel.CE: 1, EveModel.NCE: 2}[config.eve_model]
        gamma_e = res.gamma_e.copy()
        gamma_e[j * 64 : (j + 1) * 64] = math.nan
        return replace(res, gamma_e=gamma_e)

    monkeypatch.setattr(policy, "run_scheme_batch", poisoned)
    points = [(m, rho) for rho in (2.0, 40.0, 300.0) for m in EveModel]
    with pytest.raises(ArithmeticError) as err:
        simulate(cfg, gains, [Scheme.DT], 64, seed=3, chunk_size=192, points=points)
    assert str(err.value) == ("dt: non-finite leakage SINR in trials 0-63 "
                              "at snr_linear=40 under ce")


def _grid_points(cfg, models=tuple(EveModel)):
    return [(m, cfg.with_snr_db(db).snr_linear) for db in range(0, 45, 5) for m in models]


@pytest.mark.parametrize("chunk_size", [37, 300, 2048])
def test_stacked_snr_points_match_single_point_runs(chunk_size):
    # 90 trials: chunks of 37, 37 and 16 trials stack 1, 1 and 2 SNRs a
    # batch at chunk_size 37, 3 at 300, and all 9 at 2048.
    gains = mean_gains_from_topology(paper_topology(3, 2))
    cfg = SystemConfig(n_antennas=8, n_relays=3, n_eves=2, snr_linear=1.0)
    schemes = list(Scheme)
    points = _grid_points(cfg)
    out = simulate(cfg, gains, schemes, 90, seed=5, chunk_size=chunk_size, points=points)
    for m, rho in points:
        alone = simulate(replace(cfg, eve_model=m, snr_linear=rho), gains, schemes, 90,
                         seed=5, chunk_size=chunk_size)
        for s in schemes:
            assert out[m, rho][s].rates.tobytes() == alone[s].rates.tobytes(), (m, rho, s)
            assert out[m, rho][s].gamma_d.tobytes() == alone[s].gamma_d.tobytes(), (m, rho, s)


def test_result_keys_follow_the_order_of_points():
    # The first model at two SNRs, then the second model: a result built
    # SNR-major would list (CE, 1.0) before (NCE, 2.0).
    gains, cfg = small_setup()
    points = [(EveModel.NCE, 1.0), (EveModel.NCE, 2.0), (EveModel.CE, 1.0)]
    out = simulate(cfg, gains, [Scheme.JRP], 10, seed=3, points=points)
    assert list(out) == points


def test_stacks_with_models_missing_at_some_snrs():
    # Each stack runs every model listed at any of its SNRs; a point that
    # was not asked for gets no trace and no say in the non-finite check.
    gains, cfg = small_setup(k=3, l=2)
    points = [(EveModel.NCE, 2.0), (EveModel.CE, 40.0), (EveModel.NCE, 40.0),
              (EveModel.CE, 300.0)]
    schemes = [Scheme.JRP, Scheme.EXACT_JRP, Scheme.DT]
    out = simulate(cfg, gains, schemes, 50, seed=9, points=points)
    assert list(out) == points
    for m, rho in points:
        alone = simulate(replace(cfg, eve_model=m, snr_linear=rho), gains, schemes, 50, seed=9)
        for s in schemes:
            assert out[m, rho][s].rates.tobytes() == alone[s].rates.tobytes(), (m, rho, s)
            assert out[m, rho][s].gamma_d.tobytes() == alone[s].gamma_d.tobytes(), (m, rho, s)


@pytest.mark.parametrize(("trials", "chunk_size", "n_calls"),
                         [(300, 2048, 2), (90, 37, 9 + 9 + 5), (2100, 2048, 9 + 1)])
def test_scheme_calls_fill_at_most_chunk_size_rows(monkeypatch, trials, chunk_size, n_calls):
    # 9 SNRs: 300 trials stack 6 then 3 SNRs a call; 90 trials in chunks of
    # 37 run one SNR per call until the 16-trial tail stacks 2; 2100 trials
    # run one SNR per call on the 2048-trial chunk and all 9 on the tail.
    gains, cfg = small_setup(k=2, l=1)
    real = policy.run_scheme_batch
    rows: dict[tuple[EveModel, Scheme], list[int]] = {}

    def spy(batch, scheme, config):
        rows.setdefault((config.eve_model, scheme), []).append(batch.n_trials)
        return real(batch, scheme, config)

    monkeypatch.setattr(policy, "run_scheme_batch", spy)
    simulate(cfg, gains, list(Scheme), trials, seed=4, chunk_size=chunk_size,
             points=_grid_points(cfg))
    assert set(rows) == {(m, s) for m in EveModel for s in Scheme}
    for calls in rows.values():
        assert max(calls) <= chunk_size
        assert sum(calls) == 9 * trials
        assert len(calls) == n_calls


@pytest.mark.parametrize("model", list(EveModel), ids=lambda m: m.value)
def test_simulate_matches_pinned_values(model):
    # Every scheme on heterogeneous gains with eavesdroppers, against values
    # recorded from an earlier build.  A relative tolerance, not a bit hash:
    # numpy's vectorized log/exp may differ by an ulp across CPUs.
    pinned = json.loads((Path(__file__).parent / "data" / "simulate_pinned.json").read_text())
    gains = mean_gains_from_topology(paper_topology(3, 2))
    cfg = SystemConfig(n_antennas=16, n_relays=3, n_eves=2, snr_linear=10.0, eve_model=model)
    traces = simulate(cfg, gains, list(Scheme), pinned["trials"], seed=pinned["seed"])
    for scheme, trace in traces.items():
        want = pinned["values"][f"{model.value}/{scheme.value}"]
        np.testing.assert_allclose(trace.rates, want["rates"], rtol=1e-12, atol=0, err_msg=scheme.value)
        np.testing.assert_allclose(trace.gamma_d, want["gamma_d"], rtol=1e-12, atol=0, err_msg=scheme.value)


# ---------------------------------------------------------------------------
# metric reduction


def test_metric_reductions_on_a_hand_trace():
    trace = SchemeTrace(
        scheme=Scheme.JRP,
        rates=np.array([0.0, 0.3, 1.2, 0.0, 2.0]),
        gamma_d=np.array([0.5, 1.0, 4.0, 9.0, 16.0]),
    )
    _, cfg = small_setup(target_rate=1.0)

    esr = estimate_from_trace(Metric.ESR, trace, cfg)
    assert esr.value == pytest.approx(3.5 / 5.0, rel=1e-15)
    assert esr.std_error == pytest.approx(
        float(np.std(trace.rates, ddof=1)) / math.sqrt(5.0), rel=1e-12
    )
    assert esr.trials == 5 and esr.scheme is Scheme.JRP

    assert estimate_from_trace(Metric.PPOS, trace, cfg).value == 3.0 / 5.0
    # target 1.0 counts rates at or below it, including the exact ties
    assert estimate_from_trace(Metric.SOP, trace, cfg).value == 3.0 / 5.0

    ser = estimate_from_trace(Metric.SER, trace, cfg)
    expected = float(np.mean(2.0 * q_function(np.sqrt(trace.gamma_d))))
    assert ser.value == pytest.approx(expected, rel=1e-12)


def test_single_trial_has_zero_std_error():
    trace = SchemeTrace(Scheme.DT, np.array([0.7]), np.array([2.0]))
    _, cfg = small_setup()
    est = estimate_from_trace(Metric.ESR, trace, cfg)
    assert est.value == 0.7 and est.std_error == 0.0


def test_estimate_is_simulate_plus_reduce():
    gains, cfg = small_setup()
    est = estimate(Metric.ESR, Scheme.EPRR, cfg, gains, 64, seed=8)
    trace = simulate(cfg, gains, [Scheme.EPRR], 64, seed=8)[Scheme.EPRR]
    assert est == estimate_from_trace(Metric.ESR, trace, cfg)
    assert isinstance(est, MetricEstimate)


def test_sop_at_zero_target_complements_ppos():
    # 512 trials so both frequencies are exact dyadics and the sum is exact.
    gains, cfg = small_setup(target_rate=0.0)
    out = simulate(cfg, gains, [Scheme.OPRR], 512, seed=21)
    sop = estimate_from_trace(Metric.SOP, out[Scheme.OPRR], cfg)
    ppos = estimate_from_trace(Metric.PPOS, out[Scheme.OPRR], cfg)
    assert sop.value + ppos.value == 1.0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_scheme_uses_derived_seeds():
    # The whole grid shares the draws of derive_seed(master, 0), so every
    # point equals a standalone estimate at that seed.
    gains, cfg = small_setup(master_seed=6)
    grid = [0.0, 10.0]
    pts = sweep(Metric.ESR, Scheme.EPRR, cfg, gains, grid, 50)
    assert [db for db, _ in pts] == grid
    for db, est in pts:
        ref = estimate(
            Metric.ESR, Scheme.EPRR, cfg.with_snr_db(db), gains, 50,
            seed=derive_seed(6, 0),
        )
        assert est == ref


def test_sweep_scheme_list_returns_dicts_on_matched_draws():
    gains, cfg = small_setup(master_seed=6)
    pts = sweep(Metric.ESR, [Scheme.EPRR, Scheme.DT], cfg, gains, [0.0, 10.0], 50)
    assert all(isinstance(ests, dict) for _, ests in pts)
    single = sweep(Metric.ESR, Scheme.EPRR, cfg, gains, [0.0, 10.0], 50)
    for (_, ests), (_, ref) in zip(pts, single):
        assert ests[Scheme.EPRR] == ref
    # a one-element list still gets the dict form
    one = sweep(Metric.ESR, [Scheme.DT], cfg, gains, [0.0], 20)
    assert isinstance(one[0][1], dict)


def test_sweep_validation():
    gains, cfg = small_setup()
    with pytest.raises(ValueError):
        sweep(Metric.ESR, Scheme.JRP, cfg, gains, [], 10)
    with pytest.raises(ValueError):
        sweep(Metric.ESR, [], cfg, gains, [0.0], 10)


def test_dt_esr_flattens_at_high_snr():
    # Finite antennas cap the direct link: one more decade buys almost nothing.
    gains = MeanGains.iid(2, 2)
    cfg = SystemConfig(
        n_antennas=16, n_relays=2, n_eves=2, snr_linear=1.0, master_seed=19
    )
    pts = sweep(Metric.ESR, Scheme.DT, cfg, gains, [30.0, 40.0], 5000)
    assert abs(pts[1][1].value - pts[0][1].value) < 0.06


# ---------------------------------------------------------------------------
# agreement with the closed forms


def test_jrp_esr_tracks_closed_form():
    gains = MeanGains.iid(5, 0)
    cfg = SystemConfig(
        n_antennas=256, n_relays=5, n_eves=0, snr_linear=100.0, master_seed=13
    )
    mc = estimate(Metric.ESR, Scheme.JRP, cfg, gains, 20000)
    closed = esr_dbcj(gains, 100.0).esr
    assert abs(mc.value - closed) / closed < 0.01


def test_jrp_sop_tracks_closed_form():
    gains = MeanGains.iid(2, 0)
    cfg = SystemConfig(
        n_antennas=256, n_relays=2, n_eves=0, snr_linear=10.0, master_seed=23
    )
    mc = estimate(Metric.SOP, Scheme.JRP, cfg, gains, 20000)
    assert abs(mc.value - sop_dbcj(gains, 10.0)) < 0.025


def test_jrp_ser_split_by_feasibility():
    # The closed SER describes draws where secrecy is attainable.  On the
    # rest the rate surface is flat at zero, the chosen split is arbitrary,
    # and the destination SNR collapses, so those draws are reported but
    # cannot track the closed form.
    gains = MeanGains.iid(1, 0)
    cfg = SystemConfig(
        n_antennas=256, n_relays=1, n_eves=0, snr_linear=100.0, master_seed=17
    )
    trace = simulate(cfg, gains, [Scheme.JRP], 50000)[Scheme.JRP]
    ser_i = 2.0 * q_function(np.sqrt(trace.gamma_d))
    feasible = trace.rates > 0.0
    assert 0.0 < (~feasible).mean() < 0.05
    closed = ser_dbcj(gains, 100.0)
    assert abs(ser_i[feasible].mean() - closed) / closed < 0.08
    assert ser_i.mean() > ser_i[feasible].mean()


def test_ser_estimate_with_closed_form_split():
    # Exact destination SINR under the closed-form split, averaged over
    # 1000 draws, against the quadrature-backed constant.  The +1 noise
    # term biases weak draws high, so the trial count keeps 3 sigma above
    # that bias; see the feasibility split above for the scheme-level view.
    import warnings

    from secrelay.channel import draw_batch, sinr_destination
    from secrelay.policy import RegimeWarning, opa_nce

    g1 = MeanGains.iid(1, 0)
    cfg = SystemConfig(n_antennas=256, n_relays=1, n_eves=0, snr_linear=100.0)
    batch = draw_batch(g1, cfg, 29, 0, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        lam = opa_nce(batch.g_sr[:, 0], batch.g_rd[:, 0])
    vals = 2.0 * q_function(np.sqrt(sinr_destination(batch, np.zeros(1000, dtype=int), lam)))
    sigma = vals.std(ddof=1) / math.sqrt(1000.0)
    assert abs(vals.mean() - 0.023301624861094217) < 3.0 * sigma


def test_ser_formula_matches_order_statistics_sampling():
    # Best second hop scaled by 1/(1+B), 1e6 draws, 3 sigma.
    g = MeanGains(
        mu_sr=np.ones(2),
        mu_rd=np.array([0.5, 2.0]),
        mu_se=np.zeros(0),
        mu_ed=np.zeros(0),
        mu_sd=1.0,
    )
    rng = np.random.default_rng(331)
    n = 10**6
    best = rng.exponential(100.0 * g.mu_rd, size=(n, 2)).max(axis=1)
    samples = 2.0 * q_function(np.sqrt(best / (1.0 + math.sqrt(2.0))))
    sigma = samples.std(ddof=1) / math.sqrt(n)
    assert abs(samples.mean() - ser_dbcj(g, 100.0)) < 3.0 * sigma


# ---------------------------------------------------------------------------
# quadrature oracles


def test_quadrature_oracle_values():
    g1 = MeanGains.iid(1, 0)
    assert esr_quadrature_oracle(g1, 10.0) == pytest.approx(
        0.34828587721600157, rel=1e-9
    )
    assert ser_quadrature_oracle(g1, 100.0) == pytest.approx(
        0.023301624861094217, rel=1e-9
    )


def test_quadrature_oracle_collusion_direction():
    g = MeanGains.iid(2, 0)
    assert ser_quadrature_oracle(g, 50.0, 1.0) > ser_quadrature_oracle(g, 50.0, 0.0)
    assert esr_quadrature_oracle(g, 50.0, 1.0) < esr_quadrature_oracle(g, 50.0, 0.0)


def test_quadrature_oracle_error_paths():
    g1 = MeanGains.iid(1, 0)
    for fn in (esr_quadrature_oracle, ser_quadrature_oracle):
        with pytest.raises(ValueError):
            fn(g1, 10.0, abs_tol=0.0)
        with pytest.raises(ValueError):
            fn(g1, 10.0, abs_tol=-1e-6)
        with pytest.raises(QuadratureError):
            fn(g1, 10.0, abs_tol=1e-18)
