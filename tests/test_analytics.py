import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

import scalar_reference as ref
from quadrature_reference import (
    esr_dt_lb_ce_quad,
    esr_quadrature_oracle,
    log_expect_mp,
    ser_quadrature_oracle,
)
from secrelay.analytics import (
    EsrBreakdown,
    dmt_reliability,
    dmt_secrecy,
    esr_dbcj,
    esr_dt_lb,
    leakage_floor,
    outage_threshold,
    ppos_dbcj,
    ppos_dbcj_asymptotic,
    ppos_dt,
    ser_dbcj,
    ser_dbcj_asymptotic,
    sop_dbcj,
    sop_dbcj_asymptotic,
    sop_dt,
)
from secrelay.model import (
    EveModel,
    MeanGains,
    Modulation,
    SystemConfig,
    mean_gains_from_topology,
    paper_topology,
)
from secrelay.montecarlo import Metric, estimate
from secrelay.policy import Scheme, c_params
from secrelay.specfun import EULER_GAMMA, maxexp_cdf, scaled_e1

SQRT2 = math.sqrt(2.0)


def single_relay(mu_rd=1.0) -> MeanGains:
    return MeanGains.iid(1, 0, mu_rd=mu_rd)


def three_relays() -> MeanGains:
    return MeanGains(
        mu_sr=np.ones(3),
        mu_rd=np.array([0.5, 1.0, 2.0]),
        mu_se=np.zeros(0),
        mu_ed=np.zeros(0),
        mu_sd=1.0,
    )


def dt_config(n_antennas, k, l, rho, model=EveModel.NCE) -> SystemConfig:
    return SystemConfig(
        n_antennas=n_antennas, n_relays=k, n_eves=l, snr_linear=rho, eve_model=model
    )


# ---------------------------------------------------------------------------
# thresholds


def test_leakage_floor_values_and_domain():
    assert leakage_floor(0.0) == pytest.approx(SQRT2, rel=1e-15)
    assert leakage_floor(1.0) == pytest.approx(2.0, rel=1e-15)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            leakage_floor(bad)


@pytest.mark.parametrize("rho", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_every_closed_form_refuses_a_non_positive_or_non_finite_snr(rho):
    # Each form checks rho once, through the mean gains it scales.
    gains = MeanGains.iid(3, 2)
    relayed = [sop_dbcj, sop_dbcj_asymptotic, ppos_dbcj, ppos_dbcj_asymptotic,
               esr_dbcj, ser_dbcj, ser_dbcj_asymptotic]
    for form in relayed:
        with pytest.raises(ValueError, match="transmit SNR rho"):
            form(gains, rho)
    for model in EveModel:
        cfg = dt_config(16, 3, 2, rho, model)
        for form in (ppos_dt, sop_dt, esr_dt_lb):
            with pytest.raises(ValueError, match="transmit SNR rho"):
                form(gains, cfg, model)


def test_outage_threshold_values():
    # target 0 reduces to B(1+B); at target 1 the bracket is 4(1+B)-1.
    b = SQRT2
    assert outage_threshold(0.0, 0.0) == pytest.approx(b * (1 + b), rel=1e-15)
    assert outage_threshold(0.0, 1.0) == pytest.approx(
        20.899494936611664, rel=1e-13
    )
    # 2^(2*0.5) = 2 exactly: (1+B)(1+2B) = 5+3*sqrt(2)
    assert outage_threshold(0.0, 0.5) == pytest.approx(
        5.0 + 3.0 * SQRT2, rel=1e-14
    )
    with pytest.raises(ValueError):
        outage_threshold(0.0, -1.0)
    with pytest.raises(ValueError):
        outage_threshold(-0.5, 1.0)


def test_relayed_outage_past_the_float_range_is_one():
    # 2^(2 Rt) overflows from Rt = 512: the forms raised OverflowError on a
    # target rate that validate accepts.
    g = three_relays()
    assert outage_threshold(0.0, 600.0) == math.inf
    assert sop_dbcj(g, 100.0, 0.5, 600.0) == 1.0
    assert sop_dbcj_asymptotic(g, 100.0, 0.5, 600.0) == math.inf


def test_direct_outage_past_the_float_range_is_one():
    # 2^Rt overflows from Rt = 1024.
    gains = MeanGains.iid(2, 3, mu_se=2.0)
    for model in EveModel:
        cfg = dt_config(16, 2, 3, 100.0, model)
        assert sop_dt(gains, cfg, model, 1100.0) == 1.0


def test_sop_asymptote_is_finite_where_its_value_is():
    # At K=25, Rt=20 and 20 dB the line is 1.47e270, but r_tilde^25 alone
    # overflowed.
    gains = mean_gains_from_topology(paper_topology(25, 0))
    with mpmath.workdps(40):
        b = mpmath.sqrt(2)
        r_tilde = (1 + b) * (mpmath.mpf(2) ** 40 * (1 + b) - 1)
        want = mpmath.fprod(r_tilde / (100 * mpmath.mpf(float(m))) for m in gains.mu_rd)
    got = sop_dbcj_asymptotic(gains, 100.0, 0.0, 20.0)
    assert 1e270 < got < 2e270
    assert got == pytest.approx(float(want), rel=1e-14)


@pytest.mark.parametrize("target_rate", [0.0, 1.0, 5.0])
def test_sop_is_the_product_cdf_at_the_outage_threshold(target_rate):
    # sop_dbcj forms no product of its own: it is maxexp_cdf, bit for bit.
    rng = np.random.default_rng(int(target_rate) + 31)
    for _ in range(50):
        k = int(rng.integers(1, 19))
        gains = MeanGains(np.ones(k), rng.uniform(0.01, 10.0, k), np.zeros(0), np.zeros(0), 1.0)
        rho, c = 10.0 ** rng.uniform(-1.0, 6.0), float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
        want = maxexp_cdf(gains.gbar_rd(rho), outage_threshold(c, target_rate))
        assert sop_dbcj(gains, rho, c, target_rate) == want


def test_threshold_types_frozen():
    bd = esr_dbcj(single_relay(), 10.0)
    assert isinstance(bd, EsrBreakdown)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bd.esr = 0.0


# ---------------------------------------------------------------------------
# positive-rate probability, relayed


def test_ppos_single_relay_value():
    # 1 - (1 - e^{-(2+sqrt2)/10}) = e^{-(2+sqrt2)/10}
    p = ppos_dbcj(single_relay(), 10.0)
    assert p == pytest.approx(math.exp(-(2.0 + SQRT2) / 10.0), rel=1e-14)
    assert p == pytest.approx(0.7107593622125608, rel=1e-13)


def test_ppos_limits_and_monotonicity():
    g1 = single_relay()
    assert ppos_dbcj(g1, 1e8) > 1.0 - 1e-6
    grid = [1.0, 3.0, 10.0, 100.0, 1e4]
    vals = [ppos_dbcj(g1, r) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # more relays help at any fixed rho
    assert ppos_dbcj(MeanGains.iid(3, 0), 5.0) > ppos_dbcj(g1, 5.0)


def test_ppos_asymptote_matches_exact_at_high_snr():
    g = three_relays()
    exact = ppos_dbcj(g, 1e4)
    asym = ppos_dbcj_asymptotic(g, 1e4)
    assert asym == pytest.approx(exact, abs=1e-9)
    # hand value for K=1: 1 - B(1+B)/gbar
    assert ppos_dbcj_asymptotic(single_relay(), 100.0) == pytest.approx(
        1.0 - (2.0 + SQRT2) / 100.0, rel=1e-14
    )


def test_ppos_matches_order_statistics_sampling():
    # Frequency of the best second hop clearing B(1+B), 1e6 draws, 3 sigma.
    g = three_relays()
    rho = 3.0
    p = ppos_dbcj(g, rho)
    thr = outage_threshold(0.0, 0.0)
    rng = np.random.default_rng(271)
    best = rng.exponential(rho * g.mu_rd, size=(10**6, 3)).max(axis=1)
    freq = float((best > thr).mean())
    sigma = math.sqrt(p * (1.0 - p) / 10**6)
    assert abs(freq - p) < 3.0 * sigma


# ---------------------------------------------------------------------------
# positive-rate probability, direct transmission


def test_ppos_dt_unit_means_value_and_snr_free():
    g = MeanGains.iid(1, 1)
    cfg = dt_config(16, 1, 1, 10.0)
    expected = (-math.expm1(-16.0)) ** 2
    assert ppos_dt(g, cfg, EveModel.NCE) == pytest.approx(expected, rel=1e-14)
    # both sides scale with rho, so the value cannot depend on it
    cfg_hi = dt_config(16, 1, 1, 1e6)
    assert ppos_dt(g, cfg_hi, EveModel.NCE) == pytest.approx(
        ppos_dt(g, cfg, EveModel.NCE), rel=1e-14
    )


def test_ppos_dt_antenna_and_node_trends():
    g = MeanGains.iid(1, 0)
    vals = [ppos_dt(g, dt_config(ns, 1, 0, 7.0), EveModel.NCE) for ns in (4, 16, 64, 256)]
    # saturates to 1.0 exactly in doubles once e^{-Ns} underflows the ulp
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[1] > vals[0]
    assert vals[-1] == 1.0
    # more malicious nodes, same antennas: strictly worse
    by_k = [
        ppos_dt(MeanGains.iid(k, 0), dt_config(4, k, 0, 7.0), EveModel.NCE)
        for k in range(1, 6)
    ]
    assert all(b < a for a, b in zip(by_k, by_k[1:]))


def test_ppos_dt_collusion_never_helps():
    g = MeanGains(
        mu_sr=np.array([4.0]),
        mu_rd=np.ones(1),
        mu_se=np.array([3.0, 5.0]),
        mu_ed=np.ones(2),
        mu_sd=1.0,
    )
    cfg = dt_config(16, 1, 2, 10.0, EveModel.CE)
    assert ppos_dt(g, cfg, EveModel.CE) < ppos_dt(g, cfg, EveModel.NCE)
    # a single eavesdropper has nothing to combine
    g1 = MeanGains.iid(1, 1)
    cfg1 = dt_config(16, 1, 1, 10.0)
    assert ppos_dt(g1, cfg1, EveModel.CE) == ppos_dt(g1, cfg1, EveModel.NCE)


# ---------------------------------------------------------------------------
# ergodic secrecy rate, relayed


def test_esr_single_relay_against_quadrature_constant():
    bd = esr_dbcj(single_relay(), 10.0)
    assert bd.esr == pytest.approx(0.34828587721600157, rel=1e-9)
    # closed form for one relay: e^s E1(s)/(2 ln2) - log2(1+B)/2 at s=(1+B)/gbar
    direct = scaled_e1((1.0 + SQRT2) / 10.0) / (2.0 * math.log(2.0)) - 0.5 * math.log2(
        1.0 + SQRT2
    )
    assert bd.esr == pytest.approx(direct, rel=1e-13)


def test_esr_matches_quadrature_oracle():
    g = MeanGains(
        mu_sr=np.ones(2),
        mu_rd=np.array([0.5, 2.0]),
        mu_se=np.zeros(0),
        mu_ed=np.zeros(0),
        mu_sd=1.0,
    )
    for c in (0.0, 0.8):
        oracle = esr_quadrature_oracle(g, 50.0, c)
        assert esr_dbcj(g, 50.0, c).esr == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("k,c", [(14, 0.0), (16, 0.0), (16, 2.0), (18, 0.0), (18, 2.0)])
def test_esr_matches_quadrature_on_large_relay_sets(k, c):
    # Tolerance: the scipy oracle's own (epsrel 1e-11).  The ergodic term is
    # good to ~1e-16; test_esr_matches_mpmath_up_to_k20 holds it to 1e-13.
    g = mean_gains_from_topology(paper_topology(k, 0))
    oracle = esr_quadrature_oracle(g, 10.0, c)
    assert esr_dbcj(g, 10.0, c).esr == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize("k", [1, 2, 4, 8, 12, 18, 20])
def test_esr_matches_mpmath_up_to_k20(k):
    # The 2^K power offset, not the ergodic term, makes K=25 cost ~17 s.
    # Below 10 dB the clamp at zero hides the ergodic term at small K.
    cases = [(ring, db, 0.0) for ring in (0.02, 0.1) for db in (10, 20, 40, 60)]
    for ring, db, c in cases + [(0.1, 20, 2.0)]:
        g = mean_gains_from_topology(paper_topology(k, 0, relay_ring=ring))
        rho = 10.0 ** (db / 10.0)
        b = leakage_floor(c)
        want = log_expect_mp(g.gbar_rd(rho), 1.0 + b) / (2.0 * math.log(2.0))
        want -= 0.5 * math.log2(1.0 + b)
        assert want > 0.0
        assert esr_dbcj(g, rho, c).esr == pytest.approx(want, rel=1e-13), (ring, db, c)


def test_esr_slope_is_half_and_affine_identity():
    for k, c, rho in ((1, 0.0, 10.0), (3, 0.0, 100.0), (2, 1.5, 40.0)):
        bd = esr_dbcj(MeanGains.iid(k, 0), rho, c)
        assert bd.high_snr_slope == 0.5
        assert bd.asymptotic_esr == pytest.approx(
            0.5 * (math.log2(rho) - bd.power_offset), abs=1e-9
        )
    # distinct means exercise the subset sum inside the offset
    bd = esr_dbcj(three_relays(), 25.0, 0.4)
    assert bd.asymptotic_esr == pytest.approx(
        0.5 * (math.log2(25.0) - bd.power_offset), abs=1e-9
    )


def test_esr_asymptote_hand_value_single_relay():
    # E[ln gamma] = ln(gbar) - eulergamma for one exponential link
    bd = esr_dbcj(single_relay(), 40.0)
    expected = (math.log(40.0) - EULER_GAMMA) / (2.0 * math.log(2.0)) - math.log2(
        1.0 + SQRT2
    )
    assert bd.asymptotic_esr == pytest.approx(expected, rel=1e-12)


def test_esr_asymptote_matches_the_subset_sum_of_log_means():
    # The asymptote is (E[ln gamma_max] - ln(1+B)^2)/(2 ln2), where
    # E[ln gamma_max] = sum over non-empty subsets u of (-1)^|u| (ln s_u +
    # eulergamma): summed here subset by subset, with distinct means.
    g = three_relays()
    for rho, c in ((25.0, 0.4), (1e4, 0.0)):
        rates = 1.0 / g.gbar_rd(rho)
        e_ln = math.fsum((-1.0) ** len(u) * (math.log(rates[list(u)].sum()) + EULER_GAMMA)
                         for n in (1, 2, 3) for u in itertools.combinations(range(3), n))
        want = e_ln / (2.0 * math.log(2.0)) - math.log2(1.0 + leakage_floor(c))
        assert esr_dbcj(g, rho, c).asymptotic_esr == pytest.approx(want, rel=1e-12)


def test_esr_asymptote_converges():
    bd = esr_dbcj(MeanGains.iid(2, 0), 1e6)
    assert abs(bd.esr - bd.asymptotic_esr) < 1e-4


def test_esr_clamped_at_zero_for_weak_channels():
    bd = esr_dbcj(MeanGains.iid(2, 0), 1e-3)
    assert bd.esr == 0.0
    assert bd.asymptotic_esr < 0.0  # the affine line is reported unclamped


def test_esr_monotone_in_snr_relays_and_collusion():
    rhos = [1.0, 10.0, 100.0, 1e3]
    vals = [esr_dbcj(MeanGains.iid(2, 0), r).esr for r in rhos]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    by_k = [esr_dbcj(MeanGains.iid(k, 0), 100.0).esr for k in range(1, 6)]
    assert all(b > a for a, b in zip(by_k, by_k[1:]))
    by_c = [esr_dbcj(MeanGains.iid(2, 0), 100.0, c).esr for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(by_c, by_c[1:]))


# ---------------------------------------------------------------------------
# ergodic secrecy rate, direct transmission


def test_esr_dt_lb_single_node_penalty():
    # K+L=1: bound = log2(1+Ns*gbar_sd) - e^s E1(s)/ln2 at s = 1/(rho*mu_sr)
    g = MeanGains.iid(1, 0, mu_sr=0.5)
    cfg = dt_config(8, 1, 0, 10.0)
    expected = math.log2(1.0 + 8 * 10.0) - scaled_e1(1.0 / 5.0) / math.log(2.0)
    assert esr_dt_lb(g, cfg, EveModel.NCE) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("db", [0, 10, 30])
def test_esr_dt_lb_matches_mpmath_at_55_leakages(db):
    # Without collusion the bound is the max over all K+L = 55 leakages,
    # past the 25-rate ceiling of a subset sum.
    g = mean_gains_from_topology(paper_topology(5, 50))
    cfg = dt_config(16, 5, 50, 10.0 ** (db / 10.0))
    rho = cfg.snr_linear
    want = math.log2(1.0 + 16 * rho * g.mu_sd)
    want -= log_expect_mp(g.leak_means_dt(rho), 1.0) / math.log(2.0)
    assert want > 0.0
    assert esr_dt_lb(g, cfg, EveModel.NCE) == pytest.approx(want, rel=1e-13)


def test_esr_dt_lb_matches_leakage_sampling():
    # Monte-Carlo of the bound itself: hardened main link, sampled leakage.
    g = MeanGains.iid(2, 2)
    n = 10**5
    cap = math.log2(1.0 + 16 * 100.0)
    for model in (EveModel.NCE, EveModel.CE):
        cfg = dt_config(16, 2, 2, 100.0, model)
        lb = esr_dt_lb(g, cfg, model)
        rng = np.random.default_rng(11)
        rel = rng.exponential(100.0, size=(n, 2)).max(axis=1)
        eve = rng.exponential(100.0, size=(n, 2))
        eve = eve.max(axis=1) if model is EveModel.NCE else eve.sum(axis=1)
        samples = cap - np.log2(1.0 + np.maximum(rel, eve))
        sigma = samples.std(ddof=1) / math.sqrt(n)
        assert abs(lb - samples.mean()) < 3.0 * sigma


def test_esr_dt_lb_near_full_simulation_when_hardened():
    # At 64 antennas the hardening error is ~0.01 bits; at 16 it is ~0.05.
    g = MeanGains.iid(2, 2)
    cfg = dt_config(64, 2, 2, 100.0)
    cfg = dataclasses.replace(cfg, master_seed=41)
    lb = esr_dt_lb(g, cfg, EveModel.NCE)
    est = estimate(Metric.ESR, Scheme.DT, cfg, g, 20000)
    assert abs(lb - est.value) < 0.05


def test_esr_dt_lb_ceiling_in_snr():
    g = MeanGains.iid(2, 2)
    vals = [
        esr_dt_lb(g, dt_config(16, 2, 2, rho), EveModel.NCE)
        for rho in (1e2, 1e4, 1e6, 1e8)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - vals[-2]) < 1e-4


def test_esr_dt_lb_collusion_and_degenerate_cases():
    g = MeanGains.iid(2, 2)
    cfg = dt_config(16, 2, 2, 100.0)
    assert esr_dt_lb(g, cfg, EveModel.CE) < esr_dt_lb(g, cfg, EveModel.NCE)
    g0 = MeanGains.iid(2, 0)
    cfg0 = dt_config(16, 2, 0, 100.0)
    assert esr_dt_lb(g0, cfg0, EveModel.CE) == esr_dt_lb(g0, cfg0, EveModel.NCE)
    # equal-mean eavesdroppers need no path of their own
    g_eq = MeanGains.iid(2, 3, mu_se=1.0)
    val = esr_dt_lb(g_eq, dt_config(16, 2, 3, 50.0, EveModel.CE), EveModel.CE)
    assert math.isfinite(val) and val >= 0.0


@pytest.mark.parametrize(
    "mu_se",
    [[0.6, 1.1, 1.7, 2.9], [1.3] * 4, [0.8, 0.8, 0.8, 2.0, 2.0]],
    ids=["distinct", "all-merged", "two-merged-groups"],
)
def test_esr_dt_lb_collusion_equals_the_scalar_loop(mu_se):
    # The vectorized collusion branch against one scalar tail integral per
    # subset, at distinct, all-equal and grouped eavesdropper means.
    l = len(mu_se)
    g = MeanGains(
        mu_sr=np.array([0.4, 0.7, 1.0, 1.3, 1.9, 2.2, 3.1, 4.0]),
        mu_rd=np.ones(8),
        mu_se=np.array(mu_se),
        mu_ed=np.ones(l),
        mu_sd=1.0,
    )
    for rho in (0.3, 10.0, 300.0):
        cfg = dt_config(16, 8, l, rho, EveModel.CE)
        got = esr_dt_lb(g, cfg, EveModel.CE)
        assert got > 0.0
        assert got == ref.esr_dt_lb_collusion(g, cfg)


@pytest.mark.parametrize("l,want", [(8, 4.069997), (10, 3.737639), (16, 3.038086),
                                    (50, 1.368452)])
def test_esr_dt_lb_collusion_holds_at_many_close_eavesdroppers(l, want):
    # In paper_topology(5, L) neighbouring eavesdropper means differ by 2.4e-2
    # (L=8) down to 6.9e-4 (L=50) relative, and mirror pairs share one.  The
    # partial-fraction form returned 4.070041, 3.657790, 0.0 and 0.0.
    g = mean_gains_from_topology(paper_topology(5, l))
    got = esr_dt_lb(g, dt_config(16, 5, l, 100.0, EveModel.CE), EveModel.CE)
    assert got == pytest.approx(want, abs=1e-6)


def test_esr_dt_lb_collusion_at_fifty_eavesdroppers_and_0_db():
    # The partial-fraction form returned 8.213e62 here.
    g = mean_gains_from_topology(paper_topology(8, 50))
    got = esr_dt_lb(g, dt_config(256, 8, 50, 1.0, EveModel.CE), EveModel.CE)
    assert got == pytest.approx(5.15774, abs=1e-5)


def test_sop_dt_collusion_at_fifty_eavesdroppers():
    # The partial-fraction CDF of the eavesdroppers' sum came out as 1.0, so
    # sop_dt returned 0.0.
    g = mean_gains_from_topology(paper_topology(5, 50))
    got = sop_dt(g, dt_config(16, 5, 50, 100.0, EveModel.CE), EveModel.CE)
    assert got == pytest.approx(0.0316622, rel=2e-6)


# (K, L, dB) on paper_topology at Ns=256: K over 1..10, L over 1..50, -10 to 60 dB.
DT_COLLUSION_POINTS = [
    (1, 1, -10), (2, 3, 0), (3, 5, 10), (4, 8, 20), (5, 10, 30), (6, 16, 40), (7, 20, 50),
    (8, 30, 60), (9, 50, -10), (10, 2, 20), (1, 40, 30), (2, 16, 60), (3, 30, -10),
    (4, 1, 40), (5, 24, 20), (6, 4, 0), (7, 8, 10), (8, 50, 0), (9, 12, 40), (10, 5, 60),
]


def test_esr_dt_lb_collusion_matches_quadrature():
    # Against adaptive quadrature of ((1 - F_M) + F_M P[S > x])/(1 + x):
    # positive, with no relay subsets and no tail integral.
    for k, l, db in DT_COLLUSION_POINTS:
        g = mean_gains_from_topology(paper_topology(k, l))
        cfg = dt_config(256, k, l, 10.0 ** (db / 10.0), EveModel.CE)
        want = esr_dt_lb_ce_quad(g, cfg)
        assert want > 1.0
        assert esr_dt_lb(g, cfg, EveModel.CE) == pytest.approx(want, rel=1e-12), (k, l, db)


@pytest.mark.parametrize("db", [0.0, 30.0])
@pytest.mark.parametrize("k", [1, 5, 12, 18])
def test_signed_subset_forms_equal_their_fsum_copies(k, db):
    # Pinned bit-identity: the power offset, the SER and the collusion DT
    # bound add their subset terms exactly and round once, as math.fsum does,
    # with and without the collusion penalty.
    g = mean_gains_from_topology(paper_topology(k, 4))
    rho = 10.0 ** (db / 10.0)
    cfg = dt_config(64, k, 4, rho, EveModel.CE)
    for c in (0.0, c_params(g, cfg).c):
        assert esr_dbcj(g, rho, c).power_offset == ref.power_offset_fsum(g, c)
        for mod in (Modulation.psk(4), Modulation.qam(16)):
            assert ser_dbcj(g, rho, c, mod) == ref.ser_dbcj_fsum(g, rho, c, mod)
    got = esr_dt_lb(g, cfg, EveModel.CE)
    assert got > 0.0
    assert got == ref.esr_dt_lb_collusion_fsum(g, cfg)


# ---------------------------------------------------------------------------
# secrecy outage, relayed


def test_sop_single_relay_value():
    s = sop_dbcj(single_relay(), 100.0, 0.0, 1.0)
    assert s == pytest.approx(-math.expm1(-20.899494936611664 / 100.0), rel=1e-14)
    assert s == pytest.approx(0.18860066628596972, rel=1e-13)


def test_sop_zero_target_complements_ppos_exactly():
    for g, rho, c in (
        (single_relay(), 10.0, 0.0),
        (three_relays(), 4.0, 0.7),
        (MeanGains.iid(2, 0, mu_rd=3.0), 0.5, 2.0),
    ):
        assert sop_dbcj(g, rho, c, 0.0) + ppos_dbcj(g, rho, c) == 1.0


def test_sop_asymptote_slope_is_minus_k():
    g = three_relays()
    a1, a2 = sop_dbcj_asymptotic(g, 1e3), sop_dbcj_asymptotic(g, 1e5)
    slope = math.log(a2 / a1) / math.log(1e5 / 1e3)
    assert slope == pytest.approx(-3.0, abs=1e-12)
    assert sop_dbcj(g, 1e5) == pytest.approx(sop_dbcj_asymptotic(g, 1e5), rel=5e-3)


def test_sop_monotone_in_snr_and_collusion():
    g = MeanGains.iid(2, 0)
    vals = [sop_dbcj(g, rho) for rho in (1.0, 10.0, 100.0, 1e3)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    by_c = [sop_dbcj(g, 100.0, c) for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(by_c, by_c[1:]))


# ---------------------------------------------------------------------------
# secrecy outage, direct transmission


def test_sop_dt_matches_leakage_sampling():
    # K=L=1, equal leak means, target rate 1: threshold (1+160)/2 - 1 = 79.5.
    g = MeanGains.iid(1, 1, mu_sr=4.0, mu_se=4.0)
    cfg = dt_config(16, 1, 1, 10.0)
    closed = sop_dt(g, cfg, EveModel.NCE, 1.0)
    rng = np.random.default_rng(509)
    n = 10**6
    leak = rng.exponential(40.0, size=(n, 2)).max(axis=1)
    freq = float((leak > 79.5).mean())
    sigma = math.sqrt(closed * (1.0 - closed) / n)
    assert abs(freq - closed) < 3.0 * sigma

    # colluding variant with distinct eavesdropper means
    g_ce = MeanGains(
        mu_sr=np.array([4.0]),
        mu_rd=np.ones(1),
        mu_se=np.array([3.0, 5.0]),
        mu_ed=np.ones(2),
        mu_sd=1.0,
    )
    cfg_ce = dt_config(16, 1, 2, 10.0, EveModel.CE)
    closed = sop_dt(g_ce, cfg_ce, EveModel.CE, 1.0)
    summed = rng.exponential(30.0, size=n) + rng.exponential(50.0, size=n)
    worst = np.maximum(rng.exponential(40.0, size=n), summed)
    freq = float((worst > 79.5).mean())
    sigma = math.sqrt(closed * (1.0 - closed) / n)
    assert abs(freq - closed) < 3.0 * sigma


def test_sop_dt_near_full_simulation_when_hardened():
    g = MeanGains.iid(1, 1, mu_sr=16.0, mu_se=16.0)
    cfg = dt_config(64, 1, 1, 10.0)
    cfg = dataclasses.replace(cfg, master_seed=7)
    closed = sop_dt(g, cfg, EveModel.NCE, 1.0)
    est = estimate(Metric.SOP, Scheme.DT, cfg, g, 20000)
    assert abs(closed - est.value) < 0.03


def test_sop_dt_antenna_limit_and_snr_floor():
    g = MeanGains.iid(1, 1, mu_sr=16.0, mu_se=16.0)
    by_ns = [
        sop_dt(g, dt_config(ns, 1, 1, 10.0), EveModel.NCE, 1.0)
        for ns in (16, 64, 256, 1024)
    ]
    assert all(b < a for a, b in zip(by_ns, by_ns[1:]))
    assert by_ns[-1] < 1e-6
    # fixed antennas: raising the SNR stalls at a nonzero floor
    f1 = sop_dt(g, dt_config(16, 1, 1, 1e6), EveModel.NCE, 1.0)
    f2 = sop_dt(g, dt_config(16, 1, 1, 1e8), EveModel.NCE, 1.0)
    assert f2 > 0.5
    assert abs(f2 - f1) < 1e-5


def test_sop_dt_edge_cases():
    g = MeanGains.iid(1, 0)
    # main link too weak for the target at all
    cfg = dt_config(1, 1, 0, 0.001)
    assert sop_dt(g, cfg, EveModel.NCE, 4.0) == 1.0
    with pytest.raises(ValueError):
        sop_dt(g, cfg, EveModel.NCE, -1.0)
    # zero target complements the positive-rate probability
    cfg = dt_config(16, 1, 0, 10.0)
    total = sop_dt(g, cfg, EveModel.NCE, 0.0) + ppos_dt(g, cfg, EveModel.NCE)
    assert total == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("k, l", [(1, 0), (3, 5)])
def test_sop_dt_at_zero_target_is_the_exact_complement_of_ppos_dt(k, l):
    # The threshold used to be (1 + y) - 1 for main link y, which rounds:
    # below 0 dB the two summed to 1 +- 1e-12.
    g = MeanGains.iid(k, l)
    for ns in (2, 16, 256):
        for db in range(-60, 61, 10):
            for model in EveModel:
                cfg = dt_config(ns, k, l, 10.0 ** (db / 10.0), model)
                assert sop_dt(g, cfg, model, 0.0) + ppos_dt(g, cfg, model) == 1.0, (ns, db)


# ---------------------------------------------------------------------------
# symbol error rate


def test_ser_single_relay_value():
    # alpha=2, beta=1: 1 - 1/sqrt(1 + (2+2*sqrt2)/gbar)
    s = ser_dbcj(single_relay(), 100.0)
    assert s == pytest.approx(
        1.0 - 1.0 / math.sqrt(1.0 + (2.0 + 2.0 * SQRT2) / 100.0), rel=1e-13
    )
    assert s == pytest.approx(0.023301624861094217, rel=1e-13)


def test_ser_matches_quadrature_oracle():
    g = MeanGains(
        mu_sr=np.ones(2),
        mu_rd=np.array([0.5, 2.0]),
        mu_se=np.zeros(0),
        mu_ed=np.zeros(0),
        mu_sd=1.0,
    )
    assert ser_dbcj(single_relay(), 100.0) == pytest.approx(
        ser_quadrature_oracle(single_relay(), 100.0), rel=1e-8
    )
    for mod in (Modulation.psk(4), Modulation.qam(16)):
        closed = ser_dbcj(g, 50.0, 0.3, mod)
        oracle = ser_quadrature_oracle(g, 50.0, 0.3, mod)
        assert closed == pytest.approx(oracle, rel=1e-8)


def test_ser_asymptote_single_relay_coefficient():
    # alpha (2K)! (1+B)^K / (beta^K 2^{K+1} K! prod gbar) at K=1, QPSK
    val = ser_dbcj_asymptotic(single_relay(), 200.0)
    assert val == pytest.approx(2.0 * 2 * (1.0 + SQRT2) / (4.0 * 200.0), rel=1e-14)


def test_ser_asymptote_slope_and_convergence():
    g = MeanGains.iid(2, 0)
    a1, a2 = ser_dbcj_asymptotic(g, 1e3), ser_dbcj_asymptotic(g, 1e5)
    slope = math.log(a2 / a1) / math.log(1e5 / 1e3)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert ser_dbcj(g, 1e4) == pytest.approx(ser_dbcj_asymptotic(g, 1e4), rel=0.01)


def test_ser_monotone_and_bounded():
    g = MeanGains.iid(2, 0)
    vals = [ser_dbcj(g, rho) for rho in (1.0, 10.0, 100.0, 1e3)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    by_c = [ser_dbcj(g, 100.0, c) for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(by_c, by_c[1:]))
    assert 0.0 < ser_dbcj(g, 10.0, 0.0, Modulation.qam(16)) < 1.0


# ---------------------------------------------------------------------------
# diversity-multiplexing


def test_dmt_secrecy_values():
    assert dmt_secrecy(5, 0.0) == 5.0
    assert dmt_secrecy(5, 0.5) == 0.0
    assert dmt_secrecy(4, 0.25) == 2.0


def test_dmt_reliability_values():
    assert dmt_reliability(5, 0.0) == 5.0
    assert dmt_reliability(5, 1.0) == 0.0
    assert dmt_reliability(2, 0.5) == 1.0


def test_dmt_relay_phase_halves_the_gain():
    for k in (1, 3, 7):
        for r in (0.0, 0.2, 0.5):
            assert dmt_secrecy(k, r) == dmt_reliability(k, 2.0 * r)


def test_dmt_domain_errors():
    for bad in (-0.01, 0.51, math.nan):
        with pytest.raises(ValueError):
            dmt_secrecy(3, bad)
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            dmt_reliability(3, bad)
    with pytest.raises(ValueError):
        dmt_secrecy(0, 0.1)
