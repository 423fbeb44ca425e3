"""Package-level acceptance checks.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE n: PASS/FAIL (...)`` line before asserting, so a ``-rP``
run shows the whole scorecard at once.  Seeds and tolerances are pinned;
the slow entries (2, 3, 10) budget a few minutes between them.
"""

import math
import warnings

import numpy as np
from scipy import stats

from quadrature_reference import esr_quadrature_oracle, ser_quadrature_oracle
from secrelay.analytics import (
    esr_dbcj,
    ppos_dbcj,
    ser_dbcj,
    ser_dbcj_asymptotic,
    sop_dbcj,
)
from secrelay.channel import draw_batch, leakage_batch, sinr_destination
from secrelay.model import (
    EveModel,
    MeanGains,
    SystemConfig,
    mean_gains_from_topology,
    paper_topology,
)
from secrelay.montecarlo import (
    Metric,
    estimate,
    estimate_from_trace,
    simulate,
    sweep,
)
from secrelay.policy import (
    RegimeWarning,
    Scheme,
    c_params,
    opa_nce,
    run_scheme_batch,
    secrecy_rate,
)
from secrelay.specfun import (
    EULER_GAMMA,
    digamma_int,
    hypoexp_cdf,
    maxexp_cdf,
    scaled_e1,
    signed_subset_eval,
)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _gains(mu_rd):
    mu_rd = np.asarray(mu_rd, dtype=float)
    k = mu_rd.size
    return MeanGains(
        mu_sr=np.ones(k),
        mu_rd=mu_rd,
        mu_se=np.zeros(0),
        mu_ed=np.zeros(0),
        mu_sd=1.0,
    )


def test_acceptance_01_closed_forms_match_quadrature():
    mixes = (
        [5.0], [10.0], [100.0],
        [5.0, 10.0], [5.0, 100.0], [10.0, 100.0],
        [5.0, 10.0, 100.0],
    )
    worst = 0.0
    for mix in mixes:
        g = _gains(mix)
        for c in (0.0, 0.5):
            pairs = (
                (esr_dbcj(g, 1.0, c).esr, esr_quadrature_oracle(g, 1.0, c)),
                (ser_dbcj(g, 1.0, c), ser_quadrature_oracle(g, 1.0, c)),
            )
            for closed, oracle in pairs:
                worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-300))
    _report(1, worst <= 1e-8, f"28 comparisons, worst relative gap {worst:.2e}")


def test_acceptance_02_closed_esr_matches_large_simulation():
    gains = mean_gains_from_topology(paper_topology(5, 5))
    cfg = SystemConfig(n_antennas=256, n_relays=5, n_eves=5, snr_linear=100.0)
    closed = esr_dbcj(gains, 100.0).esr
    sim = estimate(Metric.ESR, Scheme.JRP, cfg, gains, 10**6, seed=0)
    rel = abs(sim.value - closed) / closed
    _report(
        2,
        rel < 0.02,
        f"closed {closed:.4f} vs simulated {sim.value:.4f}, gap {rel:.2%}",
    )


def test_acceptance_03_sop_decays_at_relay_count_order():
    parts = []
    ok = True
    dbs = np.linspace(30.0, 40.0, 5)
    rhos = 10.0 ** (dbs / 10.0)
    for k in (1, 3, 5):
        g = MeanGains.iid(k, 0)
        vals = np.array([sop_dbcj(g, float(r)) for r in rhos])
        slope = float(np.polyfit(np.log10(rhos), np.log10(vals), 1)[0])
        ok = ok and abs(slope + k) <= 0.1 * k
        parts.append(f"K={k} slope {slope:.3f}")

    g2 = MeanGains.iid(2, 0)
    rho = 10.0**3.5
    cfg = SystemConfig(n_antennas=64, n_relays=2, n_eves=0, snr_linear=rho)
    closed = sop_dbcj(g2, rho)
    sim = estimate(Metric.SOP, Scheme.JRP, cfg, g2, 10**6, seed=0)
    sigma = math.sqrt(closed * (1.0 - closed) / 10**6)
    z = (sim.value - closed) / sigma
    # ~43 expected outages are too few for a normal 3-sigma bound: use the
    # exact two-sided binomial test at that bound's level instead.
    p = stats.binomtest(round(sim.value * 10**6), 10**6, closed).pvalue
    ok = ok and p >= 2.7e-3
    parts.append(f"mc check z {z:+.2f}, p {p:.3g}")
    _report(3, ok, "; ".join(parts))


def test_acceptance_04_ser_asymptote_decays_at_relay_count_order():
    parts = []
    ok = True
    rhos = 10.0 ** (np.array([30.0, 35.0, 40.0]) / 10.0)
    for k in (1, 5):
        g = MeanGains.iid(k, 0)
        vals = np.array([ser_dbcj_asymptotic(g, float(r)) for r in rhos])
        slope = float(np.polyfit(np.log10(rhos), np.log10(vals), 1)[0])
        ok = ok and abs(slope + k) <= 0.05 * k
        parts.append(f"K={k} slope {slope:.3f}")
    _report(4, ok, "; ".join(parts))


def test_acceptance_05_high_snr_esr_slope_is_half():
    denom = math.log2(1e6) - math.log2(1e5)
    parts = []
    ok = True
    for k in (1, 5):
        for c in (0.0, 1.0):
            g = MeanGains.iid(k, 0)
            slope = (esr_dbcj(g, 1e6, c).esr - esr_dbcj(g, 1e5, c).esr) / denom
            ok = ok and abs(slope - 0.5) <= 0.05
            parts.append(f"K={k} c={c:g}: {slope:.4f}")
    _report(5, ok, "; ".join(parts))


def test_acceptance_06_direct_transmission_rate_ceiling():
    gains = MeanGains.iid(5, 5)
    cfg = SystemConfig(
        n_antennas=16, n_relays=5, n_eves=5, snr_linear=1.0, master_seed=0
    )
    pts = sweep(Metric.ESR, Scheme.DT, cfg, gains, [30.0, 40.0], 10**5)
    delta = pts[1][1].value - pts[0][1].value
    _report(
        6,
        abs(delta) < 0.05,
        f"esr 30dB {pts[0][1].value:.4f}, 40dB {pts[1][1].value:.4f}, "
        f"delta {delta:+.4f}",
    )


def test_acceptance_07_esr_grows_with_relay_count():
    ks = range(1, 11)
    plain = [esr_dbcj(MeanGains.iid(k, 5), 100.0).esr for k in ks]
    coll = []
    for k in ks:
        g = MeanGains.iid(k, 5)
        cfg = SystemConfig(
            n_antennas=256, n_relays=k, n_eves=5,
            snr_linear=100.0, eve_model=EveModel.CE,
        )
        coll.append(esr_dbcj(g, 100.0, c_params(g, cfg).c).esr)
    ok = all(b > a for a, b in zip(plain, plain[1:]))
    ok = ok and all(b > a for a, b in zip(coll, coll[1:]))
    _report(
        7,
        ok,
        f"K=1..10 strictly rising: c=0 {plain[0]:.3f}->{plain[-1]:.3f}, "
        f"collusion c {coll[0]:.3f}->{coll[-1]:.3f}",
    )


def test_acceptance_08_closed_split_is_near_numeric_optimum():
    gains = MeanGains.iid(5, 0)
    cfg = SystemConfig(n_antennas=1024, n_relays=5, n_eves=0, snr_linear=100.0)
    batch = draw_batch(gains, cfg, 101, 0, 1000)
    res = run_scheme_batch(batch, Scheme.JRP, cfg)
    rows, relay = np.arange(1000), res.selected_relay
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        lam = opa_nce(batch.g_sr[rows, relay], batch.g_rd[rows, relay])
    rate = secrecy_rate(
        sinr_destination(batch, relay, lam),
        leakage_batch(batch, relay, lam, EveModel.NCE),
    )
    hits = int(np.count_nonzero(rate >= 0.99 * res.rate))
    _report(8, hits >= 950, f"{hits}/1000 trials within 1% of the numeric rate")


def test_acceptance_09_jrp_leakage_sits_near_its_design_point():
    gains = mean_gains_from_topology(paper_topology(5, 5))
    cfg = SystemConfig(n_antennas=256, n_relays=5, n_eves=5, snr_linear=100.0)
    batch = draw_batch(gains, cfg, 0, 0, 10**4)
    res = run_scheme_batch(batch, Scheme.JRP, cfg)
    mean_e = float(res.gamma_e.mean())
    _report(
        9,
        1.34 <= mean_e <= 1.49,
        f"mean eavesdropper SINR {mean_e:.4f} in [1.34, 1.49], "
        f"sqrt(2) is {math.sqrt(2.0):.4f}",
    )


def test_acceptance_10_scheme_ordering_on_matched_draws():
    gains = mean_gains_from_topology(paper_topology(5, 5))
    cfg = SystemConfig(n_antennas=16, n_relays=5, n_eves=5, snr_linear=100.0)
    chain = [Scheme.EXACT_JRP, Scheme.JRP, Scheme.OPRR, Scheme.EPRR]
    traces = simulate(cfg, gains, chain + [Scheme.DT], 10**5, seed=0)
    esr = {s: estimate_from_trace(Metric.ESR, traces[s], cfg) for s in traces}
    ok = True
    for a, b in zip(chain, chain[1:]):
        slack = 3.0 * (esr[a].std_error + esr[b].std_error)
        ok = ok and esr[a].value >= esr[b].value - slack
    ser_dt = estimate_from_trace(Metric.SER, traces[Scheme.DT], cfg).value
    ser_jrp = estimate_from_trace(Metric.SER, traces[Scheme.JRP], cfg).value
    ok = ok and ser_dt < ser_jrp
    _report(
        10,
        ok,
        "esr " + " >= ".join(f"{esr[s].value:.3f}" for s in chain)
        + f"; ser dt {ser_dt:.2e} < jrp {ser_jrp:.2e}",
    )


def test_acceptance_11_special_function_spot_values():
    checks = [
        (-math.exp(-1.0) * scaled_e1(1.0), -0.2193839343955205),
        (hypoexp_cdf([1.0, 2.0], 1.0), 1.0 + math.exp(-1.0) - 2.0 * math.exp(-0.5)),
        (maxexp_cdf([1.0, 1.0], 1.0), (1.0 - math.exp(-1.0)) ** 2),
        (maxexp_cdf([2.0], 2.0), 1.0 - math.exp(-1.0)),
        (signed_subset_eval([0.5, 1.5, 2.5], lambda sz, s: np.ones_like(s)), -1.0),
    ]
    checks += [
        (digamma_int(k + 1) + EULER_GAMMA, math.fsum(1.0 / j for j in range(1, k + 1)))
        for k in (1, 2, 5, 10)
    ]
    worst = max(abs(got - want) for got, want in checks)
    _report(11, worst <= 1e-10, f"{len(checks)} spot values, worst abs err {worst:.1e}")


def test_acceptance_12_complement_and_affine_identities():
    gain_sets = (MeanGains.iid(1, 0), MeanGains.iid(3, 0), _gains([0.5, 2.0]))
    rhos = (2.0, 10.0, 400.0)
    exact = all(
        sop_dbcj(g, rho, target_rate=0.0) + ppos_dbcj(g, rho) == 1.0
        for g in gain_sets
        for rho in rhos
    )
    worst = 0.0
    for g in gain_sets:
        for rho in rhos:
            for c in (0.0, 0.7):
                bd = esr_dbcj(g, rho, c)
                line = bd.high_snr_slope * (math.log2(rho) - bd.power_offset)
                worst = max(worst, abs(bd.asymptotic_esr - line))
    _report(
        12,
        exact and worst <= 1e-9,
        f"outage complement exact on 9 cases, worst affine gap {worst:.1e}",
    )
