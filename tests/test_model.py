import math

import numpy as np
import pytest

from secrelay.model import (
    MAX_RELAYS,
    MAX_SNR_DB,
    MAX_SNR_LINEAR,
    ConfigError,
    EveModel,
    MeanGains,
    Modulation,
    SystemConfig,
    Topology,
    TopologyError,
    mean_gains_from_topology,
    paper_topology,
    validate,
)


def test_qam_constants():
    m = Modulation.qam(16)
    assert math.isclose(m.alpha_m, 3.0, rel_tol=1e-15)
    assert math.isclose(m.beta_m, 0.2, rel_tol=1e-15)
    assert m.name == "qam16"


def test_four_qam_equals_qpsk():
    qam4 = Modulation.qam(4)
    qpsk = Modulation.psk(4)
    assert math.isclose(qam4.alpha_m, qpsk.alpha_m, rel_tol=1e-15)
    assert math.isclose(qam4.beta_m, qpsk.beta_m, rel_tol=1e-15)
    assert qpsk.alpha_m == 2.0
    assert math.isclose(qpsk.beta_m, 1.0, rel_tol=1e-15)
    assert qpsk.name == "qpsk"
    assert Modulation.psk(8).name == "psk8"


def test_modulation_rejects_bad_orders():
    with pytest.raises(ConfigError):
        Modulation.qam(5)
    with pytest.raises(ConfigError):
        Modulation.qam(2)
    with pytest.raises(ConfigError):
        Modulation.psk(2)


def test_with_snr_db():
    cfg = SystemConfig(n_antennas=8, n_relays=2, n_eves=0, snr_linear=1.0)
    assert math.isclose(cfg.with_snr_db(20.0).snr_linear, 100.0, rel_tol=1e-12)
    assert cfg.with_snr_db(0.0).snr_linear == 1.0
    assert cfg.with_snr_db(20.0).n_antennas == 8


@pytest.mark.parametrize("snr_db, linear", [(4000.0, math.inf), (-4000.0, 0.0)])
def test_with_snr_db_past_the_float_range(snr_db, linear):
    # Saturates instead of raising OverflowError; validate refuses both ends.
    cfg = SystemConfig(n_antennas=8, n_relays=2, n_eves=0, snr_linear=1.0).with_snr_db(snr_db)
    assert cfg.snr_linear == linear
    with pytest.raises(ConfigError, match="snr_linear"):
        validate(cfg)


def test_validate_caps_the_snr_at_200_db():
    # Past the cap the relayed SINR products can overflow to NaN, which the
    # split search takes for a real leakage; validate refuses those SNRs.
    cfg = SystemConfig(n_antennas=8, n_relays=3, n_eves=2, snr_linear=1.0)
    validate(cfg.with_snr_db(MAX_SNR_DB))
    assert cfg.with_snr_db(MAX_SNR_DB).snr_linear == MAX_SNR_LINEAR == 1e20
    for snr_db in (200.001, 1520.0):
        with pytest.raises(ConfigError, match=r"snr_linear must be <= 1e\+20 \(200 dB\)"):
            validate(cfg.with_snr_db(snr_db))


def test_validate_accepts_default_shape():
    validate(SystemConfig(n_antennas=16, n_relays=5, n_eves=5, snr_linear=100.0))


def test_validate_collects_all_problems():
    cfg = SystemConfig(n_antennas=0, n_relays=0, n_eves=-1, snr_linear=0.0, target_rate=-2.0)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    msg = str(err.value)
    for frag in ("n_antennas", "n_relays", "n_eves", "snr_linear", "target_rate"):
        assert frag in msg


def test_validate_message_for_every_field_is_pinned():
    cfg = SystemConfig(True, 0, -1, math.nan, -1.0, "x", Modulation(0.0, 0.0, "z"), 2**64)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert str(err.value) == (
        "n_antennas must be an integer >= 1, got True; "
        "n_relays must be an integer >= 1, got 0; "
        "n_eves must be an integer >= 0, got -1; "
        "master_seed must be an integer in [0, 18446744073709551615], got 18446744073709551616; "
        "snr_linear must be positive and finite, got nan; "
        "target_rate must be >= 0, got -1.0; "
        "eve_model must be an EveModel, got 'x'; "
        "modulation needs alpha_m, beta_m > 0, got Modulation(alpha_m=0.0, beta_m=0.0, name='z')"
    )


def test_validate_subset_explosion_guard():
    cfg = SystemConfig(n_antennas=4, n_relays=MAX_RELAYS + 5, n_eves=0, snr_linear=1.0)
    with pytest.raises(ConfigError, match="2\\^K"):
        validate(cfg)
    validate(SystemConfig(n_antennas=4, n_relays=MAX_RELAYS, n_eves=0, snr_linear=1.0))


def test_paper_topology_positions():
    topo = paper_topology(1, 0)
    assert topo.source_pos == (-1.0, 0.0)
    assert topo.dest_pos == (0.0, 0.0)
    assert topo.relay_pos == ((1.0, 0.0),)
    assert topo.eve_pos == ()
    gains = mean_gains_from_topology(topo)
    # Source-relay distance 2, unit relay-destination and source-destination.
    assert math.isclose(gains.mu_sr[0], 0.125, rel_tol=1e-15)
    assert math.isclose(gains.mu_rd[0], 1.0, rel_tol=1e-15)
    assert math.isclose(gains.mu_sd, 1.0, rel_tol=1e-15)


def test_paper_topology_rings():
    topo = paper_topology(4, 3, relay_ring=0.02, eve_ring=0.03)
    center = np.array([1.0, 0.0])
    for p in topo.relay_pos:
        assert math.isclose(np.hypot(*(np.array(p) - center)), 0.02, abs_tol=1e-12)
    for p in topo.eve_pos:
        assert math.isclose(np.hypot(*(np.array(p) - center)), 0.03, abs_tol=1e-12)
    # Half-step offset keeps eves off the relay azimuths.
    assert topo.relay_pos[0][1] == 0.0
    assert abs(topo.eve_pos[0][1]) > 1e-3
    with pytest.raises(TopologyError):
        paper_topology(0, 2)
    # A negative count must not slice the eavesdropper ring to nothing.
    with pytest.raises(TopologyError, match="^n_eves must be an integer >= 0, got -3"):
        paper_topology(2, -3)


@pytest.mark.parametrize(
    "rings,name",
    [({"relay_ring": math.nan}, "relay_ring"), ({"relay_ring": math.inf}, "relay_ring"),
     ({"eve_ring": -math.inf}, "eve_ring")],
)
def test_paper_topology_refuses_a_non_finite_ring(rings, name):
    with pytest.raises(TopologyError, match=f"^{name} must be finite"):
        paper_topology(3, 2, **rings)


def test_mean_gains_from_topology_matches_hand_distances():
    topo = Topology(
        source_pos=(0.0, 0.0),
        dest_pos=(3.0, 0.0),
        relay_pos=((1.0, 0.0), (1.0, 1.0)),
        eve_pos=((2.0, 0.0),),
        path_loss_exp=2.0,
    )
    g = mean_gains_from_topology(topo)
    np.testing.assert_allclose(g.mu_sr, [1.0, 0.5])
    np.testing.assert_allclose(g.mu_rd, [0.25, 1.0 / 5.0])
    np.testing.assert_allclose(g.mu_se, [0.25])
    np.testing.assert_allclose(g.mu_ed, [1.0])
    assert math.isclose(g.mu_sd, 1.0 / 9.0, rel_tol=1e-15)
    # relay 0 at (1,0): to relay 1 distance 1, to eve distance 1.
    np.testing.assert_allclose(g.mu_rl[0], [0.0, 1.0, 1.0])
    assert g.mu_rl[1, 0] == g.mu_rl[0, 1]


def test_mean_gains_scale_covariance():
    base = paper_topology(3, 2)
    scaled = Topology(
        source_pos=(-2.0, 0.0),
        dest_pos=(0.0, 0.0),
        relay_pos=tuple((2 * x, 2 * y) for x, y in base.relay_pos),
        eve_pos=tuple((2 * x, 2 * y) for x, y in base.eve_pos),
        path_loss_exp=3.0,
    )
    g0 = mean_gains_from_topology(base)
    g1 = mean_gains_from_topology(scaled)
    np.testing.assert_allclose(g1.mu_sr, g0.mu_sr / 8.0, rtol=1e-12)
    np.testing.assert_allclose(g1.mu_ed, g0.mu_ed / 8.0, rtol=1e-12)
    assert math.isclose(g1.mu_sd, g0.mu_sd / 8.0, rel_tol=1e-12)


def _gains_per_link(topology: Topology) -> MeanGains:
    """mean_gains_from_topology as one scalar hypot and one power per link,
    as the package computed it before it took all distances in one call."""
    alpha = topology.path_loss_exp
    src = np.asarray(topology.source_pos, dtype=float)
    dst = np.asarray(topology.dest_pos, dtype=float)
    relays = np.asarray(topology.relay_pos, dtype=float).reshape(-1, 2)
    eves = np.asarray(topology.eve_pos, dtype=float).reshape(-1, 2)
    k, l = len(relays), len(eves)

    def gain(a, b, what):
        d = float(np.hypot(*(a - b)))
        if d <= 0.0:
            raise TopologyError(f"zero distance on modeled link: {what}")
        return d ** (-alpha)

    mu_sr = np.array([gain(src, r, f"source-relay{i}") for i, r in enumerate(relays)])
    mu_rd = np.array([gain(dst, r, f"relay{i}-dest") for i, r in enumerate(relays)])
    mu_se = np.array([gain(src, e, f"source-eve{j}") for j, e in enumerate(eves)])
    mu_ed = np.array([gain(dst, e, f"eve{j}-dest") for j, e in enumerate(eves)])
    mu_sd = gain(src, dst, "source-dest")
    malicious = np.concatenate([relays, eves]) if l else relays
    mu_rl = np.zeros((k, k + l))
    for i in range(k):
        for j in range(k + l):
            if j != i:
                mu_rl[i, j] = gain(relays[i], malicious[j], f"relay{i}-node{j}")
    return MeanGains(mu_sr=mu_sr, mu_rd=mu_rd, mu_se=mu_se, mu_ed=mu_ed, mu_sd=mu_sd, mu_rl=mu_rl)


def _random_topology(rng, k, l):
    pos = lambda n: tuple(map(tuple, rng.uniform(-2.0, 2.0, (n, 2))))  # noqa: E731
    return Topology(source_pos=pos(1)[0], dest_pos=pos(1)[0], relay_pos=pos(k),
                    eve_pos=pos(l), path_loss_exp=float(rng.uniform(2.0, 4.0)))


def test_mean_gains_from_topology_equals_per_link_loop():
    rng = np.random.default_rng(5)
    topos = [paper_topology(k, l, relay_ring=r) for k, l, r in
             ((1, 0, 0.1), (3, 2, 0.05), (10, 50, 0.13))]
    topos += [_random_topology(rng, k, l) for k in (1, 2, 5, 10) for l in (0, 1, 7, 50)]
    for topo in topos:
        got, want = mean_gains_from_topology(topo), _gains_per_link(topo)
        for name in ("mu_sr", "mu_rd", "mu_se", "mu_ed", "mu_rl"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert got.mu_sd == want.mu_sd


@pytest.mark.parametrize("clash", [
    dict(relay_pos=((0.0, 0.0), (1.0, 1.0))),
    dict(relay_pos=((1.0, 1.0), (3.0, 0.0))),
    dict(eve_pos=((2.0, 2.0), (0.0, 0.0))),
    dict(eve_pos=((1.0, 1.0),), relay_pos=((2.0, 2.0), (1.0, 1.0))),
    dict(relay_pos=((1.0, 1.0), (1.0, 1.0))),
])
def test_degenerate_link_named_as_the_per_link_loop_names_it(clash):
    topo = Topology(**{**dict(source_pos=(0.0, 0.0), dest_pos=(3.0, 0.0),
                              relay_pos=((1.0, 1.0),), eve_pos=((2.0, 2.0),)), **clash})
    with pytest.raises(TopologyError) as want:
        _gains_per_link(topo)
    with pytest.raises(TopologyError) as got:
        mean_gains_from_topology(topo)
    assert str(got.value) == str(want.value)


def test_topology_degenerate_links_rejected():
    with pytest.raises(TopologyError, match="zero distance"):
        mean_gains_from_topology(
            Topology(source_pos=(0.0, 0.0), dest_pos=(0.0, 0.0), relay_pos=((1.0, 0.0),))
        )
    with pytest.raises(TopologyError):
        mean_gains_from_topology(
            Topology(
                source_pos=(0.0, 0.0),
                dest_pos=(1.0, 0.0),
                relay_pos=((2.0, 0.0),),
                path_loss_exp=0.0,
            )
        )


def test_mean_gains_iid_and_defaults():
    g = MeanGains.iid(3, 2, mu_sr=0.5, mu_rd=2.0)
    assert g.n_relays == 3 and g.n_eves == 2
    np.testing.assert_allclose(g.mu_sr, 0.5)
    np.testing.assert_allclose(g.mu_rd, 2.0)
    assert g.mu_rl.shape == (3, 5)
    assert np.all(np.diag(g.mu_rl[:, :3]) == 0.0)
    # Default inter-malicious gains when none are given: unit off-diagonal.
    h = MeanGains(
        mu_sr=np.ones(2), mu_rd=np.ones(2), mu_se=np.ones(1), mu_ed=np.ones(1), mu_sd=1.0
    )
    np.testing.assert_allclose(h.mu_rl, [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


def test_mean_gains_accessors():
    g = MeanGains.iid(2, 1, mu_sr=0.5, mu_rd=2.0, mu_se=0.25, mu_sd=3.0)
    np.testing.assert_allclose(g.gbar_rd(10.0), [20.0, 20.0])
    assert g.gbar_sd(10.0) == 30.0
    np.testing.assert_allclose(g.leak_means_dt(10.0), [5.0, 5.0, 2.5])


def test_mean_gains_validation():
    with pytest.raises(ValueError):
        MeanGains(mu_sr=np.ones(2), mu_rd=np.ones(3), mu_se=np.ones(0), mu_ed=np.ones(0), mu_sd=1.0)
    with pytest.raises(ValueError):
        MeanGains(mu_sr=-np.ones(1), mu_rd=np.ones(1), mu_se=np.ones(0), mu_ed=np.ones(0), mu_sd=1.0)
    with pytest.raises(ValueError):
        MeanGains(mu_sr=np.ones(1), mu_rd=np.ones(1), mu_se=np.ones(0), mu_ed=np.ones(0), mu_sd=0.0)
    with pytest.raises(ValueError):
        MeanGains(
            mu_sr=np.ones(2),
            mu_rd=np.ones(2),
            mu_se=np.ones(0),
            mu_ed=np.ones(0),
            mu_sd=1.0,
            mu_rl=np.ones((2, 3)),
        )


def test_eve_model_values():
    assert EveModel("nce") is EveModel.NCE
    assert EveModel("ce") is EveModel.CE
