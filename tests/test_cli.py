import functools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import pytest

import secrelay
from quadrature_reference import log_expect_mp
from secrelay import cli, montecarlo
from secrelay.cli import (
    CSV_COLUMNS,
    ExperimentSpec,
    ResultRow,
    SpecError,
    main,
    parse_spec_text,
    preset,
    read_table,
    run,
    validate_spec,
)
from secrelay.model import (
    EveModel,
    Modulation,
    SystemConfig,
    Topology,
    mean_gains_from_topology,
    paper_topology,
)
from secrelay.montecarlo import Metric, derive_seed, estimate_from_trace, simulate
from secrelay.policy import Scheme, c_params

SIX_SCHEMES = {
    Scheme.EXACT_JRP, Scheme.JRP, Scheme.EPRS, Scheme.OPRR, Scheme.EPRR, Scheme.DT
}


def tiny_spec_text(out_path, extra=""):
    return (
        "config.n_antennas = 4\n"
        "config.n_relays = 2\n"
        "config.n_eves = 1\n"
        "experiment.schemes = [\"jrp\", \"dt\"]\n"
        "experiment.metrics = [\"esr\", \"sop\"]\n"
        "experiment.rho_grid_db = [0, 10]\n"
        "experiment.trials = 30\n"
        f"experiment.out = \"{out_path}\"\n" + extra
    )


# ---------------------------------------------------------------------------
# presets


def test_preset_fig2_emits_all_six_schemes():
    spec = preset("fig2")
    assert set(spec.schemes) == SIX_SCHEMES
    assert spec.metrics == [Metric.ESR]
    assert spec.eve_models == [EveModel.NCE]
    assert spec.k_grid == [1, 5]
    assert spec.config.n_antennas == 16 and spec.config.n_eves == 5
    assert spec.rho_grid_db[0] == 0.0 and spec.rho_grid_db[-1] == 40.0
    assert preset("fig3").eve_models == [EveModel.CE]


def test_preset_fig4_shape():
    spec = preset("fig4")
    assert spec.config.n_antennas == 256
    assert spec.k_grid == list(range(1, 11))
    assert spec.l_grid == [5, 50]
    assert spec.rho_grid_db == [20.0]
    assert spec.schemes == [Scheme.JRP]
    assert spec.eve_models == [EveModel.NCE, EveModel.CE]


def test_preset_outage_and_error_rate_figures():
    for name, em in (("fig5", EveModel.NCE), ("fig6", EveModel.CE)):
        spec = preset(name)
        assert spec.metrics == [Metric.SOP]
        assert spec.eve_models == [em]
        assert spec.emit_asymptotic
    spec = preset("fig7")
    assert spec.metrics == [Metric.SER]
    assert spec.config.modulation.name == "qpsk"
    assert spec.config.n_relays == 5 and spec.config.n_eves == 5
    assert spec.schemes == [Scheme.JRP, Scheme.DT]


def test_unknown_preset_rejected():
    with pytest.raises(SpecError):
        preset("fig9")


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_full_spec_round_trip():
    text = (
        "# comment line\n"
        "config.n_antennas = 8   # trailing comment\n"
        "config.n_relays = 3\n"
        "config.n_eves = 2\n"
        "config.target_rate = 0.5\n"
        "config.eve_model = \"ce\"\n"
        "config.modulation = \"qam16\"\n"
        "config.master_seed = 77\n"
        "experiment.schemes = [\"jrp\"]\n"
        "experiment.metrics = [\"ser\", \"ppos\"]\n"
        "experiment.rho_grid_db = [0, 5, 10]\n"
        "experiment.trials = 100\n"
        "experiment.out = \"x.csv\"\n"
        "experiment.emit_asymptotic = True\n"
    )
    spec = parse_spec_text(text)
    assert spec.config.n_antennas == 8
    assert spec.config.eve_model is EveModel.CE
    assert spec.config.modulation.name == "qam16"
    assert spec.config.master_seed == 77
    assert spec.schemes == [Scheme.JRP]
    assert spec.metrics == [Metric.SER, Metric.PPOS]
    assert spec.rho_grid_db == [0.0, 5.0, 10.0]
    assert spec.trials == 100 and spec.output_path == "x.csv"
    assert spec.emit_asymptotic and spec.emit_closed_form
    assert spec.k_grid is None and spec.l_grid is None
    # the built layout matches the counts
    assert spec.topology.n_relays == 3 and spec.topology.n_eves == 2


def test_parse_errors_carry_line_numbers():
    text = (
        "config.n_antennas = 4\n"
        "config.bogus = 1\n"
        "config.n_relays = oops\n"
        "config.n_eves = 1\n"
        "config.n_eves = 2\n"
        "not a key value line\n"
    )
    with pytest.raises(SpecError) as exc:
        parse_spec_text(text, source="demo.spec")
    msgs = exc.value.problems
    assert any(m.startswith("demo.spec:2: unknown key") for m in msgs)
    assert any(m.startswith("demo.spec:3: bad literal") for m in msgs)
    assert any(m.startswith("demo.spec:5: duplicate key") for m in msgs)
    assert any(m.startswith("demo.spec:6: expected key = value") for m in msgs)


def test_parse_missing_required_keys():
    with pytest.raises(SpecError) as exc:
        parse_spec_text("config.n_antennas = 4\n")
    joined = "\n".join(exc.value.problems)
    for key in ("config.n_relays", "experiment.schemes", "experiment.trials"):
        assert key in joined


def test_parse_topology_conflicts():
    base = (
        "config.n_antennas = 4\nconfig.n_relays = 1\nconfig.n_eves = 0\n"
        "experiment.schemes = [\"jrp\"]\nexperiment.metrics = [\"esr\"]\n"
        "experiment.rho_grid_db = [10]\nexperiment.trials = 5\n"
    )
    with pytest.raises(SpecError) as exc:
        parse_spec_text(base + "topology.paper = True\ntopology.relays = [(1, 0)]\n")
    assert any("conflicts with explicit positions" in m for m in exc.value.problems)
    with pytest.raises(SpecError) as exc:
        parse_spec_text(base + "topology.paper = False\n")
    assert any("needs explicit positions" in m for m in exc.value.problems)


def test_parse_explicit_topology_and_unknown_names():
    base = (
        "config.n_antennas = 4\nconfig.n_relays = 1\nconfig.n_eves = 0\n"
        "experiment.metrics = [\"esr\"]\n"
        "experiment.rho_grid_db = [10]\nexperiment.trials = 5\n"
    )
    spec = parse_spec_text(
        base + "experiment.schemes = [\"jrp\"]\n"
        "topology.source = (-1, 0)\ntopology.dest = (0, 0)\n"
        "topology.relays = [(1, 0)]\n"
    )
    assert spec.topology.relay_pos == ((1.0, 0.0),)
    with pytest.raises(SpecError) as exc:
        parse_spec_text(base + "experiment.schemes = [\"warp\"]\n")
    assert any("unknown scheme" in m for m in exc.value.problems)


def test_validate_spec_collects_problems():
    cfg = SystemConfig(n_antennas=4, n_relays=2, n_eves=1, snr_linear=1.0)
    spec = ExperimentSpec(
        config=cfg,
        topology=paper_topology(2, 1),
        schemes=[],
        metrics=[],
        rho_grid_db=[],
        trials=0,
        output_path="",
        k_grid=[0],
        eve_models=[],
    )
    problems = validate_spec(spec)
    joined = "\n".join(problems)
    for frag in ("schemes", "metrics", "rho_grid_db", "trials", "out",
                 "k_grid", "eve_models"):
        assert frag in joined
    # node-count mismatch against the topology is caught when not swept
    ok = ExperimentSpec(
        config=cfg, topology=paper_topology(3, 1), schemes=[Scheme.JRP],
        metrics=[Metric.ESR], rho_grid_db=[0.0], trials=1,
    )
    assert any("topology has 3 relays" in p for p in validate_spec(ok))


# ---------------------------------------------------------------------------
# running


def test_run_writes_round_trippable_outputs(tmp_path):
    out = tmp_path / "r.csv"
    spec = parse_spec_text(tiny_spec_text(out))
    rows = run(spec, log=None)
    # 2 SNR points x 2 schemes x 2 metrics
    assert len(rows) == 8
    assert read_table(str(out)) == rows

    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["columns"] == list(CSV_COLUMNS)
    assert len(payload["rows"]) == 8
    by_key = {(r.scheme, r.metric, r.rho_db): r for r in rows}
    for rec in payload["rows"]:
        row = by_key[(rec[3], rec[4], rec[5])]
        assert rec[6] == row.sim_value and rec[11] == row.seed


def test_run_seed_derivation_and_sharing(tmp_path):
    out = tmp_path / "r.csv"
    spec = parse_spec_text(tiny_spec_text(out))
    rows = run(spec, log=None)
    first = [r for r in rows if r.rho_db == 0.0]
    second = [r for r in rows if r.rho_db == 10.0]
    # One seed per (K, L) position, shared by every rho: the draws are
    # rescaled to each SNR, not drawn again.
    assert {r.seed for r in first} == {r.seed for r in second} == {derive_seed(0, 0)}
    assert derive_seed(0, 0) == 16294208416658607535


def test_run_is_reproducible_modulo_timestamp(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(parse_spec_text(tiny_spec_text(out_a)), log=None)
    run(parse_spec_text(tiny_spec_text(out_b)), log=None)
    body_a = out_a.read_text().splitlines()[1:]
    body_b = out_b.read_text().splitlines()[1:]
    assert body_a == body_b


def test_run_closed_form_columns_by_scheme(tmp_path):
    out = tmp_path / "r.csv"
    spec = parse_spec_text(
        tiny_spec_text(out, "experiment.emit_asymptotic = True\n")
    )
    rows = run(spec, log=None)
    for r in rows:
        if r.scheme == "jrp":
            assert r.closed_form is not None and r.asymptotic is not None
        else:  # dt has closed forms but no asymptote column
            assert r.closed_form is not None and r.asymptotic is None
    # switching emission off blanks the columns
    out2 = tmp_path / "r2.csv"
    spec2 = parse_spec_text(
        tiny_spec_text(out2, "experiment.emit_closed_form = False\n")
    )
    assert all(r.closed_form is None for r in run(spec2, log=None))


def test_run_without_closed_columns_calls_no_closed_form(tmp_path, monkeypatch):
    def no_closed_form(*args, **kwargs):
        raise AssertionError("computed a closed form that no column emits")

    for name in ("esr_dbcj", "sop_dbcj", "sop_dbcj_asymptotic", "esr_dt_lb", "sop_dt"):
        monkeypatch.setattr(f"secrelay.analytics.{name}", no_closed_form)
    out = tmp_path / "r.csv"
    spec = parse_spec_text(tiny_spec_text(out, "experiment.emit_closed_form = False\n"))
    rows = run(spec, log=None)
    assert len(rows) == 8
    assert all(r.closed_form is None and r.asymptotic is None for r in rows)


def test_run_computes_the_collusion_penalty_once_per_ce_point(tmp_path, monkeypatch):
    # Two metrics of the jrp rows share one c_params per CE grid point, and
    # the NCE points compute none.
    calls = []

    def counted(gains, cfg):
        calls.append((cfg.eve_model, cfg.snr_linear))
        return c_params(gains, cfg)

    monkeypatch.setattr(cli, "c_params", counted)
    out = tmp_path / "r.csv"
    spec = parse_spec_text(tiny_spec_text(out, "experiment.eve_models = [\"nce\", \"ce\"]\n"))
    rows = run(spec, log=None)
    assert calls == [(EveModel.CE, 1.0), (EveModel.CE, 10.0)]
    assert any(r.eve_model == "ce" and r.scheme == "jrp" and r.closed_form is not None
               for r in rows)


def test_ce_jrp_closed_cells_are_blank_below_two_antennas(tmp_path):
    # The collusion penalty is undefined at one antenna, so the CE jrp
    # cells stay blank rather than carry the NCE value; the rest are filled.
    text = tiny_spec_text(tmp_path / "r.csv", (
        "experiment.eve_models = [\"nce\", \"ce\"]\n"
        "experiment.emit_asymptotic = True\n"
    ))
    for old, new in (("n_antennas = 4", "n_antennas = 1"), ("n_eves = 1", "n_eves = 2"),
                     ("rho_grid_db = [0, 10]", "rho_grid_db = [20]")):
        text = text.replace(old, new)
    rows = run(parse_spec_text(text), log=None)
    assert len(rows) == 8
    for r in rows:
        blank = r.eve_model == "ce" and r.scheme == "jrp"
        assert (r.closed_form is None) == blank, r
        assert (r.asymptotic is None) == (blank or r.scheme == "dt"), r


def test_run_eve_model_sweep_multiplies_rows(tmp_path):
    out = tmp_path / "r.csv"
    spec = parse_spec_text(
        tiny_spec_text(out, "experiment.eve_models = [\"nce\", \"ce\"]\n")
    )
    rows = run(spec, log=None)
    assert len(rows) == 16
    # rows stay model-major: every nce row, then every ce row
    assert [r.eve_model for r in rows] == ["nce"] * 8 + ["ce"] * 8
    # one seed for the single (K, L) position, shared by both models and
    # both rho: the draws depend on neither but for a final scaling by rho
    assert {r.seed for r in rows} == {derive_seed(0, 0)}


def test_each_position_is_seeded_by_its_first_points_index(tmp_path):
    # 2 K x 2 L positions at 2 rho: position i carries
    # derive_seed(master, i * 2), the index of its first point among one
    # model's points.
    spec = parse_spec_text(tiny_spec_text(
        tmp_path / "r.csv",
        "experiment.k_grid = [1, 2]\nexperiment.l_grid = [0, 1]\nconfig.master_seed = 17\n"))
    rows = run(spec, log=None)
    for i, position in enumerate([(1, 0), (1, 1), (2, 0), (2, 1)]):
        seeds = {r.seed for r in rows if (r.n_relays, r.n_eves) == position}
        assert seeds == {derive_seed(17, 2 * i)}, position


def _model_sweep(tmp_path, models, trials=30):
    out = tmp_path / f"{'-'.join(models)}.csv"
    return parse_spec_text(tiny_spec_text(
        out, f"experiment.eve_models = {models!r}\nexperiment.k_grid = [1, 2]\n"
    ).replace("experiment.trials = 30", f"experiment.trials = {trials}"))


@pytest.mark.parametrize("models", [["nce", "ce"], ["ce", "nce"]])
def test_two_model_run_matches_standalone_runs(tmp_path, models):
    spec = _model_sweep(tmp_path, models)
    rows = run(spec, log=None)
    first = run(_model_sweep(tmp_path, models[:1]), log=None)
    # The first model's rows are those of a run without the second model.
    assert rows[: len(first)] == first
    # Every later row reruns in isolation from the seed it carries.
    later = rows[len(first):]
    assert len(later) == len(first) and {r.eve_model for r in later} == {models[1]}
    for r in later:
        gains = mean_gains_from_topology(paper_topology(r.n_relays, r.n_eves))
        cfg = replace(spec.config, n_relays=r.n_relays, n_eves=r.n_eves,
                      eve_model=EveModel(r.eve_model)).with_snr_db(r.rho_db)
        scheme = Scheme(r.scheme)
        trace = simulate(cfg, gains, [scheme], spec.trials, seed=r.seed)[scheme]
        est = estimate_from_trace(Metric(r.metric), trace, cfg)
        assert (est.value, est.std_error) == (r.sim_value, r.sim_stderr)


def test_model_sweep_draws_each_chunk_once(tmp_path, monkeypatch):
    # 2100 trials are two chunks of the default 2048 at each (K, L) position,
    # and each position has two models at two rho.
    spec = _model_sweep(tmp_path, ["nce", "ce"], trials=2100)
    simulated, drawn = [], []
    real_simulate, real_draw = cli.simulate, montecarlo.draw_batch

    def spy_simulate(cfg, *args, **kwargs):
        simulated.append((cfg.n_relays, tuple(kwargs["points"])))
        return real_simulate(cfg, *args, **kwargs)

    def spy_draw(gains, config, master_seed, first_trial, n_trials):
        drawn.append((master_seed, first_trial, config.snr_linear))
        return real_draw(gains, config, master_seed, first_trial, n_trials)

    monkeypatch.setattr(cli, "simulate", spy_simulate)
    monkeypatch.setattr(montecarlo, "draw_batch", spy_draw)
    rows = run(spec, log=None)
    assert {(r.n_relays, r.rho_db) for r in rows} == {(k, rho) for k in (1, 2)
                                                      for rho in (0.0, 10.0)}
    # One simulate call per (K, L) position, listing all four of its points.
    assert [k for k, _ in simulated] == [1, 2]
    assert all(len(set(points)) == 4 for _, points in simulated)
    # One draw per chunk per position, at the first rho (0 dB) only.
    assert len(drawn) == 2 * 2 == len(set(drawn))
    assert {first for _, first, _ in drawn} == {0, 2048}
    assert {snr for *_, snr in drawn} == {1.0}
    assert {r.seed for r in rows} == {seed for seed, *_ in drawn}


@pytest.mark.parametrize("chunk_size", [37, 2048])
def test_every_row_reruns_alone_at_its_seed(tmp_path, monkeypatch, chunk_size):
    # 2 models x 3 rho x 2 K on shared draws: every row equals a standalone
    # simulate at its own config and the seed it carries.
    spec = _model_sweep(tmp_path, ["ce", "nce"], trials=80)
    spec.rho_grid_db = [0.0, 10.0, 25.0]
    monkeypatch.setattr(cli, "simulate", functools.partial(simulate, chunk_size=chunk_size))
    rows = run(spec, log=None)
    assert len(rows) == 2 * 3 * 2 * 2 * 2
    alone = {}
    for r in rows:
        gains = mean_gains_from_topology(paper_topology(r.n_relays, r.n_eves))
        cfg = replace(spec.config, n_relays=r.n_relays, n_eves=r.n_eves,
                      eve_model=EveModel(r.eve_model)).with_snr_db(r.rho_db)
        point = (r.eve_model, r.n_relays, r.rho_db, r.seed)
        if point not in alone:
            alone[point] = simulate(cfg, gains, spec.schemes, spec.trials, seed=r.seed)
        est = estimate_from_trace(Metric(r.metric), alone[point][Scheme(r.scheme)], cfg)
        assert (est.value, est.std_error) == (r.sim_value, r.sim_stderr)
    assert len(alone) == 12


def test_run_rejects_invalid_spec():
    cfg = SystemConfig(n_antennas=4, n_relays=1, n_eves=0, snr_linear=1.0)
    spec = ExperimentSpec(
        config=cfg, topology=paper_topology(1, 0), schemes=[],
        metrics=[Metric.ESR], rho_grid_db=[0.0], trials=10,
    )
    with pytest.raises(SpecError):
        run(spec, log=None)


def test_read_table_rejects_foreign_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# ts\nalpha,beta\n1,2\n")
    with pytest.raises(ValueError):
        read_table(str(bad))


# ---------------------------------------------------------------------------
# entry point


def test_main_validate_and_run(tmp_path, capsys):
    out = tmp_path / "r.csv"
    spec_file = tmp_path / "exp.spec"
    spec_file.write_text(tiny_spec_text(out))
    assert main(["validate", str(spec_file)]) == 0
    assert "ok" in capsys.readouterr().out
    assert not out.exists()

    assert main(["run", str(spec_file)]) == 0
    assert "wrote 8 rows" in capsys.readouterr().out
    assert out.exists() and (tmp_path / "r.json").exists()


def test_main_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.spec"
    assert main(["validate", str(missing)]) == 2

    bad = tmp_path / "bad.spec"
    bad.write_text("config.n_antennas = 4\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["preset", "fig9"]) == 2

    # unwritable output is a runtime failure, not a spec failure
    doomed = tmp_path / "doomed.spec"
    doomed.write_text(tiny_spec_text(tmp_path / "no_such_dir" / "r.csv"))
    assert main(["run", str(doomed)]) == 3
    assert "runtime error" in capsys.readouterr().err


def test_main_preset_fig4_closed_esr_rises_with_relay_count(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    rc = main(["preset", "fig4", "--trials", "40", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = read_table(str(out))
    assert len(rows) == 40  # 2 models x 10 K x 2 L x 1 SNR
    col = [
        r.closed_form
        for r in rows
        if r.eve_model == "nce" and r.n_eves == 5 and r.metric == "esr"
    ]
    assert len(col) == 10
    assert all(b >= a for a, b in zip(col, col[1:]))
    assert col[-1] > col[0]
    assert all(math.isfinite(r.sim_value) for r in rows)


def test_dt_esr_past_the_old_subset_ceiling_validates_and_runs(tmp_path, capsys):
    # Without collusion the DT ESR bound is a quadrature over all K+L = 55
    # leakages, not a sum over their 2^55 - 1 subsets, so the spec runs.
    out = tmp_path / "r.csv"
    text = (
        "config.n_antennas = 16\n"
        "config.n_relays = 5\n"
        "config.n_eves = 50\n"
        "experiment.schemes = [\"dt\"]\n"
        "experiment.metrics = [\"esr\"]\n"
        "experiment.rho_grid_db = [10]\n"
        "experiment.trials = 10\n"
        f"experiment.out = \"{out}\"\n"
    )
    parse_spec_text(text)
    spec_file = tmp_path / "dt.spec"
    spec_file.write_text(text)
    assert main(["validate", str(spec_file)]) == 0
    assert main(["run", str(spec_file)]) == 0
    capsys.readouterr()
    [row] = read_table(str(out))
    gains = mean_gains_from_topology(paper_topology(5, 50))
    want = math.log2(1.0 + 16 * 10.0 * gains.mu_sd)
    want -= log_expect_mp(gains.leak_means_dt(10.0), 1.0) / math.log(2.0)
    assert (row.scheme, row.metric, row.eve_model) == ("dt", "esr", "nce")
    assert math.isfinite(row.closed_form)
    assert row.closed_form == pytest.approx(want, rel=1e-12)


def test_collusion_dt_esr_closed_form_meets_the_simulation(tmp_path, monkeypatch):
    # At Ns=256, K=8, L=50, 0 dB the partial-fraction bound wrote 8.213e62
    # beside a simulated 5.15 and the run still exited 0.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ce.spec").write_text(
        "config.n_antennas = 256\n"
        "config.n_relays = 8\n"
        "config.n_eves = 50\n"
        'config.eve_model = "ce"\n'
        "config.master_seed = 3\n"
        'experiment.schemes = ["dt"]\n'
        'experiment.metrics = ["esr"]\n'
        "experiment.rho_grid_db = [0]\n"
        "experiment.trials = 2000\n"
        'experiment.out = "ce.csv"\n'
    )
    assert main(["run", "ce.spec"]) == 0
    (row,) = read_table("ce.csv")
    assert (row.scheme, row.metric, row.eve_model) == ("dt", "esr", "ce")
    assert math.isfinite(row.closed_form)
    assert abs(row.closed_form - row.sim_value) < 0.05


def test_module_entry_point_runs_without_warnings(tmp_path):
    spec_file = tmp_path / "exp.spec"
    spec_file.write_text(tiny_spec_text(tmp_path / "r.csv"))
    src = os.path.dirname(os.path.dirname(secrelay.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "secrelay.cli", "validate", str(spec_file)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# grid points outside the validated box


def _replace_line(text, line):
    key = line.split("=")[0].strip()
    kept = [ln for ln in text.splitlines() if not ln.startswith(key)]
    return "\n".join(kept + [line]) + "\n"


@pytest.mark.parametrize(
    "line,want",
    [
        ("experiment.k_grid = [1, 30]", "experiment.k_grid: n_relays=30 exceeds 25"),
        ("experiment.rho_grid_db = [0, 4000]",
         "experiment.rho_grid_db: snr_linear must be positive and finite, got inf"),
        ("experiment.rho_grid_db = [4000]",
         "experiment.rho_grid_db: snr_linear must be positive and finite, got inf"),
        ("experiment.rho_grid_db = [0, -4000]",
         "experiment.rho_grid_db: snr_linear must be positive and finite, got 0.0"),
        ("experiment.rho_grid_db = [0, 1520]",
         "experiment.rho_grid_db: snr_linear must be <= 1e+20 (200 dB), got 1e+152"),
    ],
)
def test_validate_refuses_every_bad_grid_point(tmp_path, capsys, monkeypatch, line, want):
    # Each spec used to pass validate and abort run partway, or crash with
    # an overflow and exit 3.  Both commands must now stop at the spec.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a point of a refused spec")

    monkeypatch.setattr("secrelay.cli.simulate", no_simulation)
    out = tmp_path / "r.csv"
    text = _replace_line(tiny_spec_text(out), line)
    spec_file = tmp_path / "exp.spec"
    spec_file.write_text(text)
    where = f"exp.spec:{len(text.splitlines())}: "
    assert main(["validate", str(spec_file)]) == 2
    assert f"error: {where}{want}" in capsys.readouterr().err
    assert main(["run", str(spec_file)]) == 2
    assert f"error: {where}{want}" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_bad_grid_points_before_simulating(tmp_path, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a point of a refused spec")

    monkeypatch.setattr("secrelay.cli.simulate", no_simulation)
    cfg = SystemConfig(n_antennas=4, n_relays=1, n_eves=0, snr_linear=1.0)
    spec = ExperimentSpec(
        config=cfg, topology=paper_topology(1, 0), schemes=[Scheme.JRP],
        metrics=[Metric.ESR], rho_grid_db=[0.0], trials=10,
        output_path=str(tmp_path / "r.csv"), k_grid=[1, 30],
    )
    with pytest.raises(SpecError, match="experiment.k_grid: n_relays=30 exceeds 25"):
        run(spec, log=None)
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------------------
# one table of spec keys, one row layout


@pytest.mark.parametrize(
    "line,want",
    [
        ("config.n_relays = 2.9", "config.n_relays: expected an integer, got 2.9"),
        ("experiment.trials = 30.7", "experiment.trials: expected an integer, got 30.7"),
        ("experiment.k_grid = [1.5, 2]", "experiment.k_grid: expected an integer, got 1.5"),
        ('experiment.emit_closed_form = "no"',
         "experiment.emit_closed_form: expected True or False, got 'no'"),
        ("config.modulation = 4",
         "config.modulation: unknown modulation 4 (use qpsk, psk<M>, or qam<M>)"),
    ],
)
def test_counts_and_flags_are_strict(tmp_path, line, want):
    # These used to run K=2, 30 trials, k_grid [1, 2] and emit the closed
    # forms, or crash with an AttributeError (the modulation).
    text = _replace_line(tiny_spec_text(tmp_path / "r.csv"), line)
    with pytest.raises(SpecError) as exc:
        parse_spec_text(text, source="exp.spec")
    assert f"exp.spec:{len(text.splitlines())}: {want}" in exc.value.problems


def test_integral_floats_count_as_integers(tmp_path):
    text = _replace_line(tiny_spec_text(tmp_path / "r.csv"), "experiment.trials = 1e6")
    spec = parse_spec_text(_replace_line(text, "experiment.k_grid = [1.0, 2]"))
    assert spec.trials == 1_000_000 and type(spec.trials) is int
    assert spec.k_grid == [1, 2] and all(type(k) is int for k in spec.k_grid)


def test_explicit_positions_must_include_source_dest_and_relays(tmp_path):
    text = tiny_spec_text(tmp_path / "r.csv") + "topology.relays = [(1, 0), (1, 0.1)]\n"
    with pytest.raises(SpecError) as exc:
        parse_spec_text(text, source="exp.spec")
    assert exc.value.problems == [
        "exp.spec: explicit positions need topology.source, topology.dest and topology.relays"
    ]


def test_run_exits_3_instead_of_writing_nan_rows(tmp_path, capsys, monkeypatch):
    # No validated spec overflows, so the scheme is made to return NaN rates.
    real = secrelay.policy.run_scheme_batch

    def nan_rates(batch, scheme, config):
        res = real(batch, scheme, config)
        return replace(res, rate=res.rate * math.nan)

    monkeypatch.setattr(secrelay.policy, "run_scheme_batch", nan_rates)
    out = tmp_path / "r.csv"
    spec_file = tmp_path / "exp.spec"
    spec_file.write_text(tiny_spec_text(out))
    assert main(["run", str(spec_file)]) == 3
    err = capsys.readouterr().err
    assert "runtime error: jrp: non-finite rate or destination SINR in trials 0-29" in err
    assert not out.exists()


def test_run_calls_no_asymptotic_form_it_does_not_emit(tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("computed an asymptotic form that no column emits")

    for name in ("sop_dbcj_asymptotic", "ppos_dbcj_asymptotic", "ser_dbcj_asymptotic"):
        monkeypatch.setattr(f"secrelay.analytics.{name}", unused)
    text = _replace_line(tiny_spec_text(tmp_path / "r.csv"),
                         'experiment.metrics = ["sop", "ppos", "ser"]')
    rows = run(parse_spec_text(text), log=None)
    assert len(rows) == 12
    assert all(r.asymptotic is None for r in rows)
    assert all(r.closed_form is not None for r in rows if r.scheme == "jrp")


def test_result_row_fields_follow_csv_columns():
    names = [f.name for f in fields(ResultRow)]
    assert names == [c.replace("rho_dB", "rho_db") for c in CSV_COLUMNS]
    assert len(cli._CELL_TYPES) == len(CSV_COLUMNS)


def test_module_docstring_documents_every_spec_key():
    documented = re.findall(r"^    ([a-z_]+\.[a-z_]+) = (.*)$", cli.__doc__, re.MULTILINE)
    assert [key for key, _ in documented] == list(cli._SPEC_KEYS)
    required = [key for key, rest in documented if "# required" in rest]
    assert required == [k for k, v in cli._SPEC_KEYS.items() if v.placeholder is not None]


FULL_SPEC = """\
config.n_antennas = 8
config.n_relays = 2
config.n_eves = 1
config.target_rate = 0.5
config.eve_model = "ce"
config.modulation = "psk8"
config.master_seed = 7
topology.paper = False
topology.source = (-2, 0)
topology.dest = (0, 1)
topology.relays = [(1, 0), (1, 0.1)]
topology.eves = [(1.2, 0)]
topology.relay_ring = 0.05
topology.eve_ring = 0.07
topology.path_loss_exp = 2.5
experiment.schemes = ["jrp", "dt"]
experiment.metrics = ["esr", "ser"]
experiment.rho_grid_db = [0, 10]
experiment.trials = 50
experiment.out = "x.csv"
experiment.emit_closed_form = False
experiment.emit_asymptotic = True
experiment.k_grid = [2, 3]
experiment.l_grid = [1]
experiment.eve_models = ["nce", "ce"]
"""


def test_every_spec_key_sets_its_field():
    assert [ln.split(" = ")[0] for ln in FULL_SPEC.splitlines()] == list(cli._SPEC_KEYS)
    assert parse_spec_text(FULL_SPEC) == ExperimentSpec(
        config=SystemConfig(
            n_antennas=8, n_relays=2, n_eves=1, snr_linear=1.0, target_rate=0.5,
            eve_model=EveModel.CE, modulation=Modulation.psk(8), master_seed=7,
        ),
        topology=Topology(
            source_pos=(-2.0, 0.0), dest_pos=(0.0, 1.0),
            relay_pos=((1.0, 0.0), (1.0, 0.1)), eve_pos=((1.2, 0.0),), path_loss_exp=2.5,
        ),
        schemes=[Scheme.JRP, Scheme.DT],
        metrics=[Metric.ESR, Metric.SER],
        rho_grid_db=[0.0, 10.0],
        trials=50,
        output_path="x.csv",
        emit_closed_form=False,
        emit_asymptotic=True,
        k_grid=[2, 3],
        l_grid=[1],
        eve_models=[EveModel.NCE, EveModel.CE],
        relay_ring=0.05,
        eve_ring=0.07,
    )


def test_keys_left_out_take_the_dataclass_defaults():
    required = [k for k, v in cli._SPEC_KEYS.items() if v.placeholder is not None]
    lines = [ln for ln in FULL_SPEC.splitlines() if ln.split(" = ")[0] in required]
    assert parse_spec_text("\n".join(lines)) == ExperimentSpec(
        config=SystemConfig(n_antennas=8, n_relays=2, n_eves=1, snr_linear=1.0),
        topology=paper_topology(2, 1),
        schemes=[Scheme.JRP, Scheme.DT],
        metrics=[Metric.ESR, Metric.SER],
        rho_grid_db=[0.0, 10.0],
        trials=50,
    )


# ---------------------------------------------------------------------------
# one pass over the grid, shared by validate and run


@pytest.mark.parametrize(
    "lines,want",
    [
        (["topology.source = (-1, 0)", "topology.dest = (0, 0)",
          "topology.relays = [(-1, 0), (1, 0)]", "topology.eves = [(1.03, 0)]"],
         "exp.spec: topology at K=2 L=1: zero distance on modeled link: source-relay0"),
        (['topology.relay_ring = "nan"'],
         "exp.spec:9: topology.relay_ring: expected a finite number, got 'nan'"),
        (["topology.eve_ring = 1e999"],
         "exp.spec:9: topology.eve_ring: expected a finite number, got inf"),
        (["topology.relay_ring = 0.0"],
         "exp.spec: topology at K=2 L=1: zero distance on modeled link: relay0-node1"),
        (["topology.path_loss_exp = -1.0"],
         "exp.spec: topology at K=2 L=1: path_loss_exp must be positive, got -1.0"),
        (['experiment.out = "r.json"'],
         "exp.spec:8: experiment.out: 'r.json' is also the path of its JSON mirror"),
        (['experiment.out = "."'], "exp.spec:8: experiment.out: '.' is a directory"),
    ],
    ids=["relay-on-source", "nan-ring", "inf-ring", "zero-ring", "negative-path-loss",
         "json-clash", "out-is-a-directory"],
)
def test_validate_and_run_refuse_the_same_specs(tmp_path, monkeypatch, capsys, lines, want):
    # Each used to pass validate; run then exited 2 or 3 on the layout, or
    # overwrote its CSV with the JSON mirror and exited 0.
    calls = []
    monkeypatch.setattr("secrelay.cli.simulate", lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    text = tiny_spec_text("r.csv")
    for line in lines:
        text = _replace_line(text, line)
    (tmp_path / "exp.spec").write_text(text)
    assert main(["validate", "exp.spec"]) == 2
    assert f"error: {want}" in capsys.readouterr().err
    assert main(["run", "exp.spec"]) == 2
    assert f"error: {want}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "line,want",
    [
        ('experiment.schemes = ["jrp", "dt", "jrp"]', "experiment.schemes: 'jrp'"),
        ('experiment.metrics = ["esr", "esr", "esr"]', "experiment.metrics: 'esr'"),
        ("experiment.rho_grid_db = [10, 0, 10.0]", "experiment.rho_grid_db: 10.0"),
        ("experiment.k_grid = [2, 2]", "experiment.k_grid: 2"),
        ("experiment.l_grid = [1, 0, 1e0]", "experiment.l_grid: 1"),
        ('experiment.eve_models = ["nce", "nce"]', "experiment.eve_models: 'nce'"),
    ],
)
def test_a_repeated_grid_entry_is_a_spec_error(tmp_path, monkeypatch, capsys, line, want):
    # Each used to run: a repeated model or scheme doubled its rows, and a
    # repeated SNR wrote two rows under one key with different seeds.
    calls = []
    monkeypatch.setattr("secrelay.cli.simulate", lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    text = _replace_line(tiny_spec_text("r.csv"), line)
    (tmp_path / "exp.spec").write_text(text)
    want = f"error: exp.spec:{len(text.splitlines())}: {want} is listed more than once\n"
    for command in ("validate", "run"):
        assert main([command, "exp.spec"]) == 2
        assert capsys.readouterr().err.count(want) == 1
    assert calls == [] and not (tmp_path / "r.csv").exists()


def test_an_output_whose_json_mirror_is_a_directory_is_refused(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("secrelay.cli.simulate", lambda *a, **k: calls.append(a))
    (tmp_path / "r.json").mkdir()
    spec_file = tmp_path / "exp.spec"
    spec_file.write_text(tiny_spec_text(tmp_path / "r.csv"))
    want = f"exp.spec:8: experiment.out: {str(tmp_path / 'r.json')!r} is a directory"
    for command in ("validate", "run"):
        assert main([command, str(spec_file)]) == 2
        assert f"error: {want}" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "r.csv").exists()


def test_a_non_finite_ring_set_in_code_is_a_topology_problem():
    spec = parse_spec_text(tiny_spec_text("r.csv") + "experiment.k_grid = [2, 3]\n")
    spec.relay_ring = math.nan
    # K=2 uses the spec's own layout; K=3 rebuilds the rings.
    assert validate_spec(spec) == ["topology at K=3 L=1: relay_ring must be finite, got nan"]


def test_a_large_relay_set_runs_where_its_closed_form_once_failed(tmp_path, monkeypatch):
    # esr_dbcj at K=14, 10 dB used to raise ArithmeticError in the continued
    # fraction, so a spec that validated then exited 3.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k14.spec").write_text(
        "config.n_antennas = 8\n"
        "config.n_relays = 14\n"
        "config.n_eves = 0\n"
        'experiment.schemes = ["jrp"]\n'
        'experiment.metrics = ["esr"]\n'
        "experiment.rho_grid_db = [10]\n"
        "experiment.trials = 20\n"
        'experiment.out = "k14.csv"\n'
    )
    assert main(["validate", "k14.spec"]) == 0
    assert main(["run", "k14.spec"]) == 0
    (row,) = read_table("k14.csv")
    assert row.n_relays == 14 and 0.0 < row.closed_form < 3.0


def test_a_target_rate_past_the_float_range_gives_outage_one(tmp_path, monkeypatch, capsys):
    # 2^(2*600) overflows: validate accepted the spec and run exited 3 with
    # "(34, 'Numerical result out of range')".  No relay clears the target.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rt.spec").write_text(
        "config.n_antennas = 16\n"
        "config.n_relays = 3\n"
        "config.n_eves = 2\n"
        "config.target_rate = 600.0\n"
        'experiment.schemes = ["jrp"]\n'
        'experiment.metrics = ["sop"]\n'
        "experiment.rho_grid_db = [20]\n"
        "experiment.trials = 20\n"
        'experiment.out = "rt.csv"\n'
    )
    assert main(["validate", "rt.spec"]) == 0
    assert main(["run", "rt.spec"]) == 0
    assert "error" not in capsys.readouterr().err
    (row,) = read_table("rt.csv")
    assert (row.scheme, row.metric) == ("jrp", "sop")
    assert row.closed_form == 1.0 and row.sim_value == 1.0


def test_preset_refuses_an_output_that_is_its_own_json_mirror(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("secrelay.cli.simulate", lambda *a, **k: calls.append(a))
    out = tmp_path / "x.json"
    assert main(["preset", "fig5", "--out", str(out)]) == 2
    assert f"experiment.out: {str(out)!r} is also the path of its JSON mirror" in (
        capsys.readouterr().err)
    assert calls == [] and not out.exists()


def test_unwritable_output_fails_before_any_simulation(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("secrelay.cli.simulate", lambda *a, **k: calls.append(a))
    spec_file = tmp_path / "doomed.spec"
    spec_file.write_text(tiny_spec_text(tmp_path / "no_such_dir" / "r.csv"))
    assert main(["run", str(spec_file)]) == 3
    assert "runtime error: cannot write" in capsys.readouterr().err
    assert calls == []


def test_gains_are_built_once_per_relay_and_eve_count(tmp_path, monkeypatch):
    text = (tiny_spec_text(tmp_path / "r.csv")
            + 'experiment.eve_models = ["nce", "ce"]\nexperiment.k_grid = [2, 3]\n')
    spec = parse_spec_text(text)
    built = []
    build = secrelay.model.mean_gains_from_topology

    def counted(topology):
        built.append((topology.n_relays, topology.n_eves))
        return build(topology)

    monkeypatch.setattr("secrelay.model.mean_gains_from_topology", counted)
    assert validate_spec(spec) == []
    assert built == [(2, 1), (3, 1)]
    built.clear()
    rows = run(spec, log=None)
    assert built == [(2, 1), (3, 1)]
    # 2 eve models x 2 K x 2 SNRs, 2 schemes x 2 metrics each
    assert len(rows) == 32
