"""Tests of the benchmark itself: every output check rejects a corrupted
result, and the traced run fails loudly when a wrapped name goes unused.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from secrelay import analytics, montecarlo, policy  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One genuine round of every workload, with its inputs."""
    out = tmp_path_factory.mktemp("bench-out")
    runs = {}
    for name in workloads.NAMES:
        inputs = workloads.build(name, 7, out)
        runs[name] = (inputs, workloads.run_round(name, inputs))
    return runs


def _replace_row(rows, match, **changes):
    out = list(rows)
    i = next(i for i, r in enumerate(out) if all(getattr(r, k) == v for k, v in match.items()))
    out[i] = dataclasses.replace(out[i], **changes)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_genuine_outputs_pass(outputs, name):
    inputs, result = outputs[name]
    verdict = checks.check(name, inputs, result)
    assert verdict.problems == []
    assert verdict.failed == (len(workloads.SER_FAULT_POINTS) if name == "closed-forms" else 0)


def test_swapped_scheme_rows_are_rejected(outputs):
    _, rows = outputs["sim-schemes"]
    point = {"n_relays": 5, "rho_db": 10.0, "metric": "esr"}
    best = next(r for r in rows if r.scheme == "exact-jrp" and
                all(getattr(r, k) == v for k, v in point.items()))
    worst = next(r for r in rows if r.scheme == "eprr" and
                 all(getattr(r, k) == v for k, v in point.items()))
    swapped = _replace_row(rows, {**point, "scheme": "exact-jrp"}, sim_value=worst.sim_value)
    swapped = _replace_row(swapped, {**point, "scheme": "eprr"}, sim_value=best.sim_value)
    assert checks.check_ordering(rows) == []
    assert any("exact-jrp ESR" in p for p in checks.check_ordering(swapped))


def test_truncated_csv_is_rejected(outputs, tmp_path):
    inputs, rows = outputs["sim-schemes"]
    lines = Path(inputs.spec.output_path).read_text().splitlines(keepends=True)
    for cut, what in ((lines[:-1], "last row dropped"), (lines[:-1] + [lines[-1][:20]], "cut mid-row")):
        path = tmp_path / "truncated.csv"
        path.write_text("".join(cut))
        spec = dataclasses.replace(inputs.spec, output_path=str(path))
        assert any("read_table" in p for p in checks.check_table(spec, rows)), what


def test_missing_row_is_rejected(outputs):
    inputs, rows = outputs["sim-sampling"]
    assert any("expected" in p for p in checks.check_table(inputs.spec, rows[:-1]))


@pytest.mark.parametrize("value", [-1e-3, math.nan, 3.0])
def test_out_of_range_value_is_rejected(outputs, value):
    inputs, rows = outputs["sim-schemes"]
    bad = _replace_row(rows, {"scheme": "jrp", "metric": "ser", "rho_db": 0.0}, sim_value=value)
    assert checks.check_ranges(inputs.spec, bad)


def test_biased_large_antenna_esr_is_rejected(outputs):
    inputs, rows = outputs["sim-sampling"]
    row = next(r for r in rows if (r.eve_model, r.metric, r.n_relays) == ("nce", "esr", 10))
    bad = _replace_row(rows, {"eve_model": "nce", "metric": "esr", "n_relays": 10},
                       sim_value=0.85 * row.sim_value)
    assert checks.check_large_antenna(inputs.spec, rows) == []
    assert checks.check_large_antenna(inputs.spec, bad)


def test_chunk_dependent_trace_is_rejected(outputs, monkeypatch):
    inputs, rows = outputs["sim-schemes"]
    draw = montecarlo.draw_batch

    def chunk_dependent(gains, config, master_seed, first_trial, n_trials):
        batch = draw(gains, config, master_seed, first_trial, n_trials)
        batch.g_rd[0] *= 1.5  # the first trial of every chunk is skewed
        return batch

    monkeypatch.setattr(montecarlo, "draw_batch", chunk_dependent)
    problems = checks.check_chunking(inputs.spec, rows, checks.RERUN_CHUNK["sim-schemes"])
    assert any("trace differs" in p for p in problems)


@pytest.mark.parametrize("key, factor", [
    (("esr_dbcj", 8, 20.0, "nce"), 1.0 + 1e-7),
    (("esr_dbcj", 18, 20.0, "ce"), 1.0 - 1e-7),
    (("ser_dbcj", 12, 10.0, "ce"), 1.0 + 1e-5),
    (("sop_dbcj", 16, 30.0, "nce"), 1.0 + 1e-10),
    (("esr_dt_lb", 6, 20.0, "ce"), 1.0 + 1e-5),
])
def test_perturbed_closed_form_is_rejected(outputs, key, factor):
    inputs, values = outputs["closed-forms"]
    bad = {**values, key: values[key] * factor}
    assert any(str(key) in p for p in checks.check_closed(inputs, bad).problems)


def test_sop_plus_ppos_must_be_exactly_one(outputs):
    inputs, values = outputs["closed-forms"]
    key = ("ppos_dbcj", 4, 0.0, "nce")
    # Far inside the reference tolerance, so only the exact identity catches it.
    bad = {**values, key: values[key] + 4 * math.ulp(1.0)}
    assert any("not exactly 1" in p for p in checks.check_closed(inputs, bad).problems)


def test_esr_must_rise_with_relay_count(outputs):
    inputs, values = outputs["closed-forms"]
    a, b = ("esr_dbcj", 4, 20.0, "nce"), ("esr_dbcj", 8, 20.0, "nce")
    bad = {**values, a: values[b], b: values[a]}
    assert any("does not rise" in p for p in checks.check_closed(inputs, bad).problems)


def test_known_fault_counts_as_failed_until_mended(outputs):
    inputs, values = outputs["closed-forms"]
    mended = dict(values)
    for ev in inputs.evals:
        if ev.known_fault:
            mended[ev.key] = checks.closed_reference(ev)[0]
    verdict = checks.check_closed(inputs, mended)
    assert (verdict.failed, verdict.problems) == (0, [])


def _traced_closed_round(inputs):
    tracer = tracing.Tracer()
    with tracer.installed():
        workloads.run_round("closed-forms", inputs)
    return tracer


def test_traced_layers_add_up_to_the_round(outputs):
    inputs, _ = outputs["closed-forms"]
    tracer = _traced_closed_round(inputs)
    tracer.require("closed-forms")
    round_s = sum(end - start for _, parent, _, start, end in tracer.spans if parent == -1)
    assert math.isclose(sum(tracer.self_time.values()), round_s, rel_tol=1e-9)
    assert tracer.layer_metrics(1)["specfun.subset_terms"][0] > 0


def test_trace_fails_when_a_call_moves(outputs, monkeypatch):
    # esr_dt_lb no longer reaches subset_terms through analytics' namespace.
    inputs, _ = outputs["closed-forms"]
    monkeypatch.setattr(analytics, "esr_dt_lb", lambda gains, cfg, model: 1.0)
    tracer = _traced_closed_round(inputs)
    with pytest.raises(tracing.TraceError, match="analytics.subset_terms"):
        tracer.require("closed-forms")


def test_trace_fails_when_a_name_is_gone(monkeypatch):
    monkeypatch.delattr(policy, "leakage_batch")
    with pytest.raises(tracing.TraceError, match="leakage_batch"):
        with tracing.Tracer().installed():
            pass


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibration_scales_by_the_median_slice():
    assert calibration.factor([0.2, calibration.REFERENCE_SLICE_S * 2, 0.01]) == 0.5
    cal = calibration.Calibration()
    assert cal.slice() > 0 and len(cal.slices) == 1
