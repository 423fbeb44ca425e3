"""The package's public surface: what `secrelay` exports, and what it no
longer carries."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secrelay
from secrelay import analytics, channel, model, montecarlo, specfun

# Names that left the package; none may come back through an export.
REMOVED = {
    specfun: ("subset_sum", "subset_sum_iid", "SubsetTerm", "exp_int_ei", "harmonic",
              "QuadratureError", "hypoexp_terms", "exp_poly_recip_integral"),
    analytics: ("ThresholdRt",),
    montecarlo: ("esr_quadrature_oracle", "ser_quadrature_oracle"),
    model.MeanGains: ("relay_gains_iid", "eve_gains_iid", "gbar_sr"),
    channel: ("RngStream", "_pair_list", "_build_batch", "LAMBDA_EPS"),
    channel.BatchDraws: ("n_nodes",),
}


def test_every_exported_name_resolves():
    missing = [name for name in secrelay.__all__ if not hasattr(secrelay, name)]
    assert missing == []
    assert len(set(secrelay.__all__)) == len(secrelay.__all__)


def test_star_import_binds_all_names():
    namespace = {}
    exec("from secrelay import *", namespace)
    assert set(secrelay.__all__) <= set(namespace)


@pytest.mark.parametrize("owner", list(REMOVED), ids=lambda o: o.__name__)
def test_removed_names_stay_removed(owner):
    for name in REMOVED[owner]:
        assert not hasattr(owner, name)
        assert name not in secrelay.__all__


def test_removed_options_stay_removed():
    for fn, option in ((montecarlo.estimate, "chunk_size"), (montecarlo.sweep, "chunk_size"),
                       (specfun.hypoexp_cdf, "rel_tol"),
                       (specfun.signed_subset_eval, "iid_collapse_from")):
        assert option not in inspect.signature(fn).parameters, fn.__name__


def _fresh_interpreter(code, cwd=None):
    """Run code in a new interpreter that imports the package from src/;
    return its standard output."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_verification_only_modules():
    # The quadrature oracles and the statistical tests live under tests/, so a
    # fresh interpreter importing the package and its runner pays for neither.
    code = (
        "import sys, secrelay, secrelay.cli\n"
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.stats', 'mpmath')"
        " if m in sys.modules))"
    )
    assert _fresh_interpreter(code).split() == []


def test_only_simulation_loads_scipy(tmp_path):
    # Importing the package and its runner, validating a spec and the closed
    # forms run on numpy alone; scipy.special (0.3 s to import) loads with
    # the first simulated draw.
    (tmp_path / "exp.spec").write_text(
        "config.n_antennas = 4\nconfig.n_relays = 2\nconfig.n_eves = 1\n"
        'experiment.schemes = ["jrp", "dt"]\nexperiment.metrics = ["esr", "ser"]\n'
        'experiment.rho_grid_db = [0, 10]\nexperiment.trials = 30\nexperiment.out = "r.csv"\n'
    )
    code = """
import sys
import secrelay, secrelay.cli
from secrelay import (EveModel, SystemConfig, c_params, esr_dbcj, esr_dt_lb,
                      mean_gains_from_topology, paper_topology, ppos_dbcj, ppos_dt,
                      ser_dbcj, simulate, sop_dbcj, sop_dt, Scheme)

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

assert secrelay.cli.main(["validate", "exp.spec"]) == 0
gains = mean_gains_from_topology(paper_topology(3, 2))
cfg = SystemConfig(8, 3, 2, 100.0, eve_model=EveModel.CE)
c = c_params(gains, cfg).c
assert c > 0
esr_dbcj(gains, 100.0, c)
ser_dbcj(gains, 10.0, c)
sop_dbcj(gains, 100.0, c)
ppos_dbcj(gains, 100.0, c)
for model in EveModel:
    esr_dt_lb(gains, cfg, model)
    sop_dt(gains, cfg, model)
    ppos_dt(gains, cfg, model)
print("closed forms:", *scipy_modules())
simulate(cfg, gains, [Scheme.JRP], 10)
print("simulate:", "scipy.special" in scipy_modules())
"""
    out = _fresh_interpreter(code, cwd=tmp_path)
    assert out.splitlines()[-2:] == ["closed forms:", "simulate: True"]
