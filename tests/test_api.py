"""The package's public surface: what `secrelay` exports, and what it no
longer carries."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secrelay
from secrelay import analytics, model, montecarlo, specfun

# Names that left the package; none may come back through an export.
REMOVED = {
    specfun: ("subset_sum", "subset_sum_iid", "SubsetTerm", "exp_int_ei", "harmonic",
              "QuadratureError"),
    analytics: ("ThresholdRt",),
    montecarlo: ("esr_quadrature_oracle", "ser_quadrature_oracle"),
    model.MeanGains: ("relay_gains_iid", "eve_gains_iid", "gbar_sr"),
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
                       (specfun.hypoexp_terms, "rel_tol"), (specfun.hypoexp_cdf, "rel_tol"),
                       (specfun.signed_subset_eval, "iid_collapse_from")):
        assert option not in inspect.signature(fn).parameters, fn.__name__


def test_import_loads_no_verification_only_modules():
    # The quadrature oracles and the statistical tests live under tests/, so a
    # fresh interpreter importing the package and its runner pays for neither.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, secrelay, secrelay.cli\n"
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.stats', 'mpmath')"
        " if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []
