"""The one count rule: every count, seed and index the package takes is an
int or numpy integer, never a bool, within its site's bounds.  Each site
raises its own exception type, with a message led by the argument's name.
The eavesdropper model has one rule too: an EveModel member, never its name."""

from dataclasses import replace

import numpy as np
import pytest

from secrelay.analytics import dmt_reliability, dmt_secrecy, esr_dt_lb, ppos_dt, sop_dt
from secrelay.channel import draw_batch, dt_leakage, leakage_batch
from secrelay.cli import ExperimentSpec, SpecError, validate_spec
from secrelay.model import (
    ConfigError,
    EveModel,
    MeanGains,
    Modulation,
    SystemConfig,
    TopologyError,
    paper_topology,
    validate,
)
from secrelay.montecarlo import Metric, derive_seed, simulate
from secrelay.policy import (
    Scheme,
    c_params,
    feedback_overhead_bits,
    opa_nce_statistical,
    run_scheme_batch,
)

GAINS = MeanGains.iid(2, 1)
CFG = SystemConfig(n_antennas=4, n_relays=2, n_eves=1, snr_linear=10.0)


def _spec_trials(trials):
    spec = ExperimentSpec(config=CFG, topology=paper_topology(2, 1), schemes=[Scheme.JRP],
                          metrics=[Metric.ESR], rho_grid_db=[0.0], trials=trials)
    problems = validate_spec(spec)
    if problems:
        raise SpecError(problems)


# site: (call taking the count, exception type, argument name, a valid value)
SITES = {
    "validate.n_antennas": (lambda v: validate(replace(CFG, n_antennas=v)), ConfigError,
                            "n_antennas", 4),
    "validate.n_relays": (lambda v: validate(replace(CFG, n_relays=v)), ConfigError,
                          "n_relays", 2),
    "validate.n_eves": (lambda v: validate(replace(CFG, n_eves=v)), ConfigError, "n_eves", 1),
    "validate.master_seed": (lambda v: validate(replace(CFG, master_seed=v)), ConfigError,
                             "master_seed", 7),
    "paper_topology.n_relays": (lambda v: paper_topology(v, 1), TopologyError, "n_relays", 3),
    "paper_topology.n_eves": (lambda v: paper_topology(2, v), TopologyError, "n_eves", 1),
    "qam.order": (Modulation.qam, ConfigError, "order", 16),
    "psk.order": (Modulation.psk, ConfigError, "order", 8),
    "draw_batch.n_trials": (lambda v: draw_batch(GAINS, CFG, 5, 7, v), ValueError,
                            "n_trials", 3),
    "draw_batch.master_seed": (lambda v: draw_batch(GAINS, CFG, v, 7, 3), ValueError,
                               "master_seed", 5),
    "draw_batch.first_trial": (lambda v: draw_batch(GAINS, CFG, 5, v, 3), ValueError,
                               "first_trial", 7),
    "simulate.trials": (lambda v: simulate(CFG, GAINS, [Scheme.JRP], v, seed=1), ValueError,
                        "trials", 4),
    "simulate.chunk_size": (lambda v: simulate(CFG, GAINS, [Scheme.JRP], 4, seed=1,
                                               chunk_size=v), ValueError, "chunk_size", 3),
    "derive_seed.master_seed": (lambda v: derive_seed(v, 3), ValueError, "master_seed", 5),
    "derive_seed.index": (lambda v: derive_seed(5, v), ValueError, "index", 3),
    "feedback_overhead_bits.n_relays": (lambda v: feedback_overhead_bits(v, 8), ValueError,
                                        "n_relays", 4),
    "feedback_overhead_bits.csi_bits": (lambda v: feedback_overhead_bits(4, v), ValueError,
                                        "csi_bits", 8),
    "dmt_secrecy.n_relays": (lambda v: dmt_secrecy(v, 0.1), ValueError, "n_relays", 3),
    "dmt_reliability.n_relays": (lambda v: dmt_reliability(v, 0.1), ValueError,
                                 "n_relays", 3),
    "opa_nce_statistical.n_antennas": (lambda v: opa_nce_statistical(1.0, v, 1.0), ValueError,
                                       "n_antennas", 64),
    "c_params.n_antennas": (lambda v: c_params(GAINS, replace(CFG, n_antennas=v)), ValueError,
                            "n_antennas", 4),
    "spec.experiment.trials": (_spec_trials, SpecError, "experiment.trials", 10),
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_count_site_takes_only_integers(site):
    call, error, name, valid = SITES[site]
    # 1.5 stands for a seed with a fraction: it used to pass validate and
    # fail later in numpy's SeedSequence.
    for bad in (2.5, 2.0, True, 1.5):
        with pytest.raises(error) as exc:
            call(bad)
        assert type(exc.value) is error, (bad, type(exc.value))
        assert str(exc.value).startswith(f"{name} must be an integer"), (bad, str(exc.value))
    call(np.int64(valid))
    call(valid)


def test_numpy_seeds_and_indices_match_python_ints():
    # Seed and trial arithmetic runs on Python ints: numpy's 64-bit types
    # would wrap or overflow near 2**64.
    top = 2**64 - 1
    assert derive_seed(np.uint64(top), np.int64(3)) == derive_seed(top, 3)
    for seed, first in ((np.uint64(top), np.uint64(top - 2)), (np.int64(5), np.int64(2**40))):
        a = draw_batch(GAINS, CFG, seed, first, 2)
        b = draw_batch(GAINS, CFG, int(seed), int(first), 2)
        assert a.g_sr.tobytes() == b.g_sr.tobytes() and a.g_rl.tobytes() == b.g_rl.tobytes()


BATCH = draw_batch(GAINS, CFG, 1, 0, 4)

# site: (call taking the eavesdropper model, exception type, argument name)
MODEL_SITES = {
    "validate": (lambda m: validate(replace(CFG, eve_model=m)), ConfigError, "eve_model"),
    "c_params": (lambda m: c_params(GAINS, replace(CFG, eve_model=m)), ValueError,
                 "eve_model"),
    "run_scheme_batch": (lambda m: run_scheme_batch(BATCH, Scheme.JRP, replace(CFG, eve_model=m)),
                         ValueError, "eve_model"),
    "esr_dt_lb": (lambda m: esr_dt_lb(GAINS, CFG, m), ValueError, "model"),
    "sop_dt": (lambda m: sop_dt(GAINS, CFG, m), ValueError, "model"),
    "ppos_dt": (lambda m: ppos_dt(GAINS, CFG, m), ValueError, "model"),
    "leakage_batch": (lambda m: leakage_batch(BATCH, np.arange(4) % 2, np.full(4, 0.5), m),
                      ValueError, "model"),
    "dt_leakage": (lambda m: dt_leakage(BATCH.g_null_d, 2, m), ValueError, "model"),
}


@pytest.mark.parametrize("bad", ["nce", "ce", None])
@pytest.mark.parametrize("site", list(MODEL_SITES))
def test_every_eve_model_site_takes_only_members(site, bad):
    # Each of these once ran a model's name, or None, as the other model:
    # all but c_params as CE, and c_params ("ce" included) as NCE.
    call, error, name = MODEL_SITES[site]
    with pytest.raises(error) as exc:
        call(bad)
    assert type(exc.value) is error
    assert str(exc.value) == f"{name} must be an EveModel, got {bad!r}"
    for member in EveModel:
        call(member)
