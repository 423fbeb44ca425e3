"""Secrecy-rate analysis and simulation for AF relay networks whose relays
are helpful but untrusted, with destination-based jamming against them and
any external eavesdroppers.

Layering: model (parameters, geometry, mean gains) -> specfun (exponential
integrals, hypoexponential CDFs, the max-of-exponentials quadrature, subset
sums) -> channel (batched fading draws and exact SINRs) -> policy (power
splits and relay selection, one batch of trials at a time) -> analytics
(closed-form ESR/SOP/SER and their asymptotes) -> montecarlo (trial engine)
-> cli (experiment runner).  The package does not import cli, so
`python -m secrelay.cli` runs it as __main__ only; import the runner's names
from `secrelay.cli`.

Importing secrelay (or secrelay.cli) loads no scipy module.  The two
functions that call `scipy.special` import it on first use: the first
simulated draw (gammaincinv in channel) and the first SER reduction of a
simulation (erfc in specfun.q_function).  Validating a spec and every
closed form run on numpy alone.  The quadrature oracles that verify the
closed forms live in tests/quadrature_reference.py: they are verification
code, kept off the import path with scipy.integrate.
"""

from .model import (
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
from .channel import (
    BatchDraws,
    RngStream,
    draw_batch,
)
from .policy import (
    CParams,
    RegimeWarning,
    Scheme,
    c_params,
    feedback_overhead_bits,
    opa_ce,
    opa_nce,
    opa_nce_statistical,
    run_scheme_batch,
    secrecy_rate,
    select_relay_maxgain,
)
from .analytics import (
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
from .montecarlo import (
    Metric,
    MetricEstimate,
    SchemeTrace,
    derive_seed,
    estimate,
    estimate_from_trace,
    simulate,
    sweep,
)

__all__ = [
    "BatchDraws",
    "CParams",
    "ConfigError",
    "EsrBreakdown",
    "EveModel",
    "MeanGains",
    "Metric",
    "MetricEstimate",
    "Modulation",
    "RegimeWarning",
    "RngStream",
    "Scheme",
    "SchemeTrace",
    "SystemConfig",
    "Topology",
    "TopologyError",
    "c_params",
    "derive_seed",
    "dmt_reliability",
    "dmt_secrecy",
    "draw_batch",
    "esr_dbcj",
    "esr_dt_lb",
    "estimate",
    "estimate_from_trace",
    "feedback_overhead_bits",
    "leakage_floor",
    "mean_gains_from_topology",
    "opa_ce",
    "opa_nce",
    "opa_nce_statistical",
    "outage_threshold",
    "paper_topology",
    "ppos_dbcj",
    "ppos_dbcj_asymptotic",
    "ppos_dt",
    "run_scheme_batch",
    "secrecy_rate",
    "select_relay_maxgain",
    "ser_dbcj",
    "ser_dbcj_asymptotic",
    "simulate",
    "sop_dbcj",
    "sop_dbcj_asymptotic",
    "sop_dt",
    "sweep",
    "validate",
]
