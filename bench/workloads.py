"""The benchmark's three workloads: inputs made from a seed, and one round of
fixed work on them.

Building inputs imports nothing beyond secrelay and numpy, so a worker's
set-up time (worker.py) is what a user pays before the first result.  A
round always does the same work for a given workload, whatever the seed:
the seed only moves node positions and the simulation's master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from secrelay import analytics, cli, model
from secrelay.model import EveModel, MeanGains, SystemConfig, Topology
from secrelay.montecarlo import Metric
from secrelay.policy import Scheme, c_params

NAMES = ("sim-sampling", "sim-schemes", "closed-forms")

# sim-sampling: large arrays, one cheap scheme, so sampling dominates.
SAMPLING_K = (2, 6, 10)
SAMPLING_L = 50
SAMPLING_ANTENNAS = 256
SAMPLING_TRIALS = 100
SAMPLING_DB = 20.0

# sim-schemes: the fig2 shape (all six schemes, 0-40 dB) at small arrays.
SCHEMES_K = (1, 5)
SCHEMES_DB = tuple(float(db) for db in range(0, 41, 5))
SCHEMES_TRIALS = 300
ALL_SCHEMES = ("exact-jrp", "jrp", "eprs", "oprr", "eprr", "dt")

# closed-forms: nested relay sets on one ring, so relay K+1 joins the first K.
CLOSED_K = (4, 8, 12, 16, 18)
CLOSED_DT_K = (2, 4, 6, 8)
CLOSED_L = 4
CLOSED_ANTENNAS = 64
ESR_DB = (20.0,)
SER_DB = (0.0, 10.0)
OUTAGE_DB = (0.0, 10.0, 20.0, 30.0)
DT_DB = 20.0
# ser_dbcj points whose alternating subset sum cancels to noise: the true SER
# is below 1e-16 while the computed one is O(1e-15) and may be negative.
# They sit on the default layout, not on seeded inputs, so they fail the same
# way on every run.
SER_FAULT_POINTS = ((10, 30.0), (12, 30.0))


def _db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass
class SimInputs:
    spec: cli.ExperimentSpec
    ops_per_round: int  # channel realizations simulated, summed over grid points


def _checked(spec: cli.ExperimentSpec) -> cli.ExperimentSpec:
    problems = cli.validate_spec(spec)
    if problems:
        raise ValueError("; ".join(problems))
    return spec


def build_sim_sampling(seed: int, out_dir: Path) -> SimInputs:
    rng = _rng(seed, 1)
    relay_ring = float(rng.uniform(0.015, 0.03))
    eve_ring = relay_ring + float(rng.uniform(0.005, 0.015))
    k0 = SAMPLING_K[0]
    spec = cli.ExperimentSpec(
        config=SystemConfig(
            n_antennas=SAMPLING_ANTENNAS, n_relays=k0, n_eves=SAMPLING_L,
            snr_linear=_db(SAMPLING_DB), master_seed=int(rng.integers(2**63)),
        ),
        topology=model.paper_topology(k0, SAMPLING_L, relay_ring, eve_ring),
        schemes=[Scheme.JRP],
        metrics=[Metric.ESR, Metric.SOP],
        rho_grid_db=[SAMPLING_DB],
        trials=SAMPLING_TRIALS,
        output_path=str(out_dir / "sim-sampling.csv"),
        k_grid=list(SAMPLING_K),
        eve_models=[EveModel.NCE, EveModel.CE],
        relay_ring=relay_ring,
        eve_ring=eve_ring,
    )
    points = len(SAMPLING_K) * 2
    return SimInputs(_checked(spec), points * SAMPLING_TRIALS)


def _sim_schemes_text(seed: int, out_dir: Path) -> str:
    """The sim-schemes experiment as a spec file, as `secrelay run` reads it."""
    rng = _rng(seed, 2)
    relay_ring = float(rng.uniform(0.015, 0.03))
    eve_ring = relay_ring + float(rng.uniform(0.005, 0.015))
    return "\n".join([
        "config.n_antennas = 16",
        f"config.n_relays = {SCHEMES_K[-1]}",
        "config.n_eves = 5",
        'config.eve_model = "nce"',
        f"config.master_seed = {int(rng.integers(2**63))}",
        f"topology.relay_ring = {relay_ring!r}",
        f"topology.eve_ring = {eve_ring!r}",
        f"experiment.schemes = {list(ALL_SCHEMES)!r}",
        'experiment.metrics = ["esr", "ser"]',
        f"experiment.rho_grid_db = {list(SCHEMES_DB)!r}",
        f"experiment.trials = {SCHEMES_TRIALS}",
        f"experiment.k_grid = {list(SCHEMES_K)!r}",
        f"experiment.out = {str(out_dir / 'sim-schemes.csv')!r}",
        "",
    ])


def build_sim_schemes(seed: int, out_dir: Path) -> SimInputs:
    spec = cli.parse_spec_text(_sim_schemes_text(seed, out_dir), source="sim-schemes.spec")
    points = len(SCHEMES_K) * len(SCHEMES_DB)
    return SimInputs(spec, points * SCHEMES_TRIALS)


def run_sim(inputs: SimInputs) -> list[cli.ResultRow]:
    return cli.run(inputs.spec, log=None)


@dataclass(frozen=True)
class Eval:
    """One closed-form evaluation: analytics.<fn>(*args)."""

    key: tuple
    fn: str
    args: tuple
    known_fault: bool = False


@dataclass
class ClosedInputs:
    evals: list[Eval]

    @property
    def ops_per_round(self) -> int:
        return len(self.evals)


def _ring_gains(ring: float, relay_ang: np.ndarray, eve_ang: np.ndarray) -> MeanGains:
    def on_ring(r, ang):
        return tuple((1.0 + r * math.cos(a), r * math.sin(a)) for a in ang)

    topo = Topology(
        source_pos=(-1.0, 0.0), dest_pos=(0.0, 0.0),
        relay_pos=on_ring(ring, relay_ang), eve_pos=on_ring(1.5 * ring, eve_ang),
    )
    return model.mean_gains_from_topology(topo)


def _closed_config(k: int, n_eves: int, db: float, eve_model: EveModel) -> SystemConfig:
    cfg = SystemConfig(
        n_antennas=CLOSED_ANTENNAS, n_relays=k, n_eves=n_eves,
        snr_linear=_db(db), eve_model=eve_model,
    )
    model.validate(cfg)
    return cfg


def build_closed_forms(seed: int, out_dir: Path) -> ClosedInputs:
    del out_dir  # closed forms write nothing
    rng = _rng(seed, 3)
    ring = float(rng.uniform(0.05, 0.15))
    relay_ang = rng.uniform(0.0, 2.0 * math.pi, max(CLOSED_K))
    eve_ang = rng.uniform(0.0, 2.0 * math.pi, CLOSED_L)
    evals = []
    for k in CLOSED_K:
        g = _ring_gains(ring, relay_ang[:k], ())
        c_ce = c_params(_ring_gains(ring, relay_ang[:k], eve_ang),
                        _closed_config(k, CLOSED_L, ESR_DB[0], EveModel.CE)).c
        for label, c in (("nce", 0.0), ("ce", c_ce)):
            evals += [Eval(("esr_dbcj", k, db, label), "esr_dbcj", (g, _db(db), c))
                      for db in ESR_DB]
            evals += [Eval(("ser_dbcj", k, db, label), "ser_dbcj", (g, _db(db), c))
                      for db in SER_DB]
            for db in OUTAGE_DB:
                evals += [
                    Eval(("sop_dbcj", k, db, label), "sop_dbcj", (g, _db(db), c, 1.0)),
                    Eval(("sop0_dbcj", k, db, label), "sop_dbcj", (g, _db(db), c, 0.0)),
                    Eval(("ppos_dbcj", k, db, label), "ppos_dbcj", (g, _db(db), c)),
                ]
    for k in CLOSED_DT_K:
        g = _ring_gains(ring, relay_ang[:k], eve_ang)
        for em in (EveModel.NCE, EveModel.CE):
            evals.append(Eval(("esr_dt_lb", k, DT_DB, em.value), "esr_dt_lb",
                              (g, _closed_config(k, CLOSED_L, DT_DB, em), em)))
    for k, db in SER_FAULT_POINTS:
        g = model.mean_gains_from_topology(model.paper_topology(k, 0))
        evals.append(Eval(("ser_dbcj_fault", k, db, "nce"), "ser_dbcj",
                          (g, _db(db), 0.0), known_fault=True))
    return ClosedInputs(evals)


def run_closed(inputs: ClosedInputs) -> dict[tuple, float]:
    out = {}
    for ev in inputs.evals:
        # Looked up on the module at call time, so the tracer's wrapper applies.
        value = getattr(analytics, ev.fn)(*ev.args)
        out[ev.key] = value.esr if ev.fn == "esr_dbcj" else value
    return out


BUILDERS = {
    "sim-sampling": build_sim_sampling,
    "sim-schemes": build_sim_schemes,
    "closed-forms": build_closed_forms,
}
RUNNERS = {
    "sim-sampling": run_sim,
    "sim-schemes": run_sim,
    "closed-forms": run_closed,
}


def build(name: str, seed: int, out_dir: Path):
    return BUILDERS[name](seed, out_dir)


def run_round(name: str, inputs):
    return RUNNERS[name](inputs)

