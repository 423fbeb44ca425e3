"""Declarative experiment runner with CSV/JSON output.

Experiments are described by a flat key=value file with dotted keys and
Python-literal values.  Lines starting with ``#`` and blank lines are
skipped; a trailing ``# comment`` is stripped.  Recognized keys:

    config.n_antennas = 16          # required
    config.n_relays = 5             # required
    config.n_eves = 5               # required
    config.target_rate = 1.0
    config.eve_model = "nce"        # "nce" or "ce"
    config.modulation = "qpsk"      # qpsk | psk<M> | qam<M>
    config.master_seed = 0
    topology.paper = True           # two-hop layout built from the counts
    topology.source = (-1.0, 0.0)   # or give every position explicitly
    topology.dest = (0.0, 0.0)
    topology.relays = [(1.0, 0.0)]
    topology.eves = [(1.03, 0.0)]
    topology.relay_ring = 0.02      # cluster radii for the built layout
    topology.eve_ring = 0.03
    topology.path_loss_exp = 3.0
    experiment.schemes = ["exact-jrp", "jrp", "eprs", "oprr", "eprr", "dt"]
    experiment.metrics = ["esr"]    # esr | sop | ser | ppos
    experiment.rho_grid_db = [0, 5, 10, 15, 20]
    experiment.trials = 10000       # required
    experiment.out = "results.csv"
    experiment.emit_closed_form = True
    experiment.emit_asymptotic = False
    experiment.k_grid = [1, 5]      # optional sweep over relay count
    experiment.l_grid = [5, 50]     # optional sweep over eavesdropper count
    experiment.eve_models = ["nce", "ce"]   # optional sweep over decoding model

SNR is dB-valued at this boundary only; everything below works in linear
scale.  Results land in the CSV named by ``experiment.out`` (one row per
eve model/K/L/scheme/metric/SNR tuple) plus a JSON mirror next to it.
Rows carry simulation estimates always, closed-form and asymptotic columns
where a formula exists (relayed closed forms on jrp rows, direct-transmission
forms on dt rows; blank otherwise).  K or L sweeps rebuild the two-hop
cluster layout at each size, so they presume the built-in layout rather
than explicit positions.

Exit codes: 0 success, 2 spec/validation error, 3 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from . import analytics, model
from .model import ConfigError, EveModel, Modulation, SystemConfig, Topology, TopologyError
from .montecarlo import Metric, derive_seed, estimate_from_trace, simulate
from .policy import Scheme, c_params
from .specfun import subset_count_problem

CSV_COLUMNS = (
    "eve_model",
    "n_relays",
    "n_eves",
    "scheme",
    "metric",
    "rho_dB",
    "sim_value",
    "sim_stderr",
    "closed_form",
    "asymptotic",
    "trials",
    "seed",
)

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


class SpecError(ValueError):
    """Invalid experiment description; collects every diagnostic."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass
class ExperimentSpec:
    """Everything one experiment run needs.

    k_grid / l_grid / eve_models widen the sweep beyond the SNR grid; left
    at None they pin the corresponding value from config.  The topology is
    used as given when its node counts match the point being run and is
    rebuilt with the standard two-hop cluster layout otherwise.
    """

    config: SystemConfig
    topology: Topology
    schemes: list[Scheme]
    metrics: list[Metric]
    rho_grid_db: list[float]
    trials: int
    output_path: str = "results.csv"
    emit_closed_form: bool = True
    emit_asymptotic: bool = False
    k_grid: list[int] | None = None
    l_grid: list[int] | None = None
    eve_models: list[EveModel] | None = None
    relay_ring: float = 0.02
    eve_ring: float = 0.03


@dataclass(frozen=True)
class ResultRow:
    eve_model: str
    n_relays: int
    n_eves: int
    scheme: str
    metric: str
    rho_db: float
    sim_value: float
    sim_stderr: float
    closed_form: float | None
    asymptotic: float | None
    trials: int
    seed: int


def validate_spec(spec: ExperimentSpec) -> list[str]:
    """All problems with the spec, empty when runnable (led by the key at fault, if one)."""
    problems = []
    if not spec.schemes:
        problems.append("experiment.schemes must not be empty")
    if not spec.metrics:
        problems.append("experiment.metrics must not be empty")
    if not spec.rho_grid_db:
        problems.append("experiment.rho_grid_db must not be empty")
    if spec.trials < 1:
        problems.append(f"experiment.trials must be positive, got {spec.trials}")
    if not spec.output_path:
        problems.append("experiment.out must not be empty")
    for label, grid in (("k_grid", spec.k_grid), ("l_grid", spec.l_grid)):
        if grid is not None:
            if not grid:
                problems.append(f"experiment.{label} must not be empty when given")
            elif min(grid) < (1 if label == "k_grid" else 0):
                problems.append(f"experiment.{label} entries out of range: {grid}")
    if spec.eve_models is not None and not spec.eve_models:
        problems.append("experiment.eve_models must not be empty when given")
    # Every grid point runs on its own config.  A ConfigError message leads
    # with the field at fault; prefix it with the spec key that set the field.
    keys = {"snr_linear": "experiment.rho_grid_db",
            "n_relays": "config.n_relays" if spec.k_grid is None else "experiment.k_grid",
            "n_eves": "config.n_eves" if spec.l_grid is None else "experiment.l_grid"}
    for cfg in [_point_config(spec, *p) for p in _grid_points(spec)] or [spec.config]:
        try:
            model.validate(cfg)
        except ConfigError as err:
            for message in str(err).split("; "):
                field = re.match(r"\w+", message).group()
                problems.append(f"{keys.get(field, 'config.' + field)}: {message}")
    if spec.k_grid is None and spec.topology.n_relays != spec.config.n_relays:
        problems.append(
            f"topology has {spec.topology.n_relays} relays, config says "
            f"{spec.config.n_relays}"
        )
    if spec.l_grid is None and spec.topology.n_eves != spec.config.n_eves:
        problems.append(
            f"topology has {spec.topology.n_eves} eavesdroppers, config says "
            f"{spec.config.n_eves}"
        )
    if Scheme.DT in spec.schemes and Metric.ESR in spec.metrics and spec.emit_closed_form:
        # esr_dt_lb sums over the subsets of all K+L leakages on its NCE
        # path, and over the K relay leakages under collusion.
        for em, k, l in dict.fromkeys((em, k, l) for em, k, l, _ in _grid_points(spec)):
            problem = subset_count_problem(k + l if em is EveModel.NCE or l == 0 else k)
            if problem:
                problems.append(f"closed-form dt esr at {em.value} K={k} L={l}: {problem}")
    return list(dict.fromkeys(problems))


# ---------------------------------------------------------------------------
# Spec files.
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "config.n_antennas",
    "config.n_relays",
    "config.n_eves",
    "config.target_rate",
    "config.eve_model",
    "config.modulation",
    "config.master_seed",
    "topology.paper",
    "topology.source",
    "topology.dest",
    "topology.relays",
    "topology.eves",
    "topology.relay_ring",
    "topology.eve_ring",
    "topology.path_loss_exp",
    "experiment.schemes",
    "experiment.metrics",
    "experiment.rho_grid_db",
    "experiment.trials",
    "experiment.out",
    "experiment.emit_closed_form",
    "experiment.emit_asymptotic",
    "experiment.k_grid",
    "experiment.l_grid",
    "experiment.eve_models",
}


def _parse_modulation(text: str) -> Modulation:
    name = text.strip().lower()
    if name == "qpsk":
        return Modulation.psk(4)
    m = re.fullmatch(r"(psk|qam)(\d+)", name)
    if m is None:
        raise ValueError(f"unknown modulation {text!r} (use qpsk, psk<M>, or qam<M>)")
    return getattr(Modulation, m.group(1))(int(m.group(2)))


def _parse_enum_list(values, enum_cls, what: str) -> list:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of {what} names, got {values!r}")
    out = []
    for v in values:
        try:
            out.append(enum_cls(str(v).strip().lower()))
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"unknown {what} {v!r} (valid: {valid})") from None
    return out


def _point(value, key: str) -> tuple[float, float]:
    try:
        x, y = value
        return (float(x), float(y))
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be an (x, y) pair, got {value!r}") from None


def parse_spec_text(text: str, source: str = "<spec>") -> ExperimentSpec:
    """Parse a spec file's contents; SpecError carries line-addressed
    diagnostics for every problem found."""
    entries: dict[str, tuple[int, object]] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value_text = line.partition("=")
        key = key.strip()
        if not eq or not key:
            problems.append(f"{source}:{lineno}: expected key = value, got {raw.strip()!r}")
            continue
        if key not in _KNOWN_KEYS:
            problems.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        try:
            value = ast.literal_eval(value_text.strip())
        except (ValueError, SyntaxError):
            problems.append(f"{source}:{lineno}: bad literal {value_text.strip()!r}")
            continue
        if key in entries:
            problems.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        entries[key] = (lineno, value)
    if problems:
        raise SpecError(problems)

    def take(key, default=None):
        return entries.pop(key, (0, default))[1]

    def complain(key, message):
        lineno = held.get(key, 0)
        prefix = f"{source}:{lineno}: " if lineno else f"{source}: "
        problems.append(prefix + message)

    held = {k: ln for k, (ln, _) in entries.items()}
    for key in ("config.n_antennas", "config.n_relays", "config.n_eves",
                "experiment.schemes", "experiment.metrics",
                "experiment.rho_grid_db", "experiment.trials"):
        if key not in entries:
            problems.append(f"{source}: missing required key {key!r}")
    if problems:
        raise SpecError(problems)

    def coerce(key, fn, default=None):
        if key not in entries:
            return default
        try:
            return fn(take(key))
        except (ValueError, TypeError, ConfigError) as err:
            complain(key, str(err))
            return default

    n_relays = coerce("config.n_relays", int, 1)
    n_eves = coerce("config.n_eves", int, 0)
    rho_grid = coerce("experiment.rho_grid_db",
                      lambda v: [float(x) for x in v], [])
    config = SystemConfig(
        n_antennas=coerce("config.n_antennas", int, 1),
        n_relays=n_relays,
        n_eves=n_eves,
        snr_linear=1.0,  # a placeholder: each grid point sets its own
        target_rate=coerce("config.target_rate", float, 1.0),
        eve_model=coerce("config.eve_model", lambda v: EveModel(str(v).lower()),
                         EveModel.NCE),
        modulation=coerce("config.modulation", _parse_modulation, Modulation.psk(4)),
        master_seed=coerce("config.master_seed", int, 0),
    )

    relay_ring = coerce("topology.relay_ring", float, 0.02)
    eve_ring = coerce("topology.eve_ring", float, 0.03)
    path_loss = coerce("topology.path_loss_exp", float, 3.0)
    use_paper = coerce("topology.paper", bool, True)
    explicit = {k for k in ("topology.source", "topology.dest", "topology.relays",
                            "topology.eves") if k in entries}
    if explicit and use_paper and "topology.paper" in held:
        complain("topology.paper", "topology.paper=True conflicts with explicit positions")
    if not explicit and not use_paper:
        complain("topology.paper", "topology.paper=False needs explicit positions")
    topology = None
    if explicit:
        try:
            topology = Topology(
                source_pos=_point(take("topology.source", (-1.0, 0.0)), "topology.source"),
                dest_pos=_point(take("topology.dest", (0.0, 0.0)), "topology.dest"),
                relay_pos=tuple(_point(p, "topology.relays")
                                for p in take("topology.relays", ())),
                eve_pos=tuple(_point(p, "topology.eves")
                              for p in take("topology.eves", ())),
                path_loss_exp=path_loss,
            )
        except (ValueError, TypeError) as err:
            problems.append(f"{source}: {err}")
    if topology is None:
        try:
            topology = model.paper_topology(
                max(n_relays, 1), max(n_eves, 0),
                relay_ring=relay_ring, eve_ring=eve_ring, path_loss_exp=path_loss,
            )
        except (TopologyError, ValueError) as err:
            problems.append(f"{source}: {err}")

    schemes = coerce("experiment.schemes",
                     lambda v: _parse_enum_list(v, Scheme, "scheme"), [])
    metrics = coerce("experiment.metrics",
                     lambda v: _parse_enum_list(v, Metric, "metric"), [])
    eve_models = coerce("experiment.eve_models",
                        lambda v: _parse_enum_list(v, EveModel, "eve model"), None)
    spec = ExperimentSpec(
        config=config,
        topology=topology if topology is not None else model.paper_topology(1, 0),
        schemes=schemes,
        metrics=metrics,
        rho_grid_db=rho_grid,
        trials=coerce("experiment.trials", int, 0),
        output_path=coerce("experiment.out", str, "results.csv"),
        emit_closed_form=coerce("experiment.emit_closed_form", bool, True),
        emit_asymptotic=coerce("experiment.emit_asymptotic", bool, False),
        k_grid=coerce("experiment.k_grid", lambda v: [int(x) for x in v], None),
        l_grid=coerce("experiment.l_grid", lambda v: [int(x) for x in v], None),
        eve_models=eve_models,
        relay_ring=relay_ring,
        eve_ring=eve_ring,
    )
    for message in validate_spec(spec):
        complain(re.match(r"[\w.]+", message).group(), message)
    if problems:
        raise SpecError(problems)
    return spec


def load_spec(path: str) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read(), source=os.path.basename(path))


# ---------------------------------------------------------------------------
# Presets mirroring the reference figures.
# ---------------------------------------------------------------------------


def preset(name: str) -> ExperimentSpec:
    """Canned experiment for one reference figure (fig2 .. fig7)."""
    if name not in PRESET_NAMES:
        raise SpecError([f"unknown preset {name!r} (valid: {', '.join(PRESET_NAMES)})"])
    snr_grid = [float(db) for db in range(0, 41, 5)]
    all_schemes = [Scheme.EXACT_JRP, Scheme.JRP, Scheme.EPRS,
                   Scheme.OPRR, Scheme.EPRR, Scheme.DT]
    base = SystemConfig(
        n_antennas=16, n_relays=5, n_eves=5,
        snr_linear=10.0 ** (snr_grid[0] / 10.0),
        target_rate=1.0, modulation=Modulation.psk(4), master_seed=0,
    )
    spec = ExperimentSpec(
        config=base,
        topology=model.paper_topology(base.n_relays, base.n_eves),
        schemes=all_schemes,
        metrics=[Metric.ESR],
        rho_grid_db=snr_grid,
        trials=20_000,
        output_path=f"{name}.csv",
    )
    if name in ("fig2", "fig3"):
        spec.eve_models = [EveModel.NCE if name == "fig2" else EveModel.CE]
        spec.k_grid = [1, 5]
    elif name == "fig4":
        spec.config = replace(base, n_antennas=256, n_relays=1)
        spec.eve_models = [EveModel.NCE, EveModel.CE]
        spec.k_grid = list(range(1, 11))
        spec.l_grid = [5, 50]
        spec.rho_grid_db = [20.0]
        spec.schemes = [Scheme.JRP]
    elif name in ("fig5", "fig6"):
        spec.eve_models = [EveModel.NCE if name == "fig5" else EveModel.CE]
        spec.k_grid = [1, 5]
        spec.schemes = [Scheme.JRP]
        spec.metrics = [Metric.SOP]
        spec.emit_asymptotic = True
    else:
        spec.eve_models = [EveModel.NCE, EveModel.CE]
        spec.schemes = [Scheme.JRP, Scheme.DT]
        spec.metrics = [Metric.SER]
        spec.emit_asymptotic = True
    return spec


# ---------------------------------------------------------------------------
# Running.
# ---------------------------------------------------------------------------


def _closed_columns(
    metric: Metric, scheme: Scheme, gains, cfg: SystemConfig, spec: ExperimentSpec
) -> tuple[float | None, float | None]:
    closed = asym = None
    if not (spec.emit_closed_form or spec.emit_asymptotic):
        # Each jrp column costs a 2^K subset sum: skip them all when unused.
        return closed, asym
    rho = cfg.snr_linear
    if scheme is Scheme.JRP:
        c = 0.0
        if cfg.eve_model is EveModel.CE and cfg.n_antennas >= 2:
            c = c_params(gains, cfg).c
        if metric is Metric.ESR:
            breakdown = analytics.esr_dbcj(gains, rho, c)
            closed, asym = breakdown.esr, breakdown.asymptotic_esr
        elif metric is Metric.SOP:
            closed = analytics.sop_dbcj(gains, rho, c, cfg.target_rate)
            asym = analytics.sop_dbcj_asymptotic(gains, rho, c, cfg.target_rate)
        elif metric is Metric.PPOS:
            closed = analytics.ppos_dbcj(gains, rho, c)
            asym = analytics.ppos_dbcj_asymptotic(gains, rho, c)
        else:
            closed = analytics.ser_dbcj(gains, rho, c, cfg.modulation)
            asym = analytics.ser_dbcj_asymptotic(gains, rho, c, cfg.modulation)
    elif scheme is Scheme.DT and spec.emit_closed_form:
        if metric is Metric.ESR:
            closed = analytics.esr_dt_lb(gains, cfg, cfg.eve_model)
        elif metric is Metric.SOP:
            closed = analytics.sop_dt(gains, cfg, cfg.eve_model, cfg.target_rate)
        elif metric is Metric.PPOS:
            closed = analytics.ppos_dt(gains, cfg, cfg.eve_model)
    if not spec.emit_closed_form:
        closed = None
    if not spec.emit_asymptotic:
        asym = None
    return closed, asym


def _grid_points(spec: ExperimentSpec):
    eve_models = spec.eve_models or [spec.config.eve_model]
    k_grid = spec.k_grid or [spec.config.n_relays]
    l_grid = spec.l_grid or [spec.config.n_eves]
    return [(em, k, l, rho)
            for em in eve_models for k in k_grid for l in l_grid
            for rho in spec.rho_grid_db]


def _point_config(spec: ExperimentSpec, em: EveModel, k, l, rho_db) -> SystemConfig:
    """The config that grid point (em, K, L, rho_db) runs with."""
    return replace(spec.config, n_relays=k, n_eves=l, eve_model=em).with_snr_db(rho_db)


def run(spec: ExperimentSpec, log=sys.stderr) -> list[ResultRow]:
    """Execute the experiment and write its CSV and JSON outputs."""
    problems = validate_spec(spec)
    if problems:
        raise SpecError(problems)
    points = _grid_points(spec)
    rows = []
    for idx, (em, k, l, rho_db) in enumerate(points):
        t0 = time.monotonic()
        if (k, l) == (spec.topology.n_relays, spec.topology.n_eves):
            topo = spec.topology
        else:
            topo = model.paper_topology(
                k, l, relay_ring=spec.relay_ring, eve_ring=spec.eve_ring,
                path_loss_exp=spec.topology.path_loss_exp,
            )
        gains = model.mean_gains_from_topology(topo)
        cfg = _point_config(spec, em, k, l, rho_db)
        seed = derive_seed(spec.config.master_seed, idx)
        traces = simulate(cfg, gains, spec.schemes, spec.trials, seed=seed)
        for scheme in spec.schemes:
            for metric in spec.metrics:
                est = estimate_from_trace(metric, traces[scheme], cfg)
                closed, asym = _closed_columns(metric, scheme, gains, cfg, spec)
                rows.append(ResultRow(
                    eve_model=em.value, n_relays=k, n_eves=l,
                    scheme=scheme.value, metric=metric.value, rho_db=rho_db,
                    sim_value=est.value, sim_stderr=est.std_error,
                    closed_form=closed, asymptotic=asym,
                    trials=spec.trials, seed=seed,
                ))
        if log is not None:
            print(f"[{idx + 1}/{len(points)}] {em.value} K={k} L={l} "
                  f"rho={rho_db:g} dB: {spec.trials} trials in "
                  f"{time.monotonic() - t0:.1f}s", file=log)
    write_csv(spec.output_path, rows)
    write_json(_json_path(spec.output_path), rows)
    return rows


def _json_path(csv_path: str) -> str:
    stem, _ = os.path.splitext(csv_path)
    return stem + ".json"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, rows: list[ResultRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([
                r.eve_model, r.n_relays, r.n_eves, r.scheme, r.metric,
                _cell(float(r.rho_db)), _cell(float(r.sim_value)),
                _cell(float(r.sim_stderr)), _cell(r.closed_form),
                _cell(r.asymptotic), r.trials, r.seed,
            ])


def write_json(path: str, rows: list[ResultRow]) -> None:
    payload = {"columns": list(CSV_COLUMNS),
               "rows": [[r.eve_model, r.n_relays, r.n_eves, r.scheme, r.metric,
                         r.rho_db, r.sim_value, r.sim_stderr, r.closed_form,
                         r.asymptotic, r.trials, r.seed] for r in rows]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_table(path: str) -> list[ResultRow]:
    """Parse a results CSV back into rows; exact inverse of write_csv."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {header}")
    for rec in reader:
        (em, k, l, scheme, metric, rho, sim, err, closed, asym, trials, seed) = rec
        rows.append(ResultRow(
            eve_model=em, n_relays=int(k), n_eves=int(l), scheme=scheme,
            metric=metric, rho_db=float(rho), sim_value=float(sim),
            sim_stderr=float(err),
            closed_form=float(closed) if closed else None,
            asymptotic=float(asym) if asym else None,
            trials=int(trials), seed=int(seed),
        ))
    return rows


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrelay",
        description="Secrecy-rate experiments for untrusted-relay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a spec file")
    p_run.add_argument("spec_file")
    p_pre = sub.add_parser("preset", help="run a canned figure experiment")
    p_pre.add_argument("name", help=f"one of {', '.join(PRESET_NAMES)}")
    p_pre.add_argument("--trials", type=int, default=None)
    p_pre.add_argument("--seed", type=int, default=None)
    p_pre.add_argument("--out", default=None)
    p_val = sub.add_parser("validate", help="check a spec file without running")
    p_val.add_argument("spec_file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "validate"):
            try:
                spec = load_spec(args.spec_file)
            except OSError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
            if args.command == "validate":
                print(f"{args.spec_file}: ok")
                return 0
        else:
            spec = preset(args.name)
            if args.trials is not None:
                spec.trials = args.trials
            if args.seed is not None:
                spec.config = replace(spec.config, master_seed=args.seed)
            if args.out is not None:
                spec.output_path = args.out
        rows = run(spec)
    except SpecError as err:
        for line in err.problems:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except (ConfigError, TopologyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, OSError, ValueError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
    print(f"wrote {len(rows)} rows to {spec.output_path} "
          f"and {_json_path(spec.output_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
