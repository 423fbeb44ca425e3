"""Declarative experiment runner with CSV/JSON output.

Experiments are described by a flat key=value file with dotted keys and
Python-literal values.  Lines starting with ``#`` and blank lines are
skipped; a trailing ``# comment`` is stripped.  Counts (node counts,
master_seed, trials, k_grid/l_grid entries) take integers or integral floats
such as 1e6; flags (topology.paper, experiment.emit_*) take True or False.
A key left out takes the default of the SystemConfig, Topology/paper_topology
or ExperimentSpec field it sets.  Recognized keys, with example values:

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
    experiment.schemes = ["exact-jrp", "jrp", "eprs", "oprr", "eprr", "dt"]   # required
    experiment.metrics = ["esr"]    # required: esr | sop | ser | ppos
    experiment.rho_grid_db = [0, 5, 10, 15, 20]   # required
    experiment.trials = 10000       # required
    experiment.out = "results.csv"
    experiment.emit_closed_form = True
    experiment.emit_asymptotic = False
    experiment.k_grid = [1, 5]      # optional sweep over relay count
    experiment.l_grid = [5, 50]     # optional sweep over eavesdropper count
    experiment.eve_models = ["nce", "ce"]   # optional; the models share the draws

SNR is dB-valued at this boundary only; everything below works in linear
scale.  Results land in the CSV named by ``experiment.out`` (one row per
eve model/K/L/scheme/metric/SNR tuple) plus a JSON mirror next to it.
Rows carry simulation estimates always, closed-form and asymptotic columns
where a formula exists (relayed closed forms on jrp rows, direct-transmission
forms on dt rows; blank otherwise, and on CE jrp rows below two antennas,
where the collusion penalty is undefined).  K or L sweeps rebuild the two-hop
cluster layout at each size, so they presume the built-in layout rather
than explicit positions.  ``validate`` builds every grid point's layout,
mean gains and config in the pass that ``run`` simulates from, so it
refuses what ``run`` would refuse.

Exit codes: 0 success, 2 spec/validation error, 3 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import os
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from itertools import product
from operator import attrgetter
from typing import NamedTuple

from . import analytics, model
from .model import ConfigError, EveModel, Modulation, SystemConfig, Topology, TopologyError
from .montecarlo import Metric, derive_seed, estimate_from_trace, simulate
from .policy import Scheme, c_params

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
    return _grid(spec)[1]


def _grid(spec: ExperimentSpec) -> tuple[list[tuple], list[str]]:
    """Every (K, L) position in run order, as (K, L, mean gains, points)
    with its points model-major as (eve model, rho_dB, config), and every
    problem with the spec (led by the key at fault, if one).  The positions
    are runnable only when there are no problems."""
    problems = []
    for field in ("schemes", "metrics", "rho_grid_db"):
        if not getattr(spec, field):
            problems.append(f"experiment.{field} must not be empty")
    if spec.trials < 1:
        problems.append(f"experiment.trials must be positive, got {spec.trials}")
    if not spec.output_path:
        problems.append("experiment.out must not be empty")
    elif _json_path(spec.output_path) == spec.output_path:
        problems.append(f"experiment.out: {spec.output_path!r} is also the path of its "
                        f"JSON mirror; give it another extension, such as .csv")
    else:
        for path in (spec.output_path, _json_path(spec.output_path)):
            if os.path.isdir(path):
                problems.append(f"experiment.out: {path!r} is a directory")
    for label, grid in (("k_grid", spec.k_grid), ("l_grid", spec.l_grid)):
        if grid is not None:
            if not grid:
                problems.append(f"experiment.{label} must not be empty when given")
            elif min(grid) < (1 if label == "k_grid" else 0):
                problems.append(f"experiment.{label} entries out of range: {grid}")
    if spec.eve_models is not None and not spec.eve_models:
        problems.append("experiment.eve_models must not be empty when given")
    # A repeated entry would run its rows twice, or write two rows under one key.
    for field in ("schemes", "metrics", "rho_grid_db", "k_grid", "l_grid", "eve_models"):
        values = getattr(spec, field) or []
        for i, value in enumerate(values):
            if value in values[:i]:
                problems.append(f"experiment.{field}: {getattr(value, 'value', value)!r} "
                                f"is listed more than once")
    for field, nodes, grid in (("n_relays", "relays", spec.k_grid),
                               ("n_eves", "eavesdroppers", spec.l_grid)):
        have, want = getattr(spec.topology, field), getattr(spec.config, field)
        if grid is None and have != want:
            problems.append(f"topology has {have} {nodes}, config says {want}")
    positions = []
    for k, l in product(spec.k_grid or [spec.config.n_relays],
                        spec.l_grid or [spec.config.n_eves]):
        # Counts that model.validate refuses get no layout, and so no
        # second message.
        gains = None
        if 1 <= k <= model.MAX_RELAYS and l >= 0:
            topo = spec.topology
            try:
                if (k, l) != (topo.n_relays, topo.n_eves):
                    topo = model.paper_topology(
                        k, l, spec.relay_ring, spec.eve_ring, topo.path_loss_exp)
                gains = model.mean_gains_from_topology(topo)
            except ValueError as err:  # a TopologyError, or gains that are not finite
                problems.append(f"topology at K={k} L={l}: {err}")
        points = []
        for em in spec.eve_models or [spec.config.eve_model]:
            cfg = replace(spec.config, n_relays=k, n_eves=l, eve_model=em)
            points += [(em, rho_db, cfg.with_snr_db(rho_db)) for rho_db in spec.rho_grid_db]
        positions.append((k, l, gains, points))
    # A ConfigError message leads with the field at fault; prefix it with
    # the spec key that set the field.
    keys = {"snr_linear": "experiment.rho_grid_db",
            "n_relays": "config.n_relays" if spec.k_grid is None else "experiment.k_grid",
            "n_eves": "config.n_eves" if spec.l_grid is None else "experiment.l_grid"}
    for cfg in [cfg for *_, points in positions for _, _, cfg in points] or [spec.config]:
        try:
            model.validate(cfg)
        except ConfigError as err:
            for message in str(err).split("; "):
                field = re.match(r"\w+", message).group()
                problems.append(f"{keys.get(field, 'config.' + field)}: {message}")
    return positions, list(dict.fromkeys(problems))


# ---------------------------------------------------------------------------
# Spec files.
# ---------------------------------------------------------------------------

def _parse_modulation(text) -> Modulation:
    name = str(text).strip().lower()
    if name == "qpsk":
        return Modulation.psk(4)
    m = re.fullmatch(r"(psk|qam)(\d+)", name)
    if m is None:
        raise ValueError(f"unknown modulation {text!r} (use qpsk, psk<M>, or qam<M>)")
    return getattr(Modulation, m.group(1))(int(m.group(2)))


def _named(enum_cls, what: str):
    """Parser of one enum member given by its value, e.g. "jrp"."""
    def parse(value):
        try:
            return enum_cls(str(value).strip().lower())
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"unknown {what} {value!r} (valid: {valid})") from None
    return parse


def _each(parse, into=list):
    """Parser of a list or tuple whose every entry `parse` reads."""
    def parse_all(values):
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"expected a list, got {values!r}")
        return into(parse(v) for v in values)
    return parse_all


def _count(value) -> int:
    """An int, or a float with an integral value (so 1e6 works); never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected True or False, got {value!r}")
    return value


def _point(value) -> tuple[float, float]:
    try:
        x, y = value
        return (float(x), float(y))
    except (TypeError, ValueError):
        raise ValueError(f"expected an (x, y) pair, got {value!r}") from None


class _Key(NamedTuple):
    field: str  # the argument it sets, of the object its section names
    parse: Callable
    # Required keys only: stands in for a bad value so the rest is still checked.
    placeholder: object = None


# Every spec key; the part before the dot names where its value goes:
# SystemConfig, ExperimentSpec, or the explicit Topology / built
# paper_topology (whose rings ExperimentSpec keeps for K/L sweeps).  Keys
# left out are not passed, so each default is the one declared there.
_SPEC_KEYS = {
    "config.n_antennas": _Key("n_antennas", _count, placeholder=1),
    "config.n_relays": _Key("n_relays", _count, placeholder=1),
    "config.n_eves": _Key("n_eves", _count, placeholder=0),
    "config.target_rate": _Key("target_rate", float),
    "config.eve_model": _Key("eve_model", _named(EveModel, "eve model")),
    "config.modulation": _Key("modulation", _parse_modulation),
    "config.master_seed": _Key("master_seed", _count),
    "topology.paper": _Key("paper", _flag),
    "topology.source": _Key("source_pos", _point),
    "topology.dest": _Key("dest_pos", _point),
    "topology.relays": _Key("relay_pos", _each(_point, tuple)),
    "topology.eves": _Key("eve_pos", _each(_point, tuple)),
    "topology.relay_ring": _Key("relay_ring", _finite),
    "topology.eve_ring": _Key("eve_ring", _finite),
    "topology.path_loss_exp": _Key("path_loss_exp", float),
    "experiment.schemes": _Key("schemes", _each(_named(Scheme, "scheme")), placeholder=()),
    "experiment.metrics": _Key("metrics", _each(_named(Metric, "metric")), placeholder=()),
    "experiment.rho_grid_db": _Key("rho_grid_db", _each(float), placeholder=()),
    "experiment.trials": _Key("trials", _count, placeholder=0),
    "experiment.out": _Key("output_path", str),
    "experiment.emit_closed_form": _Key("emit_closed_form", _flag),
    "experiment.emit_asymptotic": _Key("emit_asymptotic", _flag),
    "experiment.k_grid": _Key("k_grid", _each(_count)),
    "experiment.l_grid": _Key("l_grid", _each(_count)),
    "experiment.eve_models": _Key("eve_models", _each(_named(EveModel, "eve model"))),
}


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
        if key not in _SPEC_KEYS:
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
    for key, spec_key in _SPEC_KEYS.items():
        if spec_key.placeholder is not None and key not in entries:
            problems.append(f"{source}: missing required key {key!r}")
    if problems:
        raise SpecError(problems)

    def complain(key, message):
        lineno = entries.get(key, (0,))[0]
        prefix = f"{source}:{lineno}: " if lineno else f"{source}: "
        problems.append(prefix + message)

    given = {"config": {}, "topology": {}, "experiment": {}}
    for key, (_, value) in entries.items():
        field, parse, placeholder = _SPEC_KEYS[key]
        try:
            value = parse(value)
        except (ValueError, TypeError) as err:
            complain(key, f"{key}: {err}")
            if placeholder is None:
                continue
            value = placeholder
        given[key.partition(".")[0]][field] = value

    # snr_linear is a placeholder: each grid point sets its own.
    config = SystemConfig(snr_linear=1.0, **given["config"])
    layout = given["topology"]
    paper = layout.pop("paper", None)
    rings = {f: layout.pop(f) for f in ("relay_ring", "eve_ring") if f in layout}
    loss = {f: layout.pop(f) for f in ("path_loss_exp",) if f in layout}
    # What is left in layout are the explicit positions, if any.
    if layout and paper:
        complain("topology.paper", "topology.paper=True conflicts with explicit positions")
    if not layout and paper is False:
        complain("topology.paper", "topology.paper=False needs explicit positions")
    if layout.keys() >= {"source_pos", "dest_pos", "relay_pos"}:
        topology = Topology(**layout, **loss)
    else:
        if layout:
            complain("topology", "explicit positions need topology.source, "
                                 "topology.dest and topology.relays")
        topology = model.paper_topology(
            max(config.n_relays, 1), max(config.n_eves, 0), **rings, **loss)
    spec = ExperimentSpec(config=config, topology=topology, **rings, **given["experiment"])
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
    # snr_linear is a placeholder: each grid point sets its own.
    base = SystemConfig(n_antennas=16, n_relays=5, n_eves=5, snr_linear=1.0)
    spec = ExperimentSpec(
        config=base,
        topology=model.paper_topology(base.n_relays, base.n_eves),
        schemes=[Scheme.EXACT_JRP, Scheme.JRP, Scheme.EPRS,
                 Scheme.OPRR, Scheme.EPRR, Scheme.DT],
        metrics=[Metric.ESR],
        rho_grid_db=[float(db) for db in range(0, 41, 5)],
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


def _collusion_penalty(gains, cfg: SystemConfig, spec: ExperimentSpec) -> float | None:
    """The CE penalty C that a grid point's jrp closed forms take: zero under
    NCE or when the spec emits no jrp closed column, and None under CE below
    two antennas, where c_params is undefined and the jrp cells stay blank."""
    if (Scheme.JRP not in spec.schemes or not (spec.emit_closed_form or spec.emit_asymptotic)
            or cfg.eve_model is EveModel.NCE):
        return 0.0
    return c_params(gains, cfg).c if cfg.n_antennas >= 2 else None


def _closed_columns(
    metric: Metric, scheme: Scheme, gains, cfg: SystemConfig, spec: ExperimentSpec, c: float | None
) -> tuple[float | None, float | None]:
    """A row's closed-form and asymptotic cells, None where no formula
    applies; c is the point's _collusion_penalty, and jrp has no formula
    where it is None.  A formula runs only for a column the spec emits, save
    that one esr_dbcj call gives both ESR cells: its power offset, a 2^K
    subset sum like the SER, is formed whenever either cell is emitted."""
    closed = asym = None
    rho = cfg.snr_linear
    if scheme is Scheme.JRP and c is not None and (spec.emit_closed_form or spec.emit_asymptotic):
        if metric is Metric.ESR:  # one call gives both columns
            breakdown = analytics.esr_dbcj(gains, rho, c)
            closed, asym = breakdown.esr, breakdown.asymptotic_esr
        else:
            exact, asymptotic, *extra = {
                Metric.SOP: (analytics.sop_dbcj, analytics.sop_dbcj_asymptotic, cfg.target_rate),
                Metric.PPOS: (analytics.ppos_dbcj, analytics.ppos_dbcj_asymptotic),
                Metric.SER: (analytics.ser_dbcj, analytics.ser_dbcj_asymptotic, cfg.modulation),
            }[metric]
            if spec.emit_closed_form:
                closed = exact(gains, rho, c, *extra)
            if spec.emit_asymptotic:
                asym = asymptotic(gains, rho, c, *extra)
    elif scheme is Scheme.DT and spec.emit_closed_form:
        if metric is Metric.ESR:
            closed = analytics.esr_dt_lb(gains, cfg, cfg.eve_model)
        elif metric is Metric.SOP:
            closed = analytics.sop_dt(gains, cfg, cfg.eve_model, cfg.target_rate)
        elif metric is Metric.PPOS:
            closed = analytics.ppos_dt(gains, cfg, cfg.eve_model)
    return (closed if spec.emit_closed_form else None,
            asym if spec.emit_asymptotic else None)


def run(spec: ExperimentSpec, log=sys.stderr) -> list[ResultRow]:
    """Execute the experiment and write its CSV and JSON outputs."""
    positions, problems = _grid(spec)
    if problems:
        raise SpecError(problems)
    # Fail on an output that cannot be written before simulating, not after.
    out_dir = os.path.dirname(spec.output_path) or os.curdir
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise OSError(f"cannot write {spec.output_path}: "
                      f"{out_dir} is not a writable directory")
    # The draws depend on neither the eavesdropper model nor rho beyond a
    # final scaling, so each (K, L) position is simulated once for every
    # model and rho, seeded by the index its first point has among one
    # model's points (position index times n_rho); rows still come out
    # model-major.
    models = spec.eve_models or [spec.config.eve_model]
    n_rho = len(spec.rho_grid_db)
    blocks = {em: [] for em in models}
    for index, (k, l, gains, points) in enumerate(positions):
        t0 = time.monotonic()
        seed = derive_seed(spec.config.master_seed, index * n_rho)
        traces = simulate(points[0][2], gains, spec.schemes, spec.trials, seed=seed,
                          points=[(em, cfg.snr_linear) for em, _, cfg in points])
        for em, rho_db, cfg in points:
            c = _collusion_penalty(gains, cfg, spec)
            for scheme in spec.schemes:
                for metric in spec.metrics:
                    est = estimate_from_trace(metric, traces[em, cfg.snr_linear][scheme], cfg)
                    closed, asym = _closed_columns(metric, scheme, gains, cfg, spec, c)
                    blocks[em].append(ResultRow(
                        eve_model=em.value, n_relays=k, n_eves=l,
                        scheme=scheme.value, metric=metric.value, rho_db=rho_db,
                        sim_value=est.value, sim_stderr=est.std_error,
                        closed_form=closed, asymptotic=asym,
                        trials=spec.trials, seed=seed,
                    ))
        if log is not None:
            lo, hi = min(spec.rho_grid_db), max(spec.rho_grid_db)
            span = f"{lo:g} dB" if n_rho == 1 else f"{lo:g}..{hi:g} dB ({n_rho} values)"
            print(f"[{index + 1}/{len(positions)}] "
                  f"{','.join(m.value for m in models)} K={k} L={l} rho={span}: "
                  f"{spec.trials} trials in {time.monotonic() - t0:.1f}s", file=log)
    rows = [row for block in blocks.values() for row in block]
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


def _blank_or_float(value) -> float | None:
    return None if value is None or value == "" else float(value)


# A row's values in field order (= CSV_COLUMNS order), and the type of each:
# read_table parses the cells with these types and write_csv formats each
# value through its type, so the two are exact inverses.
_row_values = attrgetter(*(f.name for f in fields(ResultRow)))
_CELL_TYPES = (str, int, int, str, str, float, float, float,
               _blank_or_float, _blank_or_float, int, int)


def write_csv(path: str, rows: list[ResultRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(_cell(cast(v)) for cast, v in zip(_CELL_TYPES, _row_values(r)))


def write_json(path: str, rows: list[ResultRow]) -> None:
    payload = {"columns": list(CSV_COLUMNS), "rows": [list(_row_values(r)) for r in rows]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_table(path: str) -> list[ResultRow]:
    """Parse a results CSV back into rows; exact inverse of write_csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {header}")
    return [ResultRow(*(cast(cell) for cast, cell in zip(_CELL_TYPES, rec, strict=True)))
            for rec in reader]


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
