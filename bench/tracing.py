"""Per-layer timing of secrelay from outside the package.

The tracer replaces, for the length of a traced round, the public names that
one secrelay module looks up in another (montecarlo's `draw_batch`, policy's
`leakage_batch`, cli's `simulate`, ...) with wrappers that record a span per
call and the counts named below.  Each span's self time (its duration minus
its child spans) is charged to its layer, so the layers add up to the round.
Nothing under src/ changes, and untraced rounds run the original functions.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from secrelay import analytics, channel, cli, montecarlo, policy

SCHEMES = ("jrp", "exact-jrp", "oprr", "eprs", "eprr", "dt")
TIME_LAYERS = (
    "cli.self_s", "cli.write_s", "montecarlo.simulate_s", "montecarlo.reduce_s",
    "channel.draw_batch_s", *(f"policy.scheme_s.{s}" for s in SCHEMES),
    "policy.leakage_s", "analytics.esr_dbcj_s", "analytics.ser_dbcj_s",
    "analytics.outage_s", "analytics.esr_dt_lb_s", "specfun.subset_eval_s",
)

# Wrapped names every round of a workload must call.  A refactor that moves
# one of these calls would otherwise zero its layer without notice.
_SIM_NAMES = (
    "cli.run", "cli.simulate", "cli.estimate_from_trace", "cli.write_csv",
    "cli.write_json", "montecarlo.draw_batch", "policy.run_scheme_batch",
    "policy.leakage_batch", "analytics.esr_dbcj", "analytics.signed_subset_eval",
)
EXPECTED_CALLS = {
    "sim-sampling": (*_SIM_NAMES, "analytics.sop_dbcj", "policy.run_scheme_batch[jrp]"),
    "sim-schemes": (*_SIM_NAMES, "analytics.ser_dbcj", "analytics.esr_dt_lb",
                    *(f"policy.run_scheme_batch[{s}]" for s in SCHEMES)),
    "closed-forms": ("analytics.esr_dbcj", "analytics.ser_dbcj", "analytics.sop_dbcj",
                     "analytics.ppos_dbcj", "analytics.esr_dt_lb",
                     "analytics.signed_subset_eval", "analytics.subset_terms"),
}


class TraceError(RuntimeError):
    """A wrapped name could not be found or recorded no call."""


class Tracer:
    """Spans and counts of the traced rounds, kept in memory."""

    def __init__(self):
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, layer, start, end
        self._stack: list[list] = []
        self._next_id = 0

    @contextmanager
    def span(self, layer: str):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.self_time[layer] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((frame[0], parent, layer, frame[1], end))

    def _wrap(self, qualname: str, orig, layer, before=None, after=None):
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            self.calls[qualname] += 1
            name = layer
            if before is not None or callable(layer):
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    before(self, bound)
                if callable(layer):
                    name = layer(bound)
                    self.calls[f"{qualname}[{name.rsplit('.', 1)[-1]}]"] += 1
                args, kwargs = bound.args, bound.kwargs
            with self.span(name):
                result = orig(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _targets(self):
        """(module, attribute, layer, before, after) for every wrapped name."""

        def drawn(tr, bound):
            a = bound.arguments
            tr.counts["trials"] += a["n_trials"]
            tr.counts["normals"] += a["n_trials"] * channel.flat_draw_size(a["config"], a["gains"])

        def leakage_rows(tr, bound):
            tr.counts["leakage_rows"] += len(bound.arguments["relay_idx"])

        def counted_terms(tr, bound):
            fn = bound.arguments["array_fn"]

            def counting(sizes, sums):
                tr.counts["subset_terms"] += len(sizes)
                return fn(sizes, sums)

            bound.arguments["array_fn"] = counting

        def enumerated(tr, result):
            tr.counts["subset_terms"] += len(result[0])

        return [
            (cli, "run", "cli.self_s", None, None),
            (cli, "write_csv", "cli.write_s", None, None),
            (cli, "write_json", "cli.write_s", None, None),
            (cli, "simulate", "montecarlo.simulate_s", None, None),
            (cli, "estimate_from_trace", "montecarlo.reduce_s", None, None),
            (montecarlo, "draw_batch", "channel.draw_batch_s", drawn, None),
            (policy, "run_scheme_batch",
             lambda bound: f"policy.scheme_s.{bound.arguments['scheme'].value}", None, None),
            (policy, "leakage_batch", "policy.leakage_s", leakage_rows, None),
            (analytics, "esr_dbcj", "analytics.esr_dbcj_s", None, None),
            (analytics, "ser_dbcj", "analytics.ser_dbcj_s", None, None),
            (analytics, "sop_dbcj", "analytics.outage_s", None, None),
            (analytics, "ppos_dbcj", "analytics.outage_s", None, None),
            (analytics, "esr_dt_lb", "analytics.esr_dt_lb_s", None, None),
            (analytics, "signed_subset_eval", "specfun.subset_eval_s", counted_terms, None),
            (analytics, "subset_terms", "specfun.subset_eval_s", None, enumerated),
        ]

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, layer, before, after in self._targets():
                short = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                try:
                    orig = getattr(module, attr)
                except AttributeError:
                    raise TraceError(f"{module.__name__} has no {attr} to wrap") from None
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrap(short, orig, layer, before, after))
            with self.span("bench.round"):
                yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def state(self) -> dict:
        """What layer_metrics and require need, for another process to merge."""
        return {"self_time": dict(self.self_time), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def merge(self, state: dict) -> None:
        for layer, seconds in state["self_time"].items():
            self.self_time[layer] += seconds
        self.calls.update(state["calls"])
        self.counts.update(state["counts"])

    def require(self, workload: str) -> None:
        """Raise unless every name the workload must use recorded a call."""
        missing = [name for name in EXPECTED_CALLS[workload] if not self.calls[name]]
        if missing:
            raise TraceError(f"{workload}: wrapped names recorded no call: {', '.join(missing)}")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer self times and counts, as (value, unit)."""
        out = {name: (self.self_time.get(name, 0.0) / rounds, "s") for name in TIME_LAYERS}
        trials = self.counts["trials"]
        out["channel.normals_per_trial"] = (self.counts["normals"] / trials if trials else 0.0,
                                            "count")
        out["policy.leakage_evals_per_trial"] = (
            self.counts["leakage_rows"] / trials if trials else 0.0, "count")
        out["specfun.subset_terms"] = (self.counts["subset_terms"] / rounds, "count")
        return out
