"""secrelay benchmark: one workload per run, end-to-end metrics or a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload sim-sampling --seed 1 --seconds 32 --trace 0

Workloads: sim-sampling, sim-schemes, closed-forms (see bench/README.md).
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics setup_s, run_s, ops_per_s and peak_rss_mb; with --trace 1
it carries the per-layer metrics instead.  Either way it also says whether
every output check passed and how many operations were attempted and failed.
The rounds run in worker processes (worker.py), one after another; times
are in reference seconds: wall seconds scaled by the machine's speed during
the run, as calibration.py measures it.  The package is imported from src/
next to this directory; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sim-sampling", "sim-schemes", "closed-forms")
# One BLAS/OpenMP thread in every process: steadier on a shared machine, and
# never more than the machine's cores.  numpy's huge-page advice is off, so
# that resident memory counts the 4 KB pages the run touches rather than 2 MB
# pages granted as the kernel's free memory allows.
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "NUMPY_MADVISE_HUGEPAGE": "0"}
# Worker processes that share a run's timed section, after one untimed
# warm-up worker; each worker's set-up is one sample of setup_s.
WORKERS = 6
WORKER_TIMEOUT_S = 150


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a non-negative 63-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch_worker(args, until: float, index: int) -> dict:
    """Run one worker to its end and return its records, with its set-up
    times measured from just before the launch."""
    path = OUT / f"worker-{args.workload}-{index}.pkl"
    start = _monotonic()
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
         repr(until), str(args.trace), str(path)],
        env={**os.environ, **ENV}, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, check=True,
    )
    with open(path, "rb") as fh:
        rec = pickle.load(fh)
    path.unlink()
    rec["setup_s"] = rec["ready"] - start
    rec["import_s"] = rec["imported"] - start
    rec["inputs_s"] = rec["ready"] - rec["imported"]
    return rec


def run_workers(args) -> tuple[float, list[dict]]:
    """The warm-up worker (one round: fills the page cache), then WORKERS
    workers that split `--seconds` of wall time.  Returns the median over
    all of them of the peak memory after a worker's first round, and the
    timed workers' records."""
    warm = launch_worker(args, 0.0, 0)
    start = _monotonic()
    recs = [launch_worker(args, start + args.seconds * i / WORKERS, i)
            for i in range(1, WORKERS + 1)]
    peak_rss_mb = statistics.median(rec["peak_rss_mb"] for rec in (warm, *recs))
    return peak_rss_mb, recs


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "secrelay" / "__init__.py").is_file():
        print(f"error: no secrelay package under {src}", file=sys.stderr)
        return 2
    os.environ.update(ENV)  # before numpy is first imported here
    sys.path.insert(0, str(src))
    import secrelay

    if Path(secrelay.__file__).resolve().parent != (src / "secrelay").resolve():
        print(f"error: imported secrelay from {secrelay.__file__}, not {src}", file=sys.stderr)
        return 2
    import calibration
    import checks
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    try:
        peak_rss_mb, recs = run_workers(args)
    except subprocess.CalledProcessError as err:
        print(f"error: worker failed with exit code {err.returncode}:\n{err.stderr}",
              file=sys.stderr)
        return 1

    plain = [t for rec in recs for t in rec["plain"]]
    traced = [t for rec in recs for t in rec["traced"]]
    slices = [t for rec in recs for t in rec["slices"]]
    rounds = len(plain) + len(traced)
    result = recs[-1]["result"]
    inputs = workloads.build(args.workload, args.seed, OUT)
    verdict = checks.check(args.workload, inputs, result)
    unlike = sum(rec["unlike"] for rec in recs)
    unlike += sum(rec["result"] != recs[0]["result"] for rec in recs)
    if unlike:
        verdict.problems.append(f"{unlike} of {rounds} rounds gave a result unlike the first")
    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    # Every time below is in reference seconds (see calibration.py).
    factor = calibration.factor(slices)
    wall_run_s = statistics.median(plain)
    run_s = wall_run_s * factor
    setup_s = {key: statistics.median(rec[key] for rec in recs) * factor
               for key in ("setup_s", "import_s", "inputs_s")}
    print(f"{len(plain)} untraced rounds in {len(recs)} workers, wall: min {min(plain):.4f} s, "
          f"median {wall_run_s:.4f} s, max {max(plain):.4f} s; {len(slices)} calibration "
          f"slices, median {statistics.median(slices):.4f} s, factor {factor:.4f}; wall "
          f"set-up {setup_s['setup_s'] / factor:.4f} s", file=sys.stderr)
    if not args.trace:
        metrics = {
            "setup_s": (setup_s["setup_s"], "s"),
            "run_s": (run_s, "s"),
            "ops_per_s": (inputs.ops_per_round / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer = tracing.Tracer()
        for rec in recs:
            tracer.merge(rec["trace"])
        try:
            tracer.require(args.workload)
        except tracing.TraceError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        # Untraced and traced rounds alternate, so their means see the same
        # machine phases; the layers' means add up to the traced mean.
        traced_s = statistics.fmean(traced) * factor
        layers = {name: (value * factor if unit == "s" else value, unit)
                  for name, (value, unit) in tracer.layer_metrics(len(traced)).items()}
        metrics = {
            "setup.import_s": (setup_s["import_s"], "s"),
            "model.inputs_s": (setup_s["inputs_s"], "s"),
            **layers,
            "trace.run_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - statistics.fmean(plain) * factor, "s"),
        }
        with open(OUT / f"trace-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_rounds": len(traced),
                       "span_fields": ["worker", "id", "parent", "layer", "start_s", "end_s"],
                       "spans": [[i, *span] for i, rec in enumerate(recs, 1)
                                 for span in rec["spans"]]}, fh)
            fh.write("\n")

    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": inputs.ops_per_round * rounds,
        "failed": verdict.failed * rounds,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
