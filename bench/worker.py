"""One worker process of a benchmark run.

Usage: python3 bench/worker.py <workload> <seed> <until> <trace 0|1> <result file>

A fresh interpreter that imports secrelay, builds and validates the
workload's inputs, and then runs whole rounds, each followed by calibration
slices for about a quarter of its time, until CLOCK_MONOTONIC reaches
<until> (at least one round).  With <trace> 1, untraced and traced rounds
alternate.  It pickles to <result file>: the clock (shared by every process
on the machine) when `import secrelay` finished and when the inputs were
ready, the round and slice times in wall seconds, how many rounds gave a
result unlike the first, the last result, the tracer's records, and the
process's peak resident memory in MB after its first round.

run.py launches the workers one after another and pools what they measure:
every process has its own memory layout, which makes both the package and
the calibration kernel a few per cent faster or slower for the whole life of
the process, so a run spreads its rounds over several processes.
"""

import pickle
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, until, trace, result_file = sys.argv[1:6]
    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench.parent / "src"))
    import secrelay  # noqa: F401

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    import workloads

    inputs = workloads.build(name, int(seed), bench / "out")
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import calibration
    import tracing

    tracer = tracing.Tracer() if trace == "1" else None
    cal = None
    modes = (False, True) if tracer is not None else (False,)
    plain, traced = [], []
    first = result = None
    unlike = 0
    while first is None or time.clock_gettime(time.CLOCK_MONOTONIC) < float(until):
        for with_trace in modes:
            t0 = time.perf_counter()
            if with_trace:
                with tracer.installed():
                    result = workloads.run_round(name, inputs)
            else:
                result = workloads.run_round(name, inputs)
            took = time.perf_counter() - t0
            (traced if with_trace else plain).append(took)
            if first is None:
                first = result
                # Read before the calibration's arrays exist: a later reading
                # would also hold whatever the allocator kept from earlier rounds.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                cal = calibration.Calibration()
            elif result != first:
                unlike += 1
            spent = 0.0
            while spent < 0.25 * took:
                spent += cal.slice()
    with open(result_file, "wb") as fh:
        pickle.dump({
            "imported": imported, "ready": ready, "plain": plain, "traced": traced,
            "slices": cal.slices, "unlike": unlike, "result": result,
            "trace": tracer.state() if tracer is not None else None,
            "spans": tracer.spans if tracer is not None else [],
            "peak_rss_mb": peak_rss_mb,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
