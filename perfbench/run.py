"""epinfer benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload loglik-austria9-tt --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
With --trace 0 the last line holds the end-to-end metrics; with --trace 1
each operation of the timed phase runs twice, untraced and then traced,
and the last line holds the per-module metrics.  Every operation is checked against an oracle after
the timed phase; any failure makes the exit code 1.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS must be capped before numpy loads it: OpenBLAS here is built for 64
# threads, and the operands are small enough that one thread is fastest
# and steadiest.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def build_inputs(workload, seed, traced, tracer_cls):
    """Build the inputs several times; the median time is the set-up share.

    In a traced run the last build is traced, for the datagen metrics.
    """
    times = []
    tracer = None
    for rep in range(SETUP_REPEATS):
        if traced and rep == SETUP_REPEATS - 1:
            tracer = tracer_cls()
            with tracer:
                t0 = time.perf_counter()
                inputs = workload.build(seed)
        else:
            t0 = time.perf_counter()
            inputs = workload.build(seed)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times), tracer


def end_to_end(phase, setup_s, measure):
    ok = [c.seconds * 1e3 for c in phase.calls if c.error is None]
    if not ok:
        return None, "no log_likelihood call completed"
    tail, pct, beyond = measure.tail_percentile(ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "loglik_per_s": (len(ok) / phase.elapsed, "1/s"),
        "loglik_ms_p50": (statistics.median(ok), "ms"),
        "loglik_ms_tail": (tail, "ms"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }
    note = (f"loglik_ms_tail is p{pct:.1f}: {beyond} of {len(ok)} samples beyond it; "
            f"{phase.steps} operations, {phase.proposals} MCMC proposals "
            f"in {phase.elapsed:.2f} s")
    return metrics, note


def main(argv=None):
    if not (ROOT / "src" / "epinfer" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'epinfer'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import measure
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    inputs, build_s, setup_tracer = build_inputs(workload, args.seed, args.trace,
                                                 tracing.Tracer)
    setup_s = import_s + build_s

    tracer = tracing.Tracer() if args.trace else None
    with workloads.Probe() as probe:
        phase = workload.run(inputs, probe, args.seconds, tracer)

    outcome = workloads.Outcome()
    workload.check(inputs, [phase], outcome)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(measure.machine_info(ROOT, args.seed)))
    print(f"setup: imports {import_s:.3f} s + median of {SETUP_REPEATS} input "
          f"builds {build_s:.3f} s")
    for note in outcome.notes:
        print("check: " + note)
    print(f"failed_ratio {outcome.failed}/{outcome.attempted}")

    if args.trace:
        plain_s = sum(p for p, _, _ in phase.pairs)
        traced_s = sum(t for _, t, _ in phase.pairs)
        proposals = sum(n for _, _, n in phase.pairs)
        metrics, self_sum = tracing.layer_metrics(tracer, proposals)
        metrics.update(tracing.setup_metrics(setup_tracer))
        metrics["inference.proposals_per_s"] = (proposals / plain_s if plain_s > 0 else 0.0, "1/s")
        metrics["inference.recovered_ratio"] = (
            outcome.recovered / outcome.chains if outcome.chains else 0.0, "ratio")
        metrics["inference.best_distance_max"] = (outcome.best_distance_max, "count")
        metrics["trace.overhead_ratio"] = (traced_s / plain_s if plain_s > 0 else 0.0, "ratio")
        absent = sorted(tracer.absent | setup_tracer.absent)
        print(f"trace: {len(phase.pairs)} operations took {traced_s:.3f} s traced and "
              f"{plain_s:.3f} s untraced; self times sum to {self_sum:.3f} s of the "
              f"traced wall time; absent call sites: {', '.join(absent) or 'none'}")
        note = None
    else:
        metrics, note = end_to_end(phase, setup_s, measure)
    if note:
        print(note)
    if metrics is None:
        metrics = {}
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")

    correct = outcome.failed == 0 and outcome.attempted > 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
