"""susywkb benchmark: run one workload for a given time and print its metrics.

    python3 perfbench/run.py --workload swkb_levels --seed 1 --seconds 8 \\
        --trace 0

Run from the root of a source checkout; the program is imported from
src/susywkb of that checkout, never from an installed copy.  The workload's
inputs are drawn from --seed once; the run then repeats whole rounds of the
same operations until --seconds have passed, checks every output against
the references of reference.py, and prints one JSON object as its last line
of standard output.  Times are CPU seconds scaled to a reference host
(calibrate.py).  --trace 0 reports the end-to-end metrics; --trace 1
wraps the program's public functions (tracer.py) and reports per-layer
metrics per round instead.  Both write their result, and the traced run its
spans, under .perfbench-out/ in the checkout.  See README.md.
"""

import os
import sys

# BLAS on one thread; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)
from calibrate import Calibration, clock  # noqa: E402

WORKLOADS = ("swkb_levels", "contour_levels", "decompose_defect",
             "oracle_levels")
SETUP_REPS = 3
# Calibration kernels (calibrate.py): CAL_BURST samples before and after
# the timed rounds, and one between two operations every CAL_EVERY seconds.
CAL_BURST = 10
CAL_EVERY = 0.5

# oracle_err.max on the workloads that do not time the oracle: one fixed
# level on a coarse grid, solved after the timed rounds.
ORACLE_PROBE = ("eckart", 1, 501)

# Per-layer metrics: <name>.calls, <name>.s and <module>.self_s.  tracer.py
# names a method Module.Class.method; omega_x is a method of PotentialSpec.
LAYER_CALLS = ("catalog.omega_x", "cpoly.find_roots", "swkb.swkb_integral",
               "swkb.turning_points", "branch.PathPlanner.route",
               "branch.PathPlanner.edge_clear", "branch.contour_integral",
               "branch.track_nodes")
LAYER_SECONDS = ("catalog.omega_x", "cpoly.find_roots", "swkb.swkb_integral",
                 "swkb.solve_level", "swkb.turning_points",
                 "branch.PathPlanner.route", "branch.contour_integral",
                 "branch.track_nodes", "branch.continue_along",
                 "branch.cut_segment_integral", "branch.arc_cut_integral",
                 "contours.census", "contours.quantize_by_contours",
                 "contours.decompose", "contours.defect_report",
                 "numerov.numerov_eigenvalue")
SPAN_NAME = {"catalog.omega_x": "catalog.PotentialSpec.omega_x"}
SELF_MODULES = ("catalog", "cpoly", "swkb", "branch", "contours", "numerov")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """susywkb from this checkout's src/, or exit 2 when it is missing."""
    init = os.path.join(SRC, "susywkb", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no program source at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import susywkb
    if os.path.realpath(susywkb.__file__) != os.path.realpath(init):
        print(f"perfbench: imported {susywkb.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)
    return susywkb


def warm_up(sw, workload):
    """One small call into the route the workload times (a decomposition
    builds the workspace, planner and contours a contour level uses)."""
    if workload == "swkb_levels":
        sw.solve_level(sw.get_spec("eckart"), 1)
    elif workload in ("contour_levels", "decompose_defect"):
        sw.decompose(sw.get_spec("eckart"), 100.0)
    else:
        sw.numerov_eigenvalue(sw.get_spec("scarf2"), 1, n_points=501)


def measure(ops, seconds, tracer, cal):
    """Whole rounds of ops until seconds of wall time have passed.  Each
    operation is timed on calibrate.clock (CPU seconds).  The calibration
    kernels run in a burst before and after the rounds, and between two
    operations at most every CAL_EVERY seconds; their time is not part of
    the run's length."""
    times, outcomes = [], []
    rounds = 0
    cal.sample(CAL_BURST)
    start, cal_s0, last = perf_counter(), cal.seconds, perf_counter()
    while True:
        for k, op in enumerate(ops):
            if perf_counter() - last >= CAL_EVERY:
                cal.sample()
                last = perf_counter()
            if tracer is not None:
                tracer.operation = len(times)
            t0 = clock()
            try:
                res, exc = op.call(), None
            except Exception as e:          # a failed operation, counted
                res, exc = None, e
            times.append(clock() - t0)
            outcomes.append((k, res, exc))
        rounds += 1
        if perf_counter() - start - (cal.seconds - cal_s0) >= seconds:
            break
    wall = perf_counter() - start - (cal.seconds - cal_s0)
    cal.sample(CAL_BURST)
    return times, outcomes, rounds, wall


def check(ops, outcomes, refs):
    """(failed, problems): failed counts raised operations and kept-failure
    closures; problems lists wrong outputs of operations that did not fail,
    including a result that differs between rounds."""
    failed, problems, first = 0, [], {}
    for k, res, exc in outcomes:
        op = ops[k]
        if exc is not None:
            failed += 1
            print(f"perfbench: failed: {op.label}: {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
            continue
        seen = first.setdefault(k, repr(res))
        if seen != repr(res):
            problems.append(f"{op.label}: result differs between rounds")
        closure_failed, probs = op.check(res, refs)
        if closure_failed:
            failed += 1
            print(f"perfbench: failed: {op.label}: closure residual "
                  f"{res.closure_residual:.3g}", file=sys.stderr)
        problems.extend(probs)
    return failed, problems


def oracle_error(sw, ref, workload, ops, outcomes):
    if workload == "oracle_levels":
        errs = [ops[k].error(res) for k, res, exc in outcomes
                if exc is None]
        return max(errs) if errs else float("nan")
    pot_id, n, points = ORACLE_PROBE
    spec = sw.get_spec(pot_id)
    E = sw.numerov_eigenvalue(spec, n, n_points=points)
    return ref.oracle_error(pot_id, dict(spec.params), spec.hbar, n, E)


def layer_metrics(tracer, rounds, host):
    calls, secs, self_s = tracer.totals()
    out = {}
    for key in LAYER_CALLS:
        out[f"{key}.calls"] = {"value": calls.get(SPAN_NAME.get(key, key), 0)
                               / rounds, "unit": "count"}
    for key in LAYER_SECONDS:
        out[f"{key}.s"] = {"value": secs.get(SPAN_NAME.get(key, key), 0.0)
                           / rounds / host, "unit": "s"}
    for mod in SELF_MODULES:
        out[f"{mod}.self_s"] = {"value": self_s.get(mod, 0.0) / rounds
                                / host, "unit": "s"}
    return out


def main(argv=None):
    args = parse_args(argv)
    t0 = clock()
    import numpy as np
    sw = import_program()
    import reference as ref
    import tracer as tracing
    import workloads
    import_s = clock() - t0

    reps = []
    for _ in range(SETUP_REPS):
        t = clock()
        ops = workloads.WORKLOADS[args.workload](
            sw, np.random.default_rng(args.seed))
        warm_up(sw, args.workload)
        reps.append(clock() - t)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(sw)
    try:
        cal = Calibration()
        times, outcomes, rounds, wall = measure(ops, args.seconds, tracer,
                                                cal)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = check(ops, outcomes, workloads.RefCache())
    for p in problems:
        print(f"perfbench: wrong: {p}", file=sys.stderr)
    attempted = len(outcomes)
    # Every reported time is CPU seconds (calibrate.clock) divided by the
    # host's slowness (calibrate.Calibration.factor).
    host = cal.factor()
    cpu = sum(times)
    print(f"perfbench: {args.workload} seed={args.seed} rounds={rounds} "
          f"ops/round={len(ops)} wall={wall:.3f}s cpu={cpu:.3f}s "
          f"host={host:.3f}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": (import_s + statistics.median(reps)) / host,
                        "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / (cpu / host),
                          "unit": "1/s"},
            "op_s.gmean": {"value": statistics.geometric_mean(times) / host,
                           "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "oracle_err.max": {"value": oracle_error(sw, ref, args.workload,
                                                     ops, outcomes),
                               "unit": "rel"},
        }
    else:
        metrics = layer_metrics(tracer, rounds, host)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans-{stem}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": rounds, "wall_s": wall,
                      "operations": [ops[k].label for k, _, _ in outcomes]})
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(dict(result, rounds=rounds, wall_s=wall, cpu_s=cpu,
                       setup_s=import_s + statistics.median(reps),
                       host=host, host_kernels=cal.ratios(), operations=[
            {"label": ops[k].label, "s": t, "raised": exc is not None}
            for (k, _, exc), t in zip(outcomes, times)]), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
