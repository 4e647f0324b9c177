"""Benchmark of the tricode pipeline, run from the root of a checkout:

    python3 benchmark/run.py --workload t3-ccz --seed 1 --seconds 30 --trace 0

Builds nothing: it imports tricode from ``src/`` of the checkout and fails
when that is missing.  One run times its set-up in several fresh
interpreters, then repeats whole passes over the workload's rungs for
``--seconds`` (at least three passes), and reports each time as the median
over the passes.  Every output is checked outside the timed regions.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
when ``--trace 0`` and the per-layer metrics when ``--trace 1``.  The exit
code is 0 only when every operation succeeded with a correct result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
HASH_SEED = "0"  # string hashes, and so set orders, are the same in every run
SETUP_RUNS = 7
MIN_REPS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "verify_s": "s", "invariants_s": "s",
              "peak_rss_mb": "MB", "artifact_mb": "MB"}
_TIMED_LAYERS = ["complexes.build", "homology.betti", "hypergraph.form", "hypergraph.lift",
                 "codes.toric_code", "codes.systole", "gates.circuit", "gates.check",
                 "gates.action", "serialize.encode", "serialize.decode", "cli.complex",
                 "cli.homology", "cli.cup", "cli.hypergraph", "cli.code", "cli.gate_circuit",
                 "cli.gate_check", "cli.gate_action", "cli.expect"]
_COUNTS = ["complexes.cells", "hypergraph.unit_triples", "hypergraph.kappa", "codes.n",
           "codes.k", "codes.x_stabilizers", "gates.physical_gates", "gates.logical_gates",
           "src.lines"]
PER_LAYER = {**{f"{name}_s": "s" for name in _TIMED_LAYERS},
             **{name: "count" for name in _COUNTS}, "serialize.bytes": "B"}


def time_setup(workload: str, seed: int, rundir: str) -> float:
    """Median time from a fresh interpreter to tricode imported and the
    workload's input files written, over SETUP_RUNS interpreters."""
    code = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
            "workloads.write_inputs({workload!r}, {seed}, sys.argv[1])"
            ).format(src=SRC, bench=BENCH, workload=workload, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    times = []
    for i in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, os.path.join(rundir, f"setup{i}")],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            smallest: bool = False, min_reps: int = MIN_REPS) -> dict:
    """One benchmark run.  ``smallest`` keeps only the first rung (for the
    harness self-check)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tricode
    import workloads
    from harness import Recorder, instrument

    if not os.path.abspath(tricode.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"tricode imported from {tricode.__file__}, not from {SRC}")
    rundir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    setup_s = time_setup(workload, seed, rundir)
    inputs = os.path.join(rundir, "setup0")
    with open(os.path.join(inputs, "plan.json")) as fh:
        plan = json.load(fh)
    if smallest:
        plan["rungs"] = plan["rungs"][:1]
    session = os.path.join(inputs, "session")

    rec = Recorder(traced)
    undo = instrument(rec, workloads.LAYERS) if traced else None
    walls, sizes = [], []
    start = time.perf_counter()
    try:
        # a pass starts only when it should end within the run's time
        while (len(walls) < min_reps
               or time.perf_counter() - start + statistics.median(walls) <= seconds):
            shutil.rmtree(session, ignore_errors=True)
            os.makedirs(session)
            gc.collect()
            rec.begin_rep()
            t0 = time.perf_counter()
            with rec.span(f"repetition {rec.rep}"):
                outs = workloads.run_rep(rec, plan, session)
            walls.append(time.perf_counter() - t0)
            workloads.check_rep(rec, plan, outs)
            sizes.append(workloads.artifact_bytes(outs))
    finally:
        if undo is not None:
            undo()
    workloads.final_checks(rec, plan, outs)

    if traced:
        values = {name: 0 for name in PER_LAYER}
        values.update((k, v) for k, v in rec.layer_metrics().items() if k in values)
        values["src.lines"] = workloads.src_lines(SRC)
        units = PER_LAYER
        trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "wall_s": walls,
                       "spans": [sp.to_json() for sp in rec.spans]}, fh)
        print(f"traced wall_s {statistics.median(walls):.4f} over {len(walls)} repetitions; "
              f"spans in {os.path.relpath(trace_path, ROOT)}")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "verify_s": rec.bucket_median("verify"),
            "invariants_s": rec.bucket_median("invariants"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "artifact_mb": statistics.median(sizes) / 1e6,
        }
        units = END_TO_END
        print(f"{len(walls)} repetitions; wall_s per repetition: "
              + " ".join(f"{w:.3f}" for w in walls))
    for problem in rec.problems:
        print(problem, file=sys.stderr)
    shutil.rmtree(rundir, ignore_errors=True)
    return {
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("t3-ccz", "sigma-circle", "cli-color"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tricode", "__init__.py")):
        print(f"no tricode sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
