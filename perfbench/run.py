"""N-body benchmark: end-to-end step time, throughput, accuracy, per-layer spans.

Usage (from the repository root)::

    python3 perfbench/run.py --workload galaxy-bvh-refit --seed 1 --seconds 30 --trace 0

Every measurement happens in a fresh single-threaded worker process.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload twice in
two fresh workers, untraced and then with timing wrappers on the layer
functions (half of ``--seconds`` each), checks that both end in the
same final state, and prints the per-layer metrics together with the
tracing overhead.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries the run's details (final-state digests, sample
counts, calibration time).  ``--workload all`` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: A hung worker fails the run instead of hanging it.
WORKER_TIMEOUT_S = 170.0


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               scale: str) -> dict:
    """One fresh worker process; returns its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(trace)), "--scale", scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pick(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, each with its unit; a missing one is an error."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run_one(spec: dict, workload: str, seed: int, seconds: float,
            trace: bool, scale: str) -> tuple[dict, dict]:
    """(detail, result) for one workload invocation."""
    if not trace:
        rec = run_worker(workload, seed, seconds, False, scale)
        detail = {k: v for k, v in rec.items() if k != "metrics"}
        detail["env.calib_s"] = rec["metrics"]["env.calib_s"]
        result = {"correct": rec["correct"], "attempted": rec["attempted"],
                  "failed": rec["failed"],
                  "metrics": pick(rec["metrics"], spec["end_to_end"])}
        return detail, result
    plain = run_worker(workload, seed, seconds / 2.0, False, scale)
    traced = run_worker(workload, seed, seconds / 2.0, True, scale)
    values = dict(traced["metrics"])
    values["trace.overhead"] = (plain["metrics"]["body_steps_per_s"]
                                / traced["metrics"]["body_steps_per_s"])
    # The wrappers must not change the program: same final states.
    same_state = plain["digests"] == traced["digests"]
    detail = {
        "workload": workload, "seed": seed, "trace": True,
        "digests": traced["digests"], "untraced_digests": plain["digests"],
        "traced_matches_untraced": same_state,
        "wrappers_left": traced["wrappers_left"],
        "errors": sorted(set(plain["errors"]) | set(traced["errors"])),
        "step_samples": traced["step_samples"], "cycles": traced["cycles"],
    }
    result = {"correct": plain["correct"] and traced["correct"] and same_state,
              "attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "metrics": pick(values, spec["per_layer"])}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: shrunken sizes for the harness tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; have {names}",
              file=sys.stderr)
        return 2
    todo = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in todo:
        detail, result = run_one(spec, name, args.seed, args.seconds,
                                 bool(args.trace), args.scale)
        print(json.dumps({"detail": detail}))
        if len(todo) == 1:
            combined = result
            break
        print(json.dumps({name: result}))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
