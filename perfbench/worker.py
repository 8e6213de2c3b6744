"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` in a fresh single-threaded process; not meant to
be called by hand (use ``run.py``).  The last line of standard output
is one JSON object holding every measured quantity, the per-input
final-state digests and the failure counts.  Order of work:

1. import every layer module and run a tiny warm-up of the workload;
2. ``--seconds // cycle_s`` timed cycles (at least one), each running
   one block per input of the seed;
3. peak RSS, then the accuracy check against the exact all-pairs sum and
   the machine calibration kernel, all outside the timed window.
"""

from __future__ import annotations

import os

# The program is measured single-threaded: BLAS/OpenMP pools are sized
# when numpy loads, so this must precede every numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import LAYERS, SpanRecorder, self_times, wrappers_left  # noqa: E402
from workloads import make_workloads  # noqa: E402

from repro.core.simulation import STEP_ORDER  # noqa: E402
from repro.machine.babelstream import babelstream_triad  # noqa: E402
from repro.machine.catalog import HOST  # noqa: E402
from repro.machine.costmodel import CostModel  # noqa: E402
from repro.machine.counters import Counters  # noqa: E402


def calibration_seconds() -> float:
    """Best-of-5 host TRIAD seconds over 2^22 doubles (machine drift probe)."""
    res = babelstream_triad(HOST, n=2**22, measure_host=True, repeats=5)
    return 24.0 * 2**22 / (res.measured_gbs * 1e9)


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 spans_out=None) -> dict:
    """Warm up, run timed cycles, check results; returns the raw record."""
    wl.warmup()
    inputs = wl.inputs(seed)
    recorder = SpanRecorder()
    cycles: list[list] = []
    with recorder.installed(list(LAYERS) if trace else []):
        for _ in range(max(1, int(seconds // wl.cycle_s))):
            cycles.append([wl.block(s, recorder) for s in inputs])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    leftover = wrappers_left()

    blocks = [b for cycle in cycles for b in cycle]
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    errors = sorted({b.error for b in blocks if b.error})
    # Every cycle replays the same inputs: digests must repeat exactly.
    digests = [b.digest for b in cycles[0]]
    deterministic = all([b.digest for b in c] == digests for c in cycles)

    err, bodies = 0.0, 0
    for s, b in zip(inputs, cycles[0]):
        if b.failed:
            continue
        e, k = wl.accuracy(s, b)
        err += e
        bodies += k
    force_rel_err = err / bodies if bodies else float("inf")
    if not force_rel_err <= wl.tolerance:
        # The accuracy gate fails every step of the run.
        failed = attempted

    # Each block's rate amortizes its own list rebuilds; the median block
    # is the typical input, not the one whose tree happened to rebuild
    # most often.
    rates = [wl.n * len(b.step_s) / sum(b.step_s) for b in blocks if b.step_s]
    steps = [s for b in blocks for s in b.step_s]
    setups = [b.setup_s for b in blocks if b.setup_s > 0.0]
    first = cycles[0]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "step_s_p50": statistics.median(steps) if steps else 0.0,
        "body_steps_per_s": statistics.median(rates) if rates else 0.0,
        "model_step_s": sum(b.model_s for b in first) / max(
            sum(len(b.step_s) for b in first), 1),
        "force_rel_err": force_rel_err,
        "peak_rss_mb": peak_rss_mb,
        "ok_step_frac": 1.0 - failed / max(attempted, 1),
    }
    if trace:
        metrics.update(layer_metrics(recorder, blocks))
        if spans_out:
            recorder.write(spans_out)
    metrics["env.calib_s"] = calibration_seconds()
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and deterministic and not leftover,
        "attempted": attempted,
        "failed": failed,
        "deterministic": deterministic,
        "wrappers_left": leftover,
        "errors": errors,
        "digests": digests,
        "cycles": len(cycles),
        "step_samples": len(steps),
        "metrics": metrics,
    }


def layer_metrics(recorder: SpanRecorder, blocks) -> dict:
    """Per-step self times, counts and host/model step breakdowns."""
    n_steps = max(sum(len(b.step_s) for b in blocks), 1)
    own = self_times(recorder.spans)
    out = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    roots = glue = 0.0
    for span, t in zip(recorder.spans, own):
        if span.parent < 0:
            roots += span.duration
            glue += t
        else:
            out[span.name] += t
            calls[span.name] += 1
    out = {k: v / n_steps for k, v in out.items()}
    out["count.flat_preps"] = calls["flat.prep_s"] / n_steps
    out["count.list_builds"] = calls["traversal.list_build_s"] / n_steps
    out["trace.glue_s"] = glue / n_steps
    out["trace.coverage"] = 1.0 - glue / roots if roots > 0 else 0.0

    host = {s: 0.0 for s in STEP_ORDER}
    model_s = {s: 0.0 for s in STEP_ORDER}
    totals = Counters()
    model = CostModel(HOST)
    for b in blocks:
        for rep in b.reports:
            for s, v in rep.seconds.items():
                if s in host:
                    host[s] += v
            for s, c in rep.counters.steps.items():
                if s in model_s:
                    model_s[s] += model.step_time(c).total
            totals = totals + rep.counters.total()
    for s in STEP_ORDER:
        out[f"host.{s}_s"] = host[s] / n_steps
        out[f"model.{s}_s"] = model_s[s] / n_steps
    out["count.interactions"] = totals.list_eval_interactions / n_steps
    out["flat.n3l_dedup_ratio"] = (
        totals.near_pairs_naive / totals.near_pairs_evaluated
        if totals.near_pairs_evaluated > 0 else 0.0)
    out["dual.pairs_accepted_cc"] = totals.pairs_accepted_cc / n_steps
    extra = ("distributed.imbalance", "distributed.comm_bytes",
             "maintenance.refit_frac", "maintenance.lists_dropped")
    for key in extra:
        vals = [b.layer[key] for b in blocks if key in b.layer]
        out[key] = statistics.median(vals) if vals else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    wl = make_workloads(args.scale)[args.workload]
    spans_out = None
    if args.trace:
        (HERE / "out").mkdir(exist_ok=True)
        spans_out = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
    record = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                          spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
