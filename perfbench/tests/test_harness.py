"""Tests of the benchmark harness itself (tiny sizes; about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import repro.bvh.force
import repro.distributed.let
import repro.octree.force
import repro.traversal.engine
import repro.maintenance.maintainer
from spans import LAYERS, Span, SpanRecorder, _resolve, self_times, wrappers_left
from worker import run_workload
from workloads import SimWorkload, make_workloads

from conftest import HERE

ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_emits_every_declared_metric(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        detail, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, detail
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in declared}
        for m in result["metrics"].values():
            assert np.isfinite(m["value"])
        if trace:
            assert detail["traced_matches_untraced"]
            assert detail["wrappers_left"] == []


def test_repeated_seed_gives_identical_digests():
    wl = make_workloads("tiny")["galaxy-bvh-dual-ranks2"]
    a = run_workload(wl, 5, 0.0, trace=False)
    b = run_workload(wl, 5, 0.0, trace=True)
    assert a["digests"] == b["digests"]
    assert a["metrics"]["model_step_s"] == b["metrics"]["model_step_s"]


def test_wrappers_cover_from_imports_and_are_restored():
    originals = {spec: _resolve(spec)[2]
                 for specs in LAYERS.values() for spec in specs}
    bound = repro.bvh.force.build_interaction_lists
    recorder = SpanRecorder()
    with recorder.installed(list(LAYERS)):
        # Names callers bound with ``from ... import`` are swapped too.
        for mod in (repro.bvh.force, repro.octree.force, repro.distributed.let):
            assert mod.build_interaction_lists.__perfbench_wrapper__
        assert repro.traversal.engine.build_interaction_lists is not bound
        assert repro.maintenance.maintainer.TreeMaintainer.maintain_bvh.__perfbench_wrapper__
        assert wrappers_left()
    assert wrappers_left() == []
    assert repro.bvh.force.build_interaction_lists is bound
    for spec, fn in originals.items():
        assert _resolve(spec)[2] is fn, spec


def test_traced_run_records_nested_spans_and_restores():
    wl = make_workloads("tiny")["galaxy-bvh-refit"]
    record = run_workload(wl, 2, 0.0, trace=True)
    assert record["wrappers_left"] == []
    m = record["metrics"]
    assert m["flat.eval_s"] > 0 and m["maintenance.maintain_s"] > 0
    assert m["dual.m2l_s"] == 0.0  # bypassed layer stays at zero
    assert 0.0 < m["trace.coverage"] <= 1.0


def test_self_time_arithmetic():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.0, 2),
        # Overlapping children of "a" are counted once.
        Span("d", 1.5, 3.0, 1),
        Span("e", 2.5, 3.5, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 3.0, 1.0, 1.5, 1.0])


def _nan_galaxy(n, seed=0):
    """A valid system whose first position is poisoned after validation."""
    from repro.workloads import galaxy_collision

    system = galaxy_collision(n, seed=seed)
    system.x[0] = np.nan
    return system


class _NanWorkload(SimWorkload):
    def warmup(self):  # the warm-up runs the program on clean bodies
        pass


def test_nan_input_counts_failed_steps_instead_of_crashing():
    base = make_workloads("tiny")["galaxy-bvh-refit"]
    wl = _NanWorkload(**{**dataclasses.asdict(base), "name": "nan",
                         "generate": _nan_galaxy, "config": base.config})
    record = run_workload(wl, 1, 0.0, trace=False)
    assert record["correct"] is False
    assert record["attempted"] > 0
    assert record["failed"] == record["attempted"]
    assert record["metrics"]["ok_step_frac"] == 0.0
