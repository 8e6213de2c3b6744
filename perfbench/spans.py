"""Host-time spans recorded from outside the program.

:class:`SpanRecorder` replaces the public functions named in
:data:`LAYERS` with thin timing wrappers for the length of a ``with``
block and restores the originals afterwards.  The program is not
edited: every module-level name bound to a target function -- the
defining module's attribute, package re-exports, and the names callers
bound with ``from ... import`` -- is swapped, so calls made through any
of them are timed.  Function-local imports resolve the module attribute
at call time and therefore see the wrapper too.

Spans are kept in memory as ``(name, start, end, parent)`` and written
out when the benchmark ends.  A wrapper records only inside a root span
the benchmark opened around one timestep, so work done during set-up is
not attributed to the timed window.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Per-layer span name -> public functions (``module:qualname``) it
#: times.  Methods are patched on their class.
LAYERS: dict[str, tuple[str, ...]] = {
    "flat.eval_s": ("repro.traversal.flat:evaluate_flat",),
    "flat.prep_s": ("repro.traversal.flat:build_flat_lists",),
    "traversal.list_build_s": ("repro.traversal.engine:build_interaction_lists",),
    "traversal.eval_s": ("repro.traversal.engine:evaluate_interaction_lists",),
    "dual.list_build_s": ("repro.traversal.dual:build_dual_lists",),
    "dual.eval_s": ("repro.traversal.dual:evaluate_dual",),
    "dual.m2l_s": ("repro.physics.local_expansion:m2l_accumulate",),
    "dual.downsweep_s": ("repro.physics.local_expansion:l2l_sweep",
                         "repro.physics.local_expansion:l2p_evaluate"),
    "octree.build_s": ("repro.octree.build_vectorized:build_octree_vectorized",),
    "octree.multipoles_s": ("repro.octree.multipoles:compute_multipoles_vectorized",),
    "bvh.sort_s": ("repro.bvh.build:hilbert_sort_permutation",),
    "bvh.assemble_s": ("repro.bvh.build:assemble_bvh",),
    "bvh.refit_s": ("repro.bvh.build:refit_bvh",),
    "geometry.hilbert_s": ("repro.geometry.hilbert:hilbert_encode",),
    "maintenance.maintain_s": (
        "repro.maintenance.maintainer:TreeMaintainer.maintain_bvh",
        "repro.maintenance.maintainer:TreeMaintainer.maintain_octree",
    ),
    "distributed.partition_s": ("repro.distributed.partition:decompose",),
    "distributed.let_build_s": ("repro.distributed.let:build_let_plan",),
    "distributed.remote_eval_s": ("repro.distributed.let:remote_accelerations",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in the recorder's list; -1 = root.
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def _repro_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def _resolve(spec: str):
    """``module:qualname`` -> (owner, attribute, original function)."""
    modname, qualname = spec.split(":")
    owner = importlib.import_module(modname)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class SpanRecorder:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: (namespace, attribute, original) for every swapped binding.
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A span the benchmark opens around one unit of timed work."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        timed.__perfbench_wrapper__ = True
        return timed

    # ------------------------------------------------------------------
    def install(self, names) -> None:
        """Wrap the functions of the :data:`LAYERS` entries in *names*."""
        for name in names:
            for spec in LAYERS[name]:
                owner, attr, original = _resolve(spec)
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in _repro_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, namespace, attr: str, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._patches.append((namespace, attr, original))

    def restore(self) -> None:
        """Put every original binding back (in reverse install order)."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    @contextmanager
    def installed(self, names):
        try:
            self.install(names)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children are clipped to their parent and overlapping children are
    counted once (the union of their intervals).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


def wrappers_left() -> list[str]:
    """Module-level bindings under ``repro`` still holding a wrapper."""
    left = []
    for mod in _repro_modules():
        modname = mod.__name__
        for key, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_wrapper__", False):
                left.append(f"{modname}.{key}")
            elif isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    if getattr(member, "__perfbench_wrapper__", False):
                        left.append(f"{modname}.{key}.{attr}")
    return left
