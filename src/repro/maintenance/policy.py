"""The rebuild-vs-refit decision.

``tree_update="refit"`` refits whenever structure exists, the epoch
drift budget holds, and the displaced fraction stays under the fixed
configuration threshold.

``tree_update="auto"`` derives the disorder cap from *measured* modeled
costs instead: refitting saves the sort + build time but traverses a
stale ordering, whose locality penalty grows with the displaced
fraction.  Modeling the penalty as ``STALE_TRAVERSAL_COEFF * disorder``
of the force time, the refit pays off while::

    disorder <= (t_rebuild - t_refit) / (COEFF * t_force)

The times come from the machine cost model applied to the counter
deltas of previously executed steps on this very run, so the policy
adapts to problem size, device, and multipole order without tuning.

``tree_reuse_steps=k > 1`` under ``tree_update="rebuild"`` selects the
fixed cadence instead: Iwasawa et al.'s tree reuse (paper Section VI),
which rebuilds once the epoch has served *k* force evaluations and
keeps the structure (refreshing only its moments) in between.  It
senses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Decision:
    """One step's maintenance choice, with the evidence it used."""

    action: str            # "rebuild" | "refit"
    reason: str
    disorder: float = 0.0  # displaced fraction measured this step
    drift: float = 0.0     # max body displacement since the epoch build
    threshold: float = 0.0  # disorder cap the decision compared against


class MaintenancePolicy:
    """Chooses rebuild or refit per step from measured costs."""

    #: Penalty coefficient: fraction of the force-phase time wasted per
    #: unit displaced fraction when traversing a stale ordering
    #: (degraded group coherence + extra opened nodes).  Deliberately
    #: pessimistic so "auto" errs toward rebuilding.
    STALE_TRAVERSAL_COEFF = 8.0
    #: Never refit above this displaced fraction, whatever the model
    #: says — the drift-bounded MAC stays *correct*, but the locality
    #: claim behind the cost comparison loses meaning.
    MAX_DISORDER = 0.5

    def __init__(self, mode: str, disorder_threshold: float,
                 cadence: int = 1):
        self.mode = mode
        self.disorder_threshold = float(disorder_threshold)
        #: ``"cadence"`` mode: force evaluations one epoch serves.
        self.cadence = int(cadence)
        #: Whether decisions read the measured disorder and drift (the
        #: cadence goes by epoch age alone).
        self.senses = mode != "cadence"
        self.t_rebuild: float | None = None  # modeled sort+build seconds
        self.t_refit: float | None = None    # modeled refit seconds
        self.t_force: float | None = None    # modeled force seconds

    @staticmethod
    def mode_for(config) -> str:
        """The maintenance mode *config* selects: ``"cadence"`` for tree
        reuse, else its ``tree_update`` (``"rebuild"``: nothing is kept
        across evaluations)."""
        if config.tree_update == "rebuild" and config.tree_reuse_steps > 1:
            return "cadence"
        return config.tree_update

    # ------------------------------------------------------------------
    def observe(self, action: str, step_seconds: dict[str, float]) -> None:
        """Feed the modeled per-step seconds of an executed step back."""
        if action == "rebuild":
            self.t_rebuild = (step_seconds.get("sort", 0.0)
                              + step_seconds.get("build_tree", 0.0))
        elif action == "refit":
            self.t_refit = step_seconds.get("refit", 0.0)
        force = step_seconds.get("force", 0.0)
        if force > 0.0:
            self.t_force = force

    def disorder_cap(self) -> float:
        """The displaced fraction up to which a refit is worthwhile."""
        if self.mode != "auto":
            return self.disorder_threshold
        if self.t_refit is None or self.t_rebuild is None:
            # Bootstrap: until a refit has been measured, fall back to
            # the fixed threshold (the first refit then calibrates it).
            return min(self.disorder_threshold, self.MAX_DISORDER)
        saved = max(self.t_rebuild - self.t_refit, 0.0)
        force = max(self.t_force or 0.0, 1e-30)
        return min(saved / (self.STALE_TRAVERSAL_COEFF * force),
                   self.MAX_DISORDER)

    # ------------------------------------------------------------------
    def decide(
        self,
        *,
        have_structure: bool,
        age: int = 0,
        disorder: float = 0.0,
        drift: float = 0.0,
        drift_ok: bool = True,
    ) -> Decision:
        """*age*: force evaluations the current epoch has served."""
        if not have_structure:
            return Decision("rebuild", "no structure", disorder, drift)
        if self.mode == "cadence":
            if age >= self.cadence:
                return Decision("rebuild", "reuse window served")
            return Decision("refit", "within the reuse window")
        if not drift_ok:
            return Decision("rebuild", "drift budget exceeded",
                            disorder, drift)
        cap = self.disorder_cap()
        if disorder > cap:
            return Decision("rebuild", "disorder above threshold",
                            disorder, drift, cap)
        return Decision("refit", "order still valid", disorder, drift, cap)
