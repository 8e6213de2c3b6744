"""Admission control: per-tenant quotas, FIFO queues, backpressure.

Every arriving :class:`~repro.serve.session.SessionSpec` passes through
the :class:`AdmissionController` before it may consume device time.
The decision is deterministic — a pure function of the server's
current occupancy — and a rejection carries a machine-readable code:

* :data:`REJECT_TENANT_QUEUE_FULL` — the tenant already has
  ``max_queued`` sessions waiting; admitting more would only grow its
  own backlog (per-tenant backpressure).
* :data:`REJECT_SERVER_SATURATED` — the server is at its global
  session capacity across all tenants (global backpressure).

Admitted sessions get a **modeled wait estimate**: the backlog of
device-seconds ahead of the new session (every unfinished session's
remaining steps times its observed — or, before any observation, a
nominal — per-step cost), scaled by the tenant's fair share of the
weights.  Because backlog and costs are modeled quantities, the
estimate is bit-reproducible run to run; the traffic benchmark
compares it against realized waits.
"""

from __future__ import annotations

from dataclasses import dataclass

REJECT_TENANT_QUEUE_FULL = "tenant-queue-full"
REJECT_SERVER_SATURATED = "server-saturated"

#: Per-step cost guess (modeled seconds per body-step) used for
#: sessions whose workload class has not been observed yet.  Only the
#: *estimate* uses it; actual charging always uses measured costs.
NOMINAL_SECONDS_PER_BODY_STEP = 2e-9


@dataclass(frozen=True)
class TenantQuota:
    """Fair-share weight and backpressure bounds of one tenant."""

    #: DRR weight: relative share of modeled device time.
    weight: float = 1.0
    #: Sessions a tenant may have unfinished (queued + schedulable).
    max_active: int = 8
    #: Of those, how many may still be waiting for their first quantum.
    max_queued: int = 8

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("quota weight must be positive")
        if self.max_active < 1 or self.max_queued < 1:
            raise ValueError("quota bounds must be at least 1")


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of offering one spec to the controller."""

    admitted: bool
    #: Rejection code (None when admitted).
    code: str | None = None
    #: Deterministic modeled seconds until the session's first quantum
    #: (0.0 on rejection).
    estimated_wait: float = 0.0


class AdmissionController:
    """Stateless policy over the server's occupancy snapshot."""

    def __init__(
        self,
        *,
        max_sessions: int = 64,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = int(max_sessions)
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()

    def quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    # ------------------------------------------------------------------
    def offer(self, spec, occupancy) -> AdmissionResult:
        """Admit or reject *spec* against an :class:`Occupancy` snapshot."""
        q = self.quota(spec.tenant)
        active = occupancy.active_by_tenant.get(spec.tenant, 0)
        queued = occupancy.queued_by_tenant.get(spec.tenant, 0)
        if queued >= q.max_queued or active >= q.max_active:
            return AdmissionResult(False, code=REJECT_TENANT_QUEUE_FULL)
        if occupancy.total_active >= self.max_sessions:
            return AdmissionResult(False, code=REJECT_SERVER_SATURATED)
        return AdmissionResult(
            True, estimated_wait=self.estimate_wait(spec, occupancy)
        )

    def estimate_wait(self, spec, occupancy) -> float:
        """Modeled seconds before *spec* would get its first quantum.

        The modeled clock advances exactly as fast as work is charged
        (aggregate service rate 1), of which the tenant is guaranteed
        its weight fraction; the new session reaches the front of its
        own queue once the tenant's current backlog has been served at
        that guaranteed rate.  This is the GPS bound the deficit
        round-robin approximates to within one step-quantum.
        """
        q = self.quota(spec.tenant)
        total_w = sum(
            self.quota(t).weight for t in occupancy.tenants_with_work(spec.tenant)
        )
        share = q.weight / total_w if total_w > 0 else 1.0
        own = occupancy.backlog_by_tenant.get(spec.tenant, 0.0)
        return own / share


@dataclass
class Occupancy:
    """The server-state snapshot admission decisions read."""

    #: Unfinished (schedulable or queued) sessions per tenant.
    active_by_tenant: dict
    #: Sessions that have not run their first quantum yet, per tenant.
    queued_by_tenant: dict
    #: Estimated remaining modeled seconds per tenant.
    backlog_by_tenant: dict

    @property
    def total_active(self) -> int:
        return sum(self.active_by_tenant.values())

    def tenants_with_work(self, plus: str) -> set:
        out = {t for t, k in self.active_by_tenant.items() if k > 0}
        out.add(plus)
        return out
