"""Tenancy: namespaces, quotas and per-tenant rate limits.

A *tenant* is one isolated consumer of a shared service process.  The
manager provides the three ingredients of fair multi-tenant serving:

* **namespaces** — dataset and ontology names are scoped per tenant
  (``scope("acme", "orders") == "acme::orders"``), so two tenants can
  both own a dataset called ``orders`` without seeing each other's
  data.  The default tenant (empty name) keeps today's un-prefixed
  names, so existing clients and the wire protocol are unchanged;
  ``::`` is reserved as the separator and rejected inside names.
* **quotas** — hard per-tenant ceilings on datasets, stored facts and
  standing subscriptions (:class:`TenantQuota`); exceeding one raises
  :class:`QuotaError`, which the HTTP layer maps to a structured 403.
* **rate limits** — a token bucket per tenant (``rate_limit`` requests
  per second, ``rate_burst`` of headroom).  An empty bucket raises
  :class:`RateLimited` with the exact ``retry_after`` until the next
  token, which the HTTP layer surfaces as the same 429 +
  ``Retry-After`` shape the queue-depth backpressure already uses —
  one noisy tenant is throttled without touching anyone else's
  latency.

All counter updates take one small lock; nothing here ever holds a
dataset lock, so there is no ordering hazard against the service.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs import Observability

#: The unscoped tenant every existing caller implicitly uses.
DEFAULT_TENANT = ""

#: Reserved namespace separator (``<tenant>::<name>``).
SEPARATOR = "::"

_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


class QuotaError(ValueError):
    """A tenant asked for more than its quota allows (HTTP 403)."""

    def __init__(self, tenant: str, resource: str, limit: int,
                 requested: int):
        super().__init__(
            f"tenant {tenant or 'default'!r} quota exceeded: "
            f"{resource} limit is {limit}, request would need "
            f"{requested}")
        self.tenant = tenant
        self.resource = resource
        self.limit = limit
        self.requested = requested


class RateLimited(ValueError):
    """A tenant exceeded its request rate (HTTP 429 + ``Retry-After``)."""

    def __init__(self, tenant: str, retry_after: float):
        super().__init__(
            f"tenant {tenant or 'default'!r} rate limit exceeded; "
            f"retry in {retry_after:.2f}s")
        self.tenant = tenant
        self.retry_after = retry_after


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ceilings; ``None`` disables that limit."""

    max_datasets: Optional[int] = None
    max_facts: Optional[int] = None
    max_subscriptions: Optional[int] = None
    #: Sustained requests/second admitted per tenant (``None`` = no
    #: rate limiting); ``rate_burst`` tokens of headroom on top.
    rate_limit: Optional[float] = None
    rate_burst: float = 20.0

    def __post_init__(self):
        for name in ("max_datasets", "max_facts", "max_subscriptions"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive (or None)")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")


@dataclass
class _TenantState:
    """Live accounting for one tenant (guarded by the manager lock)."""

    datasets: int = 0
    facts: int = 0
    subscriptions: int = 0
    requests: int = 0
    rate_limited: int = 0
    quota_rejections: int = 0
    #: Token bucket: refilled lazily on each admission check.
    tokens: float = 0.0
    refilled_at: float = field(default_factory=time.monotonic)


class TenantManager:
    """Namespace scoping plus quota and rate-limit accounting.

    One instance lives on each :class:`~repro.service.service.OMQService`
    (``service.tenants``); the service charges it on registration,
    update, and subscribe paths, and the protocol layer calls
    :meth:`throttle` per admitted request.
    """

    def __init__(self, quota: Optional[TenantQuota] = None,
                 obs: Optional[Observability] = None):
        self.quota = quota or TenantQuota()
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        # the per-tenant ints in _TenantState stay authoritative for
        # /stats; the labeled families mirror them for /metrics
        self._obs = obs or Observability()

    # -- namespaces ----------------------------------------------------------

    @staticmethod
    def validate(tenant: str) -> str:
        """``tenant`` if it is a legal tenant name (the default tenant
        or ``[A-Za-z0-9][A-Za-z0-9_.-]{0,63}``)."""
        if tenant == DEFAULT_TENANT:
            return tenant
        if not isinstance(tenant, str) or not _TENANT_NAME.match(tenant):
            raise ValueError(
                f"invalid tenant name {tenant!r}: expected "
                "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        return tenant

    @classmethod
    def scope(cls, tenant: str, name: str) -> str:
        """The registry key for ``name`` owned by ``tenant``.

        The default tenant keeps bare names (today's behavior); other
        tenants get ``<tenant>::<name>``.  ``::`` is reserved — a name
        containing it is rejected for every tenant, so a scoped key can
        never collide with a default-tenant name.
        """
        cls.validate(tenant)
        if not name or not isinstance(name, str):
            raise ValueError(f"invalid dataset/ontology name {name!r}")
        if SEPARATOR in name:
            raise ValueError(
                f"invalid name {name!r}: {SEPARATOR!r} is reserved as "
                "the tenant separator")
        if tenant == DEFAULT_TENANT:
            return name
        return f"{tenant}{SEPARATOR}{name}"

    @staticmethod
    def split(scoped: str) -> tuple:
        """``(tenant, name)`` back from a registry key."""
        tenant, separator, name = scoped.partition(SEPARATOR)
        if not separator:
            return DEFAULT_TENANT, scoped
        return tenant, name

    # -- rate limiting -------------------------------------------------------

    def throttle(self, tenant: str, cost: float = 1.0) -> None:
        """Admit one request against the tenant's token bucket, or
        raise :class:`RateLimited` with the seconds until a token is
        available.  No-op when ``rate_limit`` is unset."""
        rate = self.quota.rate_limit
        if rate is None:
            with self._lock:
                self._state(tenant).requests += 1
            self._obs.tenant_requests.labels(
                tenant=tenant or "default").inc()
            return
        burst = self.quota.rate_burst
        now = time.monotonic()
        with self._lock:
            state = self._state(tenant)
            state.tokens = min(
                burst, state.tokens + (now - state.refilled_at) * rate)
            state.refilled_at = now
            if state.tokens >= cost:
                state.tokens -= cost
                state.requests += 1
                admitted = True
            else:
                state.rate_limited += 1
                retry_after = (cost - state.tokens) / rate
                admitted = False
        label = tenant or "default"
        if admitted:
            self._obs.tenant_requests.labels(tenant=label).inc()
            return
        self._obs.tenant_rate_limited.labels(tenant=label).inc()
        raise RateLimited(tenant, retry_after)

    # -- quotas --------------------------------------------------------------

    def charge_dataset(self, tenant: str, facts: int,
                       replacing_facts: Optional[int] = None,
                       enforce: bool = True) -> None:
        """Account (and, unless restoring, enforce) one dataset
        registration of ``facts`` atoms; ``replacing_facts`` is the
        size of the dataset being replaced, released in the same
        breath so a replace is never double-counted."""
        with self._lock:
            state = self._state(tenant)
            new_datasets = state.datasets + (1 if replacing_facts is None
                                             else 0)
            new_facts = state.facts + facts - (replacing_facts or 0)
            if enforce:
                self._check(tenant, state, "datasets", new_datasets,
                            self.quota.max_datasets)
                self._check(tenant, state, "facts", new_facts,
                            self.quota.max_facts)
            state.datasets = new_datasets
            state.facts = max(0, new_facts)

    def release_dataset(self, tenant: str, facts: int) -> None:
        with self._lock:
            state = self._state(tenant)
            state.datasets = max(0, state.datasets - 1)
            state.facts = max(0, state.facts - facts)

    def charge_facts(self, tenant: str, upper_bound: int) -> None:
        """Pre-admission check for an update that may add up to
        ``upper_bound`` facts (duplicates make the true growth
        smaller; the bound errs on rejection at the very boundary)."""
        if self.quota.max_facts is None or upper_bound <= 0:
            return
        with self._lock:
            state = self._state(tenant)
            self._check(tenant, state, "facts",
                        state.facts + upper_bound, self.quota.max_facts)

    def adjust_facts(self, tenant: str, delta: int) -> None:
        """Post-update accounting with the *effective* fact delta."""
        if not delta:
            return
        with self._lock:
            state = self._state(tenant)
            state.facts = max(0, state.facts + delta)

    def charge_subscription(self, tenant: str, enforce: bool = True) -> None:
        with self._lock:
            state = self._state(tenant)
            if enforce:
                self._check(tenant, state, "subscriptions",
                            state.subscriptions + 1,
                            self.quota.max_subscriptions)
            state.subscriptions += 1

    def release_subscription(self, tenant: str) -> None:
        with self._lock:
            state = self._state(tenant)
            state.subscriptions = max(0, state.subscriptions - 1)

    def _check(self, tenant: str, state: _TenantState, resource: str,
               requested: int, limit: Optional[int]) -> None:
        if limit is not None and requested > limit:
            state.quota_rejections += 1
            self._obs.tenant_quota_rejections.labels(
                tenant=tenant or "default").inc()
            raise QuotaError(tenant, resource, limit, requested)

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState(
                tokens=self.quota.rate_burst)
        return state

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The ``"tenants"`` block of ``/stats``: live usage counters
        per tenant plus the configured quota."""
        quota = {"max_datasets": self.quota.max_datasets,
                 "max_facts": self.quota.max_facts,
                 "max_subscriptions": self.quota.max_subscriptions,
                 "rate_limit": self.quota.rate_limit,
                 "rate_burst": self.quota.rate_burst}
        with self._lock:
            per_tenant = {
                tenant or "default": {
                    "datasets": state.datasets,
                    "facts": state.facts,
                    "subscriptions": state.subscriptions,
                    "requests": state.requests,
                    "rate_limited": state.rate_limited,
                    "quota_rejections": state.quota_rejections}
                for tenant, state in sorted(self._tenants.items())}
        return {"quota": quota, "per_tenant": per_tenant}
