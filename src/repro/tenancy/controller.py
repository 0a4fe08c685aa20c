"""The tenancy front door: authenticate, rate-limit, charge quota.

:class:`TenancyController` is the one object the serving layer holds.
It bundles the hot-reloadable :class:`~repro.tenancy.registry.TenantRegistry`,
one :class:`~repro.tenancy.bucket.TokenBucket` per tenant (resynced when
the registry reloads), and the durable
:class:`~repro.tenancy.quota.QuotaLedger`, and exposes exactly one
admission call::

    tenant = controller.admit(api_key)   # or raises:
    #   AuthenticationError   -> HTTP 401
    #   RateLimitedError      -> HTTP 429 + Retry-After (from the bucket)
    #   QuotaExceededError    -> HTTP 429 + Retry-After (to UTC midnight)

Each reject reason has its own metric so dashboards can tell an attack
(auth failures) from a hot tenant (rate limited) from an exhausted plan
(quota).  Admission runs entirely in memory on the no-contention path —
a dict lookup, one constant-time key scan, a bucket refill, and a ledger
increment — keeping the added latency well under the 1 ms p99 budget.
"""

from __future__ import annotations

from repro.concurrency import make_lock
from repro.errors import ReproError
from repro.metrics import MetricsRegistry
from repro.tenancy.bucket import TokenBucket
from repro.tenancy.quota import QuotaLedger
from repro.tenancy.registry import Tenant, TenantRegistry


class TenancyError(ReproError):
    """Base class for admission rejections."""


class AuthenticationError(TenancyError):
    """Missing, unknown, or disabled API key (HTTP 401)."""


class RateLimitedError(TenancyError):
    """The tenant's token bucket is empty (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QuotaExceededError(TenancyError):
    """The tenant's daily quota is spent (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class TenancyController:
    """Admission control over a tenant registry, buckets, and quotas."""

    def __init__(
        self,
        registry: TenantRegistry,
        *,
        ledger: QuotaLedger | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.registry = registry
        self.ledger = ledger if ledger is not None else QuotaLedger()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = make_lock("TenancyController._lock")
        self._buckets: dict[str, TokenBucket] = {}  # guarded by: _lock
        self._bucket_generation = -1  # guarded by: _lock
        m = self.metrics
        self._auth_failures = m.counter(
            "tenancy_auth_failures_total",
            "requests rejected for a missing/unknown/disabled API key")
        self._admitted = m.labeled_counter(
            "tenant_admitted_total",
            "requests admitted through the tenancy front door, per tenant")
        self._rate_limited = m.labeled_counter(
            "tenant_rate_limited_total",
            "requests rejected by the token bucket, per tenant")
        self._quota_rejected = m.labeled_counter(
            "tenant_quota_rejected_total",
            "requests rejected by the daily quota, per tenant")

    # ------------------------------------------------------------- buckets

    def _bucket(self, tenant: Tenant) -> TokenBucket:
        """The tenant's bucket, resynced after registry hot reloads.

        Buckets with unchanged (rate, burst) survive a reload so a config
        push does not hand every tenant a fresh burst.
        """
        generation = self.registry.generation
        with self._lock:
            if generation != self._bucket_generation:
                kept: dict[str, TokenBucket] = {}
                for t in self.registry.tenants():
                    bucket = self._buckets.get(t.tenant_id)
                    if (
                        bucket is not None
                        and bucket.rate == t.rate
                        and bucket.burst == t.burst
                    ):
                        kept[t.tenant_id] = bucket
                self._buckets = kept
                self._bucket_generation = generation
            bucket = self._buckets.get(tenant.tenant_id)
            if bucket is None:
                bucket = TokenBucket(tenant.rate, tenant.burst)
                self._buckets[tenant.tenant_id] = bucket
            return bucket

    # ----------------------------------------------------------- admission

    def authenticate(self, api_key: str | None) -> Tenant:
        """Resolve a key to its tenant; raises :class:`AuthenticationError`."""
        self.registry.reload_if_changed()
        tenant = self.registry.authenticate(api_key)
        if tenant is None:
            self._auth_failures.inc()
            raise AuthenticationError("missing or unknown API key")
        return tenant

    def admit(self, api_key: str | None) -> Tenant:
        """Full front-door check: auth, then bucket, then quota."""
        tenant = self.authenticate(api_key)
        decision = self._bucket(tenant).try_acquire()
        if not decision.allowed:
            self._rate_limited.labels(tenant.tenant_id).inc()
            raise RateLimitedError(
                f"tenant {tenant.tenant_id!r} exceeded its rate "
                f"({tenant.rate:g}/s, burst {tenant.burst:g})",
                decision.retry_after_s,
            )
        quota = self.ledger.charge(tenant.tenant_id, tenant.daily_quota)
        if not quota.allowed:
            self._quota_rejected.labels(tenant.tenant_id).inc()
            raise QuotaExceededError(
                f"tenant {tenant.tenant_id!r} exhausted its daily quota "
                f"({tenant.daily_quota})",
                quota.retry_after_s,
            )
        self._admitted.labels(tenant.tenant_id).inc()
        return tenant

    def is_admin(self, api_key: str | None) -> bool:
        self.registry.reload_if_changed()
        return self.registry.is_admin(api_key)

    # --------------------------------------------------------------- views

    def usage(self, tenant_id: str) -> dict | None:
        """Front-door usage for one tenant (``None`` when unknown)."""
        tenant = self.registry.get(tenant_id)
        if tenant is None:
            return None
        day, used = self.ledger.usage(tenant_id)
        remaining = (
            None if tenant.daily_quota is None
            else max(0, tenant.daily_quota - used)
        )
        return {
            **tenant.describe(),
            "day": day,
            "quota_used": used,
            "quota_remaining": remaining,
            "tokens_available": round(self._bucket(tenant).peek(), 3),
            "admitted": self._admitted.labels(tenant_id).value,
            "rejected": {
                "rate_limited": self._rate_limited.labels(tenant_id).value,
                "quota": self._quota_rejected.labels(tenant_id).value,
            },
        }

    def overview(self) -> dict:
        """Admin listing: registry metadata plus per-tenant usage."""
        return {
            "config_version": self.registry.version,
            "config_path": str(self.registry.path) if self.registry.path else None,
            "auth_failures": self._auth_failures.value,
            "tenants": [
                self.usage(t.tenant_id) for t in self.registry.tenants()
            ],
        }

    def close(self) -> None:
        """Flush the quota ledger (call on serve shutdown)."""
        self.ledger.close()
