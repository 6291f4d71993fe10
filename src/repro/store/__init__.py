"""Durable multi-tenant storage for the serving layer.

Everything the service holds in memory — registered datasets, named
ontologies, standing-query subscriptions — dies with the process, and
every client shares one undifferentiated resource pool.  This package
supplies the two missing production pieces:

* :mod:`repro.store.datastore` — :class:`DatasetStore`, durable
  dataset storage as one SQLite file per tenant (WAL mode, pooled
  connections, prepared-statement reuse, mmap/pragma tuning — see
  :mod:`repro.store.sqlite`).  Registration writes the full fact set;
  updates append only the delta plus the new epoch inside the
  service's existing writer lock; ``load_all`` hands a restarted
  server every tenant's datasets, ontologies and subscriptions so it
  warm-starts instead of starting empty.
* :mod:`repro.store.tenants` — :class:`TenantManager`, per-tenant
  namespaces (dataset and ontology names scoped by tenant; the
  default tenant keeps today's un-prefixed behavior), quotas
  (``max_datasets`` / ``max_facts`` / ``max_subscriptions``) and
  token-bucket rate limits that surface through the service's
  existing 429 + ``Retry-After`` backpressure shape.

:class:`~repro.service.service.OMQService` grows ``store=`` /
``quota=`` constructor knobs, ``snapshot()`` / ``restore()`` /
``checkpoint()``, and per-tenant accounting; ``repro serve
--data-dir DIR`` turns it all on for the server.
"""

from .datastore import DatasetStore, StoredSubscription, TenantSnapshot
from .sqlite import SQLitePool, tuned_connection
from .tenants import (
    DEFAULT_TENANT,
    QuotaError,
    RateLimited,
    TenantManager,
    TenantQuota,
)

__all__ = [
    "DEFAULT_TENANT",
    "DatasetStore",
    "QuotaError",
    "RateLimited",
    "SQLitePool",
    "StoredSubscription",
    "TenantManager",
    "TenantQuota",
    "TenantSnapshot",
    "tuned_connection",
]
