"""Multi-tenancy: namespaces, quotas and rate limits.

The contract the service and its HTTP server enforce:

* a tenant only ever sees its own datasets, ontologies and
  subscriptions — same names in two tenants never collide, and
  subscription ids cannot be probed across namespaces;
* quota breaches are structured 403 ``quota_exceeded`` rejections;
* token-bucket rate limits are structured 429 ``rate_limited``
  rejections carrying ``Retry-After``, while other tenants keep
  answering unaffected.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import OMQ, Client, ServiceError
from repro.queries import chain_cq
from repro.service import OMQService, serve_in_background
from repro.service.protocol import TENANT_HEADER, resolve_tenant
from repro.store import (QuotaError, RateLimited, TenantManager,
                         TenantQuota)

from .helpers import example11_tbox, random_data

TBOX = example11_tbox()


class TestTenantNames:
    def test_default_tenant_keeps_bare_names(self):
        assert TenantManager.scope("", "demo") == "demo"
        assert TenantManager.split("demo") == ("", "demo")

    def test_scope_and_split_round_trip(self):
        scoped = TenantManager.scope("alice", "demo")
        assert scoped == "alice::demo"
        assert TenantManager.split(scoped) == ("alice", "demo")

    @pytest.mark.parametrize("bad", ["a::b", "::", "-lead", ".lead",
                                     "x" * 65, "sp ace", "tab\t"])
    def test_invalid_tenant_names_rejected(self, bad):
        with pytest.raises(ValueError):
            TenantManager.validate(bad)

    def test_separator_rejected_in_dataset_names(self):
        service = OMQService(max_workers=1)
        try:
            with pytest.raises(ValueError):
                service.register_dataset("a::b", random_data(1))
        finally:
            service.close()

    def test_resolve_tenant_payload_beats_header(self):
        assert resolve_tenant("alice", {}) == "alice"
        assert resolve_tenant("alice", {"tenant": "bob"}) == "bob"
        assert resolve_tenant(None, {}) == ""
        with pytest.raises(ValueError):
            resolve_tenant("no::pe", {})


class TestIsolation:
    @pytest.fixture
    def service(self):
        service = OMQService(max_workers=2)
        yield service
        service.close()

    def test_same_name_different_tenants(self, service):
        service.register_dataset("demo", random_data(1), tenant="alice")
        service.register_dataset("demo", random_data(2), tenant="bob")
        omq = OMQ(TBOX, chain_cq("RS"))
        alice = service.answer("demo", omq, tenant="alice").answers
        bob = service.answer("demo", omq, tenant="bob").answers
        assert alice != bob  # different seeds, different answers
        assert service.datasets(tenant="alice") == ("demo",)
        assert service.datasets(tenant="bob") == ("demo",)

    def test_tenant_cannot_reach_other_tenants_dataset(self, service):
        service.register_dataset("demo", random_data(1), tenant="alice")
        with pytest.raises(ValueError, match="unknown dataset"):
            service.answer("demo", OMQ(TBOX, chain_cq("RS")),
                           tenant="bob")
        with pytest.raises(ValueError, match="unknown dataset"):
            service.answer("demo", OMQ(TBOX, chain_cq("RS")))

    def test_tboxes_are_tenant_scoped(self, service):
        service.register_tbox("uni", TBOX, tenant="alice")
        assert service.named_tbox("uni", tenant="alice") is not None
        with pytest.raises(ValueError):
            service.named_tbox("uni", tenant="bob")

    def test_subscriptions_cannot_be_probed_across_tenants(self, service):
        service.register_dataset("demo", random_data(1), tenant="alice")
        sub = service.subscribe("demo", OMQ(TBOX, chain_cq("RS")),
                                tenant="alice")
        for tenant in ("bob", ""):
            with pytest.raises(ValueError, match="unknown subscription"):
                service.poll(sub.subscription_id, tenant=tenant)
            with pytest.raises(ValueError, match="unknown subscription"):
                service.unsubscribe(sub.subscription_id, tenant=tenant)
        service.unsubscribe(sub.subscription_id, tenant="alice")

    def test_update_is_tenant_scoped(self, service):
        service.register_dataset("demo", random_data(1), tenant="alice")
        service.register_dataset("demo", random_data(1), tenant="bob")
        service.update("demo", inserts=[("R", ("q1", "q2")),
                                        ("S", ("q2", "q3"))],
                       tenant="alice")
        omq = OMQ(TBOX, chain_cq("RS"))
        assert ("q1", "q3") in service.answer("demo", omq,
                                              tenant="alice").answers
        assert ("q1", "q3") not in service.answer("demo", omq,
                                                  tenant="bob").answers


class TestQuotas:
    def test_max_datasets(self):
        service = OMQService(max_workers=1,
                             quota=TenantQuota(max_datasets=2))
        try:
            service.register_dataset("d1", random_data(1), tenant="t")
            service.register_dataset("d2", random_data(2), tenant="t")
            with pytest.raises(QuotaError) as info:
                service.register_dataset("d3", random_data(3), tenant="t")
            assert info.value.resource == "datasets"
            # dropping one frees the slot
            service.unregister_dataset("d1", tenant="t")
            service.register_dataset("d3", random_data(3), tenant="t")
            # replace of an existing dataset is not a new slot
            service.register_dataset("d2", random_data(4), replace=True,
                                     tenant="t")
        finally:
            service.close()

    def test_max_facts_counts_updates(self):
        service = OMQService(max_workers=1,
                             quota=TenantQuota(max_facts=25))
        try:
            service.register_dataset("d", random_data(1, atoms=18),
                                     tenant="t")
            with pytest.raises(QuotaError) as info:
                service.update(
                    "d", inserts=[("R", (f"a{i}", f"b{i}"))
                                  for i in range(30)], tenant="t")
            assert info.value.resource == "facts"
        finally:
            service.close()

    def test_max_subscriptions(self):
        service = OMQService(max_workers=1,
                             quota=TenantQuota(max_subscriptions=1))
        try:
            service.register_dataset("d", random_data(1), tenant="t")
            omq = OMQ(TBOX, chain_cq("RS"))
            sub = service.subscribe("d", omq, tenant="t")
            with pytest.raises(QuotaError):
                service.subscribe("d", omq, tenant="t")
            service.unsubscribe(sub.subscription_id, tenant="t")
            service.subscribe("d", omq, tenant="t")  # slot freed
        finally:
            service.close()

    def test_quotas_are_per_tenant(self):
        service = OMQService(max_workers=1,
                             quota=TenantQuota(max_datasets=1))
        try:
            service.register_dataset("d", random_data(1), tenant="a")
            service.register_dataset("d", random_data(1), tenant="b")
            with pytest.raises(QuotaError):
                service.register_dataset("d2", random_data(1), tenant="a")
        finally:
            service.close()

    def test_failed_subscribe_releases_quota(self):
        service = OMQService(max_workers=1,
                             quota=TenantQuota(max_subscriptions=1))
        try:
            with pytest.raises(ValueError, match="unknown dataset"):
                service.subscribe("missing", OMQ(TBOX, chain_cq("RS")),
                                  tenant="t")
            # the failed attempt must not have burned the only slot
            service.register_dataset("d", random_data(1), tenant="t")
            service.subscribe("d", OMQ(TBOX, chain_cq("RS")), tenant="t")
        finally:
            service.close()


class TestRateLimit:
    def test_token_bucket_throttles_and_refills(self):
        service = OMQService(
            max_workers=1,
            quota=TenantQuota(rate_limit=50.0, rate_burst=3.0))
        try:
            for _ in range(3):
                service.tenants.throttle("t")
            with pytest.raises(RateLimited) as info:
                service.tenants.throttle("t")
            assert info.value.retry_after > 0
            time.sleep(info.value.retry_after + 0.05)
            service.tenants.throttle("t")  # bucket refilled
        finally:
            service.close()

    def test_rate_limits_are_per_tenant(self):
        service = OMQService(
            max_workers=1,
            quota=TenantQuota(rate_limit=50.0, rate_burst=2.0))
        try:
            service.tenants.throttle("a")
            service.tenants.throttle("a")
            with pytest.raises(RateLimited):
                service.tenants.throttle("a")
            service.tenants.throttle("b")  # unaffected
        finally:
            service.close()


def _http_call(base, path, payload=None, tenant=None):
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers[TENANT_HEADER] = tenant
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data, headers)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestAsyncServerTenancy:
    """The wire-level tenancy contract."""

    QUOTA = TenantQuota(max_datasets=2, rate_limit=30.0, rate_burst=6.0)

    @pytest.fixture
    def server_url(self):
        service = OMQService(max_workers=2, quota=self.QUOTA)
        with serve_in_background(service) as handle:
            yield handle.url
        service.close()

    def test_header_scopes_requests(self, server_url):
        for tenant, seed in (("alice", 1), ("bob", 2)):
            status, _, _ = _http_call(
                server_url, "/datasets",
                {"name": "demo",
                 "data": "\n".join(f"{p}({', '.join(a)})"
                                   for p, a in sorted(
                                       random_data(seed).atoms()))},
                tenant=tenant)
            assert status == 201
        query = {"dataset": "demo", "tbox_text": str(
            "roles: P, R, S\nP <= S\nP <= R-"),
            "query": "R(x, y), S(y, z)", "answers": ["x", "z"]}
        _, _, alice = _http_call(server_url, "/answer", query,
                                 tenant="alice")
        _, _, bob = _http_call(server_url, "/answer", query, tenant="bob")
        assert alice["answers"] != bob["answers"]
        status, _, body = _http_call(server_url, "/answer", query)
        assert status in (400, 404), body  # default tenant: no dataset

    def test_payload_tenant_field_wins(self, server_url):
        _http_call(server_url, "/datasets",
                   {"name": "mine", "data": "R(a, b)"}, tenant="carol")
        status, _, body = _http_call(
            server_url, "/answer",
            {"dataset": "mine", "tenant": "carol",
             "tbox_text": "roles: P, R, S\nP <= S\nP <= R-",
             "query": "R(x, y)", "answers": ["x"]}, tenant="dave")
        assert status == 200 and body["answers"] == [["a"]]

    def test_invalid_tenant_name_is_400(self, server_url):
        status, _, body = _http_call(
            server_url, "/datasets", {"name": "d", "data": "R(a, b)"},
            tenant="not::ok")
        assert status == 400 and "tenant" in body["error"]

    def test_quota_breach_is_structured_403(self, server_url):
        for index in range(2):
            _http_call(server_url, "/datasets",
                       {"name": f"q{index}", "data": "R(a, b)"},
                       tenant="erin")
        status, _, body = _http_call(
            server_url, "/datasets", {"name": "q2", "data": "R(a, b)"},
            tenant="erin")
        assert status == 403
        assert body["error_type"] == "quota_exceeded"
        assert "datasets" in body["error"]

    def test_rate_limit_is_429_with_retry_after_and_fair(self, server_url):
        _http_call(server_url, "/datasets",
                   {"name": "d", "data": "R(a, b)"}, tenant="flood")
        _http_call(server_url, "/datasets",
                   {"name": "d", "data": "R(x, y)"}, tenant="calm")
        query = {"dataset": "d",
                 "tbox_text": "roles: P, R, S\nP <= S\nP <= R-",
                 "query": "R(x, y)", "answers": ["x"]}
        throttled = None
        for _ in range(20):
            status, headers, body = _http_call(server_url, "/answer",
                                               query, tenant="flood")
            if status == 429:
                throttled = (headers, body)
                break
        assert throttled is not None, "flooding tenant never throttled"
        headers, body = throttled
        assert body["error_type"] == "rate_limited"
        assert float(headers["Retry-After"]) >= 0
        assert body["retry_after"] >= 0
        # the quiet tenant keeps answering while the flood is throttled
        status, _, body = _http_call(server_url, "/answer", query,
                                     tenant="calm")
        assert status == 200 and body["answers"] == [["x"]]

    def test_stats_report_per_tenant_counters(self, server_url):
        _http_call(server_url, "/datasets",
                   {"name": "d", "data": "R(a, b)"}, tenant="grace")
        _, _, stats = _http_call(server_url, "/stats")
        tenants = stats["tenants"]
        assert tenants["quota"]["max_datasets"] == 2
        assert tenants["per_tenant"]["grace"]["datasets"] == 1


class TestClientTenancy:
    def test_wrapped_clients_are_isolated(self):
        service = OMQService(max_workers=2)
        try:
            alice = Client.wrap(service, tenant="alice")
            bob = Client.wrap(service, tenant="bob")
            alice.register_dataset("demo", random_data(1))
            bob.register_dataset("demo", random_data(2))
            omq = OMQ(TBOX, chain_cq("RS"))
            assert alice.answer("demo", omq).answers \
                != bob.answer("demo", omq).answers
            assert alice.datasets() == ("demo",)
        finally:
            service.close()

    def test_http_client_sends_tenant_header(self):
        service = OMQService(max_workers=2)
        try:
            with serve_in_background(service) as handle:
                alice = Client.connect(handle.url, tenant="alice")
                alice.register_dataset("demo", random_data(1))
                omq = OMQ(TBOX, chain_cq("RS"))
                got = alice.answer("demo", omq)
                expected = service.answer("demo", omq, tenant="alice")
                assert got.answers == expected.answers
                # every body alice is shown names the dataset as she
                # registered it, never the reserved registry key
                assert got.dataset == expected.dataset == "demo"
                sub = alice.subscribe("demo", omq)
                assert sub.dataset == "demo"
                polled = service.poll(sub.subscription_id, tenant="alice")
                assert polled["dataset"] == "demo"
                resync = service.poll(sub.subscription_id, since_epoch=-1,
                                      tenant="alice")
                assert resync["resync"] and resync["dataset"] == "demo"
                # ... and she lists her own datasets only
                service.register_dataset("other", random_data(2),
                                         tenant="bob")
                assert alice.datasets() == ("demo",)
                assert service.datasets() == ("alice::demo", "bob::other")
                # the default-tenant client cannot see alice's dataset
                with pytest.raises(ServiceError), \
                        Client.connect(handle.url) as nobody:
                    nobody.answer("demo", omq)
                alice.close()
        finally:
            service.close()
