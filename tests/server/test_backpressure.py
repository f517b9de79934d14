"""Admission-control tests: the front door sheds load with 429s.

The saturation test swaps in a backend stub whose ``query`` blocks on
an event, fills the admission budget with real threads, and proves the
next request is refused immediately — 429 with ``Retry-After`` — rather
than queued behind the stuck ones.
"""

import json
import threading

import pytest

from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.core.query import CubeBackend
from repro.datagen.publications import figure1_document, query1
from repro.errors import Overloaded
from repro.serve import CubeServer
from repro.server import (
    AdmissionController,
    CubeCatalog,
    LogicalCube,
    X3Api,
)


class TestAdmissionController:
    def test_admits_up_to_budget(self):
        admission = AdmissionController(2)
        with admission.admit():
            with admission.admit():
                with pytest.raises(Overloaded) as excinfo:
                    with admission.admit():
                        pass
        assert excinfo.value.retry_after_seconds > 0
        stats = admission.stats()
        assert stats == {
            "inflight": 0,
            "admitted": 2,
            "rejected": 1,
            "peak_inflight": 2,
            "max_inflight": 2,
        }

    def test_slot_released_after_exit(self):
        admission = AdmissionController(1)
        with admission.admit():
            pass
        with admission.admit():
            pass
        assert admission.stats()["rejected"] == 0

    def test_slot_released_on_error(self):
        admission = AdmissionController(1)
        with pytest.raises(RuntimeError):
            with admission.admit():
                raise RuntimeError("boom")
        assert admission.stats()["inflight"] == 0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


class _BlockingBackend(CubeBackend):
    """A CubeBackend whose query path parks until released."""

    def __init__(self, inner):
        self._inner = inner
        self.lattice = inner.lattice
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()

    def query(self, query):
        self.entered.release()
        assert self.release.wait(timeout=10.0)
        return self._inner.query(query)

    def explain_query(self, query):
        return self._inner.explain_query(query)

    def version_token(self):
        return self._inner.version_token()

    def insert(self, rows):
        return self._inner.insert(rows)

    def delete(self, rows):
        return self._inner.delete(rows)


class TestHttpBackpressure:
    @pytest.fixture()
    def saturated(self):
        table = extract_fact_table(figure1_document(), query1())
        backend = _BlockingBackend(
            CubeServer(table, PropertyOracle.from_data(table))
        )
        catalog = CubeCatalog()
        catalog.register(
            LogicalCube.from_lattice("pubs", table.lattice), backend
        )
        api = X3Api(catalog, admission=AdmissionController(2))
        return api, backend

    def test_saturated_server_returns_429(self, saturated):
        api, backend = saturated
        responses = []

        def issue():
            responses.append(
                api.handle("POST", "/api/v1/cubes/pubs/aggregate", b"{}")
            )

        stuck = [threading.Thread(target=issue) for _ in range(2)]
        for thread in stuck:
            thread.start()
        # Both budget slots are now parked inside the backend.
        assert backend.entered.acquire(timeout=10.0)
        assert backend.entered.acquire(timeout=10.0)

        shed = api.handle("POST", "/api/v1/cubes/pubs/aggregate", b"{}")
        assert shed.status == 429
        decoded = json.loads(shed.body)
        assert decoded["error"]["kind"] == "overloaded"
        headers = dict(shed.headers)
        assert float(headers["Retry-After"]) > 0

        backend.release.set()
        for thread in stuck:
            thread.join(timeout=10.0)
        # The parked requests finish normally once released...
        assert [r.status for r in responses] == [200, 200]
        # ...and the freed budget admits new work again.
        after = api.handle("POST", "/api/v1/cubes/pubs/aggregate", b"{}")
        assert after.status == 200
        stats = api.admission.stats()
        assert stats["rejected"] == 1
        assert stats["admitted"] == 3

    def test_catalog_reads_bypass_admission(self, saturated):
        api, backend = saturated
        threads = [
            threading.Thread(
                target=lambda: api.handle(
                    "POST", "/api/v1/cubes/pubs/aggregate", b"{}"
                )
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        assert backend.entered.acquire(timeout=10.0)
        assert backend.entered.acquire(timeout=10.0)
        # Catalog metadata and metrics stay readable under overload —
        # the admission budget guards the query endpoints only.
        assert api.handle("GET", "/api/v1/cubes").status == 200
        assert api.handle("GET", "/metrics").status == 200
        backend.release.set()
        for thread in threads:
            thread.join(timeout=10.0)
