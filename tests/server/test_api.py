"""Golden request/response tests for the transport-independent API core.

Every test drives :meth:`repro.server.X3Api.handle` directly — the
complete front-door path (routing, JSON decoding, auth, admission,
logical-model resolution, error mapping) without a socket.  The
workload is the paper's Fig. 1 running example, so the group contents
are exact goldens, not shape assertions.
"""

import json

import pytest

from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.publications import figure1_document, query1
from repro.serve import CubeServer, TIERS
from repro.server import CubeCatalog, LogicalCube, TenantAuth, X3Api
from repro.server.http import ApiResponse


@pytest.fixture()
def api():
    table = extract_fact_table(figure1_document(), query1())
    server = CubeServer(table, PropertyOracle.from_data(table))
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("pubs", table.lattice, measure="COUNT"),
        server,
    )
    return X3Api(catalog)


def call(api, method, path, body=None, headers=None):
    encoded = (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    response = api.handle(method, path, encoded, headers)
    return response, json.loads(response.body)


class TestCatalogEndpoints:
    def test_list_cubes_golden(self, api):
        response, decoded = call(api, "GET", "/api/v1/cubes")
        assert response.status == 200
        assert response.content_type == "application/json"
        assert decoded == {
            "cubes": [
                {
                    "name": "pubs",
                    "dimensions": [
                        {"name": "n", "axis": "$n"},
                        {"name": "p", "axis": "$p"},
                        {"name": "y", "axis": "$y"},
                    ],
                    "measure": "COUNT",
                    "lattice_points": 30,
                    "version": [0],
                }
            ]
        }

    def test_describe_one_cube(self, api):
        response, decoded = call(api, "GET", "/api/v1/cubes/pubs")
        assert response.status == 200
        assert decoded["name"] == "pubs"
        assert decoded["lattice_points"] == 30


class TestQueryEndpoints:
    def test_aggregate_golden(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"group_by": {"y": "detail"}},
        )
        assert response.status == 200
        assert decoded.pop("modeled_seconds") > 0.0
        rungs = decoded.pop("rungs")
        assert [r["rung"] for r in rungs] == [
            "cache", "rollup", "recompute",
        ]
        assert [r["rung"] for r in rungs if r["taken"]] == ["recompute"]
        assert decoded == {
            "kind": "aggregate",
            "point": "$n:LND, $p:LND, $y:rigid",
            "version": [0],
            "tier": "recompute",
            "cells": 3,
            "deadline_exceeded": False,
            "groups": [
                {"key": ["2003"], "value": 2.0},
                {"key": ["2004"], "value": 1.0},
                {"key": ["2005"], "value": 1.0},
            ],
        }

    def test_cell_golden(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/cell",
            {"group_by": {"y": "detail"}, "key": ["2003"]},
        )
        assert response.status == 200
        assert decoded["kind"] == "cell"
        assert decoded["value"] == 2.0
        assert "groups" not in decoded

    def test_cell_missing_key_is_null(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/cell",
            {"group_by": {"y": "detail"}, "key": ["1999"]},
        )
        assert response.status == 200
        assert decoded["value"] is None

    def test_slice_golden(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/slice",
            {
                "group_by": {"n": "detail", "y": "detail"},
                "axis": "y",
                "value": "2003",
            },
        )
        assert response.status == 200
        assert decoded["kind"] == "slice"
        assert decoded["point"] == "$n:rigid, $p:LND, $y:rigid"
        assert decoded["groups"] == [
            {"key": ["Jane"], "value": 1.0},
            {"key": ["John"], "value": 1.0},
        ]

    def test_dice_golden(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/dice",
            {
                "group_by": {"n": "detail", "y": "detail"},
                "filters": {"y": ["2003"]},
            },
        )
        assert response.status == 200
        assert decoded["kind"] == "dice"
        assert decoded["groups"] == [
            {"key": ["Jane", "2003"], "value": 1.0},
            {"key": ["John", "2003"], "value": 1.0},
        ]

    def test_drilldown_refines_from_apex(self, api):
        # No point/group_by at all: start at the apex, drill down $y.
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/drilldown",
            {"axis": "y"},
        )
        assert response.status == 200
        assert decoded["kind"] == "drilldown"
        assert decoded["point"] == "$n:LND, $p:LND, $y:rigid"
        assert [g["key"] for g in decoded["groups"]] == [
            ["2003"], ["2004"], ["2005"],
        ]

    def test_explain_golden(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/explain",
            {"group_by": {"y": "detail"}},
        )
        assert response.status == 200
        assert decoded["backend"] == "serve"
        assert decoded["kind"] == "aggregate"
        assert decoded["point"] == "$n:LND, $p:LND, $y:rigid"
        assert decoded["shards"] == []
        assert [r["rung"] for r in decoded["rungs"]] == list(TIERS)

    def test_raw_point_description_works_too(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"point": "$n:LND, $p:LND, $y:rigid"},
        )
        assert response.status == 200
        assert decoded["cells"] == 3

    def test_measure_check_round_trip(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"measure": "COUNT"},
        )
        assert response.status == 200
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"measure": "SUM"},
        )
        assert response.status == 400


GOLDEN_REQUESTS = {
    "cubes": ("GET", "/api/v1/cubes", None),
    "cube": ("GET", "/api/v1/cubes/pubs", None),
    "aggregate": (
        "POST", "/api/v1/cubes/pubs/aggregate", {"group_by": {"y": "detail"}},
    ),
    "cell": (
        "POST",
        "/api/v1/cubes/pubs/cell",
        {"group_by": {"y": "detail"}, "key": ["2003"]},
    ),
    "slice": (
        "POST",
        "/api/v1/cubes/pubs/slice",
        {"group_by": {"n": "detail", "y": "detail"}, "axis": "y", "value": "2003"},
    ),
    "dice": (
        "POST",
        "/api/v1/cubes/pubs/dice",
        {"group_by": {"n": "detail", "y": "detail"}, "filters": {"y": ["2003"]}},
    ),
    "drilldown": ("POST", "/api/v1/cubes/pubs/drilldown", {"axis": "y"}),
    "explain": (
        "POST", "/api/v1/cubes/pubs/explain", {"group_by": {"y": "detail"}},
    ),
    "unknown_cube": ("POST", "/api/v1/cubes/warp/aggregate", {}),
}


class TestWireForm:
    """A body is ``json.dumps(payload)`` on one line: the C encoder with
    the default separators, parse-equal to the indented body it
    replaced, so the wire changed only in whitespace."""

    @pytest.fixture()
    def payloads(self, monkeypatch):
        seen = []
        encode = ApiResponse.json.__func__

        def spy(cls, status, payload, headers=()):
            seen.append(payload)
            return encode(cls, status, payload, headers)

        monkeypatch.setattr(ApiResponse, "json", classmethod(spy))
        return seen

    @pytest.mark.parametrize("name", sorted(GOLDEN_REQUESTS))
    def test_parse_equal_to_the_indented_body(self, api, payloads, name):
        response, decoded = call(api, *GOLDEN_REQUESTS[name])
        payload = payloads[-1]
        assert decoded == json.loads(json.dumps(payload, indent=1))
        assert response.body == json.dumps(payload) + "\n"

    def test_the_tier_reads_early_in_the_body(self, api):
        """A client that sniffs the tier off a reply's first bytes (the
        e2e benchmark reads ``"tier": "..."`` within 400 characters)
        still finds it: the separators are the default ``": "``."""
        response, _ = call(api, *GOLDEN_REQUESTS["aggregate"])
        assert '"tier": "recompute"' in response.body[:400]


class TestErrorMapping:
    def test_unknown_cube_is_404(self, api):
        response, decoded = call(
            api, "POST", "/api/v1/cubes/warp/aggregate", {}
        )
        assert response.status == 404
        assert decoded["error"]["kind"] == "unknown_cube"
        assert "pubs" in decoded["error"]["message"]

    def test_unknown_route_is_404(self, api):
        response, decoded = call(api, "GET", "/api/v2/cubes")
        assert response.status == 404
        assert decoded["error"]["kind"] == "not_found"

    def test_bad_point_is_400(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"point": "$n:warp"},
        )
        assert response.status == 400
        assert decoded["error"]["kind"] == "invalid_query"

    def test_numeric_slice_value_is_its_string(self, api):
        """A JSON number as the slice value reads as its text, the way
        filter values and key parts do."""
        body = {"group_by": {"n": "detail", "y": "detail"}, "axis": "y"}
        answers = [
            call(api, "POST", "/api/v1/cubes/pubs/slice", {**body, "value": value})
            for value in (2003, "2003")
        ]
        assert [response.status for response, _ in answers] == [200, 200]
        assert answers[0][1]["groups"] == answers[1][1]["groups"] == [
            {"key": ["Jane"], "value": 1.0},
            {"key": ["John"], "value": 1.0},
        ]

    @pytest.mark.parametrize("values", ["2003", 2003, {"2003": 1}])
    def test_filter_values_not_in_a_list_are_400(self, api, values):
        """A bare string once diced on its characters ("2", "0", "0",
        "3") and answered 200 with no groups."""
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/dice",
            {"group_by": {"n": "detail", "y": "detail"}, "filters": {"y": values}},
        )
        assert response.status == 400
        assert decoded["error"]["kind"] == "invalid_query"
        assert "list of values" in decoded["error"]["message"]

    def test_numeric_measure_is_400(self, api):
        response, decoded = call(
            api, "POST", "/api/v1/cubes/pubs/aggregate", {"measure": 5}
        )
        assert response.status == 400
        assert decoded["error"]["kind"] == "invalid_query"

    def test_unknown_field_is_400(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"grop_by": {"y": "detail"}},
        )
        assert response.status == 400
        assert "grop_by" in decoded["error"]["message"]

    def test_non_json_body_is_400(self, api):
        response = api.handle(
            "POST", "/api/v1/cubes/pubs/aggregate", b"not json"
        )
        assert response.status == 400

    def test_array_body_is_400(self, api):
        response = api.handle(
            "POST", "/api/v1/cubes/pubs/aggregate", b"[1, 2]"
        )
        assert response.status == 400

    def test_point_and_group_by_conflict_is_400(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"point": "$n:LND, $p:LND, $y:LND", "group_by": {}},
        )
        assert response.status == 400
        assert "not both" in decoded["error"]["message"]

    def test_kind_contradicting_endpoint_is_400(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"kind": "slice", "axis": "y", "value": "2003"},
        )
        assert response.status == 400
        assert "contradicts" in decoded["error"]["message"]

    def test_wrong_method_is_405(self, api):
        response, decoded = call(api, "GET", "/api/v1/cubes/pubs/aggregate")
        assert response.status == 405
        response, decoded = call(api, "POST", "/api/v1/cubes")
        assert response.status == 405
        response, decoded = call(api, "POST", "/metrics")
        assert response.status == 405

    def test_stale_read_version_is_409(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"read_version": [5]},
        )
        assert response.status == 409
        assert decoded["error"]["kind"] == "stale_version"

    def test_mismatched_read_version_is_400(self, api):
        response, decoded = call(
            api,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {"read_version": [0, 0]},
        )
        assert response.status == 400

    def test_trailing_slash_and_query_string_ignored(self, api):
        response, decoded = call(api, "GET", "/api/v1/cubes/?pretty=1")
        assert response.status == 200


class TestAuth:
    def test_open_server_is_anonymous(self, api):
        response, _ = call(api, "GET", "/api/v1/cubes")
        assert response.status == 200

    @pytest.fixture()
    def locked(self, api):
        api.auth = TenantAuth({"s3cret": "acme"})
        return api

    def test_missing_token_is_401(self, locked):
        response, decoded = call(locked, "GET", "/api/v1/cubes")
        assert response.status == 401
        assert decoded["error"]["kind"] == "unauthorized"

    def test_unknown_token_is_401(self, locked):
        response, _ = call(
            locked,
            "GET",
            "/api/v1/cubes",
            headers={"Authorization": "Bearer wrong"},
        )
        assert response.status == 401

    def test_wrong_scheme_is_401(self, locked):
        response, _ = call(
            locked,
            "GET",
            "/api/v1/cubes",
            headers={"Authorization": "Basic s3cret"},
        )
        assert response.status == 401

    def test_valid_token_admits_and_labels_tenant(self, locked):
        response, _ = call(
            locked,
            "POST",
            "/api/v1/cubes/pubs/aggregate",
            {},
            headers={"authorization": "Bearer s3cret"},
        )
        assert response.status == 200
        exposition = locked.handle(
            "GET",
            "/metrics",
            headers={"Authorization": "Bearer s3cret"},
        ).body
        assert 'tenant="acme"' in exposition


class TestMetrics:
    def test_exposition_merges_front_door_and_backend(self, api):
        call(api, "POST", "/api/v1/cubes/pubs/aggregate", {})
        response = api.handle("GET", "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        assert "x3_http_requests_total" in response.body
        assert 'route="aggregate"' in response.body
        assert "x3_http_query_modeled_seconds" in response.body
        # The backend's own exposition rides along.
        assert "x3_serve_requests_total" in response.body

    def test_request_counter_counts_errors_too(self, api):
        call(api, "POST", "/api/v1/cubes/warp/aggregate", {})
        body = api.handle("GET", "/metrics").body
        assert 'status="404"' in body
