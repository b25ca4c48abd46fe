"""End-to-end tests over the JSON/HTTP layer: a real ThreadingHTTPServer
on an ephemeral port, exercised through the bundled ServiceClient."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.cli import main
from repro.engine import XRankEngine
from repro.errors import ServiceHTTPError
from repro.service.client import ServiceClient
from repro.service.core import XRankService
from repro.service import server as server_module
from repro.service.server import MAX_BODY_BYTES, make_server

DOC = """
<workshop><title>XML and IR</title><proceedings>
<paper><title>XQL and Proximal Nodes</title>
<body><subsection>the XQL query language looks promising</subsection></body>
</paper></proceedings></workshop>
"""


@pytest.fixture()
def served_client():
    engine = XRankEngine()
    engine.add_xml(DOC, uri="doc0")
    engine.build(kinds=["hdil"])
    service = XRankService(engine)
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1], timeout=10.0)
    try:
        yield client, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHTTPEndpoints:
    def test_healthz(self, served_client):
        client, _ = served_client
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["documents"] == 1
        assert health["kinds"] == ["hdil"]

    def test_search_get_roundtrip(self, served_client):
        client, _ = served_client
        payload = client.search("xql language", m=5)
        assert payload["query"] == "xql language"
        assert payload["degraded"] is False
        assert payload["results"]
        top = payload["results"][0]
        assert set(top) >= {"rank", "dewey", "tag", "path"}
        assert top["rank"] > 0

    def test_search_served_from_cache_second_time(self, served_client):
        client, _ = served_client
        first = client.search("xql language", m=5)
        second = client.search("xql language", m=5)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["results"] == first["results"]

    def test_search_with_highlight_and_context(self, served_client):
        client, _ = served_client
        payload = client.search("xql", m=3, highlight=True, context=True)
        hit = payload["results"][0]
        assert "[xql]" in hit["snippet"].lower()
        assert hit["ancestors"]

    def test_missing_query_is_400(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("GET", "/search")
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_kind_is_400(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.search("xql", kind="rdil")  # not built in this fixture
        assert excinfo.value.status == 400
        assert "rdil" in str(excinfo.value.payload.get("error", ""))

    def test_add_then_search_sees_new_document(self, served_client):
        client, _ = served_client
        outcome = client.add_xml(
            "<paper><title>federated xql shipping</title></paper>",
            uri="doc1",
        )
        assert outcome["documents"] == 2
        payload = client.search("shipping", m=5)
        assert payload["results"]

    def test_add_without_xml_is_400(self, served_client):
        client, _ = served_client
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("POST", "/add", {"uri": "x"})
        assert excinfo.value.status == 400

    def test_invalid_json_body_is_400(self, served_client):
        client, service = served_client
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10.0
        )
        try:
            connection.request(
                "POST", "/add", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_deadline_ms_zero_degrades_over_http(self, served_client):
        client, service = served_client
        service.clear_caches()
        payload = client.search("xql language", m=5, deadline_ms=0.0)
        assert payload["degraded"] is True
        assert isinstance(payload["results"], list)

    def test_stats_endpoint_reflects_traffic(self, served_client):
        client, _ = served_client
        client.search("xql language", m=5)
        stats = client.stats()
        assert stats["service"]["searches"] >= 1
        assert "results" in stats["caches"]
        assert "page_reads" in stats["io"]
        assert stats["engine"]["documents"] >= 1


def _raw_post(port, content_length):
    """POST /add headers announcing ``content_length`` but sending no body;
    returns (status line, headers, JSON payload, server closed the socket)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(
            (
                "POST /add HTTP/1.1\r\nHost: localhost\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n"
            ).encode("ascii")
        )
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in header_lines)
    }
    return status_line, headers, json.loads(body.decode("utf-8"))


class TestBodyLimit:
    """The HTTP edge bounds request bodies: an oversized or negative
    ``Content-Length`` is refused without reading the body."""

    def test_oversized_body_is_413_and_closes(self, served_client):
        client, _ = served_client
        # recv() returning b"" above proves the server closed the socket
        # even though the announced body never arrived.
        status, headers, payload = _raw_post(client.port, MAX_BODY_BYTES + 1)
        assert status.split()[1] == "413"
        assert headers["connection"] == "close"
        assert payload["type"] == "PayloadTooLarge"
        assert payload["limit"] == MAX_BODY_BYTES

    @pytest.mark.parametrize("content_length", [-5, "12abc"])
    def test_invalid_content_length_is_400(self, served_client,
                                           content_length):
        client, _ = served_client
        status, headers, payload = _raw_post(client.port, content_length)
        assert status.split()[1] == "400"
        assert headers["connection"] == "close"
        assert "invalid Content-Length" in payload["error"]

    def test_add_still_works_after_refusals(self, served_client):
        client, service = served_client
        _raw_post(client.port, MAX_BODY_BYTES + 1)
        _raw_post(client.port, -1)
        _raw_post(client.port, "x")
        outcome = client.add_xml("<note>zebra crossing</note>", uri="doc1")
        assert outcome["documents"] == 2
        assert client.search("zebra", m=5)["results"]

    def test_body_at_the_limit_is_read(self, served_client, monkeypatch):
        client, _ = served_client
        body = json.dumps({"xml": "<note>quokka</note>", "uri": "d2"})
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", len(body))
        assert client.add_xml("<note>quokka</note>", uri="d2")["documents"] == 2
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", len(body) - 1)
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.add_xml("<note>quokka</note>", uri="d2")
        assert excinfo.value.status == 413


class TestIncrementalIntrospection:
    """Serving ``dil-incremental``: the endpoints that sum I/O over the
    index's disks see both the main and the delta disk."""

    def test_endpoints_and_profiled_search_after_add(self):
        import http.client

        engine = XRankEngine()
        engine.add_xml(DOC, uri="doc0")
        engine.build(kinds=["dil-incremental"])
        service = XRankService(engine, kinds=("dil-incremental",), profile=True)
        server = make_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        client = ServiceClient("127.0.0.1", port, timeout=10.0)
        try:
            client.add_xml("<note>zebra crossing notes</note>", uri="doc1")
            index = engine.index("dil-incremental")
            delta_reads = index.delta.disk.stats.page_reads
            payload = client.search("zebra", m=5, kind="dil-incremental")
            assert [hit["dewey"] for hit in payload["results"]] == ["1"]
            delta_reads = index.delta.disk.stats.page_reads - delta_reads
            assert delta_reads > 0
            (profile,) = client.profile()["profiles"]
            assert profile["counters"]["page_reads"] == delta_reads
            for path in ("/stats", "/healthz", "/metrics"):
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200, path
                finally:
                    connection.close()
            io = client.stats()["io"]
            assert io["page_reads"] == sum(
                disk.stats.page_reads for disk in index.disks()
            )
            assert client.healthz()["kinds"] == ["dil-incremental"]
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestServeCheck:
    def test_cli_serve_check_smoke(self, capsys):
        assert main(["serve", "--check"]) == 0
        out = capsys.readouterr().out
        assert "serve check ok" in out
