"""The server's failure paths: every bad input gets a structured answer.

Protocol-level junk (bad JSON, oversized bodies, wrong routes) and
model-level junk (parse errors, bad configs) must each map to the
documented status code with a machine-readable error document — and the
server must stay healthy afterwards.
"""

import json
import socket

import pytest

from repro.errors import ServeError
from repro.serve.server import SERVE_SCHEMA

VALID_RML = (
    "MODULE m\n"
    "VAR x : boolean;\n"
    "ASSIGN next(x) := !x;\n"
    "SPEC AG (x | !x);\n"
    "OBSERVED x;\n"
)


def expect_serve_error(callable_, status, error_type):
    with pytest.raises(ServeError) as info:
        callable_()
    exc = info.value
    assert exc.status == status
    assert exc.payload["schema"] == SERVE_SCHEMA
    assert exc.payload["error"]["type"] == error_type
    return exc


def raw_request(server, data: bytes) -> int:
    """Fire raw bytes at the server, return the HTTP status answered."""
    with socket.create_connection(
        ("127.0.0.1", server.server.port), timeout=30
    ) as sock:
        sock.sendall(data)
        head = sock.recv(4096)
    return int(head.split(b" ", 2)[1])


class TestProtocolErrors:
    def test_malformed_json_is_400(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(
            lambda: client_post_raw(client, b"{not json"), 400, "bad-json"
        )

    def test_non_object_body_is_400(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(
            lambda: client.analyze(["a", "list"]), 400, "bad-request"
        )

    def test_both_rml_and_target_is_400(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(
            lambda: client.analyze({"rml": VALID_RML, "target": "counter"}),
            400,
            "bad-request",
        )

    def test_neither_rml_nor_target_is_400(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(lambda: client.analyze({}), 400, "bad-request")

    def test_target_without_text_is_400(self, threaded_server):
        """A target resolves to its module text before anything else, so
        one that names no text is a bad request, not an error result."""
        client = threaded_server().client()
        for payload, message in (
            ({"target": "nonsense"}, "unknown target"),
            ({"target": "counter", "stage": "bogus"}, "invalid stage"),
            ({"target": "counter", "buggy": True}, "no buggy variant"),
        ):
            error = expect_serve_error(
                lambda: client.analyze(payload), 400, "bad-request"
            )
            assert message in str(error)

    def test_oversized_body_is_413(self, threaded_server):
        server = threaded_server(max_body=1024)
        client = server.client()
        huge = {"rml": VALID_RML + "-- pad\n" * 4096}
        expect_serve_error(
            lambda: client.analyze(huge), 413, "payload-too-large"
        )
        # The connection-level rejection must not wedge the server.
        assert client.health()["status"] == "ok"

    def test_unknown_route_is_404(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(
            lambda: client._request("GET", "/v1/nothing"), 404, "not-found"
        )

    def test_wrong_method_is_405(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(
            lambda: client._request("POST", "/v1/health", body={}),
            405,
            "method-not-allowed",
        )
        expect_serve_error(
            lambda: client._request("GET", "/v1/analyze"),
            405,
            "method-not-allowed",
        )

    def test_missing_content_length_is_411(self, threaded_server):
        status = raw_request(
            threaded_server(),
            b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert status == 411

    def test_garbage_request_line_is_400(self, threaded_server):
        status = raw_request(threaded_server(), b"NONSENSE\r\n\r\n")
        assert status == 400


class TestModelErrors:
    def test_parse_error_is_422_with_source_location(self, threaded_server):
        client = threaded_server().client()
        exc = expect_serve_error(
            lambda: client.analyze_rml(
                "MODULE broken\nVAR ; ;\n", path="broken.rml"
            ),
            422,
            "parse-error",
        )
        error = exc.payload["error"]
        assert error["line"] == 2
        assert error["column"] is not None
        assert error["filename"] == "broken.rml"

    @pytest.mark.parametrize(
        "body",
        ["(" * 10_000 + "x" + ")" * 10_000, "!" * 10_000 + "x",
         " -> ".join(["x"] * 10_000), " ^ ".join(["x"] * 10_000),
         "AX " * 10_000 + "x"],
        ids=["parens", "not", "implies", "xor", "ax"],
    )
    def test_deep_nesting_is_422(self, threaded_server, body):
        client = threaded_server().client()
        exc = expect_serve_error(
            lambda: client.analyze_rml(
                f"MODULE deep\nVAR x : boolean;\nASSIGN next(x) := !x;\n"
                f"SPEC AG ({body});\nOBSERVED x;\n",
                path="deep.rml",
            ),
            422,
            "parse-error",
        )
        assert "nesting deeper than" in exc.payload["error"]["message"]
        assert exc.payload["error"]["line"] == 4

    def test_config_error_is_422(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(
            lambda: client.analyze(
                {"rml": VALID_RML, "config": {"trans": "hovercraft"}}
            ),
            422,
            "config-error",
        )

    def test_unknown_config_key_is_422(self, threaded_server):
        client = threaded_server().client()
        expect_serve_error(
            lambda: client.analyze(
                {"target": "counter", "config": {"warp_drive": True}}
            ),
            422,
            "config-error",
        )


class TestDegradedCache:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unwritable_cache_dir_degrades_not_fails(
        self, threaded_server, tmp_path
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        server = threaded_server(cache_dir=blocker / "cache")
        client = server.client()
        cold = client.analyze_builtin("counter", stage="full")
        assert cold["result"]["status"] == "ok"
        warm = client.analyze_builtin("counter", stage="full")
        assert warm["cached"] is True  # memory tier still works
        stats = client.stats()["counters"]
        assert stats["serve.cache.degraded"] == 1


class TestClientTransport:
    def test_unreachable_server_raises_with_status_zero(self):
        from repro.serve.client import ServeClient

        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=5)
        with pytest.raises(ServeError) as info:
            client.health()
        assert info.value.status == 0

    def test_url_forms_are_normalised(self):
        from repro.serve.client import ServeClient

        assert ServeClient("http://localhost:9000").port == 9000
        assert ServeClient("localhost:9000").port == 9000
        assert ServeClient("http://example.test").port == 80
        with pytest.raises(ServeError):
            ServeClient("ftp://example.test")


def client_post_raw(client, raw: bytes):
    """POST raw (intentionally invalid) bytes through the client's host
    and port with a correct Content-Length."""
    from http.client import HTTPConnection

    connection = HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.request(
            "POST", "/v1/analyze", body=raw,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        status = response.status
    finally:
        connection.close()
    raise ServeError(
        payload["error"]["message"], status=status, payload=payload
    )
