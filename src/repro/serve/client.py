"""A tiny blocking client for the analysis server.

Wraps ``http.client`` (stdlib, no dependencies) around the three
``repro-serve/v1`` routes.  One connection per request — the server
answers ``Connection: close``, and a fresh connection per call makes the
client trivially thread-safe, which is all the suite's thin-client
fan-out needs.

Transport failures and non-2xx answers both raise
:class:`~repro.errors.ServeError`; the exception carries the HTTP status
(``0`` for transport-level failures) and the server's structured error
payload when one came back, so callers can show "line 3, column 7"
for a 422 parse error instead of a bare status code.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException
from typing import Dict, Optional
from urllib.parse import urlsplit

from ..analysis import AnalysisResult
from ..engine import EngineConfig
from ..errors import ServeError
from .workers import payload_from_job

__all__ = ["ServeClient"]


class ServeClient:
    """Blocking HTTP client for one ``repro serve`` base URL."""

    def __init__(self, url: str, timeout: float = 300.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ServeError(
                f"unsupported server URL scheme {parts.scheme!r} "
                f"(only http is spoken)"
            )
        if not parts.hostname:
            raise ServeError(f"server URL {url!r} names no host")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.timeout = timeout

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def health(self) -> Dict:
        """``GET /v1/health`` — raises :class:`~repro.errors.ServeError`
        if the server is unreachable or unhealthy."""
        return self._request("GET", "/v1/health")

    def stats(self) -> Dict:
        """``GET /v1/stats`` — the server's ``repro-metrics/v1`` counters."""
        return self._request("GET", "/v1/stats")

    def analyze(self, payload: Dict) -> Dict:
        """``POST /v1/analyze`` with a raw payload; returns the full
        response envelope (``key``/``cached``/``result``)."""
        return self._request("POST", "/v1/analyze", body=payload)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def analyze_job(self, job) -> AnalysisResult:
        """Analyze a :class:`~repro.suite.jobs.CoverageJob` remotely,
        returning the revived :class:`~repro.analysis.AnalysisResult` —
        the suite runner's thin-client primitive."""
        envelope = self.analyze(payload_from_job(job))
        return AnalysisResult.from_json(envelope["result"])

    def analyze_rml(
        self,
        source: str,
        config: Optional[EngineConfig] = None,
        *,
        path: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Dict:
        """Analyze ``.rml`` module text; returns the response envelope."""
        payload: Dict = {"rml": source}
        if path is not None:
            payload["path"] = path
        if name is not None:
            payload["name"] = name
        if config is not None:
            payload["config"] = config.to_json()
        return self.analyze(payload)

    def analyze_builtin(
        self,
        target: str,
        stage: Optional[str] = None,
        buggy: bool = False,
        config: Optional[EngineConfig] = None,
    ) -> Dict:
        """Analyze a builtin circuit, which the server resolves to its
        ``.rml`` text; returns the response envelope."""
        payload: Dict = {"target": target}
        if stage is not None:
            payload["stage"] = stage
        if buggy:
            payload["buggy"] = True
        if config is not None:
            payload["config"] = config.to_json()
        return self.analyze(payload)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(
        self, method: str, route: str, body: Optional[Dict] = None
    ) -> Dict:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            encoded = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            connection.request(
                method,
                route,
                body=encoded,
                headers={"Content-Type": "application/json"}
                if encoded is not None
                else {},
            )
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, HTTPException) as exc:
            raise ServeError(
                f"analysis server at {self.url} unreachable: {exc}"
            ) from exc
        finally:
            connection.close()
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"{method} {route}: server answered {status} with "
                f"non-JSON body",
                status=status,
            ) from exc
        if status != 200:
            error = (
                document.get("error", {}) if isinstance(document, dict) else {}
            )
            message = error.get("message", f"HTTP {status}")
            raise ServeError(
                f"{method} {route}: {message}",
                status=status,
                payload=document if isinstance(document, dict) else None,
            )
        return document
