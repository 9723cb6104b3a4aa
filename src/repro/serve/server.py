"""The analysis server: asyncio HTTP/1.1 + cache + dedup + worker pool.

``repro serve`` keeps parsed models, warm worker processes, and a
content-addressed result cache resident between requests, so clients pay
per *novel* analysis rather than per request.  The HTTP layer is
hand-rolled on ``asyncio.start_server`` — three routes, JSON in and out,
``Connection: close`` — because the protocol surface is tiny and the
stdlib ships no async HTTP server.

Routes
------
``POST /v1/analyze``
    Body: a JSON payload (see :func:`repro.serve.workers.job_from_payload`)
    naming either an ``rml`` model text or a ``target`` (a builtin
    circuit, resolved to its ``.rml`` text), plus an optional ``config``.
    Response envelope::

        {"schema": "repro-serve/v1", "key": "<hex>",
         "cached": true|false, "result": { ...AnalysisResult JSON... }}

    Errors come back structured: 400 for malformed JSON/payloads, 413
    for oversized bodies, 422 for :class:`~repro.errors.ParseError` /
    :class:`~repro.errors.ConfigError` (with source location for parse
    errors), 500 when a worker dies mid-job (the pool respawns).

``GET /v1/health``
    Liveness + identity: engine version, worker mode, cache directory.

``GET /v1/stats``
    A ``repro-metrics/v1`` counters document: the process-global counter
    registry overlaid with this server's live cache/pool/in-flight
    gauges — how tests assert "the second run was all cache hits" and
    "N identical concurrent requests ran one analysis".

Request flow, and where each satellite guarantee lives:

1. The raw body's sha256 digest indexes a bounded *memo* of
   ``(request_key, lint bytes)`` pairs, so a repeated identical body
   costs no JSON decode and no model parse at all (the parse-count
   telemetry asserts this).
2. On memo miss, the ``.rml`` text (a builtin target's included) is
   parsed once; the module computes the reprint-normalised
   ``repro-key/v2`` request key *and* the raw-text lint document, then
   (inline mode) is handed to the worker so the analysis reuses the
   same AST.
3. The key hits the two-tier :class:`~repro.serve.cache.ResultCache`;
   a hit answers without touching the pool.
4. Misses land in the in-flight table: concurrent identical requests
   all ``await`` one pool future (``asyncio.shield`` keeps the job
   alive if an impatient client disconnects).
5. Cached results exclude lint — lint anchors to raw text that the
   normalised key treats as noise — and the per-request lint from step
   2 is merged into every response, so comment-only edits share one
   cached engine result yet see their own findings.

Each answer is encoded to JSON once: the cache holds a result as the
bytes of ``json.dumps(result)`` and the memo holds lint the same way, so
a response is those bytes concatenated into its envelope — byte for
byte what ``json.dumps(envelope) + "\n"`` of the decoded parts would be.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .._version import __version__
from ..errors import ConfigError, ParseError, ServeError
from ..obs.counters import counter_inc, counters_snapshot
from ..obs.telemetry import METRICS_SCHEMA, TELEMETRY_COUNTERS
from .cache import (
    DEFAULT_MAX_ENTRIES,
    CacheEntry,
    ResultCache,
    default_cache_dir,
)
from .keys import request_key
from .workers import (
    DEFAULT_RECYCLE_AFTER,
    BrokenProcessPool,
    WorkerPool,
    job_from_payload,
)

__all__ = ["SERVE_SCHEMA", "AnalysisServer", "ServeOptions", "run_server"]

#: Schema tag of every response body this server writes.
SERVE_SCHEMA = "repro-serve/v1"

#: Default TCP port ("8737" spells *VRFY* on a phone keypad, near enough).
DEFAULT_PORT = 8737

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}

_KIND_CRASH = "__crash__"


@dataclass(frozen=True)
class ServeOptions:
    """Everything ``repro serve`` is configured by (CLI flags mirror this)."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Worker processes; ``0`` runs analyses inline (single thread, parse
    #: reuse) — the test/dev mode.
    workers: int = 2
    #: Disk cache directory; ``None`` uses :func:`default_cache_dir`.
    cache_dir: Optional[Union[str, Path]] = None
    #: Skip the disk tier entirely (ephemeral servers, tests).
    memory_cache_only: bool = False
    max_cache_entries: int = DEFAULT_MAX_ENTRIES
    #: Jobs per worker before the pool recycles itself.
    recycle_after: int = DEFAULT_RECYCLE_AFTER
    #: Largest request body accepted (bytes); beyond it → HTTP 413.
    max_body: int = 1 << 20
    #: Seconds to wait for a slow client's headers/body.
    read_timeout: float = 30.0
    #: Honour test-only payloads (worker crash injection).  Never set in
    #: production: it lets a request kill a worker on purpose.
    test_hooks: bool = False


class AnalysisServer:
    """One listening socket, one cache, one worker pool.

    Drive with :meth:`start` / :meth:`aclose` inside a running event
    loop (tests), or via :func:`run_server` (CLI) which adds signal
    handling.  ``server.port`` carries the real port after ``start()``
    (useful with ``port=0``).
    """

    def __init__(self, options: Optional[ServeOptions] = None):
        self.options = options if options is not None else ServeOptions()
        directory = (
            None
            if self.options.memory_cache_only
            else (self.options.cache_dir or default_cache_dir())
        )
        self.cache = ResultCache(
            directory, max_entries=self.options.max_cache_entries
        )
        self.pool = WorkerPool(
            workers=self.options.workers,
            recycle_after=self.options.recycle_after,
        )
        self.host = self.options.host
        self.port = self.options.port
        self._server: Optional[asyncio.AbstractServer] = None
        #: request_key -> running analysis task (the dedup table).
        self._inflight: Dict[str, asyncio.Task] = {}
        #: sha256(raw body) digest -> (request_key, lint bytes);
        #: bounded LRU so repeated identical bodies skip decode, parse,
        #: key and lint.  Only bodies that got this far are memoised.
        self._memo: "OrderedDict[bytes, Tuple[str, bytes]]" = (
            OrderedDict()
        )
        self._memo_max = max(self.options.max_cache_entries, 64)
        #: Sum of the memo's lint byte lengths.
        self._memo_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle,
            self.host,
            self.options.port,
            limit=self.options.max_body + 65536,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting, let in-flight analyses settle, stop the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = list(self._inflight.values())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self.pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond_to(reader)
            await self._write_response(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except Exception as exc:  # last-ditch: never kill the accept loop
            counter_inc("serve.server.errors")
            try:
                await self._write_response(
                    writer, 500, _error("internal", str(exc))
                )
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond_to(self, reader) -> Tuple[int, bytes]:
        """Parse one request off ``reader`` and compute its response."""
        opts = self.options
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=opts.read_timeout
            )
        except (asyncio.LimitOverrunError, ValueError):
            return 400, _error("bad-request", "request headers too large")
        except asyncio.TimeoutError:
            return 400, _error("bad-request", "timed out reading request")
        counter_inc("serve.server.requests")
        try:
            request_line, headers = _parse_head(head)
            method, target = request_line
        except ValueError as exc:
            return 400, _error("bad-request", str(exc))

        if target == "/v1/health":
            if method != "GET":
                return 405, _error("method-not-allowed", f"{method} {target}")
            return 200, _encode(self._health_doc())
        if target == "/v1/stats":
            if method != "GET":
                return 405, _error("method-not-allowed", f"{method} {target}")
            return 200, _encode(self.stats_doc())
        if target != "/v1/analyze":
            return 404, _error("not-found", f"no route {target}")
        if method != "POST":
            return 405, _error(
                "method-not-allowed", f"{target} only accepts POST"
            )

        length_text = headers.get("content-length")
        if length_text is None:
            return 411, _error("length-required", "Content-Length required")
        try:
            length = int(length_text)
        except ValueError:
            return 400, _error("bad-request", "malformed Content-Length")
        if length > opts.max_body:
            return 413, _error(
                "payload-too-large",
                f"body of {length} bytes exceeds limit of {opts.max_body}",
            )
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=opts.read_timeout
            )
        except asyncio.TimeoutError:
            return 400, _error("bad-request", "timed out reading body")
        return await self._analyze(body)

    async def _write_response(self, writer, status: int, body: bytes) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # The analyze pipeline
    # ------------------------------------------------------------------

    async def _analyze(self, body: bytes) -> Tuple[int, bytes]:
        counter_inc("serve.server.analyze_requests")
        digest = hashlib.sha256(body).digest()
        memo = self._memo.get(digest)
        payload = module = None
        if memo is not None:
            self._memo.move_to_end(digest)
            counter_inc("serve.server.memo_hits")
        else:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                return 400, _error(
                    "bad-json", f"body is not valid JSON: {exc}"
                )
            if not isinstance(payload, dict):
                return 400, _error("bad-request", "body must be a JSON object")
            if payload.get("kind") == _KIND_CRASH and self.options.test_hooks:
                return await self._run_crash_hook(payload)
            try:
                job = job_from_payload(payload)
            except ConfigError as exc:
                return 422, _error("config-error", str(exc))
            except ValueError as exc:
                return 400, _error("bad-request", str(exc))
            from ..lang import parse_module
            from ..lint import lint_module

            try:
                module = parse_module(job.source, filename=job.path)
            except ParseError as exc:
                return 422, _error(
                    "parse-error", str(exc), line=exc.line,
                    column=exc.column, filename=exc.filename,
                )
            key = request_key(
                module, config=job.config, name=job.name, path=job.path,
                stage=job.stage,
            )
            lint = json.dumps(
                lint_module(
                    module,
                    text=job.source,
                    filename=job.path or module.filename,
                ).to_json()
            ).encode("ascii")
            memo = (key, lint)
            self._remember_body(digest, memo)
        key, lint = memo

        entry = self.cache.get_entry(key)
        if entry is not None:
            return 200, _envelope(key, entry, lint, was_cached=True)

        running = self._inflight.get(key)
        if running is not None:
            counter_inc("serve.server.dedup_joins")
        else:
            if payload is None:  # a memo hit: the body is known to be valid
                payload = json.loads(body)
            running = asyncio.get_running_loop().create_task(
                self._run_analysis(key, payload, module)
            )
            self._inflight[key] = running
        try:
            # shield: an impatient client disconnecting must not cancel
            # the shared analysis other waiters (and the cache) want.
            entry = await asyncio.shield(running)
        except ServeError as exc:
            counter_inc("serve.server.errors")
            return exc.status or 500, _error("worker-crash", str(exc))
        except Exception as exc:
            counter_inc("serve.server.errors")
            return 500, _error("internal", str(exc))
        return 200, _envelope(key, entry, lint, was_cached=False)

    def _remember_body(
        self, digest: bytes, memo: Tuple[str, bytes]
    ) -> None:
        self._memo[digest] = memo
        self._memo_bytes += len(memo[1])
        while len(self._memo) > self._memo_max:
            _, (_, lint) = self._memo.popitem(last=False)
            self._memo_bytes -= len(lint)

    async def _run_analysis(
        self, key: str, payload: Dict, module
    ) -> CacheEntry:
        """The single shared computation behind one request key."""
        try:
            future = self.pool.submit(payload, module)
            try:
                result = await asyncio.wrap_future(future)
            except BrokenProcessPool as exc:
                self.pool.reset_after_crash()
                counter_inc("serve.workers.crash_respawns")
                raise ServeError(
                    "analysis worker died mid-job; pool respawned — retry "
                    "the request",
                    status=500,
                ) from exc
            return self.cache.put(key, result)
        finally:
            self._inflight.pop(key, None)

    async def _run_crash_hook(self, payload: Dict) -> Tuple[int, bytes]:
        """Test hook: run a worker-killing payload through the real
        submit → crash → respawn path (process pools only)."""
        if self.pool.inline:
            return 400, _error(
                "bad-request", "crash hook requires process workers"
            )
        try:
            await asyncio.wrap_future(self.pool.submit(payload))
        except BrokenProcessPool:
            self.pool.reset_after_crash()
            counter_inc("serve.workers.crash_respawns")
            counter_inc("serve.server.errors")
            return 500, _error(
                "worker-crash",
                "analysis worker died mid-job; pool respawned — retry "
                "the request",
            )
        return 500, _error("internal", "crash hook did not crash")

    # ------------------------------------------------------------------
    # Introspection documents
    # ------------------------------------------------------------------

    def _health_doc(self) -> Dict:
        return {
            "schema": SERVE_SCHEMA,
            "status": "ok",
            "version": __version__,
            "workers": self.pool.workers,
            "inline": self.pool.inline,
            "cache_dir": (
                str(self.cache.directory)
                if self.cache.directory is not None
                else None
            ),
        }

    def stats_doc(self) -> Dict:
        """The ``repro-metrics/v1`` counters document ``/v1/stats`` serves:
        the global registry overlaid with this server's live gauges."""
        counters = counters_snapshot()
        for name, value in self.cache.stats().items():
            counters[f"serve.cache.{name}"] = value
        for name, value in self.pool.stats().items():
            counters[f"serve.workers.{name}"] = value
        counters["serve.server.inflight"] = len(self._inflight)
        counters["serve.server.memo_entries"] = len(self._memo)
        counters["serve.server.memo_bytes"] = self._memo_bytes
        return {
            "schema": METRICS_SCHEMA,
            "level": TELEMETRY_COUNTERS,
            "counters": counters,
        }


def _encode(doc: Dict) -> bytes:
    return (json.dumps(doc) + "\n").encode("ascii")


def _error(kind: str, message: str, **where) -> bytes:
    return _encode(
        {
            "schema": SERVE_SCHEMA,
            "error": {"type": kind, "message": message, **where},
        }
    )


def _envelope(
    key: str, entry: CacheEntry, lint: bytes, was_cached: bool
) -> bytes:
    """The response body: ``json.dumps`` of ``{"schema", "key", "cached",
    "result"}`` plus a newline, assembled from bytes encoded once.

    Per-request lint goes into rml results that carry one locally (ok and
    fail analyses of a parsed module) as their last key, where
    ``result["lint"] = lint`` would put it; error results have no lint
    block in direct execution either.
    """
    result = entry.body
    if entry.takes_lint:
        result = b"".join((result[:-1], b', "lint": ', lint, b"}"))
    return b"".join(
        (
            b'{"schema": ', json.dumps(SERVE_SCHEMA).encode("ascii"),
            b', "key": ', json.dumps(key).encode("ascii"),
            b', "cached": ', b"true" if was_cached else b"false",
            b', "result": ', result,
            b"}\n",
        )
    )


def _parse_head(head: bytes) -> Tuple[Tuple[str, str], Dict[str, str]]:
    """Split raw header bytes into ``(method, target)`` + header map."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ValueError(f"undecodable request head: {exc}") from exc
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return (method, target), headers


async def _serve_until_stopped(options: ServeOptions) -> int:
    loop = asyncio.get_running_loop()
    server = AnalysisServer(options)
    await server.start()
    cache_label = (
        str(server.cache.directory)
        if server.cache.directory is not None
        else "memory-only"
    )
    mode = "inline" if server.pool.inline else f"{server.pool.workers} workers"
    print(
        f"repro serve: listening on {server.url} ({mode}, cache {cache_label})",
        flush=True,
    )
    stop = asyncio.Event()
    import signal

    installed = []
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, signame)
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        print("repro serve: shutting down", flush=True)
        await server.aclose()
    return 0


def run_server(options: Optional[ServeOptions] = None) -> int:
    """Run the server until SIGTERM/SIGINT — the ``repro serve`` command.

    Returns the process exit code (0 on clean shutdown).
    """
    return asyncio.run(_serve_until_stopped(options or ServeOptions()))
