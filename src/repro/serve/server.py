"""HTTP shell of the evaluation service.

A deliberately small stdlib-only server: a
:class:`http.server.ThreadingHTTPServer` (or an ``AF_UNIX`` variant for
local socket deployments) whose handler translates JSON requests into
:class:`repro.serve.service.EvaluationService` calls.  Endpoints:

================  ======  ============================================
``/evaluate``     POST    one evaluation ``{system, config, backend,
                          options, deadline_s}`` → submission envelope
``/sweep``        POST    a :class:`repro.explore.spec.SweepSpec` dict,
                          or a conformance :class:`CampaignSpec` dict
``/status``       GET     ``?id=`` → job status; without ``id`` → the
                          service census (fleet, queue, abandoned)
``/result``       GET     ``?id=`` → blocks briefly, then result/status
``/results``      GET     ``?id=a&id=b…`` → JSONL stream, one line per
                          job *as each completes* (arrival order)
``/stats``        GET     service metrics (queue, dedup, throughput)
``/healthz``      GET     liveness probe
``/shutdown``     POST    remote drain (tests and supervised setups)
``/worker/…``     POST    the remote-worker dialect: ``register`` →
                          ``poll`` (long) → ``heartbeat`` → ``result``
                          (see :mod:`repro.serve.supervisor`)
================  ======  ============================================

Responses are JSON envelopes stamped with the protocol format tag.  The
server speaks HTTP/1.0 with ``Connection: close`` — the ``/results``
stream writes a line per completed job and signals the end by closing,
so no chunked-encoding machinery is needed on either side.

Backpressure: a submission beyond the service's pending bound answers
``429`` with a ``Retry-After`` header (seconds); clients back off and
retry instead of the server growing without bound.

Graceful shutdown: SIGTERM/SIGINT stop the listener, then the service
drains — in-flight units finish, results are persisted to the sharded
store (the checkpoint), workers exit — and :func:`serve` returns 0.
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import socketserver
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import ReproError
from ..obs.logging import get_logger
from .protocol import PROTOCOL_FORMAT, WORKER_PROTOCOL
from .service import EvaluationService, ServiceOverloaded

__all__ = ["UnixHTTPServer", "make_server", "parse_listen", "serve"]


def _announce(message: str) -> None:
    # Structured and flushed so supervisors (and the tests) reading the
    # daemon's stdout through a pipe see "serving on ..." the moment the
    # socket is up.  The logger prefixes timestamp/level/component and
    # keeps the message text as the line suffix — stdout-parsing
    # consumers split on the message, never on the prefix.
    get_logger("serve").info(message)

#: How long ``/result`` blocks before answering with a still-running
#: status — long-polling granularity, short enough that HTTP timeouts
#: and drain never collide with a parked handler thread.
_RESULT_WAIT_S = 10.0


class _Handler(BaseHTTPRequestHandler):
    """Request translation; all state lives on ``server.service``."""

    # HTTP/1.0: every response carries Connection: close implicitly and
    # the /results JSONL stream is delimited by the close itself.
    protocol_version = "HTTP/1.0"
    server_version = "repro-serve/1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib shape
        if self.server.verbose:  # type: ignore[attr-defined]
            sys.stderr.write(
                "serve: %s %s\n" % (self.address_string(), format % args)
            )

    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(
        self,
        payload: Dict[str, Any],
        code: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(
            {"format": PROTOCOL_FORMAT, **payload}
        ).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, body: str, content_type: str, code: int = 200
    ) -> None:
        encoded = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _error(self, message: str, code: int = 400) -> None:
        self._send_json({"error": message}, code=code)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._error("request body is not valid JSON")
            return None
        if not isinstance(data, dict):
            self._error("request body must be a JSON object")
            return None
        return data

    def _query(self) -> Dict[str, List[str]]:
        return parse_qs(urlsplit(self.path).query)

    # -- dispatch ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib shape
        route = urlsplit(self.path).path
        handler = {
            "/evaluate": self._post_evaluate,
            "/sweep": self._post_sweep,
            "/shutdown": self._post_shutdown,
            "/worker/register": self._post_worker_register,
            "/worker/poll": self._post_worker_poll,
            "/worker/heartbeat": self._post_worker_heartbeat,
            "/worker/result": self._post_worker_result,
        }.get(route)
        if handler is None:
            self._error(f"no such endpoint: POST {route}", code=404)
            return
        body = self._read_body()
        if body is None:
            return
        try:
            handler(body)
        except ServiceOverloaded as exc:
            self._send_json(
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                code=429,
                headers={"Retry-After": str(int(exc.retry_after_s + 0.5))},
            )
        except ReproError as exc:
            self._error(str(exc), code=409 if "draining" in str(exc) else 400)
        except (KeyError, TypeError, ValueError) as exc:
            self._error(f"malformed request: {exc}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib shape
        route = urlsplit(self.path).path
        handler = {
            "/status": self._get_status,
            "/result": self._get_result,
            "/results": self._get_results,
            "/stats": self._get_stats,
            "/metrics": self._get_metrics,
            "/trace": self._get_trace,
            "/healthz": self._get_healthz,
        }.get(route)
        if handler is None:
            self._error(f"no such endpoint: GET {route}", code=404)
            return
        handler()

    # -- endpoints -----------------------------------------------------------

    @staticmethod
    def _deadline(body: Dict[str, Any]) -> Optional[float]:
        deadline_s = body.get("deadline_s")
        return None if deadline_s is None else float(deadline_s)

    def _post_evaluate(self, body: Dict[str, Any]) -> None:
        self._send_json(self.service.submit_evaluation(
            system=body["system"],
            config=body["config"],
            backend=body.get("backend", "analysis"),
            options=body.get("options"),
            deadline_s=self._deadline(body),
            trace=body.get("trace"),
        ))

    def _post_sweep(self, body: Dict[str, Any]) -> None:
        self._send_json(self.service.submit_sweep(
            body["spec"], deadline_s=self._deadline(body),
            trace=body.get("trace"),
        ))

    # -- the remote-worker dialect (see repro.serve.supervisor) --------------

    def _post_worker_register(self, body: Dict[str, Any]) -> None:
        spoken = body.get("protocol")
        if spoken != WORKER_PROTOCOL:
            raise ReproError(
                f"worker protocol {spoken!r} is not this server's "
                f"{WORKER_PROTOCOL!r}: run a worker of the same version"
            )
        registration = self.service.supervisor.register_worker(
            label=body.get("label")
        )
        self._send_json({"worker_format": WORKER_PROTOCOL, **registration})

    def _post_worker_poll(self, body: Dict[str, Any]) -> None:
        # Long-poll: the handler thread parks on the supervisor's
        # condition until a unit (or retirement) shows up.  HTTP/1.0
        # with threading handlers makes this safe — each poll owns its
        # connection and thread.
        self._send_json(self.service.supervisor.poll(
            str(body["worker"]), float(body.get("wait_s", 10.0))
        ))

    def _post_worker_heartbeat(self, body: Dict[str, Any]) -> None:
        self._send_json(self.service.supervisor.heartbeat(
            str(body["worker"]), str(body.get("unit"))
        ))

    def _post_worker_result(self, body: Dict[str, Any]) -> None:
        self._send_json(self.service.supervisor.submit_result(
            str(body["worker"]),
            str(body["unit"]),
            str(body.get("status", "error")),
            body.get("result"),
            obs=body.get("obs"),
        ))

    def _post_shutdown(self, body: Dict[str, Any]) -> None:
        self._send_json({"status": "draining"})
        self.server.request_shutdown()  # type: ignore[attr-defined]

    def _job_payload(self, job, include_result: bool) -> Dict[str, Any]:
        payload = job.public_status()
        if include_result and job.done.is_set():
            if job.status == "done":
                payload["result"] = job.result
        return payload

    def _get_status(self) -> None:
        job_id = (self._query().get("id") or [""])[0]
        if not job_id:
            # No id: the service census — fleet, queue, liveness,
            # recovered and abandoned work.
            self._send_json(self.service.census())
            return
        job = self.service.job(job_id)
        if job is None:
            self._error(f"unknown job id {job_id!r}", code=404)
            return
        self._send_json(self._job_payload(job, include_result=False))

    def _get_result(self) -> None:
        job_id = (self._query().get("id") or [""])[0]
        job = self.service.job(job_id)
        if job is None:
            self._error(f"unknown job id {job_id!r}", code=404)
            return
        job.done.wait(timeout=_RESULT_WAIT_S)
        self._send_json(self._job_payload(job, include_result=True))

    def _get_results(self) -> None:
        """JSONL stream: one line per job, in completion order."""
        ids = self._query().get("id") or []
        jobs = []
        for job_id in ids:
            job = self.service.job(job_id)
            if job is None:
                self._error(f"unknown job id {job_id!r}", code=404)
                return
            jobs.append(job)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        for job in self.service.as_completed(jobs):
            line = json.dumps(self._job_payload(job, include_result=True))
            self.wfile.write(line.encode("utf-8") + b"\n")
            self.wfile.flush()

    def _get_stats(self) -> None:
        self._send_json(self.service.stats())

    def _get_metrics(self) -> None:
        """Prometheus exposition text (scrape target)."""
        self._send_text(
            self.service.metrics_text(),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _get_trace(self) -> None:
        """``?id=JOB`` → the span set of the job's trace (obs on)."""
        job_id = (self._query().get("id") or [""])[0]
        if not job_id:
            self._error("missing ?id= query parameter")
            return
        payload = self.service.trace_spans(job_id)
        if payload is None:
            self._error(
                f"no trace for job {job_id!r} (obs disabled, or the "
                "job is unknown)", code=404,
            )
            return
        self._send_json(payload)

    def _get_healthz(self) -> None:
        self._send_json({"status": "ok"})


class _ServiceHTTPServer(ThreadingHTTPServer):
    """TCP server bound to one :class:`EvaluationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: EvaluationService,
                 verbose: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self._shutdown_requested = threading.Event()

    def request_shutdown(self) -> None:
        """Ask the serve loop to drain (handler threads must not call
        ``shutdown()`` directly — it joins the serve loop)."""
        self._shutdown_requested.set()

    @property
    def shutdown_requested(self) -> threading.Event:
        return self._shutdown_requested

    def describe_address(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


class UnixHTTPServer(_ServiceHTTPServer):
    """The same server over an ``AF_UNIX`` socket (``--socket PATH``).

    HTTP-over-UDS keeps the wire protocol identical while removing the
    TCP listener — the natural shape for a per-user daemon on a shared
    machine (filesystem permissions are the access control).
    """

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        import os

        with contextlib.suppress(OSError):
            os.unlink(self.server_address)  # type: ignore[arg-type]
        # Skip HTTPServer.server_bind: it unpacks host/port from the
        # address, which a filesystem path does not have.
        socketserver.TCPServer.server_bind(self)
        self.server_name = str(self.server_address)
        self.server_port = 0

    def describe_address(self) -> str:
        return f"unix:{self.server_address}"


def make_server(
    service: EvaluationService,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: Optional[str] = None,
    verbose: bool = False,
) -> _ServiceHTTPServer:
    """Build (and bind) the HTTP server for a service."""
    if socket_path is not None:
        return UnixHTTPServer(socket_path, service, verbose=verbose)
    return _ServiceHTTPServer((host, port), service, verbose=verbose)


def serve(
    service: EvaluationService,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: Optional[str] = None,
    verbose: bool = False,
    ready: Optional[threading.Event] = None,
    announce=_announce,
    drain_timeout: Optional[float] = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT or ``POST /shutdown``.

    The listener runs on a background thread; the main thread parks on
    the shutdown event so signal handlers stay trivial.  On shutdown
    the listener stops first (no new requests), then the service drains
    (in-flight units finish and are persisted — the checkpoint), and 0
    is returned for the clean exit the supervisor contract expects.
    """
    server = make_server(
        service, host=host, port=port, socket_path=socket_path,
        verbose=verbose,
    )
    stop = server.shutdown_requested
    previous: Dict[int, Any] = {}

    def _handler(signum, frame):  # noqa: ARG001 - signal API shape
        stop.set()

    with contextlib.suppress(ValueError):  # not the main thread (tests)
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handler)
    listener = threading.Thread(
        target=server.serve_forever, name="serve-listener", daemon=True
    )
    listener.start()
    announce(f"serving on {server.describe_address()}")
    if ready is not None:
        ready.set()
    try:
        stop.wait()
        announce("draining: finishing in-flight work...")
        server.shutdown()
        listener.join(timeout=10)
        clean = service.drain(timeout=drain_timeout)
        if clean:
            announce("drained")
        elif service.abandoned:
            # The satellite contract: abandoned work is *visible* — in
            # the exit message and journaled for the next start.
            announce(
                f"drain timed out; abandoned {len(service.abandoned)} "
                "unit(s) (journaled; they re-dispatch on the next start): "
                + ", ".join(entry["id"] for entry in service.abandoned)
            )
        else:
            announce("drain timed out")
        return 0 if clean else 1
    finally:
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def parse_listen(value: str) -> Tuple[str, int]:
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` → ``(host, port)``."""
    host, _, port = value.rpartition(":")
    return (host or "127.0.0.1", int(port))
