"""Client side of the evaluation service.

:class:`ServeClient` is a thin stdlib HTTP client over the endpoints of
:mod:`repro.serve.server` — submit, poll, stream — plus the adapter
that makes the service a drop-in backend for the existing front ends:
:func:`run_sweep_via_server` returns the same
:class:`repro.explore.engine.ExploreReport` a local
:func:`repro.explore.run_sweep` would, for a sweep or a conformance
campaign — which is what lets ``repro explore --server URL`` /
``repro conform --server URL`` reuse their entire reporting paths
unchanged.

Server URLs are ``http://host:port`` or ``unix:/path/to.sock`` (the
AF_UNIX transport of :class:`repro.serve.server.UnixHTTPServer`).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import quote, urlsplit

from ..exceptions import ReproError
from ..obs import state as _obs_state
from ..obs import trace as _obs_trace

__all__ = [
    "ServeClient",
    "ServerError",
    "run_sweep_via_server",
]


class ServerError(ReproError):
    """The server answered with an error envelope (or not at all)."""


#: Transport failures worth retrying: the connection died before the
#: response arrived (refused while the server restarts, reset/aborted
#: by a crash-looping or overloaded peer, pipe broken mid-send, or the
#: server hung up before sending a status line —
#: ``http.client.RemoteDisconnected`` subclasses ``ConnectionResetError``).
#: Retrying is safe because every service request is idempotent: the
#: server dedups by content key, so a resubmitted evaluation attaches
#: to the in-flight job or hits the store instead of recomputing.
_RETRYABLE = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket path."""

    def __init__(self, path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._unix_path = path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            self.sock.settimeout(self.timeout)
        self.sock.connect(self._unix_path)


class ServeClient:
    """One evaluation-service endpoint (TCP or unix socket).

    Connections are per-request (the server is HTTP/1.0), so a client
    object is cheap, stateless and safe to share across threads.

    The transport is hardened for long campaigns against a restarting
    or briefly overloaded server: connection establishment gets its own
    short ``connect_timeout`` (reads keep the long ``timeout``), and a
    request whose connection is refused or reset before the response
    arrives is retried up to ``retries`` times with bounded exponential
    backoff (``backoff_s`` doubling per attempt, capped at
    ``backoff_max_s``).  Retries are safe because the service dedups by
    content key — see ``_RETRYABLE``.  ``retries=0`` disables retrying.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 600.0,
        connect_timeout: float = 10.0,
        retries: int = 4,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ) -> None:
        self.url = url
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        if url.startswith("unix:"):
            self._unix_path: Optional[str] = url[len("unix:"):]
        else:
            parts = urlsplit(url if "//" in url else f"http://{url}")
            if parts.scheme not in ("", "http"):
                raise ServerError(
                    f"unsupported server URL scheme {parts.scheme!r} "
                    "(use http://host:port or unix:/path)"
                )
            self._unix_path = None
            self._host = parts.hostname or "127.0.0.1"
            self._port = parts.port or 80

    # -- transport -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        # Establish under the short connect timeout; _open widens the
        # socket to the long read timeout once connected.
        if self._unix_path is not None:
            return _UnixHTTPConnection(
                self._unix_path, timeout=self.connect_timeout
            )
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self.connect_timeout
        )

    def _open(
        self,
        method: str,
        path: str,
        payload: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Connect, send one request, return ``(conn, response)``.

        Retries the whole connect-send-status round trip on the
        transport failures of ``_RETRYABLE`` with bounded exponential
        backoff; anything past the status line (a torn body) is not
        retried here — the caller sees it as a ``ServerError``.
        """
        attempt = 0
        while True:
            conn = self._connection()
            try:
                conn.connect()
                if conn.sock is not None:
                    conn.sock.settimeout(self.timeout)
                conn.request(method, path, body=payload, headers=headers or {})
                return conn, conn.getresponse()
            except _RETRYABLE as exc:
                conn.close()
                if attempt >= self.retries:
                    raise ServerError(
                        f"server {self.url} unreachable after "
                        f"{attempt + 1} attempt(s) ({method} {path}: {exc})"
                    ) from exc
                time.sleep(
                    min(self.backoff_max_s, self.backoff_s * (2 ** attempt))
                )
                attempt += 1
            except BaseException:
                conn.close()
                raise

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        attempt = 0
        while True:
            try:
                conn, response = self._open(method, path, payload, headers)
            except (OSError, http.client.HTTPException) as exc:
                raise ServerError(
                    f"server {self.url} unreachable ({method} {path}: {exc})"
                ) from exc
            try:
                try:
                    data = json.loads(response.read().decode("utf-8"))
                except (OSError, http.client.HTTPException,
                        json.JSONDecodeError) as exc:
                    raise ServerError(
                        f"server {self.url} unreachable or spoke garbage "
                        f"({method} {path}: {exc})"
                    ) from exc
                if response.status == 429:
                    # Backpressure: the server shed this submission.
                    # Honor its Retry-After and resubmit — safe for the
                    # same idempotency reason as the transport retries.
                    if attempt >= self.retries:
                        raise ServerError(
                            data.get("error", "server overloaded (HTTP 429)")
                        )
                    delay = self._retry_after(response, data, attempt)
                elif response.status >= 400:
                    raise ServerError(
                        data.get("error", f"HTTP {response.status}")
                    )
                else:
                    return data
            finally:
                conn.close()
            time.sleep(delay)
            attempt += 1

    def _retry_after(self, response, data: Dict[str, Any],
                     attempt: int) -> float:
        """The server's advertised backoff, else the client's own."""
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                return max(0.0, float(header))
            except ValueError:
                pass
        advertised = data.get("retry_after_s")
        if isinstance(advertised, (int, float)):
            return max(0.0, float(advertised))
        return min(self.backoff_max_s, self.backoff_s * (2 ** attempt))

    # -- endpoints -----------------------------------------------------------

    def evaluate(
        self,
        system: Dict[str, Any],
        config: Dict[str, Any],
        backend: str = "analysis",
        options: Optional[Dict[str, Any]] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit one evaluation; returns the submission envelope.

        ``deadline_s`` propagates to the server: the supervisor stops
        retrying the work past it and the job resolves as an error —
        a client with a budget never leaves orphan compute behind.
        """
        body = {
            "system": system,
            "config": config,
            "backend": backend,
            "options": options or {},
            "deadline_s": deadline_s,
        }
        if not _obs_state.enabled:
            return self._request("POST", "/evaluate", body)
        with _obs_trace.span("client.request", op="evaluate") as root:
            body["trace"] = _obs_trace.context_of(root)
            return self._request("POST", "/evaluate", body)

    def submit_sweep(
        self, spec_dict: Dict[str, Any],
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        body = {"spec": spec_dict, "deadline_s": deadline_s}
        if not _obs_state.enabled:
            return self._request("POST", "/sweep", body)
        with _obs_trace.span("client.request", op="sweep") as root:
            body["trace"] = _obs_trace.context_of(root)
            return self._request("POST", "/sweep", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/status?id={quote(job_id)}")

    def census(self) -> Dict[str, Any]:
        """The service census (``GET /status`` without an id): fleet,
        queue depth, abandoned and recovered work."""
        return self._request("GET", "/status")

    def result(
        self, job_id: str, wait: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """The job's result, long-polling ``/result`` until resolved.

        Returns the full payload (``status`` + ``result``/``error``).
        With ``wait=False`` a single poll; otherwise retries until the
        job resolves or ``timeout`` (default: the client timeout).
        """
        deadline = time.monotonic() + (
            self.timeout if timeout is None else timeout
        )
        while True:
            payload = self._request("GET", f"/result?id={quote(job_id)}")
            if payload["status"] in ("done", "error") or not wait:
                return payload
            if time.monotonic() > deadline:
                raise ServerError(
                    f"timed out waiting for job {job_id} "
                    f"(last status {payload['status']!r})"
                )

    def results(self, job_ids: List[str]) -> Iterator[Dict[str, Any]]:
        """Stream results as they complete (the ``/results`` JSONL feed).

        Yields one payload per job in *completion* order; the stream
        ends when every requested job has resolved.
        """
        if not job_ids:
            return
        query = "&".join(f"id={quote(job_id)}" for job_id in job_ids)
        try:
            conn, response = self._open("GET", f"/results?{query}")
        except (OSError, http.client.HTTPException) as exc:
            raise ServerError(
                f"server {self.url} unreachable ({exc})"
            ) from exc
        try:
            if response.status >= 400:
                data = json.loads(response.read().decode("utf-8"))
                raise ServerError(
                    data.get("error", f"HTTP {response.status}")
                )
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The span set of a job's trace (``GET /trace?id=``)."""
        return self._request("GET", f"/trace?id={quote(job_id)}")

    def metrics_text(self) -> str:
        """Raw Prometheus exposition text (``GET /metrics``)."""
        try:
            conn, response = self._open("GET", "/metrics")
        except (OSError, http.client.HTTPException) as exc:
            raise ServerError(
                f"server {self.url} unreachable ({exc})"
            ) from exc
        try:
            body = response.read().decode("utf-8")
            if response.status >= 400:
                raise ServerError(f"HTTP {response.status}: {body[:200]}")
            return body
        finally:
            conn.close()

    def healthy(self) -> bool:
        try:
            return self._request("GET", "/healthz").get("status") == "ok"
        except ServerError:
            return False

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit (``POST /shutdown``)."""
        return self._request("POST", "/shutdown", {})


def _unwrap(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The job's result dict, or raise its error."""
    if payload["status"] == "error":
        raise ServerError(payload.get("error", "evaluation failed"))
    result = payload.get("result")
    if result is None:
        raise ServerError(f"job {payload.get('id')} returned no result")
    return result


def run_sweep_via_server(spec, url: str, timeout: float = 3600.0):
    """Run a sweep through a server; same report as a local run.

    ``spec`` is a :class:`repro.explore.spec.SweepSpec` or a
    conformance :class:`repro.conformance.campaign.CampaignSpec` (a
    sweep of ``conform`` cells).  The server expands the same cells,
    dedups them against *its* store and computes the remainder; the
    returned
    :class:`repro.explore.engine.ExploreReport` is assembled exactly as
    the local engine would (records in cell order), so the CLI's table,
    fronts and JSON report paths work unchanged.
    """
    from ..explore.engine import ExploreReport

    started = time.perf_counter()
    client = ServeClient(url, timeout=timeout)
    submitted = client.submit_sweep(spec.to_dict(), deadline_s=timeout)
    payload = client.result(submitted["id"], timeout=timeout)
    result = _unwrap(payload)
    return ExploreReport(
        spec=spec,
        records=result["records"],
        store_hits=result["store_hits"],
        computed=result["computed"],
        wall_s=time.perf_counter() - started,
    )
