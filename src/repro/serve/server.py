"""The asyncio serving tier: JSON/HTTP over ``shard_and_solve``.

:class:`SolveServer` is a stdlib-only asyncio HTTP/1.1 server (no
FastAPI dependency — the API surface is FastAPI-shaped JSON, the
transport is ``asyncio.start_server``) exposing the batch solver stack
as an always-on service:

==========================  ================================================
``GET /health``             liveness + queue/cache/worker stats
``GET /metrics``            metrics-registry snapshot (counters/histograms)
``POST /instances``         upload a point payload; content-hash dedup +
                            admission control (413 over budget)
``POST /solve``             submit a solve; result-cache hit answers
                            immediately, identical in-flight requests
                            coalesce, queue-full is 429 backpressure
``GET /jobs/<id>``          poll a job: queued/running/done/failed
``?wait=<seconds>``         on ``/solve`` and ``/jobs/<id>``: long-poll —
                            hold the answer until the job is terminal
``POST /shutdown``          stop the server (drains the queue first)
==========================  ================================================

With ``?wait=``, a solve that finishes within the hold costs one HTTP
request: the server parks the request on the job's terminal signal (one
``asyncio.Event`` per unfinished job, shared by every request held on
it) and answers 200 with the terminal payload, ``done`` or ``failed``.
A hold that expires first answers as the request would without
``wait`` (202 for a fresh submit, 200 for a poll) with the job still
``queued`` or ``running``. Holds are capped at ``read_timeout_s``.

Requests flow **admission → cache → queue → worker pool**: an async
job queue (bounded — the 429 is real backpressure, not a buffer) drains
into ``asyncio`` worker tasks that hand each job to an executor thread
running :class:`~repro.serve.jobs.SolveRunner` on the server's shared
execution backend (:class:`~repro.pram.backends.ProcessBackend` by
default). Solves run under the PR 6 supervised-retry contract, so a
crashed worker process retries with byte-identical recovery and the
client never sees the crash.

Every request is traced (``cat="serve"`` spans via the ambient
:func:`repro.obs.current_tracer`) and counted in a server-owned
:class:`~repro.obs.MetricsRegistry`; request/solve latencies go through
the reservoir-sampled histograms so a long-lived server's p50/p99
reflect the whole run, not its warm-up.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError, ReproError
from repro.faults.plan import FaultPlan
from repro.faults.supervisor import RetryPolicy
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    MetricsRegistry,
    SloEvaluator,
    SloTarget,
    current_log,
    current_tracer,
    new_trace_id,
    render_prometheus,
    trace_context,
)
from repro.pram.backends import Backend, fn_picklable, make_backend
from repro.serve.cache import (
    AdmissionController,
    AdmissionError,
    LruBytesCache,
    store_points,
)
from repro.serve.jobs import JobTable, SolveRunner, normalize_params

_JSON = "application/json"


@dataclass
class ServerConfig:
    """Everything a :class:`SolveServer` needs, in one picklable bag.

    ``backend`` may be a registry name (the server then owns and closes
    the pool) or a live :class:`~repro.pram.backends.Backend` (borrowed;
    the caller keeps ownership). ``queue_size`` bounds accepted-but-
    unstarted jobs — the backpressure knob. ``budget_bytes`` gates
    admission (a request whose ``Content-Length`` exceeds it is refused
    unread), ``cache_bytes`` bounds each LRU cache. ``fault_plan``
    injects deterministic faults into every served solve (tests/CI;
    ``None`` defers to ``REPRO_FAULT_PLAN``). ``solve_fn`` overrides
    the runner for tests: a callable ``(instance, params) -> dict``.
    ``slo`` (an :class:`~repro.obs.SloTarget`, default off) makes
    ``/health`` grade a sliding window of served-solve terminals and
    answer 503 with reasons when degraded.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_size: int = 64
    backend: "str | Backend" = "process"
    backend_workers: int | None = None
    budget_bytes: int = 256 * 2**20
    cache_bytes: int = 64 * 2**20
    retry_policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    read_timeout_s: float = 30.0
    defaults: dict = field(default_factory=dict)
    solve_fn: object = None
    slo: SloTarget | None = None


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Shape an incoming ``X-Repro-Trace-Id`` must have to be honored; a
#: header that fails this (or is absent) gets a freshly minted id.
_TRACE_ID_RE = re.compile(r"[A-Za-z0-9_.:-]{1,128}")

#: The version token a request line must end with.
_HTTP_VERSION_RE = re.compile(r"HTTP/\d\.\d")

#: Longest request or header line the server reads (the stream's
#: buffer limit); a longer one is a 400.
_LINE_LIMIT = 1 << 16

#: Seconds the server keeps reading, and discarding, after answering a
#: request it could not frame, so that closing does not reset the
#: connection before the client has read the error.
_LINGER_S = 1.0

#: Prometheus text exposition content type.
_PROM_TEXT = "text/plain; version=0.0.4; charset=utf-8"


class _TextPayload:
    """A non-JSON response body (``/metrics?format=prometheus``)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str = _PROM_TEXT):
        self.text = text
        self.content_type = content_type


class SolveServer:
    """One serving tier instance. See the module docstring for the API."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(self.config.budget_bytes)
        self.instances = LruBytesCache(self.config.cache_bytes)
        self.results = LruBytesCache(self.config.cache_bytes)
        self.jobs = JobTable()
        if isinstance(self.config.backend, Backend):
            self.backend = self.config.backend
            self._owns_backend = False
        else:
            self.backend = make_backend(
                self.config.backend, num_workers=self.config.backend_workers
            )
            self._owns_backend = True
        self.runner = SolveRunner(
            self.backend,
            retry_policy=self.config.retry_policy,
            fault_plan=self.config.fault_plan,
        )
        # Picklability probe (the cached repro.pram probe): a custom
        # solve_fn that cannot cross a process pool is fine — supervised
        # execution falls back inline — but worth surfacing as a gauge
        # so capacity surprises are diagnosable from /metrics.
        solve = self.config.solve_fn if self.config.solve_fn is not None else self.runner.solve
        self.metrics.gauge("serve.solve_fn_picklable").set(float(fn_picklable(solve)))
        self._solve = solve
        self.slo = (
            SloEvaluator(self.config.slo) if self.config.slo is not None else None
        )
        self._queue: asyncio.Queue | None = None
        self._executor = None
        self._server: asyncio.AbstractServer | None = None
        self._worker_tasks: list = []
        self._stop_event: asyncio.Event | None = None
        #: job id -> the event set when that job turns terminal; an entry
        #: lives exactly as long as its job is queued or running
        self._waiters: dict[str, asyncio.Event] = {}
        #: requests read but not yet answered (an unframed request's
        #: answer ends after its linger), and an event set whenever that
        #: count is zero (shutdown waits on it)
        self._answering = 0
        self._quiet: asyncio.Event | None = None
        self._started_s = time.perf_counter()
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        # an unwritable REPRO_TRACE or REPRO_LOG raises here, before the
        # listener binds, instead of inside every request handler
        current_tracer()
        current_log()
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-worker"
        )
        self._stop_event = asyncio.Event()
        self._quiet = asyncio.Event()
        self._quiet.set()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port, limit=_LINE_LIMIT
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._started_s = time.perf_counter()
        self._worker_tasks = [
            asyncio.create_task(self._worker(i)) for i in range(self.config.workers)
        ]

    async def run(self, *, ready: "threading.Event | None" = None) -> None:
        """Start, signal readiness, serve until :meth:`request_stop`."""
        await self.start()
        if ready is not None:
            ready.set()
        await self._stop_event.wait()
        await self.shutdown()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def shutdown(self) -> None:
        """Drain and stop: close the listener, finish queued jobs, stop
        workers, release the executor and (when owned) the backend.

        Ordering matters — the backend closes *last*, after every
        worker that could still submit batches to it has exited, and
        idempotently, so a shared/cached backend already swept by
        ``_close_shared_backends`` is tolerated (and vice versa)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        self.jobs.fail_queued("server stopped before the job ran")
        # every job is terminal now: release the requests still held on
        # one, then let each request already read get its answer out
        for event in self._waiters.values():
            event.set()
        self._waiters.clear()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._quiet.wait(), self.config.read_timeout_s)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_backend:
            self.backend.close()

    # -- workers ------------------------------------------------------------

    async def _worker(self, index: int) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            try:
                # re-enter the job's request context: the worker task
                # outlives any one request, so the trace id rides on the
                # job, not on this task's ambient state
                with trace_context(job.trace_id):
                    await self._run_job(loop, job)
            finally:
                self._wake(job)
                self._queue.task_done()

    def _wake(self, job) -> None:
        """Release every request held on ``job``, which just turned
        terminal, and drop its waiter entry."""
        event = self._waiters.pop(job.job_id, None)
        if event is not None:
            event.set()

    async def _run_job(self, loop, job) -> None:
        job.status = "running"
        job.started_s = time.perf_counter()
        tracer = current_tracer()
        if tracer.enabled:
            # queued → dequeued, on the job's trace. perf_counter and
            # the tracer share CLOCK_MONOTONIC, so the job's submit
            # timestamp is already on the trace's time axis.
            tracer.complete(
                "serve.queue_wait",
                "serve",
                int(job.submitted_s * 1e6),
                int((job.started_s - job.submitted_s) * 1e6),
                args={"job": job.job_id},
            )
        instance = self.instances.get(job.instance_id)
        if instance is None:
            self.jobs.finish(
                job, error="instance evicted from cache before the solve ran"
            )
            self.metrics.counter("serve.jobs_failed").inc()
            self._slo_record(job, error=True)
            return
        try:
            result = await loop.run_in_executor(
                self._executor, self._solve_traced, instance, job
            )
        except Exception as exc:
            self.jobs.finish(job, error=f"{type(exc).__name__}: {exc}")
            self.metrics.counter("serve.jobs_failed").inc()
            self._slo_record(job, error=True)
            return
        self.results.put(job.key, result, _result_nbytes(result))
        self.jobs.finish(job, result=result)
        self.metrics.counter("serve.jobs_completed").inc()
        self.metrics.histogram("serve.solve_latency_s").observe(
            time.perf_counter() - job.started_s
        )
        self._slo_record(job, error=False)

    def _slo_record(self, job, *, error: bool) -> None:
        """Feed one job terminal into the SLO window (submit → finish)."""
        if self.slo is not None:
            end = job.finished_s if job.finished_s is not None else time.perf_counter()
            self.slo.record(max(end - job.submitted_s, 0.0), error=error)

    def _solve_traced(self, instance, job):
        tracer = current_tracer()
        # executor threads have no request context of their own — adopt
        # the job's, so every span the solve emits (pram primitives,
        # shard stages, backend exec, supervisor marks) is stamped with
        # the request's trace id
        with trace_context(job.trace_id):
            with tracer.span(
                "serve.solve",
                "serve",
                {"job": job.job_id, "n": instance.meta["n"], "solver": job.params["solver"]},
            ):
                return self._solve(instance, job.params)

    # -- HTTP ---------------------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                self._answering += 1
                self._quiet.clear()
                try:
                    keep = await self._answer(writer, *request)
                    if isinstance(request[3], _HttpError):
                        await self._linger(reader, writer)
                finally:
                    self._answering -= 1
                    if not self._answering:
                        self._quiet.set()
                if not keep:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _answer(self, writer, method, path, headers, body) -> bool:
        """Route, count, trace and write one response; returns whether
        the connection stays open for another request."""
        # body an _HttpError: the request is unframed or refused
        # unread, so where it ends (and the next begins) is
        # unknown — answer the error and close the connection
        framed = not isinstance(body, _HttpError)
        t0 = time.perf_counter()
        tracer = current_tracer()
        # honor a well-formed incoming X-Repro-Trace-Id (caller
        # joins this hop into a wider trace); mint otherwise
        offered = headers.get("x-repro-trace-id", "").strip()
        trace_id = offered if _TRACE_ID_RE.fullmatch(offered) else new_trace_id()
        status = 500
        try:
            with trace_context(trace_id):
                with tracer.span(
                    "serve.request",
                    "serve",
                    args := {"method": method, "path": path},
                ):
                    if framed:
                        status, payload = await self._route(
                            method, path, body, trace_id=trace_id
                        )
                    else:
                        status, payload = body.status, {"error": body.message}
                    args["status"] = status
        finally:
            dur = time.perf_counter() - t0
            self.metrics.counter("serve.requests_total").inc()
            self.metrics.counter(
                "serve.requests_by_status", labels={"status": str(status)}
            ).inc()
            if status >= 400:
                self.metrics.counter("serve.requests_errored").inc()
            self.metrics.histogram(
                "serve.request_latency_s",
                buckets=DEFAULT_LATENCY_BUCKETS_S,
            ).observe(dur)
            if self.slo is not None and status >= 500:
                # infra errors count against the SLO even when
                # no job ever existed to record a terminal
                self.slo.record(dur, error=True)
            log = current_log()
            if log.enabled:
                log.event(
                    "serve.request",
                    method=method,
                    path=path,
                    status=status,
                    dur_s=round(dur, 6),
                    trace_id=trace_id,
                )
        keep = framed and headers.get("connection", "keep-alive").lower() != "close"
        await self._write_response(
            writer, status, payload, keep_alive=keep, trace_id=trace_id
        )
        return keep

    async def _read_request(self, reader):
        """One request as ``(method, path, headers, body)``; ``None`` at
        end of stream.

        ``body`` is an :class:`_HttpError` instead of bytes when the
        request cannot be framed or its body is left unread: a 400 for
        a request line that is not ``METHOD target HTTP/x.y`` (``method``
        and ``path`` are then empty), a header line without a name and
        a colon, a line longer than ``_LINE_LIMIT``, any
        ``Transfer-Encoding`` (only ``Content-Length`` framing is
        spoken), a repeated ``Content-Length`` (RFC 9112 §6.3: a
        request-smuggling shape) or one that is not a non-negative
        decimal integer; a counted 413 for one above ``budget_bytes``.
        """
        try:
            line = await self._readline(reader, "request line")
        except asyncio.TimeoutError:
            return None
        except _HttpError as exc:
            return "", "", {}, exc
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not _HTTP_VERSION_RE.fullmatch(parts[2]):
            return "", "", {}, _HttpError(
                400, "malformed request line; expected 'METHOD target HTTP/1.1'"
            )
        method, path = parts[0].upper(), parts[1]
        headers = {}
        while True:
            try:
                raw = await self._readline(reader, "header line")
            except _HttpError as exc:
                return method, path, headers, exc
            if raw in (b"\r\n", b"\n", b""):
                break
            name, colon, value = raw.decode("latin-1").partition(":")
            name = name.strip().lower()
            if not (colon and name):
                return method, path, headers, _HttpError(
                    400, "malformed header line; expected 'Name: value'"
                )
            if name == "content-length" and name in headers:
                return method, path, headers, _HttpError(
                    400, "repeated Content-Length header"
                )
            headers[name] = value.strip()
        if "transfer-encoding" in headers:
            return method, path, headers, _HttpError(
                400, "Transfer-Encoding is not supported; send a Content-Length body"
            )
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            return method, path, headers, _HttpError(
                400, "Content-Length must be a non-negative decimal integer"
            )
        length = int(raw_length)
        if length > self.config.budget_bytes:
            self.metrics.counter("serve.rejected_admission").inc()
            return method, path, headers, _HttpError(
                413,
                f"Content-Length {length} is over the "
                f"{self.config.budget_bytes}-byte admission budget",
            )
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=self.config.read_timeout_s
            )
        return method, path, headers, body

    async def _readline(self, reader, what: str) -> bytes:
        """One line within ``read_timeout_s``; a 400 :class:`_HttpError`
        naming ``what`` when it is longer than ``_LINE_LIMIT``."""
        try:
            return await asyncio.wait_for(
                reader.readline(), timeout=self.config.read_timeout_s
            )
        except ValueError:
            # StreamReader.readline: no newline within the buffer limit
            raise _HttpError(400, f"{what} longer than {_LINE_LIMIT} bytes") from None

    async def _linger(self, reader, writer) -> None:
        """Half-close after an unframed request's error, then discard
        what the client still sends until it closes or ``_LINGER_S``
        passes."""
        if writer.can_write_eof():
            writer.write_eof()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _LINGER_S
        while await asyncio.wait_for(reader.read(_LINE_LIMIT), deadline - loop.time()):
            pass

    async def _write_response(
        self, writer, status, payload, *, keep_alive, trace_id=None
    ) -> None:
        if isinstance(payload, _TextPayload):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = _JSON
        # the trace id always rides the response header, even on errors
        # whose JSON carries none — curl -i is enough to correlate
        trace_header = f"X-Repro-Trace-Id: {trace_id}\r\n" if trace_id else ""
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{trace_header}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _route(self, method, path, body, trace_id=None):
        path, _, query_str = path.partition("?")
        try:
            if path == "/health" and method == "GET":
                return self._health()
            if path == "/metrics" and method == "GET":
                query = urllib.parse.parse_qs(query_str)
                if query.get("format", ["json"])[0] == "prometheus":
                    return 200, _TextPayload(render_prometheus(self.metrics))
                return 200, self._metrics_payload()
            if path == "/instances" and method == "POST":
                return self._post_instance(_parse_json(body))
            if path == "/solve" and method == "POST":
                wait_s = _wait_seconds(query_str)
                answer = self._post_solve(_parse_json(body), trace_id=trace_id)
                return await self._hold(*answer, wait_s)
            if path.startswith("/jobs/") and method == "GET":
                wait_s = _wait_seconds(query_str)
                return await self._hold(*self._get_job(path[len("/jobs/"):]), wait_s)
            if path.startswith("/trace/") and method == "GET":
                return self._get_trace(path[len("/trace/"):])
            if path == "/shutdown" and method == "POST":
                asyncio.get_running_loop().call_soon(self.request_stop)
                return 202, {"status": "stopping"}
            if path in ("/health", "/metrics", "/instances", "/solve", "/shutdown"):
                return 405, {"error": f"{method} not allowed on {path}"}
            return 404, {"error": f"no route {method} {path}"}
        except _HttpError as exc:
            return exc.status, {"error": exc.message}
        except AdmissionError as exc:
            self.metrics.counter("serve.rejected_admission").inc()
            return 413, {"error": str(exc)}
        except (InvalidParameterError, ReproError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - last-resort guard
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _hold(self, status, payload, wait_s: float):
        """Long-poll one ``/solve`` or ``/jobs/<id>`` answer.

        A queued or running job's answer waits up to ``wait_s`` seconds
        (at most ``read_timeout_s``) for the job's terminal signal. A
        job that is terminal by then answers 200 with its payload; one
        that is not keeps the request's own status with its current
        state. Anything else (no hold asked, no job, a job already
        terminal, an error) passes through unchanged.
        """
        event = self._waiters.get(payload.get("job_id")) if wait_s > 0 else None
        if event is None:
            return status, payload
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                event.wait(), min(wait_s, self.config.read_timeout_s)
            )
        job = self.jobs.get(payload["job_id"])
        if job.status in ("done", "failed"):
            return 200, job.to_json()
        payload["status"] = job.status
        return status, payload

    def _health(self):
        payload = {
            "status": "ok",
            "uptime_s": time.perf_counter() - self._started_s,
            "workers": self.config.workers,
            "backend": getattr(self.backend, "name", "?"),
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_capacity": self.config.queue_size,
            "jobs": self.jobs.counts(),
            "instances": self.instances.stats(),
            "results": self.results.stats(),
        }
        if self.slo is not None:
            verdict = self.slo.evaluate()
            payload["slo"] = verdict.to_json()
            if verdict.degraded:
                # 503 with reasons: load balancers drain the instance,
                # humans read why. An under-sampled window is "ok" —
                # a cold service is not a degraded one.
                payload["status"] = "degraded"
                return 503, payload
        return 200, payload

    def _metrics_payload(self) -> dict:
        snap = self.metrics.snapshot()
        snap["caches"] = {
            "instances": self.instances.stats(),
            "results": self.results.stats(),
        }
        return snap

    def _post_instance(self, body: dict):
        stored, created = self._admit_and_store(body)
        return 200, {
            "instance_id": stored.instance_id,
            "cached": not created,
            "n": stored.meta["n"],
            "dim": stored.meta["dim"],
            "bytes": stored.nbytes,
        }

    def _admit_and_store(self, body: dict):
        if "points" not in body:
            raise _HttpError(400, "instance payload requires 'points'")
        points = body["points"]
        try:
            n, dim = len(points), len(points[0])
        except (TypeError, IndexError) as exc:
            raise _HttpError(400, f"points must be a non-empty (n, dim) nested list: {exc}")
        self.admission.admit_instance(n, dim)
        stored = store_points(points, body.get("weights"))
        if self.instances.get(stored.instance_id) is not None:
            return stored, False
        self.instances.put(stored.instance_id, stored, stored.nbytes)
        self.metrics.counter("serve.instances_stored").inc()
        return stored, True

    def _post_solve(self, body: dict, trace_id=None):
        body = dict(body)
        inline = body.pop("points", None)
        inline_w = body.pop("weights", None)
        instance_id = body.pop("instance_id", None)
        if (inline is None) == (instance_id is None):
            raise _HttpError(400, "pass exactly one of 'instance_id' or 'points'")
        if inline is not None:
            stored, _ = self._admit_and_store({"points": inline, "weights": inline_w})
            instance_id = stored.instance_id
        else:
            stored = self.instances.get(instance_id)
            if stored is None:
                raise _HttpError(404, f"unknown instance_id {instance_id!r}")
        params = normalize_params(
            body, defaults=self.config.defaults, n=stored.meta["n"]
        )
        self.admission.admit_solve(
            stored.meta["n"],
            stored.meta["dim"],
            k=params["k"],
            shards=params["shards"],
            coreset_size=params["coreset_size"],
            neighbors=params["neighbors"],
        )
        from repro.serve.cache import result_key

        cached = self.results.get(result_key(instance_id, params))
        if cached is not None:
            job = self.jobs.add_completed(
                instance_id, params, cached, trace_id=trace_id
            )
            self.metrics.counter("serve.result_cache_hits").inc()
            self._slo_record(job, error=False)
            return 200, job.to_json()
        job, fresh = self.jobs.create(instance_id, params, trace_id=trace_id)
        if not fresh:
            self.metrics.counter("serve.coalesced").inc()
            payload = job.to_json()
            payload["coalesced"] = True
            return 202, payload
        self._waiters[job.job_id] = asyncio.Event()
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.jobs.finish(job, error="queue full (backpressure)")
            self._wake(job)
            self.metrics.counter("serve.rejected_backpressure").inc()
            return 429, {
                "error": (
                    f"job queue full ({self.config.queue_size} pending); "
                    "retry with backoff"
                )
            }
        self.metrics.counter("serve.jobs_enqueued").inc()
        return 202, job.to_json()

    def _get_job(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job_id {job_id!r}"}
        return 200, job.to_json()

    def _get_trace(self, job_id: str):
        """Stitch and return one job's cross-process request trace.

        Needs an active file-backed tracer (the trace events live in
        its JSONL, not in server memory) — without one the answer is
        409 explaining how to enable tracing, not a silent empty tree.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job_id {job_id!r}"}
        if job.trace_id is None:
            return 409, {
                "error": f"job {job_id} carries no trace id",
                "job_id": job_id,
            }
        tracer = current_tracer()
        if not tracer.enabled or tracer.path is None:
            return 409, {
                "error": (
                    "tracing is not active on this server; start it under "
                    "REPRO_TRACE=<path> (or trace_to) to make request "
                    "traces retrievable"
                ),
                "job_id": job_id,
                "trace_id": job.trace_id,
            }
        from repro.obs.report import load_trace, stitch_request_trace

        tracer.flush()
        stitched = stitch_request_trace(load_trace(tracer.path), job.trace_id)
        stitched["job_id"] = job.job_id
        stitched["status"] = job.status
        return 200, stitched


def _parse_json(body: bytes) -> dict:
    if not body:
        raise _HttpError(400, "empty request body; expected JSON")
    try:
        parsed = json.loads(body.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _HttpError(400, f"request body is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise _HttpError(400, f"malformed JSON body: {exc}")
    except RecursionError:
        raise _HttpError(400, "malformed JSON body: nested too deeply")
    if not isinstance(parsed, dict):
        raise _HttpError(400, "JSON body must be an object")
    return parsed


def _wait_seconds(query: str) -> float:
    """The ``?wait=<seconds>`` long-poll hold of a request (0: no hold)."""
    values = urllib.parse.parse_qs(query, keep_blank_values=True).get("wait", [])
    if not values:
        return 0.0
    if len(values) > 1:
        raise _HttpError(400, "query parameter 'wait' is given more than once")
    try:
        wait_s = float(values[0])
    except ValueError:
        wait_s = math.nan
    if not (math.isfinite(wait_s) and wait_s >= 0):
        raise _HttpError(
            400,
            "query parameter 'wait' must be a finite number of seconds >= 0, "
            f"got {values[0]!r}",
        )
    return wait_s


def _result_nbytes(result: dict) -> int:
    return len(json.dumps(result).encode("utf-8"))


# -- thread-hosted server (tests, bench, loadgen --spawn) -------------------


class ServerHandle:
    """A server running on a daemon thread's event loop.

    ``host``/``port`` are live immediately (the constructor waits for
    the listener). :meth:`stop` drains and joins; it is idempotent.
    """

    def __init__(self, server: SolveServer, thread: threading.Thread, loop):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def serve_in_thread(config: ServerConfig | None = None) -> ServerHandle:
    """Boot a :class:`SolveServer` on a background thread and wait until
    it accepts connections. The caller owns the handle: ``stop()`` (or
    use it as a context manager) when done."""
    server = SolveServer(config)
    ready = threading.Event()
    loop_holder: dict = {}

    def _run():
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.run(ready=ready))
        except BaseException as exc:  # startup failures surface to the caller
            loop_holder["error"] = exc
        finally:
            ready.set()
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0):
        raise RuntimeError("serve thread failed to start within 30s")
    if "error" in loop_holder:
        thread.join(5.0)
        error = loop_holder["error"]
        if isinstance(error, ReproError):
            raise error  # typed: a bad config or environment, e.g. REPRO_LOG
        raise RuntimeError(f"serve thread failed to start: {error!r}")
    return ServerHandle(server, thread, loop_holder["loop"])
