"""Spreading-as-a-service: the HTTP/JSON run server.

A long-running, dependency-free (stdlib ``asyncio``) server that exposes
the library's run/sweep/experiment entry points over HTTP:

=========================  ==============================================
endpoint                   behavior
=========================  ==============================================
``POST /run``              one SF/SSF instance (or ``trials`` repeats)
``POST /sweep``            scaling sweep over ``n = 2^k``
``POST /experiment``       one paper-reproduction experiment
``GET /jobs``              job summaries
``GET /jobs/<id>``         full job record (result, telemetry, timings)
``GET /health``            liveness + engine capability table + cache stats
``GET /engines``           the :func:`repro.engines.capability_table`
=========================  ==============================================

``POST`` bodies are JSON; ``"wait": true`` blocks until the job
completes, otherwise the server replies ``202`` immediately and the job
is polled via ``GET /jobs/<id>``.  Every request routes through the
unified engine registry (:func:`repro.engines.create_engine`), Monte
Carlo trials shard across the resilient process pool
(:func:`repro.analysis.repeat_trials` with ``workers``/``retries``/
``trial_timeout`` request fields), and seeded results are memoized in
the content-addressed :class:`~repro.service.cache.ResultCache` — a hit
returns the bit-identical envelope a recomputation would produce.

The execution core (:func:`execute_run` / :func:`execute_sweep` /
:func:`execute_experiment`) is plain synchronous code so the verify leg
and the tests can drive it without sockets; :class:`ServiceThread` runs
the full HTTP server on an ephemeral port for in-process integration
tests.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis import (
    EngineTrial,
    ResilienceConfig,
    repeat_trials,
    run_length,
    scaling_sweep,
)
from ..engines import capability_table, create_engine, engine_spec
from ..exceptions import ConfigurationError
from ..model.config import PopulationConfig
from ..net.ports import bound_port
from ..telemetry import AggregatingSink, Telemetry
from ..types import SourceCounts
from .cache import ResultCache, canonical_key, code_version
from .jobs import Job, JobStore

__all__ = [
    "execute_run",
    "execute_sweep",
    "execute_experiment",
    "normalize_request",
    "SpreadingService",
    "ServiceServer",
    "ServiceThread",
    "serve",
]

#: Execution-only request fields: they steer *how* a result is computed
#: (sharding, retry policy, blocking) but can never change *what* is
#: computed — the trial runners promise bit-identical statistics for any
#: worker count — so they are excluded from the cache key.
_EXECUTION_FIELDS = ("wait", "workers", "trial_timeout", "retries")


def _py(value: object) -> object:
    """Recursively coerce numpy scalars/arrays to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _int_or_none(request: Dict[str, object], field: str) -> Optional[int]:
    value = request.get(field)
    return None if value is None else int(value)


def _check_fields(kind: str, request: Dict[str, object], allowed) -> None:
    unknown = sorted(set(request) - set(allowed) - set(_EXECUTION_FIELDS))
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) for /{kind}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _normalize_run(request: Dict[str, object]) -> Dict[str, object]:
    _check_fields(
        "run",
        request,
        ("engine", "protocol", "n", "s0", "s1", "h", "delta", "seed",
         "trials", "max_rounds"),
    )
    engine = engine_spec(str(request.get("engine", "fast"))).name
    n = int(request.get("n", 1024))
    h = request.get("h")
    return {
        "engine": engine,
        "protocol": str(request.get("protocol", "sf")),
        "n": n,
        "s0": int(request.get("s0", 0)),
        "s1": int(request.get("s1", 1)),
        "h": n if h is None else int(h),
        "delta": float(request.get("delta", 0.2)),
        "seed": _int_or_none(request, "seed"),
        "trials": int(request.get("trials", 1)),
        "max_rounds": _int_or_none(request, "max_rounds"),
    }


def _normalize_sweep(request: Dict[str, object]) -> Dict[str, object]:
    _check_fields(
        "sweep",
        request,
        ("engine", "protocol", "s0", "s1", "h", "delta", "seed",
         "trials", "min_exp", "max_exp"),
    )
    engine = engine_spec(str(request.get("engine", "fast"))).name
    min_exp = int(request.get("min_exp", 8))
    max_exp = int(request.get("max_exp", 10))
    if min_exp > max_exp:
        raise ConfigurationError(
            f"min_exp {min_exp} must not exceed max_exp {max_exp}"
        )
    return {
        "engine": engine,
        "protocol": str(request.get("protocol", "sf")),
        "s0": int(request.get("s0", 0)),
        "s1": int(request.get("s1", 1)),
        "h": _int_or_none(request, "h"),
        "delta": float(request.get("delta", 0.2)),
        "seed": _int_or_none(request, "seed"),
        "trials": int(request.get("trials", 5)),
        "min_exp": min_exp,
        "max_exp": max_exp,
    }


def _normalize_experiment(request: Dict[str, object]) -> Dict[str, object]:
    _check_fields("experiment", request, ("id", "scale", "seed", "engine"))
    experiment_id = request.get("id")
    if not experiment_id:
        raise ConfigurationError("/experiment needs an 'id' field")
    scale = str(request.get("scale", "quick"))
    if scale not in ("quick", "full"):
        raise ConfigurationError(
            f"scale must be 'quick' or 'full', got {scale!r}"
        )
    engine = engine_spec(str(request.get("engine", "fast"))).name
    return {
        "id": str(experiment_id),
        "scale": scale,
        "seed": int(request.get("seed", 0)),
        "engine": engine,
    }


_NORMALIZERS = {
    "run": _normalize_run,
    "sweep": _normalize_sweep,
    "experiment": _normalize_experiment,
}


def normalize_request(kind: str, request: Dict[str, object]) -> Dict[str, object]:
    """Resolve defaults and validate one request (idempotent).

    The returned dict contains only semantic fields — execution options
    (``wait``, ``workers``, resilience knobs) are stripped, so it is
    exactly the payload the cache key is derived from.
    """
    try:
        normalizer = _NORMALIZERS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown request kind {kind!r}; expected one of "
            f"{', '.join(sorted(_NORMALIZERS))}"
        ) from None
    if not isinstance(request, dict):
        raise ConfigurationError(f"/{kind} body must be a JSON object")
    return normalizer(request)


def _resilience_from(request: Dict[str, object]) -> Optional[ResilienceConfig]:
    timeout = request.get("trial_timeout")
    retries = request.get("retries")
    if timeout is None and retries is None:
        return None
    return ResilienceConfig(
        trial_timeout=None if timeout is None else float(timeout),
        retries=ResilienceConfig.retries if retries is None else int(retries),
    )


def _stats_payload(stats) -> Dict[str, object]:
    return {
        "trials": stats.trials,
        "successes": stats.successes,
        "values": [float(v) for v in stats.values],
        "failed_trials": stats.failed_trials,
        "incomplete": bool(stats.incomplete),
        "summary": _py(stats.summary()),
    }


def _with_cache(
    kind: str,
    normalized: Dict[str, object],
    cacheable: bool,
    cache: Optional[ResultCache],
    compute,
) -> Dict[str, object]:
    """Memoization seam shared by every ``execute_*`` function.

    ``compute()`` produces the result body (a JSON-safe dict); the full
    envelope adds the normalized request and the code-version digest.
    Unseeded requests bypass the cache entirely.
    """
    key = None
    if cache is not None and cacheable:
        key = canonical_key(kind, normalized)
        stored = cache.get(key)
        if stored is not None:
            stored["cached"] = True
            stored["cache_key"] = key
            return stored
    envelope: Dict[str, object] = {
        "kind": kind,
        "request": normalized,
        "code_version": code_version(),
    }
    envelope.update(compute())
    if key is not None:
        cache.put(key, envelope)
    envelope = dict(envelope)
    envelope["cached"] = False
    envelope["cache_key"] = key
    return envelope


def execute_run(
    request: Dict[str, object],
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, object]:
    """``POST /run``: one engine run, or aggregate stats over ``trials``.

    Deterministic given a ``seed`` — which is exactly what makes seeded
    requests cacheable: the stored envelope is bit-identical to what a
    recomputation would return (the ``service`` verify leg asserts it).
    """
    normalized = normalize_request("run", request)
    seed = normalized["seed"]
    trials = normalized["trials"]
    workers = _int_or_none(request, "workers")
    resilience = _resilience_from(request)

    def compute() -> Dict[str, object]:
        config = PopulationConfig(
            n=normalized["n"],
            sources=SourceCounts(s0=normalized["s0"], s1=normalized["s1"]),
            h=normalized["h"],
        )
        trial = EngineTrial(
            create_engine(
                normalized["engine"],
                normalized["protocol"],
                config,
                normalized["delta"],
            ),
            max_rounds=normalized["max_rounds"],
        )
        if trials > 1:
            stats = repeat_trials(
                trial,
                trials=trials,
                seed=seed,
                measure=run_length,
                workers=workers,
                telemetry=telemetry,
                resilience=resilience,
            )
            return {"stats": _stats_payload(stats)}
        report = trial(np.random.default_rng(seed), telemetry=telemetry)
        return {"report": report.to_dict()}

    return _with_cache("run", normalized, seed is not None, cache, compute)


def execute_sweep(
    request: Dict[str, object],
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, object]:
    """``POST /sweep``: the CLI scaling sweep as a service call."""
    normalized = normalize_request("sweep", request)
    seed = normalized["seed"]
    workers = _int_or_none(request, "workers")
    resilience = _resilience_from(request)

    def compute() -> Dict[str, object]:
        rows = scaling_sweep(
            **normalized,
            workers=workers,
            telemetry=telemetry,
            resilience=resilience,
        )
        return {"rows": _py(rows)}

    return _with_cache("sweep", normalized, seed is not None, cache, compute)


def execute_experiment(
    request: Dict[str, object],
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, object]:
    """``POST /experiment``: one paper-reproduction experiment."""
    from ..experiments import get_experiment

    normalized = normalize_request("experiment", request)
    workers = _int_or_none(request, "workers")
    resilience = _resilience_from(request)

    def compute() -> Dict[str, object]:
        try:
            experiment = get_experiment(normalized["id"])
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown experiment id {normalized['id']!r}"
            ) from exc
        experiment.workers = workers
        experiment.resilience = resilience
        experiment.engine = normalized["engine"]
        outcome = experiment.run(
            scale=normalized["scale"],
            seed=normalized["seed"],
            telemetry=telemetry,
        )
        return {"outcome": _py(outcome.to_dict())}

    # Experiment seeds default to 0, so every request is fully seeded.
    return _with_cache("experiment", normalized, True, cache, compute)


_EXECUTORS = {
    "run": execute_run,
    "sweep": execute_sweep,
    "experiment": execute_experiment,
}


class SpreadingService:
    """The synchronous service core: jobs, cache, and execution.

    ``cache_dir=None`` disables memoization (every request recomputes);
    a path enables the content-addressed :class:`ResultCache` there.
    """

    def __init__(self, cache_dir=None) -> None:
        self.cache = None if cache_dir is None else ResultCache(cache_dir)
        self.jobs = JobStore()

    def submit(self, kind: str, request: Dict[str, object]) -> Job:
        """Validate ``request`` and register a pending job for it.

        Raises :class:`~repro.exceptions.ConfigurationError` before any
        job exists, so malformed requests map to HTTP 400 synchronously.
        """
        normalized = normalize_request(kind, request)
        stored = dict(normalized)
        for field in _EXECUTION_FIELDS:
            if field in request and field != "wait":
                stored[field] = request[field]
        return self.jobs.create(kind, stored)

    def execute_job(self, job: Job) -> Job:
        """Run one job to completion (called on an executor thread).

        The job keeps only its sink's aggregate snapshot, so the sink
        folds events as they arrive instead of keeping each one.
        """
        self.jobs.mark_running(job)
        sink = AggregatingSink()
        try:
            result = _EXECUTORS[job.kind](
                job.request, cache=self.cache, telemetry=Telemetry([sink])
            )
            self.jobs.mark_done(job, result, telemetry=_py(sink.snapshot()))
        except Exception as exc:  # recorded on the job, not raised
            self.jobs.mark_failed(job, f"{type(exc).__name__}: {exc}")
        return job

    def health(self) -> Dict[str, object]:
        """The ``/health`` payload."""
        payload: Dict[str, object] = {
            "status": "ok",
            "code_version": code_version(),
            "engines": capability_table(),
            "jobs": self.jobs.counts(),
            "cache": None if self.cache is None else self.cache.stats(),
        }
        return payload


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class ServiceServer:
    """The asyncio HTTP/1.1 front-end over a :class:`SpreadingService`.

    One-connection-per-request (``Connection: close``) keeps the parser
    trivial; job execution happens on a thread pool so the event loop
    stays responsive while engines run.
    """

    def __init__(
        self,
        service: Optional[SpreadingService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int = 4,
    ) -> None:
        self.service = service if service is not None else SpreadingService()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-job"
        )

    async def start(self) -> None:
        """Bind the listening socket (resolves an ephemeral port).

        Delegates the bind-then-report-port step to
        :func:`repro.net.ports.bound_port` so the service and the UDP
        cluster share one race-free allocation path: the kernel assigns
        the port at bind time and we read it back, never probe-then-bind.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = bound_port(self._server)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, body = parsed
            status, payload = await self._route(method, path, body)
        except ConfigurationError as exc:
            status, payload = 400, {"error": str(exc)}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            status, payload = 400, {"error": f"invalid JSON body: {exc}"}
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # never kill the accept loop
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        await self._respond(writer, status, payload)

    @staticmethod
    async def _read_request(reader) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        try:
            method, path, _ = request_line.decode("ascii").split()
        except ValueError:
            raise ConfigurationError(
                f"malformed request line {request_line!r}"
            ) from None
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    @staticmethod
    async def _respond(writer, status: int, payload: Dict[str, object]) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    # -- routing -------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if method == "GET":
            if path == "/health":
                return 200, self.service.health()
            if path == "/engines":
                return 200, {"engines": capability_table()}
            if path == "/jobs":
                return 200, {"jobs": self.service.jobs.list()}
            if path.startswith("/jobs/"):
                job = self.service.jobs.get(path[len("/jobs/"):])
                if job is None:
                    return 404, {"error": f"no such job {path[6:]!r}"}
                return 200, job.to_dict()
            return 404, {"error": f"no such endpoint GET {path}"}
        if method == "POST":
            kind = path.lstrip("/")
            if kind not in _EXECUTORS:
                return 404, {"error": f"no such endpoint POST {path}"}
            request = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(request, dict):
                raise ConfigurationError(f"/{kind} body must be a JSON object")
            wait = bool(request.get("wait", False))
            job = self.service.submit(kind, request)
            loop = asyncio.get_event_loop()
            future = loop.run_in_executor(
                self._executor, self.service.execute_job, job
            )
            if not wait:
                # Keep a reference so the executor task is not collected.
                asyncio.ensure_future(future)
                return 202, job.to_dict()
            await future
            return (200 if job.status == "done" else 500), job.to_dict()
        return 405, {"error": f"method {method} not supported"}


class ServiceThread:
    """Run a :class:`ServiceServer` on a background thread (tests, examples).

    ::

        with ServiceThread(cache_dir=tmp) as server:
            client = ServiceClient(server.url)
            client.run(n=256, seed=0, wait=True)
    """

    def __init__(
        self,
        service: Optional[SpreadingService] = None,
        cache_dir=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if service is None:
            service = SpreadingService(cache_dir=cache_dir)
        self.service = service
        self.server = ServiceServer(service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def _run_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.close())
            self._loop.close()

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service thread failed to start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8742,
    cache_dir=None,
    executor_workers: int = 4,
) -> None:
    """Blocking entry point behind ``repro-spreading serve``."""
    service = SpreadingService(cache_dir=cache_dir)
    server = ServiceServer(
        service, host=host, port=port, executor_workers=executor_workers
    )

    async def main() -> None:
        await server.start()
        print(f"repro-spreading service on http://{server.host}:{server.port}")
        if service.cache is not None:
            print(f"result cache: {service.cache.directory}")
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
