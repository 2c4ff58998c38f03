"""The ``service-mix`` workload: traffic against the HTTP run service.

The server is the program's own ``python -m repro.cli serve --port 0``
in a child process with a fresh result cache inside the checkout, free
to use every CPU as it would in use.  Set-up boots it, pre-warms its
cache with 16 serial SF requests and runs one job of every cold kind, so
lazy imports and first calls are not timed.

The request mix per block of 20 requests: 7 cache-hit replays of the
pre-warmed requests (35%), 4 cold serial SF (20%), 3 cold fast SF (15%),
2 cold count SF (10%), 1 cold fast SSF with 8 trials (5%), and 3 reads
(15%: ``GET /jobs/<latest>``, about one in five ``GET /health``).  Writes
(new jobs, cache entries) therefore run beside reads (hits, polls).

The end-to-end run sends the mix one request at a time, each POST with
``wait=true``, through the engine workloads' timed loop (``Workload``): its operation is
one request of the mix.  Sent open-loop at a fixed rate instead, a job's
latency depends on how the shared host's speed makes jobs overlap, and
its spread across runs was several times the bound.

The traced run sends the same mix open-loop: seeded Poisson arrivals from
one asyncio thread over at most two connections, every POST with
``wait=false`` so the backlog builds in the server's executor queue.
Phase *light* sends 8 arrivals/s for the run's seconds, phase *overload*
50 arrivals/s, more than the service completes, for a fifth of them;
then the backlog drains.  Per-layer metrics come from the job records: a
job's latency runs from its scheduled send time to the ``finished`` time
in its record; both clocks are this host's.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from stats import percentile
from workloads import Workload, _require, op_seed

ROOT = Path(__file__).resolve().parent.parent

BLOCK = (("hit", 7), ("serial", 4), ("fast", 3), ("count", 2), ("trials", 1), ("read", 3))
JOB_KINDS = ("hit", "serial", "fast", "count", "trials")
PREWARMED = 16
TRIALS = 8
CONNECTIONS = 2
LIGHT_RATE = 8.0
OVERLOAD_RATE = 50.0
#: The traced run's overload phase, as a share of the run's seconds; the
#: backlog drains after it.
OVERLOAD_SHARE = 0.2
DRAIN_TIMEOUT = 90.0


def request_body(kind: str, seed: int) -> Dict[str, object]:
    """The POST /run body for one job of ``kind``."""
    if kind in ("hit", "serial"):
        body = {"engine": "serial", "protocol": "sf", "n": 48, "h": 4}
    elif kind == "fast":
        body = {"engine": "fast", "protocol": "sf", "n": 1024}
    elif kind == "count":
        body = {"engine": "count", "protocol": "sf", "n": 10**6, "h": 16}
    else:
        body = {"engine": "fast", "protocol": "ssf", "n": 1024, "s0": 0, "s1": 1,
                "delta": 0.1, "trials": TRIALS}
    body.setdefault("s0", 1)
    body.setdefault("s1", 3)
    body.setdefault("delta", 0.2)
    body.update(seed=seed, wait=False)
    return body


class Arrival:
    """One scheduled request of the open loop and what happened to it."""

    __slots__ = ("index", "kind", "offset", "body", "path", "due", "sent",
                 "done", "status", "size", "job")

    def __init__(self, index, kind, offset, body=None):
        self.index, self.kind, self.offset = index, kind, offset
        self.body = body
        self.path = None
        self.due = self.sent = self.done = None
        self.status = self.size = None
        self.job: Optional[Dict[str, object]] = None


class ServiceMix(Workload):
    """Boots the service, pre-warms its cache and sends the mix."""

    name = "service-mix"

    def __init__(self, seed: int, quick: bool, trace: bool) -> None:
        super().__init__(seed, quick, trace)
        self.loop = asyncio.new_event_loop()
        self.workdir = ROOT / "perfbench" / "results" / f"service-{os.getpid()}"
        self.server: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.prewarmed: List[Dict[str, object]] = []
        self.reports: Dict[int, object] = {}
        self._latest = None
        self._reads = 0
        self._cold_seeds: set = set()

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.workdir / "server.log", "w") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
                 "--cache-dir", str(self.workdir / "cache")],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            )
        banner = self.server.stdout.readline()
        if "http://" not in banner:
            raise RuntimeError(f"service did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1].strip().rstrip("/"))
        self.loop.run_until_complete(self._prewarm())
        order = [kind for kind, count in BLOCK for _ in range(count)]
        np.random.default_rng(op_seed(self.seed, 4)).shuffle(order)
        self.calls = [(kind,) for kind in order]
        self.per_op = {kind: count / len(order) for kind, count in BLOCK}

    async def _prewarm(self) -> None:
        status, payload = await self._http("GET", "/health")
        if status != 200:
            raise RuntimeError(f"GET /health answered {status}")
        count = 4 if self.quick else PREWARMED
        for k in range(count):
            body = request_body("hit", op_seed(self.seed, 7, k))
            status, payload = await self._http("POST", "/run", dict(body, wait=True))
            job = json.loads(payload)
            if status != 200 or job["status"] != "done":
                raise RuntimeError(f"pre-warm request {k} failed: {status}")
            self.prewarmed.append(body)
            self.reports[k] = job["result"]["report"]
            self._latest = job["id"]
        for k, kind in enumerate(JOB_KINDS[1:]):
            body = dict(request_body(kind, op_seed(self.seed, 8, k)), wait=True)
            status, payload = await self._http("POST", "/run", body)
            if status != 200 or json.loads(payload)["status"] != "done":
                raise RuntimeError(f"warm-up {kind} request failed: {status}")

    def close(self) -> None:
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        self.loop.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return _vm_hwm_kib(self.server.pid) / 1024.0

    async def _http(self, method: str, path: str, body=None):
        """One request on a fresh connection (the server closes each)."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        data = b"" if body is None else json.dumps(body).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode() + data
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, payload = raw.partition(b"\r\n\r\n")
        return int(head.split(None, 2)[1]), payload

    # -- one request at a time (end-to-end run) --------------------------
    def call(self, slot: int, seed: int, recorder) -> tuple:
        (kind,) = self.calls[slot]
        return self.loop.run_until_complete(self._request(kind, seed))

    async def _request(self, kind: str, seed: int) -> tuple:
        if kind == "read":
            path = "/health" if seed % 5 == 0 else f"/jobs/{self._latest}"
            status, payload = await self._http("GET", path)
            _require(status == 200, f"GET {path}: {status}")
            return kind, path == "/health", json.loads(payload)["status"]
        if kind == "hit":
            body = self.prewarmed[seed % len(self.prewarmed)]
        else:
            body = request_body(kind, seed)
        status, payload = await self._http("POST", "/run", dict(body, wait=True))
        _require(status == 200, f"POST /run ({kind}): {status}")
        job = json.loads(payload)
        self._latest = job["id"]
        repeat = kind != "hit" and seed in self._cold_seeds
        if kind != "hit":
            self._cold_seeds.add(seed)
        problem = self._job_problem(kind, body, job, repeat)
        _require(problem is None, problem)
        # A replayed cold request is a cache hit, so ``cached`` is left out.
        result = job["result"]
        return kind, json.dumps(result.get("report", result.get("stats")), sort_keys=True)

    def _job_problem(self, kind: str, body, job, repeat: bool = False) -> Optional[str]:
        """What is wrong with a finished job of ``kind``, if anything;
        ``repeat`` marks a cold request sent before, now a cache hit."""
        if job is None or job.get("status") != "done":
            return f"{kind} job not done"
        result = job["result"]
        if kind == "hit":
            k = self.prewarmed.index(body)
            if not result["cached"] or result["report"] != self.reports[k]:
                return f"hit on pre-warmed request {k} differs from its result"
        elif result["cached"] != repeat:
            sent = "a repeated" if repeat else "a new"
            return f"{kind} job: cached is {result['cached']} on {sent} request"
        elif kind == "trials":
            stats = result["stats"]
            if stats["trials"] != TRIALS or stats["failed_trials"]:
                return f"trials job: {stats['trials']} trials, {stats['failed_trials']} failed"
        elif "converged" not in result["report"]:
            return f"{kind} job has no outcome"
        return None

    # -- open loop (traced run) ------------------------------------------
    def _arrivals(self, rate: float, duration: float, first: int) -> List[Arrival]:
        rng = np.random.default_rng(op_seed(self.seed, 5, first))
        kinds: List[str] = []
        arrivals: List[Arrival] = []
        offset = 0.0
        while True:
            offset += rng.exponential(1.0 / rate)
            if offset >= duration:
                return arrivals
            if not kinds:
                kinds = [kind for kind, count in BLOCK for _ in range(count)]
                rng.shuffle(kinds)
            kind = kinds.pop()
            index = first + len(arrivals)
            if kind == "hit":
                body = self.prewarmed[int(rng.integers(len(self.prewarmed)))]
            elif kind == "read":
                body = None
            else:
                body = request_body(kind, op_seed(self.seed, 6, index))
            arrivals.append(Arrival(index, kind, offset, body))

    async def _send(self, arrivals: List[Arrival]) -> None:
        """Send ``arrivals`` on schedule over at most two connections."""
        loop = asyncio.get_running_loop()
        start_loop = loop.time() + 0.05
        start_wall = time.time() + 0.05
        queue = iter(arrivals)

        async def connection() -> None:
            for arrival in queue:
                arrival.due = start_wall + arrival.offset
                delay = start_loop + arrival.offset - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                await self._issue(arrival)

        await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))

    async def _issue(self, arrival: Arrival) -> None:
        """Send one arrival; a refused or malformed exchange leaves its
        status ``None``, which the checks count as a failed operation."""
        arrival.sent = time.time()
        payload = b""
        try:
            if arrival.kind == "read":
                self._reads += 1
                arrival.path = "/health" if self._reads % 5 == 0 else f"/jobs/{self._latest}"
                arrival.status, payload = await self._http("GET", arrival.path)
            else:
                arrival.status, payload = await self._http("POST", "/run", arrival.body)
                if arrival.status == 202:
                    self._latest = json.loads(payload)["id"]
                    arrival.job = {"id": self._latest}
        except (OSError, ValueError, IndexError):
            arrival.status = None
        arrival.done = time.time()
        arrival.size = len(payload)

    async def _drain(self) -> bool:
        """Wait until no job is pending or running."""
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while time.monotonic() < deadline:
            _, payload = await self._http("GET", "/health")
            jobs = json.loads(payload)["jobs"]
            if jobs["pending"] == 0 and jobs["running"] == 0:
                return True
            await asyncio.sleep(0.1)
        return False

    async def _traffic(self, seconds: float):
        light = self._arrivals(LIGHT_RATE, seconds, 0)
        overload = self._arrivals(OVERLOAD_RATE, OVERLOAD_SHARE * seconds, len(light))
        await self._send(light)
        drained = await self._drain()
        await self._send(overload)
        drained = await self._drain() and drained
        for arrival in light + overload:
            if arrival.job is not None:
                status, payload = await self._http("GET", f"/jobs/{arrival.job['id']}")
                arrival.job = json.loads(payload) if status == 200 else None
        began = time.time()
        _, payload = await self._http("GET", "/health")
        health_ms = (time.time() - began) * 1e3
        return light, overload, drained, json.loads(payload), health_ms

    def _problem(self, arrival: Arrival) -> Optional[str]:
        if arrival.kind == "read":
            return None if arrival.status == 200 else f"GET {arrival.path}: {arrival.status}"
        if arrival.status != 202:
            return f"POST /run: {arrival.status}"
        problem = self._job_problem(arrival.kind, arrival.body, arrival.job)
        return problem and f"arrival {arrival.index}: {problem}"

    def run(self, seconds: float) -> Dict[str, object]:
        if self.recorder is None:
            return super().run(seconds)
        light, overload, drained, health, health_ms = self.loop.run_until_complete(
            self._traffic(seconds)
        )
        arrivals = light + overload
        problems = [p for p in map(self._problem, arrivals) if p]
        failed = len(problems)
        if not drained:
            problems.append("backlog did not drain")
        if health.get("status") != "ok" or health["jobs"]["failed"]:
            problems.append(f"/health reports {health.get('jobs')}")
        jobs = {
            phase: [a for a in group if a.job and a.job.get("status") == "done"]
            for phase, group in (("light", light), ("overload", overload))
        }
        return {
            "attempted": len(arrivals),
            "failed": failed,
            "correct": not problems,
            "problems": problems[:20],
            "metrics": self._layers(light, jobs, health, health_ms),
            "trace": self.recorder.to_dict(),
        }

    def _layers(self, light, jobs, health, health_ms) -> Dict[str, float]:
        recorder = self.recorder
        for a in jobs["light"] + jobs["overload"]:
            job = a.job
            root = recorder.record("job", a.due, job["finished"], trace=a.index)
            recorder.record("service.http", a.due, job["created"], root, a.index)
            recorder.record("service.queue", job["created"], job["started"], root, a.index)
            recorder.record("service.exec", job["started"], job["finished"], root, a.index)

        def ms(values):
            return [v * 1e3 for v in values]

        def median(values):
            return statistics.median(values) if values else 0.0

        def exec_ms(phase, kind):
            return median(ms(a.job["finished"] - a.job["started"]
                             for a in jobs[phase] if a.kind == kind))

        light_jobs = jobs["light"]
        queue = ms(a.job["started"] - a.job["created"] for a in light_jobs)
        reads = [a for a in light if a.kind == "read" and a.path != "/health"]
        healths = [a for a in light if a.path == "/health"]
        posts = [a for a in light if a.kind != "read"]
        last_due = max(a.due for a in light)
        cache = health["cache"]
        job_ms = ms(a.job["finished"] - a.due for a in light_jobs)
        metrics = {
            "service.job_p50_ms": median(job_ms),
            "service.job_p90_ms": percentile(job_ms, 90),
            "service.capacity_jobs_per_s": _capacity(
                [a.job["finished"] for a in jobs["overload"]]
            ),
            "service.post_ms_p50": median(ms(a.done - a.sent for a in posts)),
            "service.read_ms_p50": median(ms(a.done - a.sent for a in reads)),
            "service.reply_bytes": statistics.fmean(a.size for a in reads) if reads else 0.0,
            "service.health_ms": median(ms(a.done - a.sent for a in healths) + [health_ms]),
            "service.cache_entries": float(cache["entries"]),
            "service.http_ms_p50": median(ms(a.job["created"] - a.due for a in light_jobs)),
            "service.queue_ms_p50": median(queue),
            "service.queue_ms_p90": percentile(queue, 90),
            "service.overload_queue_ms_p50": median(
                ms(a.job["started"] - a.job["created"] for a in jobs["overload"])
            ),
            "service.hit_job_p50_ms": median(
                ms(a.job["finished"] - a.due for a in light_jobs if a.kind == "hit")
            ),
            "service.backlog_end": float(
                sum(a.job["finished"] > last_due + 1.0 for a in light_jobs)
            ),
            "cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "loadgen.late_ms_p90": percentile(ms(a.sent - a.due for a in light), 90),
            # Spans come from job records after the traffic, so tracing
            # adds nothing to the measured run.
            "trace.overhead_frac": 0.0,
            "trace.attributed_frac": recorder.attributed_fraction("job"),
        }
        for kind in JOB_KINDS:
            light_ms = exec_ms("light", kind)
            metrics[f"service.exec_ms_p50.{kind}"] = light_ms
            metrics[f"service.exec_inflation.{kind}"] = (
                exec_ms("overload", kind) / light_ms if light_ms else 0.0
            )
        metrics.update(self._isolated(jobs))
        return metrics

    def _isolated(self, jobs) -> Dict[str, float]:
        """Cache and telemetry costs timed in this process, off the server."""
        from repro.service import ResultCache, canonical_key, execute_run, normalize_request
        from repro.telemetry import MemorySink, Telemetry

        canonical_key("run", normalize_request("run", self.prewarmed[0]))  # code digest
        cache = ResultCache(self.workdir / "isolated-cache")
        key_s, get_s, put_s = [], [], []
        for arrival in jobs["light"]:
            if arrival.kind != "hit":
                continue
            request = normalize_request("run", arrival.body)
            began = time.perf_counter()
            key = canonical_key("run", request)
            key_s.append(time.perf_counter() - began)
            began = time.perf_counter()
            cache.put(key, arrival.job["result"])
            put_s.append(time.perf_counter() - began)
            began = time.perf_counter()
            cache.get(key)
            get_s.append(time.perf_counter() - began)
        misses = [
            body
            for kind in ("serial", "fast", "count")
            for body in [a.body for a in jobs["light"] if a.kind == kind][:2]
        ]
        plain = recorded = 0.0
        for body in misses:
            began = time.perf_counter()
            execute_run(body)
            plain += time.perf_counter() - began
            began = time.perf_counter()
            execute_run(body, telemetry=Telemetry([MemorySink()]))
            recorded += time.perf_counter() - began
        return {
            "cache.key_us": statistics.median(key_s) * 1e6 if key_s else 0.0,
            "cache.get_us": statistics.median(get_s) * 1e6 if get_s else 0.0,
            "cache.put_us": statistics.median(put_s) * 1e6 if put_s else 0.0,
            "service.telemetry_frac": recorded / plain - 1.0 if plain else 0.0,
        }


def _capacity(finishes: List[float]) -> float:
    """Jobs completed per second while the backlog kept every executor
    busy: the rate between the 10th and 90th percentile finish times,
    which leaves out the ramp-up and the last few jobs finishing alone."""
    finishes = sorted(finishes)
    k = max(1, len(finishes) // 10)
    return (len(finishes) - 2 * k) / (finishes[-k - 1] - finishes[k])


def _vm_hwm_kib(pid: int) -> float:
    """Peak resident set size of process ``pid`` (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")
