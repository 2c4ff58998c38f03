"""The run service: cache keys, result cache, executors, live HTTP server."""

import json

import numpy as np
import pytest

from repro import PopulationConfig, SourceCounts
from repro.exceptions import ConfigurationError
from repro.results import report_from_dict
from repro.service import (
    JOB_STATES,
    JobStore,
    ResultCache,
    ServiceClient,
    ServiceError,
    ServiceThread,
    SpreadingService,
    canonical_key,
    code_version,
    execute_run,
    execute_sweep,
    normalize_request,
)
from repro.telemetry import MemorySink, Telemetry
from repro.verify.conformance import assert_results_identical
from repro.verify.statistical import FalsePositiveBudget, assert_proportions_close

RUN_REQUEST = {
    "engine": "serial",
    "protocol": "sf",
    "n": 48,
    "s0": 1,
    "s1": 3,
    "h": 4,
    "delta": 0.2,
    "seed": 11,
}


class TestCanonicalKey:
    def test_deterministic_and_order_insensitive(self):
        normalized = normalize_request("run", dict(RUN_REQUEST))
        reordered = dict(reversed(list(normalized.items())))
        key = canonical_key("run", normalized)
        assert key == canonical_key("run", normalized)
        assert key == canonical_key("run", reordered)
        assert len(key) == 64
        int(key, 16)  # hex sha256

    def test_seed_and_config_separate_keys(self):
        base = normalize_request("run", dict(RUN_REQUEST))
        keys = {canonical_key("run", dict(base, seed=seed)) for seed in range(32)}
        assert len(keys) == 32
        assert canonical_key("run", dict(base, n=64)) not in keys
        assert canonical_key("sweep", base) != canonical_key("run", base)

    def test_key_includes_code_version(self):
        # Same normalized request, different alleged code version, must
        # collide with the live key only when the version matches.
        normalized = normalize_request("run", dict(RUN_REQUEST))
        version = code_version()
        assert version == code_version()  # cached, stable in-process
        assert len(version) == 64

    def test_execution_fields_do_not_change_key(self):
        with_exec = dict(RUN_REQUEST, trials=4, workers=3, wait=True,
                         retries=2, trial_timeout=30.0)
        without = dict(RUN_REQUEST, trials=4)
        key_a = canonical_key("run", normalize_request("run", with_exec))
        key_b = canonical_key("run", normalize_request("run", without))
        assert key_a == key_b


class TestNormalizeRequest:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            normalize_request("run", dict(RUN_REQUEST, engine="warp"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            normalize_request("run", dict(RUN_REQUEST, colour="red"))

    def test_sweep_range_validated(self):
        with pytest.raises(ConfigurationError, match="min_exp"):
            normalize_request("sweep", {"min_exp": 9, "max_exp": 5})

    def test_experiment_requires_id(self):
        with pytest.raises(ConfigurationError, match="id"):
            normalize_request("experiment", {"scale": "quick"})

    def test_idempotent(self):
        once = normalize_request("run", dict(RUN_REQUEST))
        assert normalize_request("run", dict(once)) == once


class TestResultCache:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = canonical_key("run", normalize_request("run", dict(RUN_REQUEST)))
        assert cache.get(key) is None
        payload = {"kind": "run", "answer": [1, 2, 3]}
        cache.put(key, payload)
        assert key in cache
        assert cache.get(key) == payload
        assert cache.entries == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.clear()
        assert cache.entries == 0
        assert cache.get(key) is None

    def test_put_is_atomic_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"x": 1})
        (path,) = list(tmp_path.rglob(f"{key}.json"))
        assert path.parent.name == "ab"
        assert json.loads(path.read_text()) == {"x": 1}
        assert not list(tmp_path.rglob("*.tmp"))


class TestJobStore:
    def test_lifecycle(self):
        store = JobStore()
        job = store.create("run", {"n": 8})
        assert job.status == "pending" and job.id == "job-1"
        store.mark_running(job)
        assert store.get(job.id).status == "running"
        store.mark_done(job, {"ok": True}, telemetry={"counters": {}})
        done = store.get(job.id)
        assert done.status == "done" and done.result == {"ok": True}
        assert "seconds" in done.to_dict()
        failed = store.create("run", {})
        store.mark_running(failed)
        store.mark_failed(failed, "boom")
        counts = store.counts()
        assert counts["done"] == 1 and counts["failed"] == 1
        assert counts["pending"] == 0 and counts["running"] == 0
        assert counts["total"] == 2
        assert set(JOB_STATES) <= set(counts)


class TestExecuteRunCaching:
    def test_cache_hit_bit_identical_to_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = execute_run(dict(RUN_REQUEST), cache=cache)
        assert cold["cached"] is False
        hit = execute_run(dict(RUN_REQUEST), cache=cache)
        assert hit["cached"] is True and hit["cache_key"]
        fresh = execute_run(dict(RUN_REQUEST), cache=None)
        envelope_fields = ("kind", "request", "report", "code_version")
        for payload in (hit, fresh):
            assert payload["kind"] == "run"
        assert (
            json.dumps({f: hit[f] for f in envelope_fields}, sort_keys=True)
            == json.dumps({f: fresh[f] for f in envelope_fields},
                          sort_keys=True)
        )
        assert_results_identical(
            report_from_dict(hit["report"]),
            report_from_dict(fresh["report"]),
            context="service cache hit vs recomputation",
            compare_trace=False,
        )

    def test_unseeded_runs_bypass_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = dict(RUN_REQUEST)
        del request["seed"]
        first = execute_run(dict(request), cache=cache)
        second = execute_run(dict(request), cache=cache)
        assert first["cached"] is False and second["cached"] is False
        assert cache.entries == 0

    def test_trials_sharded_through_repeat_trials(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = dict(RUN_REQUEST, engine="fast", trials=6)
        del request["h"]  # default h = n
        cold = execute_run(dict(request), cache=cache)
        stats = cold["stats"]
        assert stats["trials"] == 6
        assert 0 <= stats["successes"] <= 6
        assert len(stats["values"]) == stats["successes"]
        hit = execute_run(dict(request), cache=cache)
        assert hit["cached"] is True
        assert hit["stats"] == stats

    def test_seeded_ssf_trials_cache_hit_equals_recomputation(self, tmp_path):
        # Fast SSF's trials end in different rounds, so the summary's
        # bootstrap interval depends on its draws; it must be seeded.
        request = {"engine": "fast", "protocol": "ssf", "n": 1024, "s0": 0,
                   "s1": 1, "delta": 0.1, "trials": 8, "seed": 501}
        cache = ResultCache(tmp_path)
        execute_run(dict(request), cache=cache)
        hit = execute_run(dict(request), cache=cache)
        assert hit["cached"] is True
        assert len(set(hit["stats"]["values"])) > 1
        for _ in range(8):
            fresh = execute_run(dict(request), cache=None)
            assert fresh["stats"] == hit["stats"]

    @pytest.mark.statistical
    def test_cache_on_and_off_statistically_equivalent(self, tmp_path):
        # Disjoint seeds with and without the cache layer in the path:
        # the cache must not perturb the sampled success rate.
        budget = FalsePositiveBudget(total=1e-3)
        cache = ResultCache(tmp_path)
        base = {"engine": "fast", "protocol": "sf", "n": 64, "s0": 1,
                "s1": 3, "delta": 0.3, "trials": 24}
        cached = execute_run(dict(base, seed=101), cache=cache)
        uncached = execute_run(dict(base, seed=202), cache=None)
        assert cached["cached"] is False
        assert_proportions_close(
            cached["stats"]["successes"], cached["stats"]["trials"],
            uncached["stats"]["successes"], uncached["stats"]["trials"],
            confidence=1 - 1e-6,
            context="service cache-on vs cache-off success rate",
            budget=budget,
        )


class TestJobTelemetry:
    def test_serial_job_keeps_what_a_memory_sink_kept(self):
        service = SpreadingService()
        job = service.execute_job(service.submit("run", dict(RUN_REQUEST)))
        assert job.status == "done"
        snapshot = job.telemetry
        # The values a job recording into a MemorySink kept for this seed.
        assert snapshot["counters"] == {
            "pull_engine.rounds": 2907.0,
            "pull_engine.runs": 1.0,
            "pull_engine.converged_runs": 1.0,
        }
        assert snapshot["rounds_recorded"] == 2907
        assert snapshot["rounds_recorded"] == job.result["report"]["rounds_executed"]
        sink = MemorySink()
        execute_run(dict(RUN_REQUEST), telemetry=Telemetry([sink]))
        expected = sink.snapshot()
        assert snapshot.keys() == expected.keys()
        for name in ("counters", "gauges", "histograms", "rounds_recorded"):
            assert snapshot[name] == expected[name]
        # Phase durations are timings; their names and counts must match.
        assert {k: len(v) for k, v in snapshot["phases"].items()} == {
            k: len(v) for k, v in expected["phases"].items()
        } == {"pull_engine.run": 1}
        json.dumps(job.to_dict())


class TestExecuteSweep:
    def test_rows_and_bounds(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = {"engine": "fast", "protocol": "sf", "s0": 0, "s1": 2,
                   "delta": 0.3, "seed": 5, "trials": 3, "min_exp": 4,
                   "max_exp": 5}
        payload = execute_sweep(dict(request), cache=cache)
        rows = payload["rows"]
        assert [row["n"] for row in rows] == [16, 32]
        for row in rows:
            assert 0.0 <= row["success_rate"] <= 1.0
            assert row["lower_bound"] <= row["upper_bound"]
        hit = execute_sweep(dict(request), cache=cache)
        assert hit["cached"] is True
        assert hit["rows"] == rows

    @pytest.mark.parametrize("protocol", ["sf", "ssf"])
    def test_bounds_are_the_protocols(self, protocol):
        from repro.theory import (
            lower_bound_rounds,
            sf_upper_bound_rounds,
            ssf_upper_bound_rounds,
        )

        (row,) = execute_sweep(
            {"engine": "count", "protocol": protocol, "delta": 0.1, "seed": 0,
             "trials": 2, "min_exp": 6, "max_exp": 6}
        )["rows"]
        config = PopulationConfig(n=64, sources=SourceCounts(0, 1), h=64)
        if protocol == "sf":
            upper, alphabet_size = sf_upper_bound_rounds(config, 0.1), 2
        else:
            # Theorem 5 at n = h = 64, delta = 0.1 (Theorem 4 reads 5.39).
            upper, alphabet_size = ssf_upper_bound_rounds(config, 0.1), 4
            assert round(upper, 2) == 2.16
        assert row["upper_bound"] == upper
        assert row["lower_bound"] == lower_bound_rounds(
            64, 64, 1, 0.1, alphabet_size=alphabet_size
        )


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    with ServiceThread(cache_dir=cache_dir) as thread:
        yield ServiceClient(thread.url)


class TestLiveServer:
    def test_health_reports_engines_and_cache(self, live_service):
        health = live_service.health()
        assert health["status"] == "ok"
        assert health["code_version"] == code_version()
        assert [row["name"] for row in health["engines"]] == [
            "async", "batched", "count", "fast", "mean-field", "net",
            "serial",
        ]
        assert set(JOB_STATES) <= set(health["jobs"])
        assert "hits" in health["cache"]

    def test_engines_endpoint_matches_registry(self, live_service):
        from repro.engines import capability_table

        assert live_service.engines()["engines"] == capability_table()

    def test_run_wait_then_cache_hit(self, live_service):
        request = dict(RUN_REQUEST, wait=True)
        first = live_service.run(**request)
        assert first["status"] == "done"
        assert first["result"]["cached"] is False
        report = first["result"]["report"]
        assert report["type"]
        second = live_service.run(**request)
        assert second["result"]["cached"] is True
        assert second["result"]["report"] == report

    def test_async_job_lifecycle(self, live_service):
        submitted = live_service.run(
            engine="fast", protocol="sf", n=64, s0=1, s1=3, delta=0.3,
            seed=7, trials=4,
        )
        assert submitted["status"] in ("pending", "running", "done")
        job = live_service.wait_for(submitted["id"], timeout=60.0)
        assert job["status"] == "done"
        assert job["result"]["stats"]["trials"] == 4
        assert job["telemetry"]["rounds_recorded"] >= 0
        listing = live_service.jobs()
        assert any(row["id"] == submitted["id"] for row in listing["jobs"])

    def test_sweep_endpoint(self, live_service):
        job = live_service.sweep(
            engine="fast", s0=0, s1=2, delta=0.3, seed=3, trials=2,
            min_exp=4, max_exp=4, wait=True,
        )
        assert job["status"] == "done"
        assert [row["n"] for row in job["result"]["rows"]] == [16]

    def test_experiment_endpoint(self, live_service):
        job = live_service.experiment("FIG1", scale="quick", wait=True)
        assert job["status"] == "done"
        outcome = job["result"]["outcome"]
        assert outcome["experiment_id"] == "FIG1"

    def test_bad_request_is_400(self, live_service):
        with pytest.raises(ServiceError) as excinfo:
            live_service.run(engine="warp", wait=True)
        assert excinfo.value.status == 400
        assert "unknown engine" in str(excinfo.value)

    def test_missing_job_is_404(self, live_service):
        with pytest.raises(ServiceError) as excinfo:
            live_service.job("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_route_is_405_or_404(self, live_service):
        with pytest.raises(ServiceError) as excinfo:
            live_service._request("POST", "/nope", {})
        assert excinfo.value.status in (404, 405)


try:
    from hypothesis import HealthCheck, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    class TestServiceProperties:
        @given(
            engine=st.sampled_from(["fast", "count", "serial"]),
            n=st.integers(min_value=16, max_value=96),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            delta=st.floats(min_value=0.05, max_value=0.3),
        )
        @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
        def test_normalized_requests_have_stable_keys(
            self, engine, n, seed, delta
        ):
            """Normalization is idempotent and keys are pure functions of
            the normalized request, over engines x configs."""
            request = {"engine": engine, "protocol": "sf", "n": n,
                       "seed": seed, "delta": delta}
            normalized = normalize_request("run", dict(request))
            assert normalize_request("run", dict(normalized)) == normalized
            key = canonical_key("run", normalized)
            assert key == canonical_key("run", dict(normalized))
            bumped = canonical_key("run", dict(normalized, seed=seed + 1))
            assert bumped != key
