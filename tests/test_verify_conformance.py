"""Tests for repro.verify conformance checks and golden-trace fixtures."""

import json

import numpy as np
import pytest

from repro.model import (
    BatchedPullEngine,
    Population,
    PopulationConfig,
    PullEngine,
)
from repro.noise import NoiseMatrix
from repro.protocols import (
    BatchedSourceFilter,
    SFSchedule,
    SourceFilterProtocol,
)
from repro.types import SourceCounts
from repro.verify import (
    GOLDEN_SCENARIOS,
    ConformanceError,
    assert_engines_equivalent,
    assert_results_identical,
    compare_goldens,
    compute_golden_records,
    run_verify,
    trajectory_digest,
    write_goldens,
)


@pytest.fixture
def sf_setup():
    config = PopulationConfig(n=48, sources=SourceCounts(1, 3), h=4)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=24)
    return config, population, noise, schedule


def _runners(population, noise, schedule):
    serial_engine = PullEngine(population, noise)
    batched_engine = BatchedPullEngine(population, noise)

    def serial_run(generator):
        return serial_engine.run(
            SourceFilterProtocol(schedule),
            max_rounds=schedule.total_rounds,
            rng=generator,
        )

    def batched_run(seed, replicas):
        return batched_engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=replicas,
            rng=seed,
        )

    return serial_run, batched_run


class TestAssertEnginesEquivalent:
    def test_spawn_mode_is_bit_identical(self, sf_setup):
        _, population, noise, schedule = sf_setup
        serial_run, batched_run = _runners(population, noise, schedule)
        results = assert_engines_equivalent(
            serial_run, batched_run, replicas=4, seed=421
        )
        assert len(results) == 4

    def test_detects_divergent_batched_engine(self, sf_setup):
        _, population, noise, schedule = sf_setup
        serial_run, batched_run = _runners(population, noise, schedule)

        def corrupted_batched(seed, replicas):
            results = batched_run(seed, replicas)
            bad = np.asarray(results[-1].final_opinions).copy()
            bad[0] = 1 - bad[0]
            results[-1].final_opinions = bad
            return results

        with pytest.raises(ConformanceError):
            assert_engines_equivalent(
                serial_run, corrupted_batched, replicas=2, seed=421
            )

    def test_detects_wrong_result_count(self, sf_setup):
        _, population, noise, schedule = sf_setup
        serial_run, batched_run = _runners(population, noise, schedule)
        with pytest.raises(ConformanceError):
            assert_engines_equivalent(
                serial_run,
                lambda seed, replicas: batched_run(seed, replicas)[:-1],
                replicas=2,
                seed=421,
            )


class TestAssertResultsIdentical:
    def test_field_mismatch_is_reported(self, sf_setup):
        _, population, noise, schedule = sf_setup
        serial_run, _ = _runners(population, noise, schedule)
        from repro.rng import spawn_generators

        (generator,) = spawn_generators(421, 1)
        result = serial_run(generator)
        import dataclasses

        other = dataclasses.replace(result, rounds_executed=result.rounds_executed + 1)
        with pytest.raises(ConformanceError, match="rounds_executed"):
            assert_results_identical(result, other)


class TestTrajectoryDigest:
    def test_deterministic(self):
        a = trajectory_digest(np.arange(10), 3, 0.5)
        b = trajectory_digest(np.arange(10), 3, 0.5)
        assert a == b

    def test_sensitive_to_values_shape_and_none(self):
        base = trajectory_digest(np.arange(10))
        assert trajectory_digest(np.arange(10) + 1) != base
        assert trajectory_digest(np.arange(10).reshape(2, 5)) != base
        assert trajectory_digest(np.arange(10), None) != base

    def test_dtype_width_is_canonicalised(self):
        assert trajectory_digest(
            np.arange(5, dtype=np.int8)
        ) == trajectory_digest(np.arange(5, dtype=np.int64))

    def test_rejects_object_arrays(self):
        with pytest.raises(TypeError):
            trajectory_digest(np.array(["a"], dtype=object))


class TestGoldens:
    def test_committed_goldens_are_fresh(self, goldens_dir):
        """CI gate: regenerating the goldens must produce no diff."""
        mismatches = compare_goldens(goldens_dir)
        assert mismatches == [], "\n".join(mismatches)

    def test_records_cover_every_scenario(self):
        records = compute_golden_records()
        assert set(records) == {s.name for s in GOLDEN_SCENARIOS}
        for record in records.values():
            assert len(record["digest"]) == 64
            json.dumps(record)  # JSON-serializable end to end

    def test_drift_is_detected(self, tmp_path):
        write_goldens(tmp_path)
        target = tmp_path / f"{GOLDEN_SCENARIOS[0].name}.json"
        record = json.loads(target.read_text())
        record["digest"] = "0" * 64
        target.write_text(json.dumps(record))
        mismatches = compare_goldens(tmp_path)
        assert any("digest drifted" in m for m in mismatches)

    def test_missing_and_stray_files_are_detected(self, tmp_path):
        write_goldens(tmp_path)
        (tmp_path / f"{GOLDEN_SCENARIOS[0].name}.json").unlink()
        (tmp_path / "obsolete_scenario.json").write_text("{}")
        mismatches = compare_goldens(tmp_path)
        assert any("missing golden file" in m for m in mismatches)
        assert any("stray golden file" in m for m in mismatches)


class TestRunVerify:
    def test_quick_subset_reports_pass(self, goldens_dir):
        report = run_verify(
            "quick",
            goldens_dir=goldens_dir,
            checks=["corrupt-vs-corrupt-with-uniforms"],
        )
        assert report.passed
        names = [o.name for o in report.outcomes]
        assert names == ["corrupt-vs-corrupt-with-uniforms", "golden-traces"]
        assert "PASS" in report.render()

    def test_failure_is_reported_not_raised(self, tmp_path):
        # Empty goldens dir -> every scenario is missing.
        report = run_verify("quick", goldens_dir=tmp_path, checks=[])
        assert not report.passed
        assert "FAIL" in report.render()

    def test_rejects_unknown_scale(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_verify("turbo")

    def test_unknown_leg_is_rejected(self, goldens_dir):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="valid legs: exact"):
            run_verify("quick", goldens_dir=goldens_dir, checks=["bogus"])

    def test_cli_exits_2_on_unknown_leg(self, capsys):
        from repro.cli import main

        assert main(["verify", "--quick", "--only", "bogus"]) == 2
        assert "unknown verify leg(s) bogus" in capsys.readouterr().err

    def test_leg_exception_fails_that_leg_and_the_rest_run(
        self, goldens_dir, monkeypatch
    ):
        from repro.exceptions import ClusterError
        from repro.verify import runner

        def busy_port(scale, budget):
            raise ClusterError("address already in use")

        corrupt = [c for c in runner._CHECKS if c[0].startswith("corrupt")]
        monkeypatch.setattr(
            runner, "_CHECKS", [("net", "statistical", busy_port)] + corrupt
        )
        monkeypatch.setattr(runner, "compare_goldens", lambda directory: [])
        report = run_verify("quick", goldens_dir=goldens_dir)
        net, rest, goldens = report.outcomes
        assert not net.passed and not report.passed
        assert "ClusterError: address already in use" in net.detail
        assert "test_verify_conformance.py" in net.detail  # where it raised
        assert rest.passed and goldens.name == "golden-traces"
        assert "FAIL  net" in report.render()

    def test_budget_overdraft_fails_the_leg(self, goldens_dir, monkeypatch):
        from repro.verify import runner

        def greedy(scale, budget):
            budget.charge(2e-3, "greedy leg")
            return "not reached"

        monkeypatch.setattr(
            runner, "_CHECKS", [("greedy", "statistical", greedy)]
        )
        monkeypatch.setattr(runner, "compare_goldens", lambda directory: [])
        report = run_verify("quick", goldens_dir=goldens_dir)
        leg = report.outcomes[0]
        assert not leg.passed
        assert "false-positive budget exhausted" in leg.detail


def _unreached(pairs):
    """Pairs with no chain of ORACLE_LINKS to the serial oracle that are
    not on the UNCHECKED_PAIRS exclusion list."""
    from repro.verify.runner import _CHECKS, ORACLE_LINKS, UNCHECKED_PAIRS

    legs = {name for name, _, _ in _CHECKS}
    unreached = []
    for pair in sorted(set(pairs) - set(UNCHECKED_PAIRS)):
        seen = [pair]
        while pair[0] != "serial":
            if pair not in ORACLE_LINKS:
                unreached.append(seen[0])
                break
            leg, reference = ORACLE_LINKS[pair]
            assert leg in legs, f"{pair} names unknown verify leg {leg!r}"
            pair = (reference, pair[1])
            assert pair not in seen, f"oracle links cycle: {seen}"
            seen.append(pair)
    return unreached


class TestOracleCoverage:
    """Every (engine, protocol) the capability table declares is compared
    with the agent-level oracle, directly or through an engine that is,
    or sits on the explicit exclusion list with its reason."""

    @staticmethod
    def _pairs():
        from repro.engines import capability_table

        return {
            (row["name"], protocol)
            for row in capability_table()
            for protocol in row["protocols"]
        }

    def test_every_capability_pair_reaches_the_oracle(self):
        assert _unreached(self._pairs()) == []

    def test_a_new_engine_without_rows_fails(self):
        assert _unreached(self._pairs() | {("warp", "sf")}) == [("warp", "sf")]

    def test_exclusions_are_live_and_explained(self):
        from repro.verify.runner import ORACLE_LINKS, UNCHECKED_PAIRS

        pairs = self._pairs()
        assert set(ORACLE_LINKS) <= pairs
        for pair, reason in UNCHECKED_PAIRS.items():
            assert pair in pairs and pair not in ORACLE_LINKS and reason

    def test_every_count_admitted_subset_model_has_a_law_row(self):
        """Each subset fault model (class, mode and whether it is
        scheduled) the count row admits faces the oracle in the
        ``laws`` leg, on fast and count alike."""
        from repro.engines import admit_seams
        from repro.exceptions import UnsupportedFeatureError
        from repro.faults import ByzantineDisplayFault, CrashFault, StuckAtFault
        from repro.verify.runner import _FAULT_LAWS, _law_faults

        def kind(fault):
            return (
                type(fault).__name__, getattr(fault, "mode", None),
                bool(fault.transition_rounds()),
            )

        models = [
            ByzantineDisplayFault(fraction=0.1, mode=mode)
            for mode in ByzantineDisplayFault.MODES
        ] + [
            CrashFault(fraction=0.1, mode=mode, **schedule)
            for mode in CrashFault.MODES
            for schedule in ({}, {"crash_round": 2, "recovery_round": 6})
        ] + [StuckAtFault(fraction=0.1)]
        assert {"serial", "fast", "count"} <= {e for e, _ in _FAULT_LAWS}
        admitted = 0
        for protocol in ("sf", "ssf"):
            rows = {kind(fault) for fault in _law_faults(protocol).values()}
            for fault in models:
                try:
                    admit_seams("count", protocol, fault)
                except UnsupportedFeatureError:
                    continue
                admitted += 1
                assert kind(fault) in rows, (protocol, kind(fault))
            for fault in _law_faults(protocol).values():
                admit_seams("fast", protocol, fault)  # raises if refused
        # Five models on each protocol, and SSF's two crash windows.
        assert admitted == 12
