"""Tests for the adaptive adversary search subsystem.

Covers the configuration space (validity, budget pinning, boundary
probes), the SPRT-gated evaluator (engine routing, determinism, exact
bounds), checkpoint/resume through the evaluation ledger, the search
drivers (planted-bad rediscovery, reproducibility), and the frontier
record round-trip.
"""

import json
from itertools import islice

import numpy as np
import pytest

from repro.adversary_search import (
    AdversaryConfig,
    CandidateEvaluator,
    CertifiedFrontier,
    EvaluationLedger,
    FaultConfigSpace,
    SearchSettings,
    failure_lower_bound,
    failure_upper_bound,
    run_search,
    search_worst_case,
)
from repro.exceptions import ConfigurationError
from repro.faults import ComposedFaultModel, CrashFault
from repro.model.config import PopulationConfig
from repro.rng import generator_stream
from repro.types import SourceCounts
from repro.verify.statistical import FalsePositiveBudget, binomial_cdf, binomial_sf

pytestmark = pytest.mark.adversary

SF_CONFIG = PopulationConfig(n=96, sources=SourceCounts(0, 4), h=6)
SSF_CONFIG = PopulationConfig(n=96, sources=SourceCounts(2, 8), h=4)

QUICK = SearchSettings(
    num_candidates=3,
    rungs=2,
    base_trials=6,
    refine_steps=2,
    cert_trials=20,
)


class TestAdversaryConfig:
    def test_budget_normalization(self):
        byz = AdversaryConfig(family="byzantine", fraction=0.1, mode="fixed", symbol=0)
        assert byz.budget(0.2) == pytest.approx(0.1)
        mis = AdversaryConfig(family="misspec", mode="uniform", true_delta=0.32)
        assert mis.budget(0.2) == pytest.approx(0.24)
        # Deviation budget is symmetric in the sign of the error.
        mirrored = AdversaryConfig(family="misspec", mode="uniform", true_delta=0.08)
        assert mirrored.budget(0.2) == mis.budget(0.2)

    def test_describe_drops_none_coordinates(self):
        config = AdversaryConfig(family="byzantine", fraction=0.1, mode="anti-majority")
        described = config.describe()
        assert "symbol" not in described
        assert "true_delta" not in described
        # describe() round-trips through the constructor.
        assert AdversaryConfig(**described) == config

    def test_key_is_stable_and_discriminating(self):
        a = AdversaryConfig(family="byzantine", fraction=0.1, mode="fixed", symbol=0)
        b = AdversaryConfig(family="byzantine", fraction=0.1, mode="fixed", symbol=1)
        assert a.key() == AdversaryConfig(**a.describe()).key()
        assert a.key() != b.key()


class TestFaultConfigSpace:
    def test_protocol_family_support(self):
        with pytest.raises(ConfigurationError):
            FaultConfigSpace("sf", 0.2, families=("crash",))
        ssf = FaultConfigSpace("ssf", 0.1)
        assert set(ssf.families) == {"byzantine", "misspec", "crash"}
        assert ssf.alphabet_size == 4

    def test_samples_are_valid_and_budget_pinned(self):
        space = FaultConfigSpace("ssf", 0.1, max_fraction=0.3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            config = space.sample(rng)
            assert config.family in space.families
            budget = config.budget(space.assumed_delta)
            if config.family == "misspec":
                assert space.delta_lo <= config.true_delta <= space.delta_hi
            else:
                assert 0.0 < config.fraction <= space.max_fraction
            pinned = space.sample(rng, family=config.family, budget=0.2)
            assert pinned.budget(space.assumed_delta) == pytest.approx(0.2)
            assert budget >= 0.0

    def test_mutation_preserves_family_and_pinned_budget(self):
        space = FaultConfigSpace("ssf", 0.1, max_fraction=0.3)
        rng = np.random.default_rng(1)
        for family in space.families:
            config = space.sample(rng, family=family, budget=0.2)
            for _ in range(20):
                config = space.mutate(config, rng, budget=0.2)
                assert config.family == family
                assert config.budget(space.assumed_delta) == pytest.approx(0.2)

    def test_boundary_candidates_deterministic_and_budget_matched(self):
        space = FaultConfigSpace("ssf", 0.1, max_fraction=0.3)
        for family in space.families:
            probes = space.boundary_candidates(family, 0.2)
            assert probes == space.boundary_candidates(family, 0.2)
            assert probes  # never empty for a valid cell
            for probe in probes:
                assert probe.family == family
                assert probe.budget(space.assumed_delta) == pytest.approx(0.2)
        # Crash probes cover both window extremes and every symbol.
        crash = space.boundary_candidates("crash", 0.2)
        starts = {p.crash_start for p in crash}
        assert starts == {0.0, space.crash_window[0]}
        assert {p.symbol for p in crash} == set(range(space.alphabet_size))
        with pytest.raises(ConfigurationError):
            space.boundary_candidates("crash", None)

    def test_build_crash_needs_epoch_rounds(self):
        space = FaultConfigSpace("ssf", 0.1, max_fraction=0.3)
        config = AdversaryConfig(
            family="crash", fraction=0.25, mode="symbol", symbol=1,
            crash_start=2.0, crash_length=2.0,
        )
        with pytest.raises(ConfigurationError):
            space.build(config)
        fault = space.build(config, epoch_rounds=6)
        assert fault.crash_round == 12
        assert fault.recovery_round == 24


class TestExactBounds:
    def test_lower_bound_edge_cases(self):
        assert failure_lower_bound(0, 40) == 0.0
        assert failure_lower_bound(40, 40, alpha=1e-3) > 0.8
        with pytest.raises(ValueError):
            failure_lower_bound(5, 4)

    def test_upper_bound_edge_cases(self):
        assert failure_upper_bound(40, 40) == 1.0
        assert failure_upper_bound(0, 40, alpha=1e-3) < 0.2

    def test_bounds_cross_check_against_binomial_tails(self):
        """At the returned bound the observed tail has mass ~alpha."""
        alpha = 1e-3
        for failures, trials in [(3, 20), (10, 40), (39, 40)]:
            lower = failure_lower_bound(failures, trials, alpha)
            assert binomial_sf(failures, trials, lower) == pytest.approx(
                alpha, rel=1e-6
            )
            upper = failure_upper_bound(failures, trials, alpha)
            assert binomial_cdf(failures, trials, upper) == pytest.approx(
                alpha, rel=1e-6
            )
            assert lower < failures / trials < upper


class _ComposedSpace(FaultConfigSpace):
    """A space whose candidates build as two composed subset faults."""

    def build(self, config, epoch_rounds=None):
        return ComposedFaultModel(
            [super().build(config, epoch_rounds), CrashFault(fraction=0.05)]
        )


class TestCandidateEvaluator:
    def test_count_fast_path_for_agent_blind_candidates(self):
        space = FaultConfigSpace("sf", 0.2, families=("byzantine", "misspec"))
        evaluator = CandidateEvaluator(space, SF_CONFIG)
        mis = AdversaryConfig(family="misspec", mode="uniform", true_delta=0.25)
        fixed = AdversaryConfig(
            family="byzantine", fraction=0.1, mode="fixed", symbol=0
        )
        anti = AdversaryConfig(family="byzantine", fraction=0.1, mode="anti-majority")
        # Exchangeable subset faults are count laws.
        for candidate in (mis, fixed, anti):
            engine, _ = evaluator.failure_runner(candidate)
            assert engine == "count"
        # Count SSF prices a crash window's straddled epochs in parts.
        ssf_space = FaultConfigSpace("ssf", 0.1, max_fraction=0.3)
        window = AdversaryConfig(
            family="crash", fraction=0.25, mode="symbol", symbol=1,
            crash_start=2.0, crash_length=2.0,
        )
        engine, _ = CandidateEvaluator(ssf_space, SSF_CONFIG).failure_runner(window)
        assert engine == "count"
        # Two random subsets overlap: no count view covers them.
        composed = CandidateEvaluator(
            _ComposedSpace("sf", 0.2, families=("byzantine",)), SF_CONFIG
        )
        engine, _ = composed.failure_runner(fixed)
        assert engine == "fast"
        composed_ssf = CandidateEvaluator(
            _ComposedSpace("ssf", 0.1, max_fraction=0.3), SSF_CONFIG
        )
        engine, _ = composed_ssf.failure_runner(window)
        assert engine == "fast"
        # prefer_count=False forces the agent-level engines.
        forced = CandidateEvaluator(space, SF_CONFIG, prefer_count=False)
        for candidate in (mis, fixed, anti):
            engine, _ = forced.failure_runner(candidate)
            assert engine == "fast"

    @pytest.mark.parametrize("protocol", ["sf", "ssf"])
    def test_count_certification_batch_equals_the_trial_loop(self, protocol):
        """A count certification runs as one spawn-mode run_batch call,
        bit-identical to the per-trial loop on the seed's stream."""
        if protocol == "sf":
            space = FaultConfigSpace("sf", 0.2, families=("byzantine",))
            evaluator, fraction = CandidateEvaluator(space, SF_CONFIG), 0.3
        else:
            space = FaultConfigSpace("ssf", 0.1, families=("byzantine",))
            evaluator = CandidateEvaluator(space, SSF_CONFIG, horizon_epochs=4)
            fraction = 0.2
        candidate = AdversaryConfig(
            family="byzantine", fraction=fraction, mode="anti-majority"
        )
        engine, protocol_, kwargs = evaluator._engine_for(candidate)
        assert engine == "count"
        seed, trials = 321, 24
        batch = protocol_.run_batch(trials, rng=seed, **kwargs)
        loop = [
            protocol_.run(rng=generator, **kwargs)
            for generator in islice(generator_stream(seed), trials)
        ]
        assert [
            (r.converged, r.consensus_round, r.rounds_executed,
             r.final_opinion_counts.tolist())
            for r in batch
        ] == [
            (r.converged, r.consensus_round, r.rounds_executed,
             r.final_opinion_counts.tolist())
            for r in loop
        ]
        cert = evaluator.certify(
            candidate, stage="certify", seed=seed, trials=trials, alpha=1e-3
        )
        assert cert.engine == "count"
        assert cert.failures == sum(not r.converged for r in loop)
        assert 0 < cert.failures < trials  # both outcomes occur

    def test_evaluate_is_deterministic_in_the_seed(self):
        space = FaultConfigSpace("sf", 0.2, families=("byzantine", "misspec"))
        evaluator = CandidateEvaluator(space, SF_CONFIG)
        candidate = AdversaryConfig(
            family="byzantine", fraction=0.15, mode="fixed", symbol=0
        )
        kwargs = dict(
            stage="t", seed=7, p0=0.05, p1=0.35, alpha=0.02, beta=0.02,
            max_trials=24,
        )
        first = evaluator.evaluate(candidate, **kwargs)
        second = evaluator.evaluate(candidate, **kwargs)
        assert (first.decision, first.trials, first.failures) == (
            second.decision, second.trials, second.failures,
        )

    def test_evaluate_charges_error_mass(self):
        space = FaultConfigSpace("sf", 0.2, families=("misspec",))
        evaluator = CandidateEvaluator(space, SF_CONFIG)
        benign = AdversaryConfig(family="misspec", mode="uniform", true_delta=0.2)
        budget = FalsePositiveBudget(total=0.5)
        evaluation = evaluator.evaluate(
            benign, stage="t", seed=3, p0=0.05, p1=0.35, alpha=0.02,
            beta=0.03, max_trials=40, budget=budget,
        )
        assert evaluation.decision == "reject"  # correctly-specified noise
        assert budget.spent == pytest.approx(0.05)

    def test_certify_yields_exact_bound_inputs(self):
        space = FaultConfigSpace("sf", 0.2, families=("byzantine", "misspec"))
        evaluator = CandidateEvaluator(space, SF_CONFIG)
        damaging = AdversaryConfig(
            family="byzantine", fraction=0.15, mode="fixed", symbol=0
        )
        budget = FalsePositiveBudget(total=0.5)
        cert = evaluator.certify(
            damaging, stage="certify", seed=11, trials=20, alpha=1e-3,
            budget=budget,
        )
        assert cert.decision == "certify"
        assert cert.trials == 20
        assert cert.failures > 10  # a 15% fixed-0 mob swamps bias 4
        assert budget.spent == pytest.approx(1e-3)


class TestLedgerResume:
    def test_cached_evaluations_replay_bit_for_bit(self, tmp_path):
        space = FaultConfigSpace("sf", 0.2, families=("byzantine", "misspec"))
        evaluator = CandidateEvaluator(space, SF_CONFIG)
        candidate = AdversaryConfig(
            family="byzantine", fraction=0.15, mode="fixed", symbol=0
        )
        path = tmp_path / "ledger.jsonl"
        kwargs = dict(
            stage="t", seed=5, p0=0.05, p1=0.35, alpha=0.02, beta=0.02,
            max_trials=24,
        )
        with EvaluationLedger(path, seed=5, scope="s") as ledger:
            live = evaluator.evaluate(candidate, ledger=ledger, **kwargs)
        assert not live.cached
        with EvaluationLedger(path, seed=5, scope="s") as ledger:
            replayed = evaluator.evaluate(candidate, ledger=ledger, **kwargs)
        assert replayed.cached
        assert (replayed.decision, replayed.trials, replayed.failures) == (
            live.decision, live.trials, live.failures,
        )
        # Cache hits still charge the ledgered error mass.
        budget = FalsePositiveBudget(total=0.5)
        with EvaluationLedger(path, seed=5, scope="s") as ledger:
            evaluator.evaluate(candidate, ledger=ledger, budget=budget, **kwargs)
        assert budget.spent == pytest.approx(0.04)

    def test_other_scopes_and_torn_tails_are_ignored(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with EvaluationLedger(path, seed=5, scope="a") as ledger:
            ledger.record("k", {"engine": "fast", "decision": "accept",
                                "trials": 4, "failures": 4})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "seed": 5, "scope": "a", "key": "torn"')
        with EvaluationLedger(path, seed=5, scope="b") as ledger:
            assert ledger.get("k") is None
        with EvaluationLedger(path, seed=6, scope="a") as ledger:
            assert ledger.get("k") is None
        with EvaluationLedger(path, seed=5, scope="a") as ledger:
            assert ledger.get("k") is not None
            assert ledger.get("torn") is None

    def test_ledger_rejects_unseeded_runs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EvaluationLedger(tmp_path / "ledger.jsonl", seed=None, scope="s")

    def test_resume_changes_no_certified_values(self, tmp_path):
        """A truncated checkpoint replays to the identical frontier."""
        path = tmp_path / "search.jsonl"
        budgets = {"byzantine": [0.15]}
        kwargs = dict(
            assumed_delta=0.2, budgets=budgets, seed=42, settings=QUICK,
        )
        first = run_search("sf", SF_CONFIG, checkpoint=path, **kwargs)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) > 2
        # Drop the tail (simulating a killed search) and resume.
        path.write_text(
            "\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8"
        )
        resumed = run_search("sf", SF_CONFIG, checkpoint=path, **kwargs)
        assert resumed.to_dict() == first.to_dict()


class TestSearch:
    def test_planted_bad_candidate_is_rediscovered(self):
        space = FaultConfigSpace("sf", 0.2, families=("byzantine",),
                                 max_fraction=0.3)
        evaluator = CandidateEvaluator(space, SF_CONFIG)
        planted = AdversaryConfig(
            family="byzantine", fraction=0.15, mode="fixed", symbol=0
        )
        worst = search_worst_case(
            space, evaluator, family="byzantine", budget_value=0.15,
            seed=1234, settings=QUICK, extra_candidates=[planted],
        )
        assert worst.certified_lower_bound >= 0.5
        assert worst.candidate.budget(0.2) == pytest.approx(0.15)

    def test_budget_mismatch_rejected(self):
        space = FaultConfigSpace("sf", 0.2, families=("byzantine",),
                                 max_fraction=0.3)
        evaluator = CandidateEvaluator(space, SF_CONFIG)
        off_budget = AdversaryConfig(
            family="byzantine", fraction=0.3, mode="fixed", symbol=0
        )
        with pytest.raises(ConfigurationError, match="budget"):
            search_worst_case(
                space, evaluator, family="byzantine", budget_value=0.15,
                seed=0, settings=QUICK, extra_candidates=[off_budget],
            )
        wrong_family = AdversaryConfig(
            family="misspec", mode="uniform", true_delta=0.275
        )
        with pytest.raises(ConfigurationError, match="family"):
            search_worst_case(
                space, evaluator, family="byzantine", budget_value=0.15,
                seed=0, settings=QUICK, extra_candidates=[wrong_family],
            )

    def test_same_seed_same_frontier(self):
        budgets = {"byzantine": [0.15], "misspec": [0.02]}
        kwargs = dict(
            assumed_delta=0.2, budgets=budgets, seed=9, settings=QUICK,
        )
        first = run_search("sf", SF_CONFIG, **kwargs)
        second = run_search("sf", SF_CONFIG, **kwargs)
        assert first.to_dict() == second.to_dict()

    def test_frontier_structure_and_error_accounting(self):
        budgets = {"misspec": [0.02]}
        frontier = run_search(
            "sf", SF_CONFIG, assumed_delta=0.2, budgets=budgets, seed=3,
            settings=QUICK,
        )
        assert frontier.converged
        assert len(frontier.points) == 1
        point = frontier.points[0]
        assert point.engine == "count"  # agent-blind fast path
        assert point.confidence == pytest.approx(1.0 - QUICK.cert_alpha)
        assert 0.0 < frontier.error_spent <= frontier.error_total
        assert frontier.rounds_executed >= point.trials
        worst = frontier.worst("misspec")
        assert worst is point
        assert frontier.worst("crash") is None


class TestFrontierRecord:
    def test_report_round_trip(self):
        frontier = run_search(
            "sf", SF_CONFIG, assumed_delta=0.2,
            budgets={"byzantine": [0.15]}, seed=21, settings=QUICK,
        )
        payload = json.loads(json.dumps(frontier.to_dict()))
        restored = CertifiedFrontier.from_dict(payload)
        assert restored.to_dict() == frontier.to_dict()
        assert restored.points[0].config == frontier.points[0].config
        rows = restored.rows()
        assert rows[0]["family"] == "byzantine"
        assert rows[0]["budget"] == pytest.approx(0.15)
