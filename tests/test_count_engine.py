"""Tests for the count-level engine stack.

Three layers of evidence that the exchangeability collapse is faithful:

* **exact** — engine mechanics pinned with a deterministic toy protocol,
  plus a fully mean-field-gated SF run checked against the closed-form
  weak law;
* **statistical** — count vs fast conformance on the weak law and on
  end-to-end convergence rates, under one shared
  :class:`~repro.verify.FalsePositiveBudget` (the heavyweight versions
  are the ``laws`` and ``reliability`` legs of ``repro-spreading
  verify``);
* **property** — Hypothesis invariants on the count state through full
  runs (counts non-negative, conserved, traces in [0, 1]).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    MeanFieldEngine,
    MeanFieldHandoff,
    repeat_trials,
    run_trials,
)
from repro.engines import create_engine
from repro.exceptions import ConfigurationError
from repro.telemetry import MemorySink, Telemetry
from repro.theory import tails
from repro.faults import (
    ByzantineDisplayFault,
    IdentityFaultModel,
    NoiseMisspecification,
)
from repro.model import PopulationConfig
from repro.model import count_engine
from repro.model.count_engine import (
    PRICE_MEMO_CAP,
    CountProtocol,
    CountPullEngine,
)
from repro.noise import NoiseMatrix
from repro.protocols import (
    CountSelfStabilizingSourceFilter,
    CountSourceFilter,
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
)
from repro.rng import spawn_generators
from repro.types import SourceCounts
from repro.verify import FalsePositiveBudget, assert_proportions_close
from repro.verify.strategies import population_configs

#: Shared across every statistical assertion in this module so the
#: family-wise false-positive probability stays below one in a thousand.
BUDGET = FalsePositiveBudget(total=1e-3)


# ----------------------------------------------------------------------
# Deterministic toy protocol: pins the engine mechanics exactly.
# ----------------------------------------------------------------------
class _Ramp(CountProtocol):
    """1-count climbs by ``step`` per gap — no randomness anywhere."""

    alphabet_size = 2

    def __init__(self, n: int, step: int, gap: int = 2):
        self.n = n
        self.step = step
        self._gap = gap
        self.ones = 0

    def reset(self, rng):
        self.ones = 0

    def display_counts(self):
        return np.array([self.n - self.ones, self.ones], dtype=np.int64)

    def gap(self, round_index):
        return self._gap

    def advance(self, round_index, gap, q, rng):
        self.ones = min(self.n, self.ones + self.step)

    def opinion_counts(self):
        return np.array([self.n - self.ones, self.ones], dtype=np.int64)


def _toy_config(n: int = 10) -> PopulationConfig:
    return PopulationConfig(n=n, sources=SourceCounts(0, 2), h=2)


class TestCountPullEngineMechanics:
    def test_ramp_consensus_tracking(self):
        config = _toy_config()
        engine = CountPullEngine(config, 0.1)
        result = engine.run(
            _Ramp(10, step=4),
            max_rounds=20,
            stop_on_consensus=True,
            consensus_patience=4,
            record_trace=True,
        )
        # ones: 4 @ t=2, 8 @ t=4, 10 @ t=6 — consensus from round 5,
        # patience 4 satisfied at round 9 (t = 10).
        assert result.converged
        assert result.consensus_round == 5
        assert result.rounds_executed == 10
        assert result.final_opinion_counts.tolist() == [0, 10]
        assert [r.round_index for r in result.trace] == [1, 3, 5, 7, 9]
        assert [r.fraction_correct for r in result.trace] == [
            0.4,
            0.8,
            1.0,
            1.0,
            1.0,
        ]

    def test_max_rounds_truncates_final_gap(self):
        result = CountPullEngine(_toy_config(), 0.1).run(
            _Ramp(10, step=4), max_rounds=3
        )
        assert result.rounds_executed == 3
        assert not result.converged

    def test_zero_max_rounds_runs_nothing(self):
        result = CountPullEngine(_toy_config(), 0.1).run(
            _Ramp(10, step=4), max_rounds=0
        )
        assert result.rounds_executed == 0
        assert not result.converged
        assert result.final_opinion_counts.tolist() == [10, 0]

    def test_seed_recorded(self):
        result = CountPullEngine(_toy_config(), 0.1).run(
            _Ramp(10, step=4), max_rounds=4, rng=42
        )
        assert result.seed == 42


class TestCountPullEngineValidation:
    def test_negative_max_rounds(self):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            CountPullEngine(_toy_config(), 0.1).run(
                _Ramp(10, step=4), max_rounds=-1
            )

    def test_bad_display_shape(self):
        class _BadShape(_Ramp):
            def display_counts(self):
                return np.zeros(3, dtype=np.int64)

        with pytest.raises(ConfigurationError, match="shape"):
            CountPullEngine(_toy_config(), 0.1).run(
                _BadShape(10, step=4), max_rounds=4
            )

    def test_bad_display_sum(self):
        class _BadSum(_Ramp):
            def display_counts(self):
                return np.array([5, 6], dtype=np.int64)

        with pytest.raises(ConfigurationError, match="sum"):
            CountPullEngine(_toy_config(), 0.1).run(
                _BadSum(10, step=4), max_rounds=4
            )

    def test_bad_gap(self):
        class _BadGap(_Ramp):
            def gap(self, round_index):
                return 0

        with pytest.raises(ConfigurationError, match="gap"):
            CountPullEngine(_toy_config(), 0.1).run(
                _BadGap(10, step=4), max_rounds=4
            )

    def test_noise_matrix_alphabet_mismatch(self):
        engine = CountPullEngine(_toy_config(), NoiseMatrix.uniform(0.1, 4))
        with pytest.raises(ConfigurationError, match="alphabet"):
            engine.run(_Ramp(10, step=4), max_rounds=4)

    def test_non_null_fault_model_rejected(self):
        fault = ByzantineDisplayFault(fraction=0.25, mode="random")
        with pytest.raises(ConfigurationError, match="fault"):
            CountSourceFilter(_toy_config(), 0.1, fault_model=fault)
        with pytest.raises(ConfigurationError, match="fault"):
            CountSelfStabilizingSourceFilter(
                _toy_config(), 0.05, fault_model=fault
            )

    def test_null_fault_model_accepted(self):
        null = IdentityFaultModel()
        result = CountSourceFilter(
            _toy_config(64), 0.1, fault_model=null
        ).run(rng=0)
        assert result.final_opinion_counts.sum() == 64


class TestCountRunTelemetry:
    def test_phase_recorded_when_run_fails(self):
        class _LateBadGap(_Ramp):
            """Two good gaps, then an invalid one."""

            def gap(self, round_index):
                return 2 if round_index < 4 else 0

        sink = MemorySink()
        with pytest.raises(ConfigurationError, match="gap"):
            CountPullEngine(_toy_config(), 0.1).run(
                _LateBadGap(10, step=4), max_rounds=20,
                telemetry=Telemetry([sink]),
            )
        assert sink.rounds_recorded == 2
        assert len(sink.phases["count.run"]) == 1
        assert "count.runs" not in sink.counters


# ----------------------------------------------------------------------
# Per-run pricing memo: each distinct state priced once, nothing leaks
# ----------------------------------------------------------------------
def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def _outcome(protocol, result):
    return (
        result.converged,
        result.consensus_round,
        result.rounds_executed,
        result.final_opinion_counts.tolist(),
        [(r.round_index, r.fraction_correct, r.num_correct) for r in result.trace],
        protocol.weak_count,
        list(getattr(protocol, "boost_trace", [])),
    )


class TestCountPricingMemo:
    def test_sf_prices_each_state_once(self, monkeypatch):
        # 188 stages, nearly all repeating the consensus state: an
        # unmemoized run evaluates a tail law on every one of them.  The
        # protocol binds its laws when it is built, so it is built after
        # they are wrapped.
        config = PopulationConfig(n=10**8, sources=SourceCounts(1, 3), h=16)
        laws, rows = [], []
        for law in ("majority_success_probability",
                    "binomial_vs_binomial_probability"):
            _counting(monkeypatch, tails, law, laws)
        _counting(monkeypatch, NoiseMatrix, "observation_probabilities", rows)
        protocol = CountSourceFilter(config, 0.2)
        result = protocol.run(rng=0)
        assert result.converged
        assert len(protocol._stages) == 188
        assert laws.count("binomial_vs_binomial_probability") == 1
        assert len(laws) <= 10
        assert len(rows) <= 10
        # Prices outlive the run: the next run prices only the boosting
        # states it has not seen, never Phase 0, Phase 1 or consensus.
        laws.clear()
        rows.clear()
        assert protocol.run(rng=1).converged
        assert laws.count("binomial_vs_binomial_probability") == 0
        assert len(laws) <= 6
        assert len(rows) <= 6

    def test_memos_stay_under_their_cap(self):
        # Each trial brings random boosting states: the memos fill and
        # clear rather than grow.
        config = PopulationConfig(n=10**6, sources=SourceCounts(1, 3), h=16)
        protocol = CountSourceFilter(config, 0.2)
        highest = [0, 0]
        for chunk in range(100):
            for result in protocol.run_batch(20, rng=chunk):
                assert result.converged
            highest[0] = max(highest[0], len(protocol._prices))
            highest[1] = max(highest[1], len(protocol._engine._q_by_counts))
        ssf = CountSelfStabilizingSourceFilter(
            PopulationConfig(n=256, sources=SourceCounts(0, 2), h=16), 0.05
        )
        for seed in range(200):
            ssf.run(rng=seed)
            highest[0] = max(highest[0], len(ssf._prices))
            highest[1] = max(highest[1], len(ssf._engine._q_by_counts))
        assert 0 < min(highest) and max(highest) <= PRICE_MEMO_CAP

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CountSourceFilter(
                PopulationConfig(n=10**6, sources=SourceCounts(1, 3), h=16), 0.2
            ),
            lambda: CountSelfStabilizingSourceFilter(
                PopulationConfig(n=256, sources=SourceCounts(0, 2), h=16), 0.05
            ),
        ],
        ids=["sf", "ssf"],
    )
    def test_reused_protocol_matches_fresh(self, build):
        shared = build()
        for seed in range(5):
            fresh = build()
            expected = _outcome(fresh, fresh.run(rng=seed, record_trace=True))
            got = _outcome(shared, shared.run(rng=seed, record_trace=True))
            assert got == expected

    def test_workers_match_serial_after_a_run(self):
        # The protocol crosses the process boundary holding the bound
        # tail laws and the last run's memo.
        config = PopulationConfig(n=10**6, sources=SourceCounts(1, 3), h=16)
        handle = create_engine("count", "sf", config, 0.2)
        handle.run(seed=0)
        serial = run_trials(handle, 6, seed=3)
        pooled = run_trials(handle, 6, seed=3, workers=2)
        assert (serial.trials, serial.successes, serial.values) == (
            pooled.trials, pooled.successes, pooled.values
        )

    def test_advance_sees_read_only_q(self):
        seen = []

        class _ReadOnlyCheck(_Ramp):
            def advance(self, round_index, gap, q, rng):
                assert not q.flags.writeable
                with pytest.raises(ValueError):
                    q[0] = 0.5
                seen.append(q)
                super().advance(round_index, gap, q, rng)

        CountPullEngine(_toy_config(), 0.1).run(
            _ReadOnlyCheck(10, step=4), max_rounds=12
        )
        assert len(seen) == 6
        # The consensus state repeats, so its q is the memoized array.
        assert seen[-1] is seen[-2]


# ----------------------------------------------------------------------
# Mean-field handoff gate
# ----------------------------------------------------------------------
class TestMeanFieldHandoff:
    def test_threshold(self):
        handoff = MeanFieldHandoff()
        n = 10_000  # gate half-width 8/sqrt(n) = 0.08
        assert handoff.gate_width(n) == pytest.approx(0.08)
        assert handoff.use_deterministic(0.60, n)
        assert handoff.use_deterministic(0.05, n)
        assert not handoff.use_deterministic(0.55, n)
        assert not handoff.use_deterministic(0.5, n)

    def test_custom_critical(self):
        handoff = MeanFieldHandoff(width_constant=1.0, critical=0.25)
        assert handoff.use_deterministic(0.5, 100)
        assert not handoff.use_deterministic(0.3, 100)

    def test_gate_width_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MeanFieldHandoff().gate_width(0)

    def test_zero_width_handoff_is_fully_deterministic(self):
        # width_constant = 0 approves every draw with p != 1/2, so two
        # runs with different seeds must agree bit-for-bit and the weak
        # count must equal the rounded closed-form law.
        config = PopulationConfig(n=100_000, sources=SourceCounts(0, 4), h=16)
        protocols = [
            CountSourceFilter(
                config, 0.2, handoff=MeanFieldHandoff(width_constant=0.0)
            )
            for _ in range(2)
        ]
        results = [p.run(rng=seed) for p, seed in zip(protocols, (1, 2))]
        assert (
            results[0].final_opinion_counts.tolist()
            == results[1].final_opinion_counts.tolist()
        )
        assert protocols[0].weak_count == protocols[1].weak_count
        weak_law = MeanFieldEngine(config, 0.2).run().weak_fraction_correct
        assert protocols[0].weak_count == round(config.n * weak_law)
        assert results[0].converged


# ----------------------------------------------------------------------
# Mean-field engine (the pure n -> infinity limit)
# ----------------------------------------------------------------------
class TestMeanFieldEngine:
    CONFIG = PopulationConfig(n=1_000_000, sources=SourceCounts(0, 4), h=16)

    def test_deterministic_and_rng_blind(self):
        a = MeanFieldEngine(self.CONFIG, 0.2).run(rng=123)
        b = MeanFieldEngine(self.CONFIG, 0.2).run()
        assert a == b

    def test_weak_law_matches_count_transition_exactly(self):
        mf = MeanFieldEngine(self.CONFIG, 0.2).run()
        # The count engine's first draw is the weak commit's Binomial(n, p).
        protocol = CountSourceFilter(self.CONFIG, 0.2)
        drawn = []
        draw = protocol._draw
        protocol._draw = lambda n, p, rng: drawn.append(p) or draw(n, p, rng)
        protocol.run(rng=0)
        assert abs(mf.weak_fraction_correct - drawn[0]) <= 1e-12

    def test_converges_to_fixed_point(self):
        result = MeanFieldEngine(self.CONFIG, 0.2).run()
        assert result.converged
        assert result.final_fraction_correct == 1.0
        schedule = MeanFieldEngine(self.CONFIG, 0.2).schedule
        assert len(result.trace) == schedule.num_subphases + 1
        assert all(0.0 <= f <= 1.0 for f in result.trace)
        assert result.total_rounds == schedule.total_rounds


# ----------------------------------------------------------------------
# Statistical conformance: count vs fast, one shared budget
# ----------------------------------------------------------------------
@pytest.mark.statistical
class TestCountConformance:
    def test_sf_weak_law_matches_fast(self):
        config = PopulationConfig(n=120, sources=SourceCounts(1, 4), h=6)
        delta, trials = 0.15, 20
        fast_ones = count_ones = 0
        for seed in range(trials):
            weak = FastSourceFilter(config, delta).draw_weak_opinions(
                np.random.default_rng(seed)
            )
            fast_ones += int(weak.sum())
            protocol = CountSourceFilter(config, delta)
            protocol.run(rng=np.random.default_rng(10_000 + seed))
            count_ones += protocol.weak_count
        assert_proportions_close(
            fast_ones,
            trials * config.n,
            count_ones,
            trials * config.n,
            confidence=1 - 1e-5,
            context="SF weak law, fast vs count",
            budget=BUDGET,
        )

    def test_sf_convergence_rate_matches_fast(self):
        config = PopulationConfig(n=400, sources=SourceCounts(1, 6), h=8)
        delta, seeds = 0.2, 25
        fast_ok = sum(
            FastSourceFilter(config, delta).run(rng=seed).converged
            for seed in range(seeds)
        )
        count_ok = sum(
            CountSourceFilter(config, delta)
            .run(rng=np.random.default_rng(500 + seed))
            .converged
            for seed in range(seeds)
        )
        assert_proportions_close(
            fast_ok,
            seeds,
            count_ok,
            seeds,
            confidence=1 - 1e-5,
            context="SF convergence rate, fast vs count",
            budget=BUDGET,
        )

    def test_ssf_convergence_rate_matches_fast(self):
        config = PopulationConfig(n=64, sources=SourceCounts(0, 2), h=32)
        delta, seeds = 0.05, 15
        fast_ok = sum(
            FastSelfStabilizingSourceFilter(config, delta)
            .run(rng=seed)
            .converged
            for seed in range(seeds)
        )
        count_ok = sum(
            CountSelfStabilizingSourceFilter(config, delta)
            .run(rng=np.random.default_rng(900 + seed))
            .converged
            for seed in range(seeds)
        )
        assert_proportions_close(
            fast_ok,
            seeds,
            count_ok,
            seeds,
            confidence=1 - 1e-5,
            context="SSF convergence rate, fast vs count",
            budget=BUDGET,
        )


# ----------------------------------------------------------------------
# Hypothesis property tests: count-vector invariants through full runs
# ----------------------------------------------------------------------
configs = population_configs(min_n=16, max_n=256, max_h=32, max_sources=4)


class TestCountProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        config=configs,
        delta=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sf_count_invariants(self, config, delta, seed):
        protocol = CountSourceFilter(config, delta)
        result = protocol.run(rng=seed)
        final = result.final_opinion_counts
        assert final.shape == (2,)
        assert final.min() >= 0
        assert int(final.sum()) == config.n
        assert 0 <= protocol.weak_count <= config.n
        assert result.rounds_executed == protocol.schedule.total_rounds
        assert len(protocol.boost_trace) == protocol.schedule.num_subphases + 1
        assert all(0.0 <= f <= 1.0 for f in protocol.boost_trace)
        assert result.seed == seed
        if result.converged:
            assert int(final[config.correct_opinion]) == config.n

    @settings(max_examples=10, deadline=None)
    @given(
        config=configs,
        delta=st.floats(min_value=0.0, max_value=0.2),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_ssf_count_invariants(self, config, delta, seed):
        protocol = CountSelfStabilizingSourceFilter(config, delta)
        result = protocol.run(rng=seed)
        displays = protocol.display_counts()
        assert displays.shape == (4,)
        assert displays.min() >= 0
        assert int(displays.sum()) == config.n
        assert 0 <= protocol.weak_count <= config.n - config.num_sources
        final = result.final_opinion_counts
        assert final.min() >= 0
        assert int(final.sum()) == config.n
        assert result.rounds_executed <= 20 * protocol.schedule.epoch_rounds

    @settings(max_examples=10, deadline=None)
    @given(
        config=configs,
        delta=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sf_handoff_preserves_invariants(self, config, delta, seed):
        protocol = CountSourceFilter(
            config, delta, handoff=MeanFieldHandoff()
        )
        result = protocol.run(rng=seed)
        final = result.final_opinion_counts
        assert final.min() >= 0
        assert int(final.sum()) == config.n
        assert 0 <= protocol.weak_count <= config.n


# ----------------------------------------------------------------------
# Copies: a run of certain, repeated stages replayed in one RNG call
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
     np.random.MT19937, np.random.SFC64],
)
def test_array_binomial_equals_scalar_calls(bit_generator):
    """The numpy behaviour the replay rests on: an array ``binomial``
    call draws each element with the scalar routine, in order."""

    def primed():
        rng = np.random.Generator(bit_generator(20251018))
        rng.binomial(1000, 0.3)  # fills the binomial cache with another law
        return rng

    ns = [10**8, 10**6, 48, 10**8, 0, 7, 10**6, 10**8]
    ps = [1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0]
    scalar, array = primed(), primed()
    expected = [int(scalar.binomial(n, p)) for n, p in zip(ns, ps)]
    assert array.binomial(ns, ps).tolist() == expected
    assert array.random() == scalar.random()

    scalar, array = primed(), primed()
    expected = [int(scalar.binomial(10**6, 0.37)) for _ in range(9)]
    assert array.binomial(10**6, 0.37, size=9).tolist() == expected
    assert array.random() == scalar.random()


class _OneCopySourceFilter(CountSourceFilter):
    """The stage-by-stage path: every stage advanced and drawn alone."""

    def copies(self, round_index):
        return 1


def _replays(monkeypatch, protocol):
    """The ``stages`` of each :meth:`repeat` call ``protocol`` makes."""
    calls = []
    original = protocol.repeat

    def counted(stages, rng):
        calls.append(stages)
        original(stages, rng)

    monkeypatch.setattr(protocol, "repeat", counted)
    return calls


def _books(protocol, run, seed):
    """Outcome, round events and counters of ``run(rng, telemetry)``,
    and the generator's next draw after it."""
    sink = MemorySink()
    rng = np.random.default_rng(seed)
    result = run(protocol, rng, Telemetry([sink]))
    rounds = [(e.round_index, e.tags) for e in sink.events_of("round")]
    return _outcome(protocol, result), rounds, sink.counters, rng.random()


def _full_run(protocol, rng, telemetry):
    return protocol.run(rng=rng, record_trace=True, telemetry=telemetry)


def _bare(protocol, run, seed):
    """Outcome of ``run(rng, None)`` — no trace, no telemetry, so runs of
    copies are booked in closed form — and the generator's next draw."""
    rng = np.random.default_rng(seed)
    result = run(protocol, rng, None)
    return _outcome(protocol, result), rng.random()


class TestCountCopies:
    @pytest.mark.parametrize(
        "n,sources,keywords,copied",
        [
            (48, (1, 3), {}, True),
            (10**3, (1, 3), {}, True),
            (10**6, (1, 3), {}, True),
            (10**8, (1, 3), {}, True),
            # Correct opinion 0: priced from the majority side, the
            # consensus state's p is exactly 0.0, so copies apply.
            (10**3, (3, 1), {}, True),
            (10**6, (3, 1), {"handoff": MeanFieldHandoff()}, True),
            (10**6, (1, 3), {"fault_model": NoiseMisspecification.uniform(0.25)},
             True),
        ],
        ids=["n48", "n1e3", "n1e6", "n1e8", "s0>s1", "handoff", "misspec"],
    )
    def test_replay_matches_one_copy_path(
        self, monkeypatch, n, sources, keywords, copied
    ):
        config = PopulationConfig(n=n, sources=SourceCounts(*sources), h=16)
        replay = CountSourceFilter(config, 0.2, **keywords)
        single = _OneCopySourceFilter(config, 0.2, **keywords)
        replays = _replays(monkeypatch, replay)
        for seed in range(3):
            assert _books(replay, _full_run, seed) == _books(
                single, _full_run, seed
            )
        assert bool(replays) == copied

    def test_patience_runs_out_inside_copies(self, monkeypatch):
        config = PopulationConfig(n=10**6, sources=SourceCounts(1, 3), h=16)
        replay = CountSourceFilter(config, 0.2)
        single = _OneCopySourceFilter(config, 0.2)
        replays = _replays(monkeypatch, replay)
        schedule = replay.schedule
        engine = CountPullEngine(config, 0.2)

        def run(protocol, rng, telemetry):
            return engine.run(
                protocol, max_rounds=schedule.total_rounds, rng=rng,
                stop_on_consensus=True,
                consensus_patience=5 * schedule.subphase_rounds + 1,
                record_trace=telemetry is not None, telemetry=telemetry,
            )

        for seed in range(3):
            got = _books(replay, run, seed)
            assert got == _books(single, run, seed)
            assert got[0][2] < schedule.total_rounds - schedule.final_rounds
            bare = _bare(replay, run, seed)
            assert bare == _bare(single, run, seed)
            assert bare[0][:3] == got[0][:3]
        assert replays and all(stages >= 5 for stages in replays)

    def test_max_rounds_cuts_a_run_of_copies(self, monkeypatch):
        config = PopulationConfig(n=10**6, sources=SourceCounts(1, 3), h=16)
        replay = CountSourceFilter(config, 0.2)
        single = _OneCopySourceFilter(config, 0.2)
        replays = _replays(monkeypatch, replay)
        schedule = replay.schedule
        cut = 2 * schedule.phase_rounds + 60 * schedule.subphase_rounds + 3
        engine = CountPullEngine(config, 0.2)

        def run(protocol, rng, telemetry):
            return engine.run(
                protocol, max_rounds=cut, rng=rng,
                record_trace=telemetry is not None, telemetry=telemetry,
            )

        for seed in range(3):
            got = _books(replay, run, seed)
            assert got == _books(single, run, seed)
            assert got[0][2] == cut
            assert _bare(replay, run, seed) == _bare(single, run, seed)
        assert replays

    def test_converged_run_at_1e8_makes_few_rng_calls(self, monkeypatch):
        # Stage by stage, this run makes 188 RNG calls: one per stage.
        # Either opinion's consensus prices at exactly 0 or 1.
        for sources in ((1, 3), (3, 1)):
            config = PopulationConfig(n=10**8, sources=SourceCounts(*sources), h=16)
            protocol = CountSourceFilter(config, 0.2)
            calls = []
            draw = protocol._draw

            def counted(n, p, rng, draw=draw):
                calls.append("draw")
                return draw(n, p, rng)

            monkeypatch.setattr(protocol, "_draw", counted)
            replays = _replays(monkeypatch, protocol)
            for seed in range(5):
                calls.clear()
                replays.clear()
                assert protocol.run(rng=seed).converged
                assert len(calls) + len(replays) <= 15


# ----------------------------------------------------------------------
# Replica axis: run_batch equals per-trial runs, trial for trial
# ----------------------------------------------------------------------
def _sf(n, sources=(1, 3), delta=0.2, h=16, **keywords):
    config = PopulationConfig(n=n, sources=SourceCounts(*sources), h=h)
    return lambda: CountSourceFilter(config, delta, **keywords)


def _ssf(n, s1, h, delta):
    config = PopulationConfig(n=n, sources=SourceCounts(0, s1), h=h)
    return lambda: CountSelfStabilizingSourceFilter(config, delta)


_SSF_SMALL = PopulationConfig(n=256, sources=SourceCounts(0, 2), h=16)
#: Mid-epoch, as the count_ssf golden cuts its run.
_SSF_CUT = 2 * CountSelfStabilizingSourceFilter(_SSF_SMALL, 0.05).schedule.epoch_rounds + 3

#: (build, run keywords): certify's three targets, n in {48, 10^3, 10^8},
#: correct opinion 0, replicas reaching consensus at different stages (so
#: some book copies while others advance), the handoff, misspecified
#: channels (one that fails), and SSF stopping on consensus or cut by
#: max_rounds.
_BATCH_CASES = {
    "certify-sf-n1e6": (_sf(10**6), {}),
    "certify-sf-n1e8": (_sf(10**8), {}),
    "certify-ssf-n1e6": (_ssf(10**6, 1, 10**6, 0.1), {}),
    "sf-n48": (_sf(48), {}),
    "sf-n1e3": (_sf(10**3), {}),
    "sf-s0>s1": (_sf(10**6, sources=(3, 1)), {}),
    "sf-staggered": (_sf(10**4, sources=(0, 1), delta=0.3, h=4), {}),
    "sf-handoff": (_sf(10**6, handoff=MeanFieldHandoff()), {}),
    "sf-misspec": (_sf(10**3, fault_model=NoiseMisspecification.uniform(0.3)), {}),
    "sf-misspec-fails": (
        _sf(10**3, fault_model=NoiseMisspecification.uniform(0.47)), {}),
    "ssf-stop": (_ssf(256, 2, 16, 0.05), {}),
    "ssf-cut": (_ssf(256, 2, 16, 0.05),
                {"max_rounds": _SSF_CUT, "stop_on_consensus": False}),
}


def _spawned(monkeypatch, protocol):
    """The replicas and generators ``protocol.run_batch`` makes."""
    made = {"replicas": [], "generators": []}
    replica = protocol.replica

    def counted():
        made["replicas"].append(replica())
        return made["replicas"][-1]

    spawn = count_engine.spawn_generators

    def spawned(seed, count):
        made["generators"] += spawn(seed, count)
        return made["generators"][-count:]

    monkeypatch.setattr(protocol, "replica", counted)
    monkeypatch.setattr(count_engine, "spawn_generators", spawned)
    return made


class TestCountRunBatch:
    @pytest.mark.parametrize("case", list(_BATCH_CASES))
    def test_replicas_equal_per_trial_runs(self, monkeypatch, case):
        build, keywords = _BATCH_CASES[case]
        replicas, seed = 6, 5
        protocol = build()
        made = _spawned(monkeypatch, protocol)
        results = protocol.run_batch(
            replicas, rng=seed, record_trace=True, **keywords
        )
        got = [
            (_outcome(replica, result), generator.random())
            for replica, result, generator in zip(
                made["replicas"], results, made["generators"]
            )
        ]
        expected = []
        for generator in spawn_generators(seed, replicas):
            fresh = build()
            result = fresh.run(rng=generator, record_trace=True, **keywords)
            expected.append((_outcome(fresh, result), generator.random()))
        assert len(got) == replicas
        assert got == expected
        # run_trials takes the batch path now, with the same statistics.
        monkeypatch.undo()
        batched = run_trials(protocol, replicas, seed=seed)
        runner = build()
        serial = repeat_trials(lambda g: runner.run(rng=g), replicas, seed=seed)
        assert (batched.trials, batched.successes, batched.values) == (
            serial.trials, serial.successes, serial.values
        )

    def test_cases_cover_mixed_outcomes(self):
        # Replicas that settle, fail and get cut all leave the loop, and
        # replicas reach consensus, hence copies, at different stages.
        fails = _BATCH_CASES["sf-misspec-fails"][0]().run_batch(6, rng=3)
        assert not any(result.converged for result in fails)
        stopped = _BATCH_CASES["ssf-stop"][0]().run_batch(6, rng=3)
        assert len({result.rounds_executed for result in stopped}) > 1
        staggered = _BATCH_CASES["sf-staggered"][0]().run_batch(
            6, rng=5, record_trace=True
        )
        first_full = {
            next(r.round_index for r in result.trace if r.fraction_correct == 1.0)
            for result in staggered
        }
        assert len(first_full) > 1

    @pytest.mark.parametrize("case", ["certify-sf-n1e6", "sf-s0>s1", "ssf-stop"])
    def test_one_replica_is_run(self, case):
        build, keywords = _BATCH_CASES[case]
        seed = 7

        def books(run):
            sink = MemorySink()
            protocol = build()
            result = run(protocol, Telemetry([sink]))
            rounds = [(e.round_index, e.tags) for e in sink.events_of("round")]
            return (_outcome(protocol, result), rounds, sink.counters,
                    sorted(sink.phases))

        (generator,) = spawn_generators(seed, 1)
        batch = books(lambda p, tele: p.run_batch(
            1, rng=seed, telemetry=tele, record_trace=True, **keywords)[0])
        single = books(lambda p, tele: p.run(
            rng=generator, telemetry=tele, record_trace=True, **keywords))
        assert batch == single
        assert batch[3] == ["count.run"]

    def test_batch_telemetry_counts_every_replica(self):
        sink = MemorySink()
        results = _BATCH_CASES["ssf-stop"][0]().run_batch(
            5, rng=11, telemetry=Telemetry([sink])
        )
        assert sorted(sink.phases) == ["count.run_batch{replicas=5}"]
        assert sink.counters["count.runs"] == 5
        assert sink.counters["count.rounds"] == sum(
            r.rounds_executed for r in results)
        assert sink.counters["count.converged_runs"] == sum(
            r.converged for r in results)
        replicas = {e.tags["replica"] for e in sink.events_of("round")}
        assert replicas == set(range(5))

    def test_registry_batches_count_trials(self):
        config = PopulationConfig(n=10**6, sources=SourceCounts(1, 3), h=16)
        handle = create_engine("count", "sf", config, 0.2)
        sink = MemorySink()
        stats = run_trials(handle, 4, seed=5, telemetry=Telemetry([sink]))
        assert stats.trials == 4
        assert sorted(sink.phases) == ["count.run_batch{replicas=4}"]

    def test_replicas_must_share_the_stage_clock(self):
        engine = CountPullEngine(_toy_config(), 0.1)
        with pytest.raises(ConfigurationError, match="stage clock"):
            engine.run_batch(
                [_Ramp(10, step=4, gap=2), _Ramp(10, step=4, gap=3)],
                12, spawn_generators(0, 2),
            )

    def test_replica_count_validated(self):
        with pytest.raises(ConfigurationError, match="replicas"):
            _BATCH_CASES["sf-n48"][0]().run_batch(0, rng=1)
        with pytest.raises(ConfigurationError, match="generator"):
            CountPullEngine(_toy_config(), 0.1).run_batch(
                [_Ramp(10, step=4)], 4, spawn_generators(0, 2))

    def test_batch_leaves_the_protocol_alone(self):
        protocol = _BATCH_CASES["sf-n1e3"][0]()
        protocol.run(rng=1)
        before = _outcome(protocol, protocol.run(rng=2))[5:]
        protocol.run_batch(4, rng=3)
        assert (protocol.weak_count, list(protocol.boost_trace)) == before


class TestTruncatedStage:
    """A stage that max_rounds cuts short applies no law: opinions change
    only when a stage ends, as on the agent-level engines."""

    CONFIG = PopulationConfig(n=10**4, sources=SourceCounts(0, 3), h=4)

    def _cut(self, rounds_before_phase1_ends):
        protocol = CountSourceFilter(self.CONFIG, 0.2)
        return protocol, 2 * protocol.schedule.phase_rounds - rounds_before_phase1_ends

    def test_run_cut_inside_phase1_commits_nothing(self):
        protocol, cut = self._cut(1)
        result = protocol._engine.run(protocol, max_rounds=cut, rng=0)
        assert result.rounds_executed == cut
        assert protocol.weak_count == 0
        # Cut where Phase 1 ends, the weak commit happens.
        protocol, cut = self._cut(0)
        protocol._engine.run(protocol, max_rounds=cut, rng=0)
        assert protocol.weak_count > 0

    def test_run_batch_cut_inside_phase1_commits_nothing(self):
        protocol, cut = self._cut(1)
        replicas = [protocol.replica() for _ in range(3)]
        results = protocol._engine.run_batch(
            replicas, cut, spawn_generators(0, 3)
        )
        assert [r.rounds_executed for r in results] == [cut] * 3
        assert [replica.weak_count for replica in replicas] == [0] * 3

    def test_cut_inside_boosting_keeps_opinions(self):
        protocol = CountSourceFilter(self.CONFIG, 0.2)
        schedule = protocol.schedule
        cut = 2 * schedule.phase_rounds + 3 * schedule.subphase_rounds
        engine = protocol._engine
        whole = engine.run(protocol, max_rounds=cut, rng=4)
        trace = list(protocol.boost_trace)
        cut_short = engine.run(protocol, max_rounds=cut + 1, rng=4)
        assert protocol.boost_trace == trace
        assert (cut_short.final_opinion_counts.tolist()
                == whole.final_opinion_counts.tolist())
