"""Tests for protocol parameter schedules (Eq. 19, Eq. 30)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import MeanFieldEngine
from repro.exceptions import ConfigurationError
from repro.model.config import PopulationConfig
from repro.protocols import (
    BatchedSourceFilter,
    CountSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SSFSchedule,
    sf_sample_budget,
    ssf_sample_budget,
)
from repro.telemetry import MemorySink, Telemetry
from repro.types import SourceCounts
from repro.verify.strategies import population_configs


def config(n=1024, s0=0, s1=1, h=1):
    return PopulationConfig(n=n, sources=SourceCounts(s0, s1), h=h)


class TestSFSampleBudget:
    def test_positive(self):
        assert sf_sample_budget(config(), 0.2) >= 1

    def test_grows_with_n(self):
        assert sf_sample_budget(config(n=4096), 0.2) > sf_sample_budget(
            config(n=256), 0.2
        )

    def test_grows_with_delta(self):
        assert sf_sample_budget(config(), 0.4) > sf_sample_budget(config(), 0.1)

    def test_shrinks_with_bias(self):
        biased = config(n=4096, s0=0, s1=30)
        single = config(n=4096, s0=0, s1=1)
        assert sf_sample_budget(biased, 0.2) < sf_sample_budget(single, 0.2)

    def test_h_term(self):
        # Eq. (19) carries an additive h*log(n) term.
        small_h = sf_sample_budget(config(h=1), 0.2)
        large_h = sf_sample_budget(config(h=1024), 0.2)
        assert large_h - small_h >= 1000 * math.log(1024) * 0.9

    def test_constant_scales(self):
        base = sf_sample_budget(config(), 0.2, constant=1.0)
        doubled = sf_sample_budget(config(), 0.2, constant=2.0)
        assert doubled == pytest.approx(2 * base, rel=0.01)

    def test_delta_range(self):
        with pytest.raises(ConfigurationError):
            sf_sample_budget(config(), 0.5)
        with pytest.raises(ConfigurationError):
            sf_sample_budget(config(), -0.1)

    def test_zero_delta_still_positive(self):
        # Even noiseless runs need the sqrt(n)*log(n)/s samples.
        assert sf_sample_budget(config(), 0.0) > math.sqrt(1024)

    def test_min_s_squared_n_saturation(self):
        # Once s^2 >= n the noise term saturates at n in the denominator.
        wide = config(n=1024, s0=0, s1=40)
        wider = config(n=1024, s0=0, s1=50)
        noise_term = lambda c: c.n * 0.2 * math.log(c.n) / (
            min(c.bias**2, c.n) * (1 - 0.4) ** 2
        )
        assert noise_term(wide) == noise_term(wider)


class TestSSFSampleBudget:
    def test_positive_and_at_least_n(self):
        cfg = config(n=512)
        assert ssf_sample_budget(cfg, 0.1) >= cfg.n

    def test_grows_with_delta(self):
        assert ssf_sample_budget(config(), 0.2) > ssf_sample_budget(config(), 0.05)

    def test_independent_of_bias(self):
        # Eq. (30) has no s — SSF gives up the multi-source speedup.
        assert ssf_sample_budget(config(n=1024, s1=1), 0.1) == ssf_sample_budget(
            config(n=1024, s1=30), 0.1
        )

    def test_delta_range(self):
        with pytest.raises(ConfigurationError):
            ssf_sample_budget(config(), 0.25)


class TestSFSchedule:
    def test_phase_rounds_ceiling(self):
        sched = SFSchedule.from_config(config(h=7), 0.2, m=100)
        assert sched.phase_rounds == math.ceil(100 / 7)

    def test_boost_window_formula(self):
        sched = SFSchedule.from_config(config(), 0.2, m=100)
        assert sched.boost_window == math.ceil(100.0 / (1 - 0.4) ** 2)

    def test_num_subphases(self):
        sched = SFSchedule.from_config(config(n=1024), 0.2, m=100)
        assert sched.num_subphases == math.ceil(10 * math.log(1024))

    def test_total_rounds_composition(self):
        sched = SFSchedule.from_config(config(), 0.2, m=500)
        expected = (
            2 * sched.phase_rounds
            + sched.num_subphases * sched.subphase_rounds
            + sched.final_rounds
        )
        assert sched.total_rounds == expected

    def test_phase_of(self):
        sched = SFSchedule.from_config(config(h=1), 0.2, m=10)
        assert sched.phase_of(0) == "phase0"
        assert sched.phase_of(sched.phase_rounds) == "phase1"
        assert sched.phase_of(2 * sched.phase_rounds) == "boosting"
        assert sched.phase_of(sched.total_rounds) == "done"

    def test_phase_of_negative(self):
        sched = SFSchedule.from_config(config(), 0.2, m=10)
        with pytest.raises(ValueError):
            sched.phase_of(-1)

    def test_explicit_m_overrides(self):
        sched = SFSchedule.from_config(config(), 0.2, m=777)
        assert sched.m == 777

    def test_invalid_m(self):
        with pytest.raises(ConfigurationError):
            SFSchedule.from_config(config(), 0.2, m=0)

    @pytest.mark.parametrize("delta", [0.5, -0.1, 0.7])
    def test_explicit_m_still_checks_delta(self, delta):
        # The boosting window 100/(1-2*delta)^2 has no value at 0.5.
        with pytest.raises(ConfigurationError, match="delta"):
            SFSchedule.from_config(config(64, 0, 3, 4), delta, m=10)

    def test_lemma_31_boosting_not_longer_than_listening(self):
        """Lemma 31: L*ceil(w/h) <= ceil(m/h) once c1 is large enough.

        The lemma's proof needs c1 >= 2*2000; our calibrated default is
        far smaller, so we check the lemma at a paper-faithful constant.
        """
        for h in (1, 16, 1024):
            cfg = config(n=1024, h=h)
            sched = SFSchedule.from_config(cfg, 0.2, constant=4000.0)
            assert (
                sched.num_subphases * sched.subphase_rounds <= sched.phase_rounds
            )
            assert sched.boosting_rounds <= 2 * sched.phase_rounds


class TestSSFSchedule:
    def test_epoch_rounds(self):
        sched = SSFSchedule.from_config(config(h=7), 0.1, m=100)
        assert sched.epoch_rounds == math.ceil(100 / 7)

    def test_convergence_horizon_is_three_epochs(self):
        sched = SSFSchedule.from_config(config(h=4), 0.1, m=100)
        assert sched.convergence_horizon == 3 * sched.epoch_rounds

    def test_invalid_m(self):
        with pytest.raises(ConfigurationError):
            SSFSchedule.from_config(config(), 0.1, m=-5)


@st.composite
def sf_schedule_inputs(draw):
    """A config (either opinion correct), a noise level and any subset of
    :meth:`SFSchedule.from_config`'s knobs."""
    config = draw(population_configs(max_n=256, max_h=16))
    if draw(st.booleans()):
        config = PopulationConfig(
            n=config.n, sources=SourceCounts(config.s1, config.s0), h=config.h
        )
    delta = draw(st.floats(0.0, 0.45))
    knobs = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "m": st.integers(1, 400),
                "constant": st.floats(0.01, 4.0),
                "boost_numerator": st.floats(1.0, 200.0),
                "subphase_factor": st.floats(0.1, 10.0),
            },
        )
    )
    return config, delta, knobs


class TestStagePlan:
    @settings(max_examples=30, deadline=None)
    @given(sf_schedule_inputs())
    def test_every_reader_follows_the_plan(self, inputs):
        config, delta, knobs = inputs
        schedule = SFSchedule.from_config(config, delta, **knobs)
        stages = schedule.stages()
        assert [stage.kind for stage in stages] == (
            ["phase0", "phase1"]
            + ["boosting"] * schedule.num_subphases
            + ["boosting_final"]
        )
        assert [stage.rounds for stage in stages[:2]] == [schedule.phase_rounds] * 2
        assert stages[-1].rounds == schedule.final_rounds
        ends = list(itertools.accumulate(stage.rounds for stage in stages))
        assert ends[-1] == schedule.total_rounds
        assert list(schedule.stage_ends()) == ends

        # phase_of names the first and last round of every stage.
        for stage, start, end in zip(stages, [0] + ends, ends):
            phase = "boosting" if stage.kind == "boosting_final" else stage.kind
            assert schedule.phase_of(start) == schedule.phase_of(end - 1) == phase
        assert schedule.phase_of(ends[-1]) == "done"

        assert list(BatchedSourceFilter(schedule).stage_ends()) == ends
        # Fast SF reports the weak commit and every boosting stage end.
        sink = MemorySink()
        FastSourceFilter(config, delta, schedule=schedule).run(
            rng=0, telemetry=Telemetry([sink])
        )
        assert [e.round_index for e in sink.events_of("round")] == [
            end - 1 for end in ends[1:]
        ]
        # Count SF books one trace record per stage.
        count = CountSourceFilter(config, delta, schedule=schedule).run(
            rng=0, record_trace=True
        )
        assert [record.round_index for record in count.trace] == [
            end - 1 for end in ends
        ]
        mean_field = MeanFieldEngine(config, delta, schedule=schedule).run()
        assert len(mean_field.trace) == len(stages) - 2
