"""Vectorized Source Filter engine.

Exploits two exactness facts to simulate whole phases at once:

* Within Phase 0 (resp. Phase 1, resp. one boosting sub-phase) the
  displayed messages never change, so each agent's per-phase tally of
  observed symbols is ``Binomial(rounds * h, q)`` with ``q`` the
  probability that one noisy look shows the counted symbol — the exact
  model distribution, independent across agents (exchangeability).
* Weak opinions depend only on the agent's own samples, noise and coin
  (Lemma 28), so they may be drawn i.i.d.

One kernel writes this law over one row of ``n`` opinions.  It is
parameterised by the *observation law* that maps the displays in force
to ``q``:

* uniform sampling: ``q = delta + (k/n)(1-2delta)``
  (:func:`~repro.noise.uniform_observation`) with ``k`` the number of
  agents displaying the counted symbol;
* a fault model: ``k`` counts the samplable agents after the model's
  display transform, at the model's effective ``delta``;
* a static graph: ``k/n`` becomes each agent's ``k_i/deg_i`` over its
  neighbourhood.

:meth:`FastSourceFilter.run` is the kernel's one call; independent
trials are independent calls, each on its own generator
(:func:`repro.analysis.run_trials`).  The cost is
``O(n * num_subphases)`` regardless of ``h`` or the round count, making
the paper's whole ``(n, h, delta, s)`` evaluation grid laptop-feasible.
Statistical equivalence with the agent-level implementation is enforced
by ``tests/test_cross_validation.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..faults.base import validate_sample_loss
from ..model.config import PopulationConfig
from ..noise import NoiseMatrix, uniform_level, uniform_observation
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, seed_of
from .parameters import SFSchedule
from .ssf import majority_with_ties


@dataclasses.dataclass
class SFRunResult(RunReport):
    """Outcome of one fast-SF execution.

    Attributes
    ----------
    converged:
        All agents ended on the correct opinion.
    total_rounds:
        Rounds the schedule occupies (SF has a fixed horizon).
    weak_opinions:
        Weak opinion vector committed at the end of Phase 1.
    weak_fraction_correct:
        Fraction of weak opinions equal to the correct opinion.
    final_opinions:
        Opinions after the final boosting sub-phase.
    boost_trace:
        Fraction of correct opinions after each boosting sub-phase
        (including the final one).
    """

    _rounds_attr = "total_rounds"

    converged: bool
    total_rounds: int
    weak_opinions: np.ndarray
    weak_fraction_correct: float
    final_opinions: np.ndarray
    boost_trace: List[float]
    seed: Optional[int] = None


#: ``observe(displays, round_index, symbol)``: the probability that one
#: noisy look of each agent shows ``symbol`` while the ``(n,)`` array
#: ``displays`` is in force — a float when every agent samples the same
#: pool, an ``(n,)`` array on a graph.
Observer = Callable[[np.ndarray, int, int], Union[float, np.ndarray]]


class FastSourceFilter:
    """Phase-at-a-time SF simulator under uniform binary noise.

    Parameters
    ----------
    config:
        Population parameters (``n``, sources, ``h``).
    noise:
        Uniform noise level ``delta`` (float) or a uniform 2x2
        :class:`NoiseMatrix`.  For non-uniform physical noise, apply
        :func:`repro.noise.noise_reduction` first and pass
        ``reduction.delta_prime``.
    schedule:
        Optional pre-built :class:`SFSchedule`; by default Eq. (19) with
        the calibrated constant.
    fault_model:
        Optional :class:`~repro.faults.FaultModel`.  ``None`` or a null
        model keeps uniform sampling (bit-identical either way);
        otherwise the observation law counts symbols over the model's
        samplable agents after its display transform, at its effective
        noise level.  The exactness argument needs displays constant
        within a phase and one uniform channel, so
        :func:`repro.engines.admit_seams` refuses randomized, scheduled
        and non-uniform-channel faults — use
        :class:`~repro.model.PullEngine` for those.  A uniform
        :class:`~repro.faults.NoiseMisspecification` makes the schedule
        derive from the assumed ``noise`` while the dynamics run at the
        true level.
    topology:
        Optional topology spec (:func:`~repro.topology.create_topology`).
        ``None``/complete keeps uniform sampling (bit-identical); on a
        static graph each agent's observation law uses the number of its
        *neighbours* displaying the symbol over its degree.  The engine
        is positional: agents ``0..s0-1`` are the 0-preferring sources
        and ``s0..s-1`` the 1-preferring ones, on whatever graph nodes
        carry those labels (random families label nodes randomly, so
        this is a uniformly random placement).  A string/unbound spec
        realizes a fresh graph from the run generator every run; a
        pre-bound sampler pins one quenched graph across runs.  Dynamic
        (churn) topologies and graph+fault combinations fail the gate.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: Optional[SFSchedule] = None,
        constant: Optional[float] = None,
        sample_loss: float = 0.0,
        fault_model=None,
        topology=None,
    ) -> None:
        from ..engines import admit_seams

        self.config = config
        self.delta = uniform_level(noise, 2)
        self.sample_loss = validate_sample_loss(sample_loss)
        self._fault, _ = admit_seams("fast", "sf", fault_model, topology)
        self.fault_model = fault_model
        self.topology = topology
        if schedule is None:
            schedule = SFSchedule.from_config(config, self.delta, constant)
        self.schedule = schedule

    def _graph(self):
        """The static graph sampler, or ``None`` under uniform sampling."""
        if self.topology is None:
            return None
        from ..topology import create_topology

        sampler = create_topology(self.topology)
        return None if sampler.is_uniform else sampler

    # ------------------------------------------------------------------
    # Observation laws
    # ------------------------------------------------------------------
    def _observe_uniform(
        self, displays: np.ndarray, round_index: int, symbol: int
    ) -> float:
        k = int(np.count_nonzero(displays == symbol))
        return uniform_observation(k / self.config.n, self.delta, 2)

    def _observer(self, fault, sampler, generator: np.random.Generator):
        """This run's observation law and evaluation mask.

        Binds the run's state first: a fault model resets (drawing any
        random faulty subset from ``generator``) and an unbound graph
        realizes its edges.
        """
        cfg = self.config
        if sampler is not None:
            sampler.ensure_bound(cfg.n, generator)
            degrees = sampler.degrees().astype(np.float64)

            def observe_graph(displays, round_index, symbol):
                k = sampler.neighbor_symbol_counts(displays, symbol)
                return uniform_observation(k / degrees, self.delta, 2)

            return observe_graph, None
        if fault is None:
            return self._observe_uniform, None
        from ..model.population import Population

        fault.reset(Population(cfg, shuffle=False), 2, generator)
        delta = uniform_level(fault.effective_uniform_delta(self.delta), 2)
        visible = fault.visible_agents(0)
        pool = np.arange(cfg.n) if visible is None else np.asarray(visible)
        eval_mask = fault.evaluation_mask()
        if eval_mask is not None and not eval_mask.any():
            raise ConfigurationError(
                "fault model excludes every agent from evaluation"
            )

        def observe_faulted(displays, round_index, symbol):
            shown = np.asarray(
                fault.transform_displays(round_index, displays, generator)
            )[pool]
            share = np.count_nonzero(shown == symbol) / pool.size
            return uniform_observation(share, delta, 2)

        return observe_faulted, eval_mask

    # ------------------------------------------------------------------
    # The kernel's two steps
    # ------------------------------------------------------------------
    def draw_weak_opinions(
        self,
        rng: RngLike = None,
        *,
        observe: Optional[Observer] = None,
    ) -> np.ndarray:
        """Draw the i.i.d. weak-opinion vector (end of Phase 1).

        Counter1 counts 1s while sources display preferences and
        non-sources display 0 (so ``k = s1`` under uniform sampling);
        Counter0 counts 0s while non-sources display 1 (so ``k = s0``).
        ``observe`` replaces uniform sampling (the kernel's).
        """
        generator = coerce_rng(rng)
        observe = observe or self._observe_uniform
        cfg, sched = self.config, self.schedule
        phase0 = np.zeros(cfg.n, dtype=np.int8)
        phase0[cfg.s0 : cfg.num_sources] = 1
        phase1 = np.ones_like(phase0)
        phase1[: cfg.s0] = 0
        # Fault injection (extension): each observation is independently
        # lost with probability sample_loss, so the count of counted
        # symbols among attempted samples is Binomial(samples, keep * q).
        keep = 1.0 - self.sample_loss
        q1 = keep * observe(phase0, 0, 1)
        q0 = keep * observe(phase1, sched.phase_rounds, 0)
        samples = sched.phase_rounds * sched.h
        counter1 = generator.binomial(samples, q1, size=cfg.n)
        counter0 = generator.binomial(samples, q0, size=cfg.n)
        return majority_with_ties(counter1, counter0, generator)

    def boost_step(
        self,
        opinions: np.ndarray,
        window: int,
        rng: RngLike = None,
        *,
        observe: Optional[Observer] = None,
        round_index: int = 0,
    ) -> np.ndarray:
        """One majority sub-phase: everyone displays, gathers, takes majority.

        ``observe`` replaces uniform sampling and ``round_index`` is the
        sub-phase's first round (both are the kernel's).
        """
        generator = coerce_rng(rng)
        observe = observe or self._observe_uniform
        n = self.config.n
        q = observe(opinions, round_index, 1)
        if self.sample_loss > 0.0:
            # Lost observations shrink each agent's window; the majority
            # is over the messages actually received.
            window = generator.binomial(window, 1.0 - self.sample_loss, size=n)
        counts = generator.binomial(window, q, size=n)
        return majority_with_ties(2 * counts, window, generator)

    # ------------------------------------------------------------------
    def run(
        self, rng: RngLike = None, telemetry: Optional[Telemetry] = None
    ) -> SFRunResult:
        """Execute one full SF run: the phase-exact law over ``n`` agents.

        ``telemetry`` (optional, RNG-neutral) receives the per-phase
        timers of Algorithm 1 — ``sf.phase01_weak`` for Phases 0/1 and
        ``sf.boosting`` for the Majority Boosting phase — plus one
        ``round`` event per boosting sub-phase, indexed by the last model
        round the sub-phase occupies.  Within a sub-phase no displayed
        message changes, so these events determine the opinion counts of
        *every* model round, not just the sampled ones.  Under a fault
        model, fractions are judged over the model's evaluation mask and
        recovery metrics are emitted as ``faults.*`` telemetry.
        """
        generator = coerce_rng(rng)
        tele = ensure_telemetry(telemetry)
        cfg, sched = self.config, self.schedule
        correct = cfg.correct_opinion
        fault, sampler = self._fault, self._graph()
        observe, eval_mask = self._observer(fault, sampler, generator)
        judged = slice(None) if eval_mask is None else eval_mask
        n_judged = cfg.n if eval_mask is None else int(np.count_nonzero(eval_mask))
        tracker = None
        if fault is not None and correct is not None:
            from ..faults.metrics import RecoveryTracker

            tracker = RecoveryTracker(fault.onset_round, fault.quasi_consensus_floor)
        phase_tags = {} if sampler is None else {"topology": sampler.kind}

        def fraction_correct(opinions: np.ndarray) -> float:
            if correct is None:
                return 0.5
            return int(np.count_nonzero(opinions[judged] == correct)) / n_judged

        def record(round_index: int, fraction: float, opinions, **tags) -> None:
            """Feed the recovery tracker and emit one ``round`` event."""
            if tracker is not None:
                tracker.observe(round_index, 1.0 - fraction)
            if tele.enabled:
                tele.round(
                    round_index, **tags,
                    num_correct=int(round(fraction * n_judged)),
                    fraction_correct=fraction, opinions=opinions,
                )

        with tele.phase(
            "sf.phase01_weak", rounds=2 * sched.phase_rounds, **phase_tags
        ):
            weak = self.draw_weak_opinions(generator, observe=observe)
        weak_fraction = fraction_correct(weak)
        if tele.enabled:
            tele.gauge("sf.weak_fraction_correct", weak_fraction)
        record(2 * sched.phase_rounds - 1, weak_fraction, weak, phase="phase1")

        opinions = weak
        trace: List[float] = []
        start = 2 * sched.phase_rounds
        with tele.phase("sf.boosting", rounds=sched.boosting_rounds, **phase_tags):
            for index, stage in enumerate(sched.stages()[2:]):
                opinions = self.boost_step(
                    opinions,
                    stage.rounds * sched.h,
                    generator,
                    observe=observe,
                    round_index=start,
                )
                start += stage.rounds
                if correct is None:
                    continue
                fraction = fraction_correct(opinions)
                trace.append(fraction)
                tags = {"subphase": index} if stage.kind == "boosting" else {}
                record(start - 1, fraction, opinions, phase=stage.kind, **tags)

        converged = correct is not None and bool(np.all(opinions[judged] == correct))
        if tele.enabled:
            tele.counter("sf.runs", 1)
            if converged:
                tele.counter("sf.converged_runs", 1)
        if tracker is not None:
            tracker.emit(tele)
        return SFRunResult(
            converged=converged,
            total_rounds=sched.total_rounds,
            weak_opinions=weak,
            weak_fraction_correct=weak_fraction,
            final_opinions=opinions,
            boost_trace=trace,
            seed=seed_of(rng),
        )
