"""Candidate evaluation: SPRT-gated trials plus exact certification.

Every candidate evaluation runs through Wald's SPRT
(:func:`repro.analysis.sequential.adaptive_trials`) over the *failure*
indicator — ``accept`` means "failure probability >= p1" (the candidate
is damaging), ``reject`` means "<= p0" (benign, dropped after a handful
of trials) — and charges its error mass to the search's shared
:class:`~repro.verify.statistical.FalsePositiveBudget`.

Engine routing: candidates the count engine's capability row admits
(:func:`repro.engines.admit_seams`) evaluate on the O(1) count engines:
uniform-channel misspecifications and every exchangeable subset fault,
fixed-symbol and anti-majority Byzantine displays included.  Everything
else uses the fast phase-collapsed engines: the fast SSF engine handles
scheduled crash/recovery windows exactly, which one count draw per
epoch cannot price.

Certification is *not* sequential: the final worst candidate gets a
fixed-size fresh-seed run whose failure count yields an exact one-sided
Clopper–Pearson bound (:func:`failure_lower_bound`), so every frontier
point can later be re-checked by the same exact-binomial assertions
``repro.verify.statistical`` uses everywhere else.  On the count
engines that run is one spawn-mode ``run_batch`` call, whose replica
``i`` runs on the ``i``-th child of the seed's ``SeedSequence``: the
generator the per-trial loop gives trial ``i``.
"""

from __future__ import annotations

import dataclasses
from itertools import islice
from typing import Callable, Optional, Tuple

import numpy as np

from ..analysis.sequential import adaptive_trials
from ..engines import admit_seams
from ..exceptions import UnsupportedFeatureError
from ..model.config import PopulationConfig
from ..rng import generator_stream
from ..verify.statistical import binomial_cdf, binomial_sf
from .space import AdversaryConfig, FaultConfigSpace

__all__ = [
    "CandidateEvaluation",
    "CandidateEvaluator",
    "failure_lower_bound",
    "failure_upper_bound",
]


def failure_lower_bound(
    failures: int, trials: int, alpha: float = 1e-3
) -> float:
    """Exact one-sided lower confidence bound on a failure probability.

    The largest ``p`` such that observing ``>= failures`` out of
    ``trials`` still has probability ``>= alpha`` under ``p`` (the
    Clopper–Pearson lower limit): with confidence ``1 - alpha`` the true
    failure probability is at least the returned value.  ``failures=0``
    certifies nothing (returns ``0.0``).
    """
    if not 0 <= failures <= trials:
        raise ValueError(f"need 0 <= failures <= trials, got {failures}/{trials}")
    if failures == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if binomial_sf(failures, trials, mid) >= alpha:
            hi = mid
        else:
            lo = mid
    return lo


def failure_upper_bound(
    failures: int, trials: int, alpha: float = 1e-3
) -> float:
    """Exact one-sided upper confidence bound on a failure probability.

    The smallest ``p`` such that observing ``<= failures`` still has
    probability ``>= alpha`` under ``p``: with confidence ``1 - alpha``
    the true failure probability is at most the returned value.
    """
    if not 0 <= failures <= trials:
        raise ValueError(f"need 0 <= failures <= trials, got {failures}/{trials}")
    if failures == trials:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if binomial_cdf(failures, trials, mid) >= alpha:
            lo = mid
        else:
            hi = mid
    return hi


@dataclasses.dataclass
class CandidateEvaluation:
    """One ledgered evaluation of one candidate at one search stage."""

    key: str  # candidate digest + stage
    engine: str  # "count" (agent-blind fast path) or "fast"
    decision: Optional[str]  # SPRT accept/reject, None for cap hit / cert
    trials: int
    failures: int
    cached: bool = False  # replayed from a checkpoint ledger

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


class CandidateEvaluator:
    """Run adversary candidates against one protocol configuration.

    Parameters
    ----------
    space:
        The :class:`FaultConfigSpace` candidates come from (fixes the
        protocol and the assumed noise level).
    config:
        Population the protocol runs on.
    horizon_epochs:
        SSF evaluations run a fixed ``horizon_epochs * epoch_rounds``
        horizon with ``stop_on_consensus=False`` so adversarial *timing*
        is actually experienced (a consensus early-exit would hide
        late-scheduled crashes).  SF runs its fixed schedule horizon.
    prefer_count:
        Route candidates the count engine admits through the O(1) count
        engines (set ``False`` to force the agent-level fast engines,
        e.g. for differential testing).
    """

    def __init__(
        self,
        space: FaultConfigSpace,
        config: PopulationConfig,
        horizon_epochs: int = 10,
        prefer_count: bool = True,
    ) -> None:
        self.space = space
        self.config = config
        self.horizon_epochs = int(horizon_epochs)
        self.prefer_count = bool(prefer_count)
        self.epoch_rounds: Optional[int] = None
        if space.protocol == "ssf":
            from ..protocols import FastSelfStabilizingSourceFilter

            probe = FastSelfStabilizingSourceFilter(
                config, space.assumed_delta
            )
            self.epoch_rounds = probe.schedule.epoch_rounds

    # ------------------------------------------------------------------
    def _engine_for(self, candidate: AdversaryConfig) -> Tuple[str, object, dict]:
        """``(engine_name, protocol, run_kwargs)`` for ``candidate``: the
        count engine when its row admits the fault and ``prefer_count``
        holds, the fast engine otherwise."""
        fault = self.space.build(candidate, epoch_rounds=self.epoch_rounds)
        delta = self.space.assumed_delta
        on_count = self.prefer_count
        if on_count:
            try:
                admit_seams("count", self.space.protocol, fault)
            except UnsupportedFeatureError:
                on_count = False
        from .. import protocols

        cls = {
            ("sf", True): protocols.CountSourceFilter,
            ("sf", False): protocols.FastSourceFilter,
            ("ssf", True): protocols.CountSelfStabilizingSourceFilter,
            ("ssf", False): protocols.FastSelfStabilizingSourceFilter,
        }[self.space.protocol, on_count]
        protocol = cls(self.config, delta, fault_model=fault)
        kwargs = {}
        if self.space.protocol == "ssf":
            kwargs = {
                "max_rounds": self.horizon_epochs * protocol.schedule.epoch_rounds,
                "stop_on_consensus": False,
            }
        return ("count" if on_count else "fast"), protocol, kwargs

    def failure_runner(
        self, candidate: AdversaryConfig
    ) -> Tuple[str, Callable[[np.random.Generator], bool]]:
        """Build ``(engine_name, run_one)`` where ``run_one(rng)`` is
        ``True`` iff the run *failed* (did not converge)."""
        engine, protocol, kwargs = self._engine_for(candidate)
        return engine, lambda rng: not protocol.run(rng=rng, **kwargs).converged

    # ------------------------------------------------------------------
    def evaluate(
        self,
        candidate: AdversaryConfig,
        *,
        stage: str,
        seed: int,
        p0: float,
        p1: float,
        alpha: float,
        beta: float,
        max_trials: int,
        budget=None,
        ledger=None,
    ) -> CandidateEvaluation:
        """One SPRT-gated evaluation, replayed from ``ledger`` if cached.

        Cache hits still charge ``budget`` — the decision's error mass
        is real no matter which process ran the trials — so a resumed
        search reports identical error accounting.
        """
        key = f"{candidate.key()}/{stage}"
        label = f"adversary:{key}"
        cached = ledger.get(key) if ledger is not None else None
        if cached is not None:
            if budget is not None and cached["decision"] != "certify":
                budget.charge(alpha + beta, label)
            return CandidateEvaluation(
                key=key,
                engine=cached["engine"],
                decision=cached["decision"],
                trials=cached["trials"],
                failures=cached["failures"],
                cached=True,
            )
        engine, run_one = self.failure_runner(candidate)
        outcome = adaptive_trials(
            run_one,
            p0=p0,
            p1=p1,
            alpha=alpha,
            beta=beta,
            max_trials=max_trials,
            seed=seed,
            budget=budget,
            label=label,
        )
        evaluation = CandidateEvaluation(
            key=key,
            engine=engine,
            decision=outcome.decision,
            trials=outcome.trials,
            failures=outcome.successes,  # "success" of the SPRT = failure
        )
        if ledger is not None:
            ledger.record(
                key,
                {
                    "engine": engine,
                    "decision": outcome.decision,
                    "trials": outcome.trials,
                    "failures": outcome.successes,
                },
            )
        return evaluation

    def certify(
        self,
        candidate: AdversaryConfig,
        *,
        stage: str,
        seed: int,
        trials: int,
        alpha: float,
        budget=None,
        ledger=None,
    ) -> CandidateEvaluation:
        """Fixed-size fresh-seed certification run (decision "certify").

        The failure count feeds :func:`failure_lower_bound`; ``alpha``
        (the bound's one-sided error) is charged to ``budget``.
        """
        key = f"{candidate.key()}/{stage}"
        label = f"adversary:certify:{key}"
        cached = ledger.get(key) if ledger is not None else None
        if cached is not None:
            if budget is not None:
                budget.charge(alpha, label)
            return CandidateEvaluation(
                key=key,
                engine=cached["engine"],
                decision="certify",
                trials=cached["trials"],
                failures=cached["failures"],
                cached=True,
            )
        engine, protocol, kwargs = self._engine_for(candidate)
        if engine == "count":
            results = protocol.run_batch(trials, rng=seed, **kwargs)
        else:
            results = [
                protocol.run(rng=generator, **kwargs)
                for generator in islice(generator_stream(seed), trials)
            ]
        failures = sum(not result.converged for result in results)
        if budget is not None:
            budget.charge(alpha, label)
        if ledger is not None:
            ledger.record(
                key,
                {
                    "engine": engine,
                    "decision": "certify",
                    "trials": trials,
                    "failures": int(failures),
                },
            )
        return CandidateEvaluation(
            key=key,
            engine=engine,
            decision="certify",
            trials=trials,
            failures=int(failures),
        )
