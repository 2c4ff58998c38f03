"""Model-layer fault models: the contract and its composition algebra.

This package injects faults *inside* the Section-1.3 model — adversarial
displays, crashed agents, a physical channel the protocol got wrong —
as opposed to :mod:`repro.analysis.resilience`, which injects faults
into the *execution* machinery (worker crashes, timeouts) and promises
bit-identical statistics.  A :class:`FaultModel` intercepts the engine
round loop at its two natural seams:

1. after ``protocol.displays(t)`` — :meth:`FaultModel.transform_displays`
   rewrites what (a subset of) agents show, and
   :meth:`FaultModel.visible_agents` restricts who can be sampled;
2. around channel corruption — :meth:`FaultModel.channel` substitutes
   the *true* physical channel for the one the protocol assumed.

The null path is sacred: engines run byte-identical code when
``fault_model is None``, and :class:`IdentityFaultModel` draws no
randomness and returns every array unchanged, so it is bit-for-bit
equivalent to no fault model (the ``exact`` verify leg enforces this on
every agent-level engine the capability table lets take a fault model).

Fault models never touch what the adversary contract of
:mod:`repro.model.adversary` protects: source roles and preferences.
Concrete subset faults select among *non-sources* only, and the
property tests in ``tests/test_properties_faults.py`` enforce the
invariant for every generated model.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..types import RngLike

__all__ = [
    "FAULT_TRAITS",
    "FaultModel",
    "IdentityFaultModel",
    "ComposedFaultModel",
    "validate_probability",
    "validate_sample_loss",
]

#: What a fault model can do to a run (:attr:`FaultModel.traits`): own a
#: subset of non-sources whose displays depend only on display counts
#: (``subset``: it has a :meth:`FaultModel.count_view`), own agents in
#: any other way (their displays, samplability or judging), draw its
#: displays afresh each round, read the whole display vector, change at
#: :meth:`FaultModel.transition_rounds`, swap in a uniform true channel,
#: or swap in any other channel.  An engine admits a model when its
#: capability row lists every trait the model carries
#: (:func:`repro.engines.admit_seams`).
FAULT_TRAITS = (
    "subset",
    "agent-indexed",
    "randomized",
    "global-displays",
    "scheduled",
    "uniform-channel",
    "channel",
)


def validate_probability(
    value: float, name: str, *, inclusive_upper: bool = False
) -> float:
    """Validate a probability-like parameter, returning it as ``float``.

    The domain is ``[0, 1)`` by default (``[0, 1]`` with
    ``inclusive_upper``); violations raise
    :class:`~repro.exceptions.ConfigurationError` so every probability
    knob in the library fails with the same error type and message
    shape.
    """
    try:
        probability = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not np.isfinite(probability):
        raise ConfigurationError(f"{name} must be finite, got {probability}")
    if inclusive_upper:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"{name} must lie in [0, 1], got {probability}"
            )
    elif not 0.0 <= probability < 1.0:
        raise ConfigurationError(
            f"{name} must lie in [0, 1), got {probability}"
        )
    return probability


def validate_sample_loss(value: float) -> float:
    """The shared ``sample_loss`` domain check: ``[0, 1)`` or
    :class:`~repro.exceptions.ConfigurationError`.

    Routed through by every protocol that supports observation loss
    (fast SF, fast SSF) so the domain and error type cannot drift apart.
    """
    return validate_probability(value, "sample_loss")


class FaultModel:
    """Base class / contract for model-layer fault injection.

    Subclasses override the seams they need; every default is a no-op,
    so the base class doubles as the identity model (but prefer
    :class:`IdentityFaultModel`, whose :attr:`is_null` flag lets the
    fast engines keep their exact phase-batched paths).

    Lifecycle: the engine calls :meth:`reset` once per run — after the
    protocol's own reset — then consults the seam methods every round.
    ``population`` is duck-typed (``n``, ``h``, ``is_source``,
    ``non_source_indices``, ``correct_opinion``); fast engines pass a
    positional facade built with ``shuffle=False``.

    Contract invariants (enforced by property tests):

    * transformed displays stay inside ``Sigma = {0..d-1}``;
    * the input display array is never mutated — a changed round returns
      a fresh array;
    * source agents' displays in the honest vector may be overwritten
      only for agents the fault owns, and faults never own sources;
    * :meth:`evaluation_mask` never excludes a source.
    """

    #: Wrong-opinion fraction at which the population counts as
    #: recovered (the EXT2 quasi-consensus floor); 0.0 demands full
    #: consensus among evaluated agents.
    quasi_consensus_floor: float = 0.0

    #: True when :meth:`transform_displays` needs the whole display
    #: vector (e.g. anti-majority Byzantine agents): the
    #: ``global-displays`` trait.
    requires_global_displays: bool = False

    #: False when the fault draws randomness per round: the
    #: ``randomized`` trait.
    deterministic_displays: bool = True

    @property
    def is_null(self) -> bool:
        """True when the model provably changes nothing (identity)."""
        return False

    @property
    def traits(self) -> FrozenSet[str]:
        """The :data:`FAULT_TRAITS` an engine must admit to run this model.

        Read from what the model declares, with no :meth:`reset` and no
        draw; a null model has none, and any other model is taken to own
        agents unless it overrides this (channel-only models do).
        """
        if self.is_null:
            return frozenset()
        traits = {"agent-indexed"}
        if not self.deterministic_displays:
            traits.add("randomized")
        if self.requires_global_displays:
            traits.add("global-displays")
        if self.transition_rounds():
            traits.add("scheduled")
        return frozenset(traits)

    def check_alphabet(self, alphabet_size: int) -> None:
        """Raise :class:`~repro.exceptions.ConfigurationError` when the
        model cannot act on a ``alphabet_size``-symbol protocol (checked
        before :meth:`reset`)."""

    def count_view(self, config, alphabet_size: int):
        """The model's faulty subset over display counts
        (:class:`~repro.faults.CountView`), or ``None`` when it owns no
        such subset.  Read from ``config`` with no :meth:`reset` and no
        draw; every ``subset`` model that draws no displays has one."""
        return None

    @property
    def onset_round(self) -> int:
        """First round the fault is active; recovery time counts from here."""
        return 0

    def reset(self, population, alphabet_size: int, rng: RngLike = None) -> None:
        """Bind to a population and (re-)resolve fault-owned agents."""
        self._n = population.n
        self._alphabet_size = int(alphabet_size)

    def transform_displays(
        self, round_index: int, displayed: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Rewrite the ``(n,)`` display vector; return it unchanged or fresh."""
        return displayed

    def transform_sampled_displays(
        self,
        round_index: int,
        displayed: np.ndarray,
        agent_indices: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Async seam: rewrite the ``h`` sampled displays of one activation.

        ``agent_indices`` identifies which agent produced each entry.
        """
        return displayed

    def visible_agents(self, round_index: int) -> Optional[np.ndarray]:
        """Indices samplable this round, or ``None`` for everyone."""
        return None

    def channel(self, round_index: int, channel):
        """The channel observations actually traverse this round."""
        return channel

    def effective_uniform_delta(self, assumed_delta: float) -> float:
        """Uniform noise level the *dynamics* see (fast-engine seam).

        Defaults to the protocol's assumed level; overridden by
        :class:`~repro.faults.misspecification.NoiseMisspecification`.
        """
        return assumed_delta

    def evaluation_mask(self) -> Optional[np.ndarray]:
        """Boolean ``(n,)`` mask of agents judged for consensus.

        ``None`` means everyone; valid only after :meth:`reset`.
        Byzantine and crash-stop agents are excluded — the paper's
        guarantees quantify over correct agents.
        """
        return None

    def transition_rounds(self) -> Tuple[int, ...]:
        """Sorted rounds ``> 0`` at which behavior changes (crash /
        recovery schedules): the ``scheduled`` trait.  Empty means
        time-invariant; the fast SSF engine caps its gap batching at the
        next transition."""
        return ()


class IdentityFaultModel(FaultModel):
    """The do-nothing fault model — bit-identical to ``fault_model=None``.

    Exists so the wiring itself can be conformance-tested: the
    ``exact`` verify leg runs every fault-capable engine with this model
    and asserts byte-identical results against the no-model run.
    """

    @property
    def is_null(self) -> bool:
        return True


class ComposedFaultModel(FaultModel):
    """Apply several fault models as one (left-to-right on displays).

    Composition semantics: display transforms chain in order; visible
    sets intersect; channels chain (each model may wrap its
    predecessor's output); evaluation masks AND together; the
    quasi-consensus floor is the max; the onset is the earliest onset of
    any non-null component; transitions are the union.
    """

    def __init__(self, models: Iterable[FaultModel]) -> None:
        self.models: List[FaultModel] = list(models)
        if not self.models:
            raise ConfigurationError(
                "ComposedFaultModel needs at least one fault model"
            )
        for model in self.models:
            if not isinstance(model, FaultModel):
                raise ConfigurationError(
                    f"expected FaultModel instances, got {type(model).__name__}"
                )

    @property
    def is_null(self) -> bool:
        return all(model.is_null for model in self.models)

    @property
    def quasi_consensus_floor(self) -> float:  # type: ignore[override]
        return max(model.quasi_consensus_floor for model in self.models)

    @property
    def requires_global_displays(self) -> bool:  # type: ignore[override]
        return any(model.requires_global_displays for model in self.models)

    @property
    def deterministic_displays(self) -> bool:  # type: ignore[override]
        return all(model.deterministic_displays for model in self.models)

    @property
    def traits(self) -> FrozenSet[str]:
        traits = frozenset().union(*(model.traits for model in self.models))
        if sum("subset" in model.traits for model in self.models) > 1:
            # Two random subsets overlap: no one count view covers them.
            traits = traits - {"subset"} | {"agent-indexed"}
        return traits

    def count_view(self, config, alphabet_size: int):
        owners = [
            model for model in self.models
            if model.traits & {"subset", "agent-indexed"}
        ]
        if len(owners) != 1:
            return None
        return owners[0].count_view(config, alphabet_size)

    def check_alphabet(self, alphabet_size: int) -> None:
        for model in self.models:
            model.check_alphabet(alphabet_size)

    @property
    def onset_round(self) -> int:
        onsets = [m.onset_round for m in self.models if not m.is_null]
        return min(onsets) if onsets else 0

    def reset(self, population, alphabet_size: int, rng: RngLike = None) -> None:
        super().reset(population, alphabet_size, rng)
        for model in self.models:
            model.reset(population, alphabet_size, rng)

    def transform_displays(
        self, round_index: int, displayed: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        for model in self.models:
            displayed = model.transform_displays(round_index, displayed, rng)
        return displayed

    def transform_sampled_displays(
        self,
        round_index: int,
        displayed: np.ndarray,
        agent_indices: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        for model in self.models:
            displayed = model.transform_sampled_displays(
                round_index, displayed, agent_indices, rng
            )
        return displayed

    def visible_agents(self, round_index: int) -> Optional[np.ndarray]:
        visible: Optional[np.ndarray] = None
        for model in self.models:
            component = model.visible_agents(round_index)
            if component is None:
                continue
            visible = (
                component
                if visible is None
                else np.intersect1d(visible, component, assume_unique=True)
            )
        if visible is not None and visible.size == 0:
            raise ConfigurationError(
                "composed fault models leave no samplable agents "
                f"at round {round_index}"
            )
        return visible

    def channel(self, round_index: int, channel):
        for model in self.models:
            channel = model.channel(round_index, channel)
        return channel

    def effective_uniform_delta(self, assumed_delta: float) -> float:
        for model in self.models:
            assumed_delta = model.effective_uniform_delta(assumed_delta)
        return assumed_delta

    def evaluation_mask(self) -> Optional[np.ndarray]:
        mask: Optional[np.ndarray] = None
        for model in self.models:
            component = model.evaluation_mask()
            if component is None:
                continue
            mask = component.copy() if mask is None else mask & component
        return mask

    def transition_rounds(self) -> Tuple[int, ...]:
        rounds = set()
        for model in self.models:
            rounds.update(model.transition_rounds())
        return tuple(sorted(rounds))

