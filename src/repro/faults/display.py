"""Display-seam faults: Byzantine, crash, and stuck-at agents.

All three faults own a subset of *non-source* agents (the adversary
contract protects sources) selected either explicitly (``agents=``) or
randomly at :meth:`~repro.faults.base.FaultModel.reset` time
(``fraction=`` / ``count=`` of the non-sources, drawn without
replacement from the engine's generator).  Only the communication layer
is faulted: displays and samplability.  Internal protocol state keeps
evolving — the engine seams deliberately cannot freeze protocol memory,
and a crashed agent that recovers re-enters with whatever state the
protocol drifted to, which is exactly the self-stabilization setting
SSF is built for.

Agents are anonymous, so a faulty subset of non-sources whose displays
depend only on display counts is exchangeable: every such fault carries
the ``subset`` trait and has a :class:`CountView`, which the count
engines run.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, ProtocolError
from ..types import RngLike
from .base import FaultModel, validate_probability

__all__ = ["ByzantineDisplayFault", "CountView", "CrashFault", "StuckAtFault"]


@dataclasses.dataclass(frozen=True)
class CountView:
    """A subset fault as display counts see it.

    ``owned`` non-sources are faulty, a number read from the config with
    no draw.  While the view is :meth:`live` they show :attr:`shows` of
    two display-count tuples, the honest agents' and their own honest
    displays, and stay in the sampling pool when ``samplable``; before
    ``live_from`` and from ``live_until`` on (a scheduled view) they
    show their own displays.  ``judged`` says whether consensus counts
    them; a view whose ``shows`` reads their own displays must be
    ``judged``.  Counts are tuples of Python ints.
    """

    owned: int
    shows: Callable[[tuple, tuple], Sequence[int]]
    samplable: bool = True
    judged: bool = False
    live_from: int = 0
    live_until: Optional[int] = None

    @property
    def scheduled(self) -> bool:
        """Whether the view is live in a window of rounds only."""
        return self.live_from > 0 or self.live_until is not None

    def live(self, round_index: int) -> bool:
        """Whether the fault rewrites displays in ``round_index``."""
        return self.live_from <= round_index and (
            self.live_until is None or round_index < self.live_until
        )

    def pool(self, honest: tuple, own: tuple) -> tuple:
        """Display counts of the samplable agents while the view is
        live, given the honest agents' counts and the owned agents' own."""
        if not self.samplable:
            return honest
        return tuple(map(operator.add, honest, self.shows(honest, own)))


_OWNS_SOURCES = (
    "fault models must not own source agents "
    "(the adversary contract protects sources)"
)


def _showing(symbol: int, owned: int, alphabet_size: int) -> tuple:
    """The display counts of ``owned`` agents showing ``symbol``."""
    return tuple(owned if s == symbol else 0 for s in range(alphabet_size))


class SubsetFault(FaultModel):
    """Shared machinery: pick and remember a faulty non-source subset.

    Exactly one of ``agents`` (explicit indices), ``fraction`` (of the
    non-sources) or ``count`` must be given.  Explicit indices are
    validated against the population at reset; they must not include
    sources.
    """

    def __init__(
        self,
        *,
        agents: Optional[Sequence[int]] = None,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
        quasi_consensus_floor: float = 0.0,
    ) -> None:
        specified = sum(x is not None for x in (agents, fraction, count))
        if specified != 1:
            raise ConfigurationError(
                "specify exactly one of agents=, fraction=, count= "
                f"(got {specified} of them)"
            )
        if fraction is not None:
            fraction = validate_probability(fraction, "fraction")
        if count is not None and count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        self._agents_spec = None if agents is None else np.asarray(agents, dtype=np.int64)
        self._fraction = fraction
        self._count = count
        self.quasi_consensus_floor = validate_probability(
            quasi_consensus_floor, "quasi_consensus_floor", inclusive_upper=True
        )
        self.agents: Optional[np.ndarray] = None

    @property
    def traits(self) -> FrozenSet[str]:
        return super().traits - {"agent-indexed"} | {"subset"}

    def _owned(self, n: int, non_sources: int) -> int:
        """How many non-sources the fault owns, with no draw."""
        if self._agents_spec is not None:
            agents = np.unique(self._agents_spec)
            if agents.size and (agents.min() < 0 or agents.max() >= n):
                raise ConfigurationError(
                    f"faulty agent indices must lie in [0, {n}), "
                    f"got {agents.min()}..{agents.max()}"
                )
            if agents.size > non_sources:
                raise ConfigurationError(_OWNS_SOURCES)
            return int(agents.size)
        if self._count is not None:
            count = self._count
        else:
            count = int(round(self._fraction * non_sources))
        if count > non_sources:
            raise ConfigurationError(
                f"cannot fault {count} agents: only "
                f"{non_sources} non-sources exist"
            )
        return count

    def _owned_in(self, config) -> int:
        """How many non-sources the fault owns on ``config``'s positional
        population, whose sources hold the first indices (the layout
        the fast engines reset on), so explicit ``agents=`` name the
        same agents on the count and fast engines."""
        sources = config.num_sources
        owned = self._owned(config.n, config.n - sources)
        spec = self._agents_spec
        if owned and spec is not None and spec.min() < sources:
            raise ConfigurationError(_OWNS_SOURCES)
        return owned

    def reset(self, population, alphabet_size: int, rng: RngLike = None) -> None:
        super().reset(population, alphabet_size, rng)
        non_sources = population.non_source_indices
        count = self._owned(population.n, non_sources.size)
        if self._agents_spec is not None:
            agents = np.unique(self._agents_spec)
            if agents.size and population.is_source[agents].any():
                raise ConfigurationError(_OWNS_SOURCES)
        else:
            if rng is None:
                raise ConfigurationError(
                    "random faulty-subset selection needs a generator; "
                    "pass explicit agents= for generator-free use"
                )
            agents = np.sort(rng.choice(non_sources, size=count, replace=False))
        self.agents = agents
        self._is_faulty = np.zeros(population.n, dtype=bool)
        self._is_faulty[agents] = True
        self._correct_opinion = population.correct_opinion

    # ------------------------------------------------------------------
    def _active(self, round_index: int) -> bool:
        """Whether the fault rewrites displays this round."""
        return True

    def _faulty_symbols(
        self,
        round_index: int,
        honest: Optional[np.ndarray],
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Symbols the ``count`` faulty agents display this round."""
        raise NotImplementedError

    def transform_displays(
        self, round_index: int, displayed: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if self.agents is None:
            raise ProtocolError(
                f"{type(self).__name__} used before reset()"
            )
        if not self._active(round_index) or self.agents.size == 0:
            return displayed
        out = np.array(displayed, copy=True)
        out[self.agents] = self._faulty_symbols(
            round_index, displayed, self.agents.size, rng
        )
        return out

    def transform_sampled_displays(
        self,
        round_index: int,
        displayed: np.ndarray,
        agent_indices: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if self.requires_global_displays:
            raise ProtocolError(
                f"{type(self).__name__} needs the global display vector; "
                "it cannot run on sampled displays (async engine)"
            )
        if not self._active(round_index) or self.agents.size == 0:
            return displayed
        mask = self._is_faulty[np.asarray(agent_indices)]
        hits = int(np.count_nonzero(mask))
        if hits == 0:
            return displayed
        out = np.array(displayed, copy=True)
        out[mask] = self._faulty_symbols(round_index, None, hits, rng)
        return out


class ByzantineDisplayFault(SubsetFault):
    """A fault-chosen subset of non-sources displays adversarially.

    Modes
    -----
    ``"fixed"``
        Every Byzantine agent displays ``symbol`` each round.  When
        ``symbol`` is omitted it defaults to the *wrong-opinion* symbol
        at reset: ``1 - correct`` on the binary alphabet, and the
        source-claiming ``SYMBOL_SOURCE_{1-correct}`` on the 4-letter
        SSF alphabet — the strongest fixed lie available.
    ``"random"``
        Fresh uniform symbols every round (babbling).  Marked
        non-deterministic, so the fast SF engine rejects it.
    ``"anti-majority"``
        Each round the Byzantine agents display the symbol opposing the
        current majority *opinion bit* of the honest displays (both
        alphabets encode the opinion in the low bit).  Needs the global
        display vector, so the async engine rejects it.

    Byzantine agents are excluded from consensus evaluation — the
    guarantees quantify over correct agents.
    """

    MODES = ("fixed", "random", "anti-majority")

    def __init__(
        self,
        *,
        agents: Optional[Sequence[int]] = None,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
        mode: str = "fixed",
        symbol: Optional[int] = None,
        quasi_consensus_floor: float = 0.0,
    ) -> None:
        super().__init__(
            agents=agents,
            fraction=fraction,
            count=count,
            quasi_consensus_floor=quasi_consensus_floor,
        )
        if mode not in self.MODES:
            raise ConfigurationError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        if mode != "fixed" and symbol is not None:
            raise ConfigurationError(
                f"symbol= only applies to mode='fixed', not {mode!r}"
            )
        self.mode = mode
        self._symbol_spec = symbol
        self.symbol: Optional[int] = None
        self.deterministic_displays = mode != "random"
        self.requires_global_displays = mode == "anti-majority"

    def _fixed_symbol(self, correct: Optional[int], alphabet_size: int) -> int:
        """The symbol of mode ``"fixed"`` on a population whose correct
        opinion is ``correct``."""
        if self._symbol_spec is not None:
            symbol = int(self._symbol_spec)
        else:
            if correct is None:
                raise ConfigurationError(
                    "the default wrong-opinion symbol is undefined for "
                    "zero-bias populations; pass symbol= explicitly"
                )
            wrong = 1 - int(correct)
            # Binary alphabet: the wrong opinion itself.  4-letter SSF
            # alphabet: claim to be a source with the wrong preference
            # (SYMBOL_SOURCE_b = 2 + b).
            symbol = wrong if alphabet_size == 2 else 2 + wrong
        if not 0 <= symbol < alphabet_size:
            raise ConfigurationError(
                f"symbol {symbol} outside the alphabet [0, {alphabet_size})"
            )
        return symbol

    @staticmethod
    def _anti_majority(counts: Sequence[int]) -> int:
        """The symbol opposing the majority opinion bit (the low bit in
        both alphabets) of the honest displays, given their counts."""
        anti = 0 if 2 * sum(counts[1::2]) >= sum(counts) else 1
        return anti if len(counts) == 2 else 2 + anti

    def reset(self, population, alphabet_size: int, rng: RngLike = None) -> None:
        super().reset(population, alphabet_size, rng)
        if self.mode == "fixed":
            self.symbol = self._fixed_symbol(population.correct_opinion, alphabet_size)

    def count_view(self, config, alphabet_size: int) -> Optional[CountView]:
        if self.mode == "random":
            return None  # fresh draws every round: not a count law
        owned = self._owned_in(config)
        if self.mode == "fixed":
            shown = _showing(
                self._fixed_symbol(config.correct_opinion, alphabet_size),
                owned, alphabet_size,
            )
            return CountView(owned, lambda honest, own: shown)
        by_symbol = [_showing(s, owned, alphabet_size) for s in range(alphabet_size)]
        return CountView(
            owned, lambda honest, own: by_symbol[self._anti_majority(honest)]
        )

    def evaluation_mask(self) -> Optional[np.ndarray]:
        if self.agents is None or self.agents.size == 0:
            return None
        return ~self._is_faulty

    def _faulty_symbols(
        self,
        round_index: int,
        honest: Optional[np.ndarray],
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if self.mode == "fixed":
            return np.full(count, self.symbol, dtype=np.int64)
        if self.mode == "random":
            return rng.integers(0, self._alphabet_size, size=count)
        # anti-majority: honest is the full pre-transform display vector
        # (transform_sampled_displays already refused above).
        counts = np.bincount(honest[~self._is_faulty], minlength=self._alphabet_size)
        return np.full(count, self._anti_majority(counts.tolist()), dtype=np.int64)


class CrashFault(SubsetFault):
    """Crash-stop / crash-recovery agents.

    From ``crash_round`` (inclusive) until ``recovery_round``
    (exclusive; ``None`` = never, i.e. crash-stop) the crashed agents
    either display a fixed ``symbol`` (``mode="symbol"``, the default —
    a stuck beacon) or disappear from the sampling pool entirely
    (``mode="exclude"``: other agents' uniform samples range over the
    survivors only).

    Crash-stop agents are excluded from consensus evaluation;
    crash-recovery agents must re-converge and stay evaluated —
    :class:`~repro.faults.metrics.RecoveryTracker` counts the rounds
    from ``onset_round`` until the wrong fraction re-enters the
    quasi-consensus floor.
    """

    MODES = ("symbol", "exclude")

    def __init__(
        self,
        *,
        agents: Optional[Sequence[int]] = None,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
        crash_round: int = 0,
        recovery_round: Optional[int] = None,
        mode: str = "symbol",
        symbol: int = 0,
        quasi_consensus_floor: float = 0.0,
    ) -> None:
        super().__init__(
            agents=agents,
            fraction=fraction,
            count=count,
            quasi_consensus_floor=quasi_consensus_floor,
        )
        if mode not in self.MODES:
            raise ConfigurationError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        if crash_round < 0:
            raise ConfigurationError(
                f"crash_round must be >= 0, got {crash_round}"
            )
        if recovery_round is not None and recovery_round <= crash_round:
            raise ConfigurationError(
                f"recovery_round ({recovery_round}) must come after "
                f"crash_round ({crash_round})"
            )
        self.mode = mode
        self.crash_round = int(crash_round)
        self.recovery_round = None if recovery_round is None else int(recovery_round)
        self.symbol = int(symbol)
        self._visible: Optional[np.ndarray] = None

    @property
    def onset_round(self) -> int:
        return self.crash_round

    def _check_symbol(self, alphabet_size: int) -> None:
        if not 0 <= self.symbol < alphabet_size:
            raise ConfigurationError(
                f"crash symbol {self.symbol} outside the alphabet "
                f"[0, {alphabet_size})"
            )

    def reset(self, population, alphabet_size: int, rng: RngLike = None) -> None:
        super().reset(population, alphabet_size, rng)
        self._check_symbol(alphabet_size)
        if self.mode == "exclude":
            survivors = np.flatnonzero(~self._is_faulty)
            if survivors.size == 0:
                raise ConfigurationError(
                    "crash mode='exclude' would empty the sampling pool"
                )
            self._visible = survivors

    def count_view(self, config, alphabet_size: int) -> CountView:
        self._check_symbol(alphabet_size)
        owned = self._owned_in(config)
        shown = _showing(self.symbol, owned, alphabet_size)
        return CountView(
            owned, lambda honest, own: shown,
            samplable=self.mode != "exclude",
            judged=self.recovery_round is not None,
            live_from=self.crash_round,
            live_until=self.recovery_round,
        )

    def _active(self, round_index: int) -> bool:
        if round_index < self.crash_round:
            return False
        return self.recovery_round is None or round_index < self.recovery_round

    def _faulty_symbols(
        self,
        round_index: int,
        honest: Optional[np.ndarray],
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return np.full(count, self.symbol, dtype=np.int64)

    def transform_displays(
        self, round_index: int, displayed: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if self.mode == "exclude":
            return displayed
        return super().transform_displays(round_index, displayed, rng)

    def transform_sampled_displays(
        self,
        round_index: int,
        displayed: np.ndarray,
        agent_indices: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if self.mode == "exclude":
            return displayed
        return super().transform_sampled_displays(
            round_index, displayed, agent_indices, rng
        )

    def visible_agents(self, round_index: int) -> Optional[np.ndarray]:
        if self.mode != "exclude" or not self._active(round_index):
            return None
        return self._visible

    def evaluation_mask(self) -> Optional[np.ndarray]:
        if self.recovery_round is not None:
            return None  # recovered agents must re-converge
        if self.agents is None or self.agents.size == 0:
            return None
        return ~self._is_faulty

    def transition_rounds(self) -> Tuple[int, ...]:
        rounds = []
        if self.crash_round > 0:
            rounds.append(self.crash_round)
        if self.recovery_round is not None:
            rounds.append(self.recovery_round)
        return tuple(rounds)


class StuckAtFault(SubsetFault):
    """Stuck-at message fault: one bit of the displayed symbol is forced.

    Models a broken display register: the affected agents' messages have
    ``bit`` forced to ``value`` every round.  Requires a power-of-two
    alphabet (both paper alphabets qualify).  Stuck agents stay in the
    evaluation mask — their *opinions* are intact, only their outgoing
    messages are corrupted, so the population must still carry them to
    consensus.
    """

    def __init__(
        self,
        *,
        agents: Optional[Sequence[int]] = None,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
        bit: int = 0,
        value: int = 1,
        quasi_consensus_floor: float = 0.0,
    ) -> None:
        super().__init__(
            agents=agents,
            fraction=fraction,
            count=count,
            quasi_consensus_floor=quasi_consensus_floor,
        )
        if bit < 0:
            raise ConfigurationError(f"bit must be >= 0, got {bit}")
        if value not in (0, 1):
            raise ConfigurationError(f"value must be 0 or 1, got {value}")
        self.bit = int(bit)
        self.value = int(value)

    def _check_bit(self, alphabet_size: int) -> None:
        if alphabet_size & (alphabet_size - 1):
            raise ConfigurationError(
                "StuckAtFault needs a power-of-two alphabet, got "
                f"|Sigma| = {alphabet_size}"
            )
        if (1 << self.bit) >= alphabet_size:
            raise ConfigurationError(
                f"bit {self.bit} outside a {alphabet_size}-symbol alphabet"
            )

    def reset(self, population, alphabet_size: int, rng: RngLike = None) -> None:
        super().reset(population, alphabet_size, rng)
        self._check_bit(alphabet_size)

    def count_view(self, config, alphabet_size: int) -> CountView:
        self._check_bit(alphabet_size)
        # Display s sticks to targets[s].
        targets = self._stick(np.arange(alphabet_size)).tolist()

        def shows(honest: tuple, own: tuple) -> List[int]:
            shown = [0] * alphabet_size
            for count, target in zip(own, targets):
                shown[target] += count
            return shown

        # Stuck agents keep their opinions, so consensus still counts them.
        return CountView(self._owned_in(config), shows, judged=True)

    def _stick(self, symbols: np.ndarray) -> np.ndarray:
        mask = 1 << self.bit
        if self.value:
            return symbols | mask
        return symbols & ~mask

    def transform_displays(
        self, round_index: int, displayed: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if self.agents is None:
            raise ProtocolError(f"{type(self).__name__} used before reset()")
        if self.agents.size == 0:
            return displayed
        stuck = self._stick(np.asarray(displayed)[self.agents])
        if np.array_equal(stuck, np.asarray(displayed)[self.agents]):
            return displayed
        out = np.array(displayed, copy=True)
        out[self.agents] = stuck
        return out

    def transform_sampled_displays(
        self,
        round_index: int,
        displayed: np.ndarray,
        agent_indices: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        mask = self._is_faulty[np.asarray(agent_indices)]
        if not mask.any():
            return displayed
        out = np.array(displayed, copy=True)
        out[mask] = self._stick(out[mask])
        return out

    def _faulty_symbols(self, round_index, honest, count, rng):  # pragma: no cover
        raise NotImplementedError("StuckAtFault rewrites in place via _stick")
