"""Unified engine registry: one construction path for every backend.

Seven simulation backends reproduce the same SF/SSF laws at different
cost/fidelity points (``repro.model``, ``repro.protocols``,
``repro.analysis.mean_field``, ``repro.net``).  Historically each caller — the CLI, the
experiment framework, ad-hoc scripts — picked constructors by hand and
re-implemented the compatibility rules (which engine speaks which
protocol, which ones compose with fault models).  This module is the
single seam:

>>> from repro.engines import create_engine, list_engines
>>> list_engines()
['async', 'batched', 'count', 'fast', 'mean-field', 'net', 'serial']
>>> handle = create_engine("fast", "sf", config, 0.2)
>>> report = handle.run(rng=0)

Every handle exposes the canonical run signature
(:class:`repro.types.EngineRunner`):

``run(max_rounds=None, *, rng=None, seed=None, telemetry=None)``

with ``max_rounds=None`` meaning the engine's own default horizon and
``rng``/``seed`` the usual alternative spellings
(:func:`repro.types.coerce_seed`).  Capability violations raise typed
errors at construction time: an unknown engine or unsupported protocol
is a :class:`~repro.exceptions.ConfigurationError`; a fault model or a
graph the engine's capability row does not admit is an
:class:`~repro.exceptions.UnsupportedFeatureError` from
:func:`admit_seams` — the gate the engines themselves call when
constructed directly, so both paths fail identically.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .exceptions import ConfigurationError, UnsupportedFeatureError
from .faults.base import FAULT_TRAITS
from .model.config import PopulationConfig
from .telemetry import Telemetry
from .types import RngLike, coerce_rng

__all__ = [
    "EngineSpec",
    "EngineHandle",
    "admit_seams",
    "create_engine",
    "engine_spec",
    "list_engines",
    "capability_table",
]


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """Declarative capabilities of one registered engine.

    ``fault_traits`` maps a protocol to the fault traits
    (:data:`repro.faults.FAULT_TRAITS`) the engine admits on it, and
    ``graph_kinds`` to the graph kinds (``"static"``, ``"dynamic"``) it
    samples from; a protocol missing from either admits none.
    ``agent_blind`` engines collapse the population to exchangeable
    counts (or the deterministic limit), so they admit no graph and no
    fault that indexes agents beyond a subset that counts can carry
    (the ``subset`` trait).
    """

    name: str
    description: str
    protocols: Tuple[str, ...]
    agent_blind: bool
    fault_traits: Mapping[str, FrozenSet[str]] = dataclasses.field(
        default_factory=dict)
    graph_kinds: Mapping[str, Tuple[str, ...]] = dataclasses.field(
        default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly capability row (used by the service /health)."""
        return {
            "name": self.name,
            "description": self.description,
            "protocols": list(self.protocols),
            "agent_blind": self.agent_blind,
            "fault_traits": {
                p: [t for t in FAULT_TRAITS if t in self.fault_traits.get(p, ())]
                for p in self.protocols
            },
            "graph_kinds": {
                p: list(self.graph_kinds.get(p, ())) for p in self.protocols
            },
        }


_EVERY_TRAIT = frozenset(FAULT_TRAITS)
#: Faults whose displays stay constant within a phase (or, given the
#: transition rounds, within a gap) and whose channel is one uniform
#: level: what the phase-exact fast engines reduce to symbol counts.
_PHASE_EXACT = frozenset(
    {"subset", "agent-indexed", "global-displays", "uniform-channel"}
)
#: What survives the count collapse: a uniform channel is a noise level,
#: whatever agent it reaches, and agents are anonymous, so a subset of
#: non-sources whose displays depend only on display counts (those of
#: the whole population included) is a count law too.
_COUNT_EXACT = frozenset({"subset", "global-displays", "uniform-channel"})
_ANY_GRAPH = ("static", "dynamic")

_REGISTRY: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="fast",
            description="vectorized per-agent SF/SSF engine (O(n) per round)",
            protocols=("sf", "ssf"),
            agent_blind=False,
            fault_traits={
                "sf": _PHASE_EXACT,
                "ssf": _PHASE_EXACT | {"scheduled"},
            },
            graph_kinds={"sf": ("static",)},
        ),
        EngineSpec(
            name="count",
            description="count-level engine, O(|Sigma|) per transition at any n",
            protocols=("sf", "ssf"),
            agent_blind=True,
            # SSF's gaps stop at transition rounds and price an epoch
            # that straddles one as the sum of its parts.
            fault_traits={"sf": _COUNT_EXACT, "ssf": _COUNT_EXACT | {"scheduled"}},
        ),
        EngineSpec(
            name="mean-field",
            description="deterministic n->infinity SF recursion",
            protocols=("sf",),
            agent_blind=True,
        ),
        EngineSpec(
            name="serial",
            description="exact agent-level PULL(h) reference engine",
            protocols=("sf", "ssf"),
            agent_blind=False,
            fault_traits={"sf": _EVERY_TRAIT, "ssf": _EVERY_TRAIT},
            graph_kinds={"sf": _ANY_GRAPH, "ssf": _ANY_GRAPH},
        ),
        EngineSpec(
            name="batched",
            description="exact agent-level engine with a vectorized replica axis",
            protocols=("sf",),
            agent_blind=False,
            fault_traits={"sf": _EVERY_TRAIT},
            graph_kinds={"sf": ("static",)},
        ),
        EngineSpec(
            name="async",
            description="random-sequential-activation engine (SSF only)",
            protocols=("ssf",),
            agent_blind=False,
            fault_traits={"ssf": _EVERY_TRAIT - {"global-displays"}},
        ),
        EngineSpec(
            name="net",
            description=(
                "localhost asyncio UDP deployment: one real peer per agent"
            ),
            protocols=("sf", "ssf"),
            agent_blind=False,
        ),
    )
}


def list_engines() -> List[str]:
    """Sorted names of every registered engine."""
    return sorted(_REGISTRY)


def engine_spec(name: str) -> EngineSpec:
    """The capability spec for ``name`` (ConfigurationError if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(list_engines())}"
        ) from None


def capability_table() -> List[Dict[str, object]]:
    """Every registered engine's capabilities as JSON-friendly rows."""
    return [_REGISTRY[name].to_dict() for name in list_engines()]


#: The alphabet each protocol displays over.
_ALPHABETS = {"sf": 2, "ssf": 4}

#: Why an engine lacking a fault trait cannot run a model carrying it.
_TRAIT_REASONS = {
    "subset": "the model owns a subset of the agents",
    "agent-indexed": "the model acts on individual agents",
    "randomized": "the engine needs deterministic displays, constant within a phase",
    "global-displays": "the engine never materializes the global display vector",
    "scheduled": "the engine draws whole phases: time-invariant fault models only",
    "uniform-channel": "the model swaps in a true channel",
    "channel": "the engine needs one uniform true channel (see misspecified_reduction)",
}
#: Where to turn instead, for engines whose refusals have one answer.
_FAULT_HINTS = {
    "net": "the net backend injects faults at the link layer instead "
    "(drop_probability=..., byzantine_fraction=... engine kwargs)",
}


def _capable(protocols, admits) -> str:
    """The engines whose row admits a seam value on ``protocols``."""
    names = sorted(
        spec.name for spec in _REGISTRY.values()
        if all(p in spec.protocols and admits(spec, p) for p in protocols)
    )
    return ", ".join(names) or "none"


def admit_seams(
    engine: str,
    protocol: Optional[str] = None,
    fault_model=None,
    topology=None,
    *,
    alphabet_size: Optional[int] = None,
):
    """The one gate for an engine's two seams: fault model and topology.

    A null fault model and the complete graph count as absent.  A graph
    must be of a kind ``engine``'s row lists for ``protocol`` (``None``:
    any protocol of the row, for engine cores handed a protocol object)
    and never composes with a non-null fault model; a fault model must
    carry only fault traits the row lists and act on ``alphabet_size``
    symbols (default: the protocol's).  Nothing is bound or drawn.

    Returns ``(fault_model, topology)``, the absent ones ``None``.
    Raises :class:`~repro.exceptions.UnsupportedFeatureError` for what
    the row does not admit, :class:`~repro.exceptions.ConfigurationError`
    for a channel of the wrong alphabet.
    """
    spec = engine_spec(engine)
    protocols = spec.protocols if protocol is None else (protocol,)
    where = f"protocol {'/'.join(map(repr, protocols))}"
    blind = f"engine {engine!r} " + (
        "is agent-blind (it tracks symbol counts, not agents) and "
        if spec.agent_blind else ""
    )
    fault = None if fault_model is None or fault_model.is_null else fault_model
    if topology is not None:
        from .topology import create_topology

        sampler = create_topology(topology)
        kind = "dynamic" if sampler.dynamic else "static"
        if sampler.is_uniform:
            topology = None
        elif not any(kind in spec.graph_kinds.get(p, ()) for p in protocols):
            capable = _capable(
                protocols, lambda other, p: kind in other.graph_kinds.get(p, ())
            )
            raise UnsupportedFeatureError(
                f"{blind}does not sample from a {kind} graph topology "
                f"({sampler.kind!r}) for {where}; engines that do: {capable}"
            )
        elif fault is not None:
            raise UnsupportedFeatureError(
                "graph topologies do not compose with fault models (the "
                "fault seam reasons about the globally-sampled population); "
                "pass a graph or a fault model, not both"
            )
    if fault is not None:
        traits = fault.traits
        admitted = frozenset().union(*(spec.fault_traits.get(p, ()) for p in protocols))
        refused = [trait for trait in FAULT_TRAITS if trait in traits - admitted]
        if refused:
            capable = _capable(
                protocols,
                lambda other, p: traits <= other.fault_traits.get(p, frozenset()),
            )
            reasons = "; ".join(_TRAIT_REASONS[trait] for trait in refused)
            hint = _FAULT_HINTS.get(engine)
            raise UnsupportedFeatureError(
                f"{blind}does not admit {', '.join(refused)} fault models "
                f"({type(fault).__name__}) for {where}: {reasons}"
                + (f"; {hint}" if hint else "")
                + f"; engines that admit this model: {capable}"
            )
        size = alphabet_size if alphabet_size is not None else _ALPHABETS.get(protocol)
        if size is not None:
            fault.check_alphabet(size)
    return fault, topology


def create_engine(
    name: str,
    protocol: str,
    config: PopulationConfig,
    noise,
    *,
    schedule=None,
    constant: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    fault_model=None,
    **engine_kwargs,
) -> "EngineHandle":
    """Build a run handle for engine ``name`` speaking ``protocol``.

    ``noise`` is a uniform noise level (float) or a
    :class:`~repro.noise.NoiseMatrix` over the protocol's alphabet.
    ``schedule``/``constant`` override the paper-default SF/SSF
    schedules; extra keyword arguments flow to the underlying
    constructor (e.g. ``sample_loss`` for the fast engines, ``handoff``
    for the count engines).  ``telemetry`` becomes the handle's default
    recorder; ``run(telemetry=...)`` overrides it per call.

    ``fault_model`` and ``topology`` (an engine kwarg) are the engine's
    seams, admitted or refused by :func:`admit_seams` against the
    capability row (see ``fault_traits`` and ``graph_kinds`` in
    :func:`capability_table`).  ``topology`` restricts PULL(h) samples
    to graph neighbors; any spec :func:`repro.topology.create_topology`
    accepts works.  ``None`` and the complete graph are dropped up front
    (every engine *is* the complete-graph sampler), keeping
    ``topology="complete"`` bit-identical to no topology on every
    backend.

    Raises :class:`~repro.exceptions.ConfigurationError` for unknown
    engines or unsupported protocols and
    :class:`~repro.exceptions.UnsupportedFeatureError` for a seam value
    the engine's row does not admit.
    """
    spec = engine_spec(name)
    if protocol not in spec.protocols:
        raise ConfigurationError(
            f"engine {name!r} supports protocol(s) "
            f"{', '.join(spec.protocols)}; got {protocol!r}"
        )
    _, topology = admit_seams(
        name, protocol, fault_model, engine_kwargs.pop("topology", None)
    )
    if name == "net":
        _validate_net_kwargs(config, engine_kwargs)
    return EngineHandle(
        spec=spec,
        protocol=protocol,
        config=config,
        noise=noise,
        schedule=schedule,
        constant=constant,
        telemetry=telemetry,
        fault_model=fault_model,
        engine_kwargs=engine_kwargs,
        topology=topology,
    )


#: Engine kwargs the net backend understands; anything else is a typed
#: capability error at construction time (the networked runtime cannot
#: honor simulation-only knobs like the count engines' ``handoff``).
_NET_KWARGS = frozenset(
    {
        "drop_probability",
        "byzantine_fraction",
        "host",
        "round_timeout",
        "retry_interval",
        "max_retries",
    }
)


def _validate_net_kwargs(config: PopulationConfig, engine_kwargs) -> None:
    """Typed construction-time checks for the net backend.

    The cluster constructor re-validates (direct construction fails
    identically), but the registry checks up front so a handle is never
    built for a run that cannot boot.
    """
    from .net import NET_MAX_PEERS

    if config.n > NET_MAX_PEERS:
        raise UnsupportedFeatureError(
            f"engine 'net' launches one localhost UDP peer per agent and "
            f"is capped at NET_MAX_PEERS={NET_MAX_PEERS}; n={config.n} "
            f"needs an in-process engine"
        )
    unknown = sorted(set(engine_kwargs) - _NET_KWARGS)
    if unknown:
        raise UnsupportedFeatureError(
            f"engine 'net' does not accept engine kwarg(s) "
            f"{', '.join(map(repr, unknown))}; supported: "
            f"{', '.join(sorted(_NET_KWARGS))}"
        )


class EngineHandle:
    """A picklable, uniformly-callable wrapper around one engine.

    Construct via :func:`create_engine`.  The handle builds stateless
    backends (fast/count/mean-field) eagerly and exposes the underlying
    runner's attributes (``schedule``, ``run_batch``,
    ``draw_weak_opinions``, ...) by delegation, so experiment code that
    used the constructors directly keeps working through the registry.
    Agent-level backends (serial/batched/async) and the networked
    backend (net) build their population and protocol per :meth:`run`
    call from the run's RNG.
    """

    def __init__(
        self,
        spec: EngineSpec,
        protocol: str,
        config: PopulationConfig,
        noise,
        schedule=None,
        constant: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
        fault_model=None,
        engine_kwargs: Optional[dict] = None,
        topology=None,
    ) -> None:
        self.spec = spec
        self.protocol = protocol
        self.config = config
        self.noise = noise
        self.constant = constant
        self.telemetry = telemetry
        self.fault_model = fault_model
        self.topology = topology
        self.engine_kwargs = dict(engine_kwargs or {})
        self._runner = self._build_runner(schedule)
        self._schedule = schedule

    @property
    def name(self) -> str:
        """Registered engine name (``spec.name``)."""
        return self.spec.name

    # ------------------------------------------------------------------
    def _build_runner(self, schedule):
        """Eagerly construct persistent backends; ``None`` for the
        agent-level ones that need a fresh population per run."""
        name, protocol = self.spec.name, self.protocol
        kwargs = dict(self.engine_kwargs, constant=self.constant)
        if name == "fast":
            from .protocols import (
                FastSelfStabilizingSourceFilter,
                FastSourceFilter,
            )

            cls = (
                FastSourceFilter
                if protocol == "sf"
                else FastSelfStabilizingSourceFilter
            )
            return cls(
                self.config,
                self.noise,
                schedule=schedule,
                fault_model=self.fault_model,
                topology=self.topology,
                **kwargs,
            )
        if name == "count":
            from .protocols import (
                CountSelfStabilizingSourceFilter,
                CountSourceFilter,
            )

            cls = (
                CountSourceFilter
                if protocol == "sf"
                else CountSelfStabilizingSourceFilter
            )
            return cls(
                self.config,
                self.noise,
                schedule=schedule,
                fault_model=self.fault_model,
                **kwargs,
            )
        if name == "mean-field":
            from .analysis.mean_field import MeanFieldEngine

            return MeanFieldEngine(
                self.config,
                self.noise,
                schedule=schedule,
                fault_model=self.fault_model,
                **kwargs,
            )
        # serial / batched / async build per run.
        return None

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        *,
        rng: RngLike = None,
        seed: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        **kwargs,
    ):
        """Execute one run under the canonical keyword contract.

        ``max_rounds=None`` runs the engine's default horizon; engines
        with a fixed schedule horizon (fast/count/mean-field SF) reject
        a non-``None`` override with
        :class:`~repro.exceptions.UnsupportedFeatureError` rather than
        silently ignoring it.  ``seed`` is accepted as an alternative
        spelling of an integer ``rng``.
        """
        if seed is not None:
            if rng is not None:
                raise ConfigurationError(
                    "pass either rng or seed to EngineHandle.run, not both"
                )
            rng = seed
        telemetry = telemetry if telemetry is not None else self.telemetry
        name, protocol = self.spec.name, self.protocol
        if self._runner is not None:
            if protocol == "ssf":
                return self._runner.run(
                    max_rounds=max_rounds, rng=rng, telemetry=telemetry,
                    **kwargs,
                )
            if max_rounds is not None:
                raise UnsupportedFeatureError(
                    f"engine {name!r} runs its schedule's fixed SF "
                    f"horizon; max_rounds is not configurable (got "
                    f"{max_rounds})"
                )
            return self._runner.run(rng=rng, telemetry=telemetry, **kwargs)
        if name == "serial":
            return self._run_serial(max_rounds, rng, telemetry, **kwargs)
        if name == "batched":
            return self._run_batched(max_rounds, rng, telemetry, **kwargs)
        if name == "net":
            return self._run_net(max_rounds, rng, telemetry, **kwargs)
        return self._run_async(max_rounds, rng, telemetry, **kwargs)

    # ------------------------------------------------------------------
    def _schedule_for(self, size: int):
        """The SF/SSF schedule (built from config unless provided)."""
        if self._schedule is not None:
            return self._schedule
        from .noise import uniform_level
        from .protocols import SFSchedule, SSFSchedule

        plan = SFSchedule if size == 2 else SSFSchedule
        return plan.from_config(
            self.config, uniform_level(self.noise, size), self.constant
        )

    def _noise_matrix(self, size: int):
        from .noise import NoiseMatrix

        if isinstance(self.noise, NoiseMatrix):
            return self.noise
        return NoiseMatrix.uniform(float(self.noise), size)

    def _run_serial(self, max_rounds, rng, telemetry, **kwargs):
        from .model import Population, PullEngine
        from .protocols import (
            SelfStabilizingSourceFilterProtocol,
            SourceFilterProtocol,
        )

        generator = coerce_rng(rng)
        population = Population(self.config, rng=generator)
        if self.protocol == "sf":
            schedule = self._schedule_for(2)
            protocol = SourceFilterProtocol(schedule)
            engine = PullEngine(population, self._noise_matrix(2))
            return engine.run(
                protocol,
                max_rounds=max_rounds or schedule.total_rounds,
                rng=generator,
                telemetry=telemetry,
                fault_model=self.fault_model,
                topology=self.topology,
                **kwargs,
            )
        schedule = self._schedule_for(4)
        protocol = SelfStabilizingSourceFilterProtocol(schedule)
        engine = PullEngine(population, self._noise_matrix(4))
        kwargs.setdefault("consensus_patience", 2 * schedule.epoch_rounds)
        return engine.run(
            protocol,
            max_rounds=max_rounds or 10 * schedule.epoch_rounds,
            rng=generator,
            telemetry=telemetry,
            fault_model=self.fault_model,
            topology=self.topology,
            **kwargs,
        )

    def _run_batched(self, max_rounds, rng, telemetry, **kwargs):
        from .model import BatchedPullEngine, Population
        from .protocols import BatchedSourceFilter

        generator = coerce_rng(rng)
        population = Population(self.config, rng=generator)
        schedule = self._schedule_for(2)
        engine = BatchedPullEngine(population, self._noise_matrix(2))
        replicas = kwargs.pop("replicas", None)
        results = engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=max_rounds or schedule.total_rounds,
            replicas=1 if replicas is None else replicas,
            rng=generator,
            telemetry=telemetry,
            fault_model=self.fault_model,
            topology=self.topology,
            **kwargs,
        )
        return results[0] if replicas is None else results

    def _run_async(self, max_rounds, rng, telemetry, **kwargs):
        from .model import Population
        from .model.async_engine import AsyncPullEngine
        from .protocols.ssf_async import AsyncSelfStabilizingSourceFilter

        generator = coerce_rng(rng)
        population = Population(self.config, rng=generator)
        schedule = self._schedule_for(4)
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        engine = AsyncPullEngine(population, self._noise_matrix(4))
        n = self.config.n
        rounds = max_rounds if max_rounds is not None else (
            12 * schedule.epoch_rounds
        )
        kwargs.setdefault("consensus_patience", n * schedule.epoch_rounds)
        return engine.run(
            protocol,
            max_activations=n * rounds,
            rng=generator,
            telemetry=telemetry,
            fault_model=self.fault_model,
            **kwargs,
        )

    def _run_net(self, max_rounds, rng, telemetry, **kwargs):
        from .net import ClusterRunner

        size = 2 if self.protocol == "sf" else 4
        runner = ClusterRunner(
            self.protocol,
            self.config,
            self._noise_matrix(size),
            schedule=self._schedule_for(size),
            constant=self.constant,
            **self.engine_kwargs,
        )
        return runner.run(
            max_rounds, rng=rng, telemetry=telemetry, **kwargs
        )

    # ------------------------------------------------------------------
    def __getattr__(self, attribute: str):
        """Delegate non-private attributes to the persistent runner so
        experiment code can keep touching ``schedule``, ``run_batch``,
        ``draw_weak_opinions`` etc. through the handle."""
        if attribute.startswith("_"):
            raise AttributeError(attribute)
        runner = self.__dict__.get("_runner")
        if runner is None:
            raise AttributeError(
                f"EngineHandle({self.spec.name!r}) has no attribute "
                f"{attribute!r} (agent-level engines are built per run)"
            )
        return getattr(runner, attribute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineHandle(name={self.spec.name!r}, "
            f"protocol={self.protocol!r}, n={self.config.n})"
        )
