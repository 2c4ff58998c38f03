"""Launch n localhost UDP peers and run one protocol execution.

:class:`ClusterRunner` is the networked counterpart of
:class:`repro.model.PullEngine`: it builds the shared immutable
:class:`Population` from the run seed, spawns one
:class:`~repro.net.peer.PeerNode` per agent (each bound to its own
kernel-assigned ephemeral UDP port), a
:class:`~repro.net.bootstrap.BootstrapCoordinator` for membership and
the round barrier, and turns the coordinator's per-round snapshots into
a :class:`NetRunResult` — a standard :class:`~repro.results.RunReport`,
so telemetry, JSONL serialization, and the analysis helpers all work
unchanged.

Seeding: the master seed feeds one :class:`numpy.random.SeedSequence`
which spawns the population stream, the Byzantine-selection stream, and
four independent streams per peer (protocol, sampling, noise, loss).
With ``drop_probability == 0`` a run is bit-reproducible for a fixed
seed (see :mod:`repro.net.peer`).

Everything runs in one event loop in one process — "networked" means
real datagrams through the kernel's loopback stack, not real machines.
The peer count is capped at :data:`NET_MAX_PEERS` because each peer
holds a socket and the O(n²) datagram load is paid in Python.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Dict, List, Optional, Union

import numpy as np

from ..exceptions import (
    ClusterError,
    ConfigurationError,
    UnsupportedFeatureError,
)
from ..model import Population, PopulationConfig
from ..model.engine import RoundRecord
from ..noise import NoiseMatrix
from ..protocols import SFSchedule, SSFSchedule
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, merge_rng_seed, seed_of
from .agent import NetAgent
from .bootstrap import BootstrapCoordinator
from .link import NoisyLink
from .peer import PeerNode
from .ports import open_udp_endpoint

__all__ = ["ClusterRunner", "NetRunResult", "NET_MAX_PEERS"]

#: Localhost peer cap: one UDP socket per agent plus O(n^2 * h) Python-
#: level datagram handling per run puts a practical ceiling well below
#: the simulation engines' population sizes.
NET_MAX_PEERS = 256

#: SF displays before the boosting stage come from a fixed pattern, so
#: a Byzantine peer impersonates a wrong-preference source; symbol 0
#: reads as preference 0 in both phases and as opinion 0 while boosting.
_BYZANTINE_SYMBOL = {"sf": 0, "ssf": 2}  # ssf: source-tagged wrong bit


@dataclasses.dataclass
class NetRunResult(RunReport):
    """Outcome of one networked cluster execution.

    Field names match :class:`~repro.model.SimulationResult` where the
    semantics match (``converged``, ``consensus_round``,
    ``rounds_executed``, ``final_opinions``, ``trace``, ``seed``), so
    downstream consumers treat both uniformly via the
    :class:`~repro.results.RunReport` accessors.
    """

    converged: bool
    consensus_round: Optional[int]
    rounds_executed: int
    final_opinions: np.ndarray
    trace: List[RoundRecord]
    peers: int
    datagrams: Dict[str, int]
    weak_opinions: Optional[np.ndarray] = None
    seed: Optional[int] = None


class ClusterRunner:
    """Boot a localhost cluster and execute one SF/SSF run.

    Parameters
    ----------
    protocol:
        ``"sf"`` or ``"ssf"``.
    config:
        Population parameters; ``config.n`` peers are launched.
    noise:
        Uniform noise level ``delta`` or a :class:`NoiseMatrix` of the
        protocol's alphabet size.
    schedule:
        Protocol schedule; built via ``from_config`` when omitted
        (requires a uniform/uniform-bounded noise description).
    drop_probability:
        Per-datagram loss probability on PULL traffic (recovered by
        retries; see :mod:`repro.net.link`).
    byzantine_fraction:
        Fraction of the population (rounded, non-source peers only)
        answering every PULL with an adversarially wrong symbol.
        Byzantine peers are excluded from consensus evaluation.
    round_timeout / retry_interval / max_retries:
        Liveness knobs: coordinator watchdog period, peer re-request
        cadence, and per-round retry budget.
    """

    def __init__(
        self,
        protocol: str,
        config: PopulationConfig,
        noise: Union[NoiseMatrix, float],
        *,
        schedule=None,
        constant: Optional[float] = None,
        drop_probability: float = 0.0,
        byzantine_fraction: float = 0.0,
        host: str = "127.0.0.1",
        round_timeout: float = 5.0,
        retry_interval: float = 0.05,
        max_retries: int = 200,
    ) -> None:
        if protocol not in ("sf", "ssf"):
            raise UnsupportedFeatureError(
                f"the net backend runs agent-level protocols only; "
                f"got {protocol!r}, expected 'sf' or 'ssf'"
            )
        if config.n > NET_MAX_PEERS:
            raise UnsupportedFeatureError(
                f"n={config.n} exceeds the localhost peer cap "
                f"NET_MAX_PEERS={NET_MAX_PEERS}; use an in-process engine "
                f"for larger populations"
            )
        size = 2 if protocol == "sf" else 4
        if isinstance(noise, NoiseMatrix):
            if noise.size != size:
                raise ConfigurationError(
                    f"noise matrix is {noise.size}x{noise.size} but "
                    f"protocol {protocol!r} uses {size} symbols"
                )
            self.noise = noise
        else:
            self.noise = NoiseMatrix.uniform(float(noise), size=size)
        if not 0.0 <= float(byzantine_fraction) < 1.0:
            raise ConfigurationError(
                f"byzantine_fraction must lie in [0, 1), got "
                f"{byzantine_fraction}"
            )
        self.protocol = protocol
        self.config = config
        self.byzantine_fraction = float(byzantine_fraction)
        self.drop_probability = float(drop_probability)
        self.host = host
        self.round_timeout = float(round_timeout)
        self.retry_interval = float(retry_interval)
        self.max_retries = int(max_retries)
        if schedule is None:
            delta = self.noise.uniform_delta
            plan = SFSchedule if protocol == "sf" else SSFSchedule
            schedule = plan.from_config(config, delta, constant)
        self.schedule = schedule
        # Filled by the most recent run (introspection for tests).
        self.last_ports: List[int] = []
        self._open_transports: List[asyncio.DatagramTransport] = []
        self._tasks: List[asyncio.Task] = []

    # -- public API ------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        *,
        rng: RngLike = None,
        seed: Optional[int] = None,
        stop_on_consensus: Optional[bool] = None,
        consensus_patience: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> NetRunResult:
        """Synchronous entry point: boot, run, tear down, report.

        Mirrors the engines' seeding contract: pass ``rng`` or ``seed``,
        not both.  Must not be called from inside a running event loop —
        use :meth:`run_async` there.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise ClusterError(
                "ClusterRunner.run() cannot be called from a running "
                "event loop; await ClusterRunner.run_async() instead"
            )
        return asyncio.run(
            self.run_async(
                max_rounds,
                rng=rng,
                seed=seed,
                stop_on_consensus=stop_on_consensus,
                consensus_patience=consensus_patience,
                telemetry=telemetry,
            )
        )

    async def run_async(
        self,
        max_rounds: Optional[int] = None,
        *,
        rng: RngLike = None,
        seed: Optional[int] = None,
        stop_on_consensus: Optional[bool] = None,
        consensus_patience: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> NetRunResult:
        rng = merge_rng_seed(rng, seed)
        master_seed = seed_of(rng)
        if master_seed is None:
            # Pin a master seed so every per-peer stream derives from one
            # SeedSequence even when the caller passed a live generator.
            master_seed = int(coerce_rng(rng).integers(0, 2**63 - 1))
        tele = ensure_telemetry(telemetry)
        horizon, stop_default, patience_default = self._horizon(max_rounds)
        if stop_on_consensus is None:
            stop_on_consensus = stop_default
        if consensus_patience is None:
            consensus_patience = patience_default

        sequence = np.random.SeedSequence(master_seed)
        children = sequence.spawn(2 + 4 * self.config.n)
        population = Population(
            self.config, rng=np.random.default_rng(children[0])
        )
        byzantine = self._select_byzantine(
            population, np.random.default_rng(children[1])
        )
        eval_mask = None
        if byzantine.size:
            eval_mask = np.ones(self.config.n, dtype=bool)
            eval_mask[byzantine] = False

        coordinator = BootstrapCoordinator(
            population=population,
            expected_peers=self.config.n,
            horizon=horizon,
            stop_on_consensus=stop_on_consensus,
            consensus_patience=consensus_patience,
            eval_mask=eval_mask,
        )
        self.last_ports = []
        self._open_transports = []
        self._tasks = []
        peers: List[PeerNode] = []
        timer = tele.phase("net_cluster.run") if tele.enabled else None
        if timer is not None:
            timer.__enter__()
        try:
            transport, _, port = await open_udp_endpoint(
                lambda: coordinator, self.host
            )
            coordinator.port = port
            self._open_transports.append(transport)
            self.last_ports.append(port)

            byz_set = set(int(b) for b in byzantine)
            for i in range(self.config.n):
                streams = children[2 + 4 * i : 2 + 4 * (i + 1)]
                agent = NetAgent(
                    self.protocol,
                    self.schedule,
                    population,
                    i,
                    np.random.default_rng(streams[0]),
                )
                node = PeerNode(
                    i,
                    agent,
                    NoisyLink(
                        self.noise, drop_probability=self.drop_probability
                    ),
                    sample_rng=np.random.default_rng(streams[1]),
                    noise_rng=np.random.default_rng(streams[2]),
                    link_rng=np.random.default_rng(streams[3]),
                    coordinator=(self.host, port),
                    host=self.host,
                    byzantine_symbol=(
                        self._byzantine_symbol(population, i)
                        if i in byz_set
                        else None
                    ),
                    retry_interval=self.retry_interval,
                    max_retries=self.max_retries,
                )
                peer_transport, _, peer_port = await open_udp_endpoint(
                    lambda node=node: node, self.host
                )
                node.port = peer_port
                self._open_transports.append(peer_transport)
                self.last_ports.append(peer_port)
                peers.append(node)

            for node in peers:
                task = asyncio.get_running_loop().create_task(node.run())
                task.add_done_callback(
                    lambda finished, coord=coordinator: (
                        coord.fail(finished.exception())
                        if not finished.cancelled() and finished.exception()
                        else None
                    )
                )
                self._tasks.append(task)
            for node in peers:
                node.join()

            watchdog = asyncio.get_running_loop().create_task(
                self._watchdog(coordinator)
            )
            self._tasks.append(watchdog)
            deadline = self.round_timeout * (horizon + 12)
            try:
                outcome = await asyncio.wait_for(
                    asyncio.shield(coordinator.finished), deadline
                )
            except asyncio.TimeoutError:
                raise ClusterError(
                    f"cluster missed its deadline ({deadline:.0f}s for "
                    f"{horizon} rounds); stragglers: "
                    f"{coordinator.stragglers()}"
                ) from None
            finally:
                watchdog.cancel()
        finally:
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            for transport in self._open_transports:
                transport.close()
            # Give the loop one tick to run connection_lost callbacks.
            await asyncio.sleep(0)

        datagrams: Dict[str, int] = {}
        for node in peers:
            for key, value in node.counters.items():
                datagrams[key] = datagrams.get(key, 0) + value
        datagrams["go_rebroadcasts"] = coordinator.counters["go_rebroadcasts"]

        if tele.enabled:
            for record in outcome["trace"]:
                tele.round(
                    record.round_index,
                    num_correct=record.num_correct,
                    fraction_correct=record.fraction_correct,
                )
            tele.counter("net_cluster.rounds", outcome["rounds_executed"])
            tele.counter(
                "net_cluster.datagrams_sent", datagrams["datagrams_sent"]
            )
            tele.counter("net_cluster.runs")
            if outcome["converged"]:
                tele.counter("net_cluster.converged_runs")
        if timer is not None:
            timer.__exit__(None, None, None)

        return NetRunResult(
            converged=outcome["converged"],
            consensus_round=outcome["consensus_round"],
            rounds_executed=outcome["rounds_executed"],
            final_opinions=outcome["final_opinions"],
            trace=outcome["trace"],
            peers=self.config.n,
            datagrams=datagrams,
            weak_opinions=outcome["weak_opinions"],
            seed=master_seed,
        )

    def assert_closed(self) -> None:
        """Leak check: every transport closed, every task finished.

        The pytest ``cluster`` fixture calls this at teardown so a test
        cannot leave sockets or tasks behind.
        """
        leaked_tasks = [task for task in self._tasks if not task.done()]
        leaked_transports = [
            transport
            for transport in self._open_transports
            if not transport.is_closing()
        ]
        if leaked_tasks or leaked_transports:
            raise ClusterError(
                f"cluster leaked {len(leaked_tasks)} tasks and "
                f"{len(leaked_transports)} open transports"
            )

    # -- internals -------------------------------------------------------
    def _horizon(self, max_rounds: Optional[int]):
        """(horizon, stop_on_consensus default, patience default)."""
        if self.protocol == "sf":
            # SF has a fixed horizon; the protocol raises past it.
            horizon = self.schedule.total_rounds
            if max_rounds is not None:
                horizon = min(max_rounds, horizon)
            return horizon, False, 0
        epoch = self.schedule.epoch_rounds
        horizon = max_rounds if max_rounds is not None else 10 * epoch
        return horizon, False, 2 * epoch

    def _select_byzantine(
        self, population: Population, rng: np.random.Generator
    ) -> np.ndarray:
        if self.byzantine_fraction == 0.0:
            return np.empty(0, dtype=np.int64)
        count = int(round(self.byzantine_fraction * self.config.n))
        candidates = np.flatnonzero(~population.is_source)
        if count > candidates.size:
            raise ConfigurationError(
                f"byzantine_fraction={self.byzantine_fraction} asks for "
                f"{count} Byzantine peers but only {candidates.size} "
                f"non-source agents exist"
            )
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(rng.choice(candidates, size=count, replace=False))

    def _byzantine_symbol(self, population: Population, index: int) -> int:
        correct = int(population.correct_opinion)
        if self.protocol == "sf":
            return 1 - correct
        # SSF: impersonate a source advertising the wrong preference.
        return 2 + (1 - correct)

    async def _watchdog(self, coordinator: BootstrapCoordinator) -> None:
        while not coordinator.finished.done():
            await asyncio.sleep(self.round_timeout / 2)
            coordinator.check_watchdog(self.round_timeout)
