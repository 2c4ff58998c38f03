"""Command-line interface: ``repro-spreading``.

Subcommands
-----------
``run``       simulate one SF/SSF/baseline instance and print the outcome
``sweep``     sweep ``n`` for one protocol and print a scaling table
``figure1``   print the Figure 1 series f(delta) for d in {2, 4}
``reduce``    build the Theorem 8 artificial-noise matrix for a random
              delta-upper-bounded channel and print the pieces
``regime``    classify an instance per Section 2.3 (which analysis regime,
              which Eq. 19 term dominates, is the lower bound informative)
``transport`` run the crazy-ant cooperative-transport scenario and render
              the load trajectory
``experiment`` run one (or all) of the paper-reproduction experiments
              (FIG1, E1..E10, ABL1..3, EXT1..5) at quick or full scale
``search``    adaptive adversary search: certify a worst-case robustness
              frontier over fault configurations (docs/resilience.md)
``serve``     start the HTTP run server: registry-routed runs, sharded
              trials, and a content-addressed result cache
              (see docs/serving.md)
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

from .analysis.sweep import scaling_sweep
from .analysis.tables import format_table
from .analysis.trials import EngineTrial, repeat_trials, run_length
from .baselines import NoisyMajorityDynamics, NoisyVoterModel
from .exceptions import ConfigurationError
from .model.config import PopulationConfig
from .noise import NoiseMatrix, noise_reduction, reduction_delta
from .telemetry import JsonlSink, SummarySink, Telemetry
from .types import SourceCounts


def _add_population_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=1024, help="population size")
    parser.add_argument("--s0", type=int, default=0, help="sources preferring 0")
    parser.add_argument("--s1", type=int, default=1, help="sources preferring 1")
    parser.add_argument(
        "--h", type=int, default=None, help="sample size per round (default: n)"
    )
    parser.add_argument("--delta", type=float, default=0.2, help="uniform noise level")
    parser.add_argument("--seed", type=int, default=None, help="master seed")


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="Monte-Carlo trial process pool size (default: serial); "
        "statistics are identical for any worker count",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        help="seconds one Monte-Carlo trial may run before it is killed "
        "and retried with its original seed (requires --workers > 1)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="how many times a failed/hung/crashed trial is retried "
        "(seed-preserving; default 2 once any resilience flag is set); "
        "exhausted trials degrade to explicit failed-trial accounting",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL checkpoint path: append one record per completed "
        "trial and skip already-done seeds on restart (requires --seed)",
    )


def _build_resilience(args: argparse.Namespace):
    """Resolve the resilience flags into a ResilienceConfig (or None)."""
    from .analysis import ResilienceConfig

    timeout = getattr(args, "trial_timeout", None)
    retries = getattr(args, "retries", None)
    checkpoint = getattr(args, "checkpoint", None)
    if timeout is None and retries is None and checkpoint is None:
        return None
    return ResilienceConfig(
        trial_timeout=timeout,
        retries=retries if retries is not None else ResilienceConfig.retries,
        checkpoint=checkpoint,
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--byzantine",
        type=float,
        default=None,
        metavar="F",
        help="fraction of non-source agents that display the wrong "
        "opinion every round (model-layer Byzantine fault; repro.faults)",
    )
    parser.add_argument(
        "--crash-rate",
        type=float,
        default=None,
        metavar="F",
        help="fraction of non-source agents that crash at round 0 and "
        "display the crash symbol from then on",
    )
    parser.add_argument(
        "--assumed-delta",
        type=float,
        default=None,
        metavar="D",
        help="size the protocol for this noise level while the channel "
        "actually applies --delta (Theorem 8 noise misspecification)",
    )


def _build_fault_model(args: argparse.Namespace):
    """Resolve the fault flags into ``(fault_model, protocol_delta)``.

    The protocol is sized with ``--assumed-delta`` when given (the
    misspecification fault then substitutes the true ``--delta``
    channel); otherwise ``protocol_delta`` is just ``--delta``.
    """
    byzantine = getattr(args, "byzantine", None)
    crash = getattr(args, "crash_rate", None)
    assumed = getattr(args, "assumed_delta", None)
    if byzantine is None and crash is None and assumed is None:
        return None, args.delta
    if args.protocol not in ("sf", "ssf"):
        raise ConfigurationError(
            f"protocol {args.protocol!r} does not accept fault models; "
            "--byzantine/--crash-rate/--assumed-delta need --protocol "
            "sf or ssf"
        )
    from .faults import (
        ByzantineDisplayFault,
        ComposedFaultModel,
        CrashFault,
        NoiseMisspecification,
    )

    parts = []
    if byzantine:
        parts.append(ByzantineDisplayFault(fraction=byzantine))
    if crash:
        parts.append(CrashFault(fraction=crash))
    protocol_delta = args.delta
    if assumed is not None:
        size = 2 if args.protocol == "sf" else 4
        parts.append(NoiseMisspecification.uniform(args.delta, size=size))
        protocol_delta = assumed
    if not parts:
        return None, protocol_delta
    if len(parts) == 1:
        return parts[0], protocol_delta
    return ComposedFaultModel(parts), protocol_delta


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        choices=("off", "summary", "jsonl"),
        default="off",
        help="record run telemetry: 'summary' prints aggregate tables, "
        "'jsonl' writes one JSON event per line (--telemetry-out); "
        "recording is RNG-neutral, results are unchanged",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        help="JSONL trace path for --telemetry jsonl "
        "(default: telemetry.jsonl)",
    )


def _build_telemetry(args: argparse.Namespace):
    """Resolve --telemetry into a (recorder, finish-callback) pair."""
    mode = getattr(args, "telemetry", "off")
    if mode == "summary":
        sink = SummarySink()

        def finish() -> None:
            print()
            print(sink.render())

        return Telemetry([sink]), finish
    if mode == "jsonl":
        path = getattr(args, "telemetry_out", None) or "telemetry.jsonl"
        sink = JsonlSink(path)
        telemetry = Telemetry([sink])

        def finish() -> None:
            telemetry.close()
            print(f"wrote telemetry trace to {sink.path}")

        return telemetry, finish
    return None, lambda: None


def _config(args: argparse.Namespace) -> PopulationConfig:
    h = args.h if args.h is not None else args.n
    return PopulationConfig(
        n=args.n, sources=SourceCounts(s0=args.s0, s1=args.s1), h=h
    )


def _build_topology(args: argparse.Namespace):
    """Resolve --topology/--topology-degree into a sampler spec."""
    spec = getattr(args, "topology", None)
    if spec is None:
        return None
    from .topology import create_topology

    return create_topology(
        spec, degree=getattr(args, "topology_degree", None) or 8
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    engine = getattr(args, "engine", "fast")
    try:
        fault_model, protocol_delta = _build_fault_model(args)
        if engine != "fast" and args.protocol not in ("sf", "ssf"):
            raise ConfigurationError(
                f"--engine {engine} needs --protocol sf or ssf"
            )
        topology = _build_topology(args)
        if args.protocol in ("sf", "ssf"):
            from .engines import create_engine

            # Registry construction is the validation seam: unsupported
            # protocols, fault-on-agent-blind-engine combinations, and
            # topology-on-agent-blind-engine combinations raise typed
            # errors here, before any trial runs.
            trial = EngineTrial(
                create_engine(
                    engine,
                    args.protocol,
                    config,
                    protocol_delta,
                    fault_model=fault_model,
                    topology=topology,
                )
            )
        elif topology is not None:
            raise ConfigurationError(
                f"protocol {args.protocol!r} does not accept --topology; "
                "graph-structured sampling needs --protocol sf or ssf"
            )
        else:
            baseline = (
                NoisyVoterModel if args.protocol == "voter" else NoisyMajorityDynamics
            )
            trial = EngineTrial(
                baseline(config, protocol_delta),
                max_rounds=max(int(8 * config.n * math.log(config.n)), 100),
            )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry, finish = _build_telemetry(args)
    if args.trials and args.trials > 1:
        stats = repeat_trials(
            trial,
            trials=args.trials,
            seed=args.seed,
            measure=run_length,
            workers=args.workers,
            telemetry=telemetry,
            resilience=_build_resilience(args),
        )
        print(format_table([stats.summary()], title=f"{args.protocol} trials"))
        finish()
        return 0
    result = trial(np.random.default_rng(args.seed), telemetry=telemetry)
    label = (
        args.protocol.upper() if args.protocol in ("sf", "ssf") else args.protocol
    )
    if hasattr(result, "total_rounds") and hasattr(result, "weak_fraction_correct"):
        print(
            f"{label}: converged={result.converged} rounds={result.total_rounds} "
            f"weak_fraction_correct={result.weak_fraction_correct:.4f}"
        )
    elif hasattr(result, "rounds_executed") and hasattr(result, "consensus_round"):
        print(
            f"{label}: converged={result.converged} "
            f"rounds={result.rounds_executed} "
            f"consensus_round={result.consensus_round}"
        )
    else:
        print(f"{label}: converged={result.converged} rounds={result.rounds}")
    finish()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    telemetry, finish = _build_telemetry(args)
    rows = scaling_sweep(
        "fast",
        args.protocol,
        s0=args.s0,
        s1=args.s1,
        h=args.h,
        delta=args.delta,
        seed=args.seed,
        trials=args.trials,
        min_exp=args.min_exp,
        max_exp=args.max_exp,
        workers=args.workers,
        telemetry=telemetry,
        resilience=_build_resilience(args),
    )
    print(format_table(rows, title=f"{args.protocol} scaling sweep (delta={args.delta})"))
    finish()
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    rows = []
    deltas = np.linspace(0.0, 0.499, args.points)
    for delta in deltas:
        row = {"delta": float(delta)}
        for d in (2, 4):
            if delta < 1.0 / d:
                row[f"f(delta) d={d}"] = reduction_delta(float(delta), d)
            else:
                row[f"f(delta) d={d}"] = None
        rows.append(row)
    print(format_table(rows, title="Figure 1: f(delta) for d in {2, 4}"))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    noise = NoiseMatrix.random_upper_bounded(args.delta, args.d, rng)
    reduction = noise_reduction(noise)
    print(f"original N (delta-upper-bounded, delta={reduction.delta:.4f}):")
    print(np.array2string(noise.matrix, precision=4))
    print(f"artificial P = N^-1 T:")
    print(np.array2string(reduction.artificial.matrix, precision=4))
    print(
        f"effective T = N P is {reduction.delta_prime:.4f}-uniform:"
    )
    print(np.array2string(reduction.effective.matrix, precision=4))
    return 0


def _cmd_regime(args: argparse.Namespace) -> int:
    from .analysis import bar_chart
    from .theory import regime_report

    config = _config(args)
    report = regime_report(config, args.delta)
    print(
        f"instance: n={config.n}, s0={config.s0}, s1={config.s1}, "
        f"h={config.h}, delta={args.delta}"
    )
    print(report.describe())
    terms = report.budget_terms
    print()
    print(bar_chart(list(terms), list(terms.values()),
                    title="Eq. (19) budget terms (unit constant):"))
    return 0


def _cmd_transport(args: argparse.Namespace) -> int:
    from .analysis import line_plot
    from .apps import CooperativeTransport

    sim = CooperativeTransport(
        num_carriers=args.n,
        num_informed=args.informed,
        delta=args.delta,
    )
    result = sim.run(rng=args.seed)
    print(
        line_plot(
            list(result.positions),
            title=(
                f"load position over {len(result.velocities)} rounds "
                f"({args.informed} informed of {args.n} carriers)"
            ),
            y_label="displacement towards nest",
        )
    )
    print(
        f"aligned={result.aligned}  epochs_to_alignment="
        f"{result.epochs_to_alignment}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .analysis import write_json
    from .experiments import all_experiments, get_experiment

    if args.id.lower() == "all":
        experiments = all_experiments()
    else:
        experiments = [get_experiment(args.id)]
    telemetry, finish = _build_telemetry(args)
    resilience = _build_resilience(args)
    failed = 0
    outcomes = []
    for experiment in experiments:
        experiment.workers = args.workers
        experiment.resilience = resilience
        experiment.engine = getattr(args, "engine", "fast")
        outcome = experiment.run(
            scale=args.scale, seed=args.seed, telemetry=telemetry
        )
        print(outcome.render())
        print()
        failed += not outcome.passed
        outcomes.append(outcome.to_dict())
    if args.json:
        path = write_json(
            outcomes if len(outcomes) > 1 else outcomes[0], args.json
        )
        print(f"wrote {path}")
    finish()
    if failed:
        print(f"{failed} experiment(s) FAILED")
        return 1
    print(f"all {len(experiments)} experiment(s) passed")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .experiments import run_suite

    telemetry, finish = _build_telemetry(args)
    result = run_suite(
        scale=args.scale, seed=args.seed, only=args.only, workers=args.workers,
        telemetry=telemetry, resilience=_build_resilience(args),
    )
    print(result.render_summary())
    finish()
    if args.save:
        directory = result.save(args.save)
        print(f"wrote per-experiment JSON/CSV to {directory}")
    if not result.passed:
        print(f"FAILED: {', '.join(result.failures)}")
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import instance_report

    config = _config(args)
    print(instance_report(config, args.delta, trials=args.trials, seed=args.seed))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    serve(
        host=args.host,
        port=args.port,
        cache_dir=None if args.no_cache else args.cache_dir,
        executor_workers=args.jobs,
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    import json as _json

    from .adversary_search import FaultConfigSpace, SearchSettings, run_search
    from .analysis import write_json

    config = _config(args)
    seed = args.seed if args.seed is not None else 0
    default_budget = {"byzantine": 0.1, "misspec": 0.24, "crash": 0.25}
    if args.budget:
        budgets = {}
        for spec in args.budget:
            family, _, values = spec.partition("=")
            if not values:
                raise ConfigurationError(
                    f"--budget wants FAMILY=V1[,V2...], got {spec!r}"
                )
            budgets[family] = [float(v) for v in values.split(",")]
    else:
        families = (
            ("byzantine", "misspec")
            if args.protocol == "sf"
            else ("byzantine", "misspec", "crash")
        )
        budgets = {family: [default_budget[family]] for family in families}
    space = FaultConfigSpace(
        protocol=args.protocol,
        assumed_delta=args.delta,
        families=tuple(budgets),
        max_fraction=args.max_fraction,
    )
    settings = SearchSettings(
        num_candidates=args.candidates,
        rungs=args.rungs,
        base_trials=args.base_trials,
        refine_steps=args.refine_steps,
        cert_trials=args.cert_trials,
        cert_alpha=args.cert_alpha,
    )
    frontier = run_search(
        args.protocol,
        config,
        assumed_delta=args.delta,
        budgets=budgets,
        seed=seed,
        settings=settings,
        checkpoint=args.checkpoint,
        space=space,
    )
    rows = [
        {**row, "config": _json.dumps(row["config"], sort_keys=True)}
        for row in frontier.rows()
    ]
    print(format_table(rows))
    worst = frontier.worst()
    if worst is not None:
        print(
            f"\nworst case: {worst.config} — failure rate "
            f"{worst.failure_rate:.4f}, certified >= "
            f"{worst.certified_failure_lower_bound:.4f} at confidence "
            f"{worst.confidence}"
        )
    print(
        f"error ledger: spent {frontier.error_spent:.4f} of "
        f"{frontier.error_total} across {frontier.rounds_executed} trials"
    )
    if args.json:
        path = write_json(frontier.to_dict(), args.json)
        print(f"wrote {path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verify

    scale = "full" if args.full else "quick"
    try:
        report = run_verify(
            scale,
            goldens_dir=args.goldens_dir,
            update_goldens=args.update_goldens,
            checks=args.only,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-spreading",
        description="Noisy PULL information spreading (arXiv:2411.02560 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one instance")
    _add_population_args(run)
    run.add_argument(
        "--protocol",
        choices=("sf", "ssf", "voter", "majority"),
        default="sf",
    )
    from .engines import list_engines

    run.add_argument(
        "--engine",
        choices=tuple(list_engines()),
        default="fast",
        help="simulation backend for sf/ssf (see repro.engines): "
        "'fast' (vectorized per-agent), 'count' (count-level, "
        "O(|alphabet|) per transition — same law at any n), "
        "'mean-field' (deterministic n->infinity SF recursion), "
        "'serial'/'batched' (exact agent-level reference engines), "
        "'async' (random sequential activations, ssf only), or "
        "'net' (localhost asyncio UDP deployment, one real peer per "
        "agent; see docs/networking.md)",
    )
    from .topology import TOPOLOGY_KINDS

    run.add_argument(
        "--topology",
        choices=tuple(TOPOLOGY_KINDS),
        default=None,
        help="sample PULL(h) neighbors from this graph family instead "
        "of the uniform population (repro.topology; sf/ssf on a "
        "topology-capable engine — 'complete' is bit-identical to the "
        "default uniform sampler)",
    )
    run.add_argument(
        "--topology-degree",
        type=int,
        default=None,
        metavar="D",
        help="degree for --topology regular/churn (default 8)",
    )
    run.add_argument(
        "--trials",
        type=int,
        default=1,
        help="repeat over this many independent trials and print the "
        "aggregate statistics instead of one outcome",
    )
    _add_workers_arg(run)
    _add_fault_args(run)
    _add_resilience_args(run)
    _add_telemetry_args(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="scaling sweep over n = 2^k")
    _add_population_args(sweep)
    sweep.add_argument("--protocol", choices=("sf", "ssf"), default="sf")
    sweep.add_argument("--min-exp", type=int, default=8)
    sweep.add_argument("--max-exp", type=int, default=12)
    sweep.add_argument("--trials", type=int, default=5)
    _add_workers_arg(sweep)
    _add_resilience_args(sweep)
    _add_telemetry_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    figure1 = sub.add_parser("figure1", help="print the Figure 1 series")
    figure1.add_argument("--points", type=int, default=21)
    figure1.set_defaults(func=_cmd_figure1)

    reduce_cmd = sub.add_parser("reduce", help="demo the Theorem 8 reduction")
    reduce_cmd.add_argument("--d", type=int, default=4, help="alphabet size")
    reduce_cmd.add_argument("--delta", type=float, default=0.15)
    reduce_cmd.add_argument("--seed", type=int, default=0)
    reduce_cmd.set_defaults(func=_cmd_reduce)

    regime = sub.add_parser("regime", help="classify an instance (Section 2.3)")
    _add_population_args(regime)
    regime.set_defaults(func=_cmd_regime)

    transport = sub.add_parser(
        "transport", help="crazy-ant cooperative transport demo"
    )
    transport.add_argument("--n", type=int, default=512, help="carriers")
    transport.add_argument("--informed", type=int, default=1)
    transport.add_argument("--delta", type=float, default=0.2)
    transport.add_argument("--seed", type=int, default=0)
    transport.set_defaults(func=_cmd_transport)

    experiment = sub.add_parser(
        "experiment", help="run paper-reproduction experiments"
    )
    experiment.add_argument(
        "id", help="experiment id (FIG1, E1..E10) or 'all'"
    )
    experiment.add_argument("--scale", choices=("quick", "full"), default="quick")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--engine",
        choices=("fast", "count"),
        default="fast",
        help="SF simulation backend for the experiments that expose the "
        "seam (E1/E3/E4): per-agent 'fast' or count-level 'count'",
    )
    experiment.add_argument(
        "--json", default=None, help="also write outcome(s) to this JSON file"
    )
    _add_workers_arg(experiment)
    _add_resilience_args(experiment)
    _add_telemetry_args(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    suite = sub.add_parser(
        "suite", help="run the experiment suite and print a summary table"
    )
    suite.add_argument("--scale", choices=("quick", "full"), default="quick")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument(
        "--only", nargs="*", default=None, help="experiment ids to include"
    )
    suite.add_argument(
        "--save", default=None, help="directory for per-experiment JSON/CSV"
    )
    _add_workers_arg(suite)
    _add_resilience_args(suite)
    _add_telemetry_args(suite)
    suite.set_defaults(func=_cmd_suite)

    report = sub.add_parser(
        "report", help="full markdown report for one instance"
    )
    _add_population_args(report)
    report.add_argument(
        "--trials", type=int, default=0, help="also measure over this many runs"
    )
    report.set_defaults(func=_cmd_report)

    serve_cmd = sub.add_parser(
        "serve",
        help="start the HTTP run server (see docs/serving.md)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8742)
    serve_cmd.add_argument(
        "--cache-dir",
        default=".repro-service-cache",
        help="content-addressed result cache directory "
        "(keys: config + seed + code version)",
    )
    serve_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result memoization (every request recomputes)",
    )
    serve_cmd.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="concurrent job executor threads (each job may itself shard "
        "trials over a process pool via the request's 'workers' field)",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    search = sub.add_parser(
        "search",
        help="adaptive adversary search: certified worst-case frontier "
        "over fault configurations (see docs/resilience.md)",
    )
    _add_population_args(search)
    search.add_argument(
        "--protocol", choices=("sf", "ssf"), default="sf"
    )
    search.add_argument(
        "--budget",
        action="append",
        default=None,
        metavar="FAMILY=V1[,V2...]",
        help="adversary-budget grid for one scenario family (byzantine/"
        "crash: corrupted fraction; misspec: deviation 2|true-assumed|); "
        "repeatable, default: one representative budget per family the "
        "protocol supports",
    )
    search.add_argument(
        "--max-fraction",
        type=float,
        default=0.3,
        help="fraction ceiling of the Byzantine/crash families",
    )
    search.add_argument(
        "--candidates", type=int, default=8,
        help="random candidates per (family, budget) cell (deterministic "
        "boundary probes and the successive-halving/refinement loop come "
        "on top)",
    )
    search.add_argument("--rungs", type=int, default=3)
    search.add_argument(
        "--base-trials", type=int, default=12,
        help="SPRT trial cap of the first successive-halving rung "
        "(doubles per rung)",
    )
    search.add_argument("--refine-steps", type=int, default=6)
    search.add_argument(
        "--cert-trials", type=int, default=80,
        help="fixed fresh trials behind each certified frontier point",
    )
    search.add_argument(
        "--cert-alpha", type=float, default=1e-3,
        help="one-sided error of the exact Clopper-Pearson lower bound",
    )
    search.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL evaluation ledger: resume an interrupted search with "
        "identical certified values (requires --seed)",
    )
    search.add_argument(
        "--json", default=None, help="also write the frontier report here"
    )
    search.set_defaults(func=_cmd_search)

    verify = sub.add_parser(
        "verify",
        help="run the engine conformance matrix and golden-trace checks",
    )
    scale_group = verify.add_mutually_exclusive_group()
    scale_group.add_argument(
        "--quick",
        action="store_true",
        help="fast smoke scale (default)",
    )
    scale_group.add_argument(
        "--full",
        action="store_true",
        help="sharper statistical power (more trials/replicas)",
    )
    verify.add_argument(
        "--update-goldens",
        action="store_true",
        help="regenerate tests/goldens/*.json instead of diffing them",
    )
    verify.add_argument(
        "--goldens-dir",
        default=None,
        help="override the golden-fixture directory (default: tests/goldens)",
    )
    verify.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="restrict the matrix to these leg names (goldens always run; "
        "an unknown name is an error)",
    )
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
