"""Run one workload in this (fresh) process; started by ``run.py``.

Prints ``READY`` once set-up is done (the runner times process start to
that line as set-up), then ``SPEED <s>``, how fast the host ran the
reference loop just after set-up relative to the reference speed, then
one JSON line with the run's outcome.  With ``--setup-only`` it stops
after ``SPEED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from service_mix import ServiceMix
    from workloads import ENGINE_WORKLOADS, REFERENCE_S, reference_loop

    workloads = dict(ENGINE_WORKLOADS, **{ServiceMix.name: ServiceMix})
    workload = workloads[args.workload](args.seed, args.quick, args.trace)
    try:
        workload.setup()
        print("READY", flush=True)
        reference = statistics.median(reference_loop() for _ in range(3))
        print(f"SPEED {REFERENCE_S / reference!r}", flush=True)
        if args.setup_only:
            return 0
        result = workload.run(args.seconds)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
