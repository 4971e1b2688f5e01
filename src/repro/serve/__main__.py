"""Server CLI: ``python -m repro.serve`` boots the serving tier.

Runs until interrupted (or until a client POSTs ``/shutdown``). The
chosen port is printed once the listener is up — pass ``--port 0`` to
let the OS pick a free one.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import threading

from repro.faults.plan import FaultPlan
from repro.serve.server import ServerConfig, SolveServer


def _parse_fault_plan(spec: str) -> FaultPlan | None:
    """Parse a CLI fault-plan spec through the one canonical grammar
    (:meth:`FaultPlan.from_env`) instead of duplicating it here."""
    var = "_REPRO_SERVE_CLI_FAULT_PLAN"
    os.environ[var] = spec
    try:
        return FaultPlan.from_env(var)
    finally:
        del os.environ[var]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000, help="0 picks a free port")
    parser.add_argument("--workers", type=int, default=2, help="solve worker threads")
    parser.add_argument("--queue-size", type=int, default=64)
    parser.add_argument(
        "--backend", default="process",
        help="execution backend shared by all solves (serial/process)",
    )
    parser.add_argument("--backend-workers", type=int, default=None)
    parser.add_argument(
        "--budget-mib", type=float, default=256.0,
        help="admission budget per request, MiB",
    )
    parser.add_argument(
        "--cache-mib", type=float, default=64.0,
        help="byte budget for each of the instance and result caches, MiB",
    )
    parser.add_argument(
        "--fault-plan", default=None,
        help="deterministic fault injection spec (KIND@INDEX[:DUR][#ATTEMPT])",
    )
    args = parser.parse_args(argv)

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        backend=args.backend,
        backend_workers=args.backend_workers,
        budget_bytes=int(args.budget_mib * 2**20),
        cache_bytes=int(args.cache_mib * 2**20),
        fault_plan=_parse_fault_plan(args.fault_plan) if args.fault_plan else None,
    )
    server = SolveServer(config)
    ready = threading.Event()

    def _announce():
        ready.wait()
        print(f"repro.serve listening on http://{server.host}:{server.port}")

    threading.Thread(target=_announce, daemon=True).start()
    try:
        asyncio.run(server.run(ready=ready))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
