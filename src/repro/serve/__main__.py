"""CLI entry point: ``python -m repro.serve --socket /tmp/repro.sock``.

Boots a :class:`~repro.serve.server.Server`, installs SIGTERM/SIGINT
handlers that drain in-flight work before exit, and prints a ready line
(``repro-serve: listening on ...``) that boot-wait loops can look for.
"""

from __future__ import annotations

import argparse
import signal
import sys

from ..driver.artifacts import resolve_store
from .server import ServeConfig, Server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serving daemon: warm compile cache + coalescing dispatch.",
    )
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--socket", help="AF_UNIX socket path to listen on")
    where.add_argument("--host", help="TCP host to listen on (with --port)")
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="artifact store root (default: $REPRO_ARTIFACT_DIR; 'off' disables)",
    )
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--max-coalesce", type=int, default=32)
    parser.add_argument(
        "--coalesce-window-ms",
        type=float,
        default=0.0,
        help="linger this long after popping a request to grow the batch",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (requests may override)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    address = args.socket if args.socket else (args.host, args.port)
    # Resolved here so the server never re-reads the environment: no store
    # (``off`` from either source, or nothing configured) is ``False``.
    artifact_dir = resolve_store(args.artifact_dir) or False
    config = ServeConfig(
        max_queue=args.max_queue,
        max_coalesce=args.max_coalesce,
        coalesce_window=args.coalesce_window_ms / 1000.0,
        default_deadline=None if args.deadline_ms is None else args.deadline_ms / 1000.0,
    )
    server = Server(address, artifact_dir=artifact_dir, config=config)

    def handle_signal(_signum, _frame):
        server.request_shutdown()

    # Handlers go in BEFORE the listener: a boot-wait loop's successful ping
    # must imply SIGTERM already drains instead of hard-killing the process.
    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    server.start()

    shown = server.address if isinstance(server.address, str) else "%s:%d" % tuple(server.address)
    print(f"repro-serve: listening on {shown}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
