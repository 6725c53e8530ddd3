"""Artifact-store maintenance CLI: ``python -m repro.cache``.

Subcommands::

    python -m repro.cache stats                     # object count / bytes + tuned pipelines
    python -m repro.cache gc --max-mb 512           # evict oldest past cap
    python -m repro.cache gc --max-bytes 0          # drop everything

The store root comes from ``--dir`` or the ``REPRO_ARTIFACT_DIR`` environment
variable (the same variable :class:`repro.Session` consults to enable the
store implicitly).
"""

from __future__ import annotations

import argparse
import sys

from .driver.artifacts import STORE_ENV_VAR, ArtifactStore, resolve_store


def _store_from_args(args) -> ArtifactStore:
    store = resolve_store(args.dir)
    if store is None:
        raise SystemExit(
            f"no artifact store configured: pass --dir or set {STORE_ENV_VAR}"
        )
    return store


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect and garbage-collect the on-disk artifact store.",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help=f"store root (default: ${STORE_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="print object count and total size")

    gc = sub.add_parser("gc", help="evict oldest objects past a size cap")
    cap = gc.add_mutually_exclusive_group(required=True)
    cap.add_argument("--max-bytes", type=int, help="size cap in bytes")
    cap.add_argument("--max-mb", type=float, help="size cap in megabytes")

    args = parser.parse_args(argv)
    store = _store_from_args(args)

    if args.command == "stats":
        stats = store.stats()
        print(f"store:  {store.root}")
        print(f"files:  {stats['files']}")
        print(f"bytes:  {stats['bytes']} ({stats['bytes'] / 1e6:.1f} MB)")
        tuned = store.tuned_stats()
        print("tuned pipelines:")
        print(f"  entries:  {tuned['entries']}")
        print(f"  bytes:    {tuned['bytes']}")
        # Hit/miss/write counters are per-process; a fresh CLI process has
        # performed no lookups, so these matter mostly for embedded callers.
        print(
            f"  counters: hits={tuned['hits']} misses={tuned['misses']} "
            f"writes={tuned['writes']} (this process)"
        )
        return 0

    max_bytes = args.max_bytes if args.max_bytes is not None else int(args.max_mb * 1e6)
    if max_bytes < 0:
        raise SystemExit("size cap must be non-negative")
    summary = store.gc(max_bytes)
    print(
        f"removed {summary['removed_files']} objects "
        f"({summary['removed_bytes']} bytes); "
        f"kept {summary['kept_files']} objects ({summary['kept_bytes']} bytes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
