"""Command-line entry point: ``python -m repro.fuzz``.

Runs a conformance campaign and prints the report table; exits non-zero when
any generated model diverges.  Typical invocations::

    python -m repro.fuzz --seed 0 --n-models 25
    python -m repro.fuzz --seed 1000 --n-models 200 --out-dir fuzz-reproducers
    python -m repro.fuzz --engines compiled ir-interp --pipelines "default<O2>"
"""

from __future__ import annotations

import argparse
import sys

from . import DEFAULT_PIPELINES, run_campaign


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Generative cross-engine conformance campaign.",
    )
    parser.add_argument("--seed", type=int, default=0, help="first model seed")
    parser.add_argument(
        "--n-models", type=int, default=25, help="number of models to generate"
    )
    parser.add_argument(
        "--pipelines",
        nargs="+",
        default=list(DEFAULT_PIPELINES),
        help="pipeline texts to compile each model with (default: O0..O3)",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        default=None,
        help="engines to compare (default: every registered engine)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker count for parallel engines"
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="directory for shrunk pytest reproducers of any failures",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging reduction of failures",
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="skip the interpretive reference-runner leg",
    )
    parser.add_argument(
        "--sanitizer",
        action="store_true",
        help=(
            "add the sanitizer cross-validation leg: instrumented compile of "
            "the first pipeline; traps on lint-clean models fail the campaign"
        ),
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help=(
            "add the incremental-recompile oracle leg: perturb one parameter, "
            "patch the live model via recompile(), and demand bitwise equality "
            "with a cold full compile of the edited model on every engine"
        ),
    )
    parser.add_argument(
        "--lane",
        action="store_true",
        help=(
            "add the batched-lane oracle leg: a small run_batch on the lane "
            "engine must reproduce the scalar compiled engine's per-element "
            "buffers (bitwise first, else within LANE_RTOL: numpy's "
            "transcendental kernels - exp, log, log1p, tanh, pow and the "
            "rng_normal draw - may round differently from libm)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-model progress lines"
    )
    args = parser.parse_args(argv)

    report = run_campaign(
        seed=args.seed,
        n_models=args.n_models,
        pipelines=args.pipelines,
        engines=args.engines,
        workers=args.workers,
        check_reference=not args.no_reference,
        check_sanitizer=args.sanitizer,
        check_incremental=args.incremental,
        check_lane=args.lane,
        shrink=not args.no_shrink,
        out_dir=args.out_dir,
        progress=None if args.quiet else lambda line: print(line, flush=True),
    )
    print()
    print(report.format_table())
    summary = report.summary()
    print(
        f"\n{summary['models']} models, {summary['legs']} legs, "
        f"{summary['failures']} failing, {summary['elapsed_seconds']}s"
    )
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
