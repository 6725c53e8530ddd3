"""Benchmark harness: regenerate every table and figure of the evaluation.

Each ``figureN_report`` function reproduces one figure of the paper's
evaluation section and returns a :class:`FigureReport` whose rows mirror the
series plotted in the paper.  Absolute times differ from the paper's (this
reproduction executes compiled *Python*, not native code, on a container
instead of the paper's i7-8700 + GTX 1060), so every report also records the
paper's reference numbers where applicable; EXPERIMENTS.md discusses the
comparison.  The ``benchmarks/`` directory wraps these reports in
pytest-benchmark entry points.

All reports compile through one shared :class:`repro.Session`
(:data:`SESSION`), so a model that several figures rebuild (e.g. the medium
predator-prey variant) is compiled once per pipeline and reused — see
DESIGN.md, "Sessions and caching".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..analysis import CloneDetector, Interval, MeshRefiner
from ..cogframe import ReferenceRunner
from ..cogframe.functions import DriftDiffusionIntegrator, LeakyCompetingIntegrator
from ..core.distill import CompiledModel, compile_composition
from ..core.specialize import emit_library_function, specialize_on_buffer
from ..backends.gpu_sim import GpuOccupancyModel
from ..models import FIGURE4_MODELS, get_model, predator_prey_variant
from ..models import predator_prey as pp_model
from ..driver.session import Session


#: Shared compilation session: structurally identical models rebuilt by
#: different figures hit the artifact cache instead of recompiling.
SESSION = Session()


@dataclass
class FigureReport:
    """Rows regenerating one figure/table of the paper."""

    figure: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **kwargs) -> None:
        self.rows.append(kwargs)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def format_table(self) -> str:
        if not self.rows:
            return f"{self.figure}: {self.title}\n  (no rows)"
        columns = list(self.rows[0].keys())
        widths = {
            c: max(len(str(c)), *(len(_fmt(row.get(c))) for row in self.rows)) for c in columns
        }
        lines = [f"{self.figure}: {self.title}"]
        lines.append("  " + " | ".join(str(c).ljust(widths[c]) for c in columns))
        lines.append("  " + "-+-".join("-" * widths[c] for c in columns))
        for row in self.rows:
            lines.append(
                "  " + " | ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns)
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def _time_call(fn: Callable[[], object], repeats: int = 3, warm: bool = True) -> float:
    """Steady-state seconds per call: one untimed call (which pays first-run
    costs such as a lane program build or a pool start), then the best of
    ``repeats``.  ``warm=False`` times one cold call instead."""
    if warm:
        fn()
    best = float("inf")
    for _ in range(max(repeats, 1) if warm else 1):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Figure 4 — running time of the model suite across engines
# ---------------------------------------------------------------------------

#: Paper speedups of CPython-DISTILL over CPython, eyeballed from Figure 4's
#: log-scale bars; used only for the paper-vs-measured comparison column.
PAPER_FIG4_SPEEDUPS = {
    "vectorized_necker_cube": 10.0,
    "necker_cube_s": 10.0,
    "necker_cube_m": 20.0,
    "predator_prey_s": 15.0,
    "botvinick_stroop": 778.0,
    "extended_stroop_a": 100.0,
    "extended_stroop_b": 100.0,
    "multitasking": 20.0,
}


def figure4_report(
    models: Optional[Sequence[str]] = None,
    trials_scale: float = 1.0,
    engines: Sequence[str] = ("reference", "ir-interp", "per-node", "compiled"),
) -> FigureReport:
    """Normalised running times of the model suite (paper Figure 4).

    Engine mapping (see DESIGN.md): ``reference`` = CPython/PsyNeuLink,
    ``ir-interp`` = generic JIT stand-in (PyPy/Pyston), ``per-node`` =
    CPython-DISTILL-per-node, ``compiled`` = CPython-DISTILL.
    """
    report = FigureReport("Figure 4", "Model suite running time, normalised to the reference runner")
    speedups = []
    for name in models or FIGURE4_MODELS:
        entry = get_model(name)
        composition = entry.build()
        inputs = entry.inputs()
        trials = max(int(entry.num_trials * trials_scale), 1)

        timings: Dict[str, float] = {}
        if "reference" in engines:
            runner = ReferenceRunner(entry.build(), seed=0)
            timings["reference"] = _time_call(lambda: runner.run(inputs, num_trials=trials))
        compiled = SESSION.compile_model(composition)
        for engine in engines:
            if engine == "reference":
                continue
            timings[engine] = _time_call(
                lambda e=engine: compiled.run(inputs, num_trials=trials, seed=0, engine=e)
            )
        base = timings.get("reference", 1.0)
        speedup = base / timings["compiled"] if "compiled" in timings else float("nan")
        speedups.append(speedup)
        report.add(
            model=name,
            trials=trials,
            **{f"{k}_s": v for k, v in timings.items()},
            **{f"norm_{k}": (v / base) for k, v in timings.items() if k != "reference"},
            distill_speedup=speedup,
            paper_speedup=PAPER_FIG4_SPEEDUPS.get(name, float("nan")),
        )
    report.add(
        model="average",
        trials="-",
        distill_speedup=float(np.mean(speedups)),
        paper_speedup=26.0,
    )
    report.note(
        "PyPy/Pyston cannot be installed offline; the IR interpreter plays the "
        "generic-JIT role and, like PyPy in the paper, is slower than the baseline."
    )
    report.note(
        "The paper's Multitasking model cannot run under PyPy/Pyston at all; here "
        "every engine runs it because the minitorch network is lowered to the same IR."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 5a — predator-prey scaling
# ---------------------------------------------------------------------------


def figure5a_report(
    variants: Sequence[str] = ("s", "m", "l"),
    include_xl: bool = True,
    xl_levels: int = 100,
    baseline_level_cap: int = 6,
) -> FigureReport:
    """Predator-prey scaling S/M/L/XL (paper Figure 5a).

    The reference runner is only measured up to ``baseline_level_cap`` levels
    per entity (the paper's CPython run of XL did not finish in 24 hours);
    its XL time is extrapolated from the measured cost per evaluation.
    """
    report = FigureReport("Figure 5a", "Predator-prey scaling: reference vs Distill")
    inputs = pp_model.default_inputs(1)
    per_eval_seconds = None
    for variant in variants:
        levels = pp_model.VARIANT_LEVELS[variant]
        entry = predator_prey_variant(variant)
        composition = entry.build()
        evaluations = levels ** 3 * composition.max_passes
        reference_time = float("nan")
        if levels <= baseline_level_cap:
            runner = ReferenceRunner(entry.build(), seed=0)
            reference_time = _time_call(lambda: runner.run(inputs, num_trials=1))
            per_eval_seconds = reference_time / evaluations
        compiled = SESSION.compile_model(composition)
        compiled_time = _time_call(
            lambda: compiled.run(inputs, num_trials=1, seed=0, engine="compiled")
        )
        speedup = (
            (reference_time / compiled_time)
            if reference_time == reference_time
            else float("nan")
        )
        report.add(
            variant=variant.upper(),
            levels_per_entity=levels,
            evaluations=evaluations,
            reference_s=reference_time,
            distill_s=compiled_time,
            speedup=speedup,
            regression=bool(speedup < 1.0),
        )
    if include_xl:
        levels = xl_levels
        composition = pp_model.build_predator_prey(levels_per_entity=levels)
        evaluations = levels ** 3 * composition.max_passes
        estimated_reference = (
            per_eval_seconds * evaluations if per_eval_seconds is not None else float("nan")
        )
        compiled = SESSION.compile_model(composition)
        compiled_time = _time_call(
            lambda: compiled.run(inputs, num_trials=1, seed=0, engine="gpu-sim")
        )
        serial_time = float("nan")
        if levels <= 40:
            serial_time = _time_call(
                lambda: compiled.run(inputs, num_trials=1, seed=0, engine="compiled")
            )
        xl_speedup = (
            (estimated_reference / compiled_time)
            if estimated_reference == estimated_reference
            else float("nan")
        )
        report.add(
            variant="XL",
            levels_per_entity=levels,
            evaluations=evaluations,
            reference_s=estimated_reference,
            distill_s=serial_time if serial_time == serial_time else compiled_time,
            speedup=xl_speedup,
            regression=bool(xl_speedup < 1.0),
        )
        report.note(
            "XL reference time is extrapolated from the measured per-evaluation cost "
            "(the paper's CPython XL run did not finish within 24 hours either)."
        )
    regressed = [row["variant"] for row in report.rows if row.get("regression")]
    if regressed:
        winners = [
            row["variant"]
            for row in report.rows
            if not row.get("regression") and row["speedup"] == row["speedup"]
        ]
        report.note(
            f"{', '.join(regressed)} ran slower on the compiled engine than on the "
            f"reference runner (speedup < 1, both timed warm as the best of 3); the "
            f"crossover sits between {regressed[-1]} and "
            f"{winners[0] if winners else '?'}."
        )
    return report


# ---------------------------------------------------------------------------
# Figure 5b — per-node vs whole-model compilation
# ---------------------------------------------------------------------------


def figure5b_report(cycles: int = 100, trials: int = 20) -> FigureReport:
    """Botvinick Stroop: per-node vs whole-model compilation (Figure 5b)."""
    from ..models import stroop

    report = FigureReport("Figure 5b", "Botvinick Stroop: importance of model-wide optimisation")
    inputs = stroop.default_inputs("incongruent")
    build = lambda: stroop.build_botvinick_stroop(cycles=cycles)  # noqa: E731

    runner = ReferenceRunner(build(), seed=0)
    reference = _time_call(lambda: runner.run(inputs, num_trials=trials))
    compiled = SESSION.compile_model(build())
    per_node = _time_call(
        lambda: compiled.run(inputs, num_trials=trials, seed=0, engine="per-node")
    )
    whole = _time_call(
        lambda: compiled.run(inputs, num_trials=trials, seed=0, engine="compiled")
    )
    for label, seconds, paper_speedup in (
        ("reference (CPython)", reference, 1.0),
        ("Distill per-node", per_node, 3.4),
        ("Distill whole-model", whole, 778.0),
    ):
        report.add(
            configuration=label,
            seconds=seconds,
            normalised=seconds / reference,
            speedup=reference / seconds,
            paper_speedup=paper_speedup,
        )
    return report


# ---------------------------------------------------------------------------
# Figure 5c — parallel / GPU execution of Predator-Prey XL
# ---------------------------------------------------------------------------


def figure5c_report(
    levels_per_entity: int = 20, workers: int = 2, batch_size: int = 2
) -> FigureReport:
    """Serial vs multicore vs (simulated) GPU execution of the grid search.

    The mCPU rows measure the SIMT grid kernel the GPU row runs, each launch
    sharded across worker processes (the ``mcpu`` engine).  The paper's
    mCPU instead runs scalar compiled code, one thread per core (§3.6:
    4.9x over serial, GPU 6.3x), so the rows compare the same kernel in
    one process and across processes, not scalar threads against SIMT.

    The mCPU rows run on a *persistent* engine instance: the worker pool is
    built once and reused across every timed ``run()``/``run_batch()`` call
    (``pool_starts`` proves it — it stays at 1 however many rows are timed).
    The "cold" row deliberately times the first call, which pays pool
    start-up; every other row is timed warm (see :func:`_time_call`).
    """
    report = FigureReport(
        "Figure 5c", f"Predator-Prey parallel execution ({levels_per_entity}^3 evaluations/pass)"
    )
    composition = pp_model.build_predator_prey(levels_per_entity=levels_per_entity)
    inputs = pp_model.default_inputs(1)
    compiled = SESSION.compile_model(composition)

    serial = _time_call(lambda: compiled.run(inputs, num_trials=1, seed=0, engine="compiled"))

    # The worker pool is released in the ``finally`` below: an exception in
    # any timed row must not leak idle worker processes into the caller.
    mcpu_instance = compiled.engine_instance("mcpu")
    mcpu_timings = 0
    try:
        mcpu_cold = _time_call(
            lambda: mcpu_instance.run(inputs, num_trials=1, seed=0, workers=workers),
            warm=False,
        )
        mcpu_warm = _time_call(
            lambda: mcpu_instance.run(inputs, num_trials=1, seed=0, workers=workers)
        )
        batch = [inputs] * max(batch_size, 1)
        mcpu_batch = (
            _time_call(
                lambda: mcpu_instance.run_batch(
                    batch, num_trials=1, seed=0, workers=workers
                )
            )
            / len(batch)
        )
        mcpu_timings = 3
        pool_starts = mcpu_instance.pool_starts
    finally:
        # Release the worker pool: the report is a one-shot measurement and
        # must not leave idle worker processes behind in the caller.
        mcpu_instance.close()

    gpu = _time_call(lambda: compiled.run(inputs, num_trials=1, seed=0, engine="gpu-sim"))
    for label, seconds, paper_seconds, paper_speedup in (
        ("Distill serial", serial, 4.4, 1.0),
        (f"Distill mCPU cold (SIMT kernel sharded, {workers} workers)", mcpu_cold, 0.9, 4.9),
        (f"Distill mCPU warm (SIMT kernel sharded, {workers} workers)", mcpu_warm, 0.9, 4.9),
        (
            f"Distill mCPU batched x{len(batch)} (SIMT kernel sharded, {workers} workers)",
            mcpu_batch,
            0.9,
            4.9,
        ),
        ("Distill GPU (SIMT simulator)", gpu, 0.7, 6.3),
    ):
        report.add(
            configuration=label,
            seconds=seconds,
            speedup_vs_serial=serial / seconds,
            paper_seconds=paper_seconds,
            paper_speedup=paper_speedup,
            pool_starts=pool_starts if "mCPU" in label else "-",
        )
    report.note(
        "The host has 2 cores (paper: 6C/12T) and no GPU (paper: GTX 1060); the mCPU "
        "speedup is bounded by the core count and the GPU row uses the data-parallel "
        "SIMT simulator, so magnitudes differ while the ordering is preserved."
    )
    report.note(
        "The mCPU rows run the GPU row's SIMT grid kernel with each launch's lanes "
        "sharded across worker processes, not the paper's scalar compiled code on "
        "one thread per core (section 3.6: mCPU 4.9x, GPU 6.3x over serial); they "
        "pay process IPC on top of the single-process kernel."
    )
    report.note(
        f"pool_starts={pool_starts} after {mcpu_timings} mCPU timings: the persistent "
        "engine instance reused one worker pool for every run()/run_batch() call "
        "(no per-call Pool construction); the batched row divides one run_batch of "
        f"{len(batch)} elements by the batch size."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 6 — GPU register throttling / occupancy study
# ---------------------------------------------------------------------------


def figure6_report(grid_size: int = 1_000_000) -> FigureReport:
    """Occupancy and runtime under register caps (paper Figure 6)."""
    report = FigureReport("Figure 6", "GPU register throttling (analytical occupancy model)")
    composition = pp_model.build_predator_prey("m")
    compiled = SESSION.compile_model(composition)
    info = compiled.grid_searches[0]
    model = GpuOccupancyModel(
        private_bytes_per_thread=18_500.0,
        measured_reference_seconds=0.7,
    )
    for point in model.register_sweep(grid_size=grid_size):
        report.add(
            precision=point.precision,
            max_registers=point.max_registers,
            occupancy=point.occupancy,
            estimated_seconds=point.estimated_seconds,
            spill_bytes_per_thread=point.spill_bytes_per_thread,
        )
    report.note(
        "No GPU is available; the sweep uses the documented analytical occupancy/"
        "latency model anchored at the paper's 0.7 s reference point.  The model "
        "reproduces the paper's two observations: occupancy rises as the register "
        "cap shrinks while runtime worsens, and fp32 is barely faster than fp64 "
        "because the kernel is bound by the ~18.5 kB of replicated per-thread state "
        f"(compiled kernel private bytes: {info.private_bytes_per_eval})."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 7 — compilation cost breakdown
# ---------------------------------------------------------------------------


def figure7_report(trials: int = 4) -> FigureReport:
    """Run-time breakdown across optimisation levels (paper Figure 7)."""
    from ..models import multitasking as mt

    report = FigureReport("Figure 7", "Compilation and run-time breakdown at O0–O3")
    cases = [
        ("Predator-Prey L", lambda: pp_model.build_predator_prey("l"), pp_model.default_inputs(1), 1),
        ("Multitasking", lambda: mt.build_multitasking(max_cycles=120), mt.default_inputs(4), trials),
    ]
    baseline = None
    for label, build, inputs, num_trials in cases:
        for opt_level in (0, 1, 2, 3):
            # Figure 7 measures compilation cost itself, so it must bypass the
            # session cache: a memoized model would replay stale stats.
            compiled = compile_composition(build(), pipeline=f"default<O{opt_level}>")
            # The allocate / execute / extract phases of one compiled run,
            # timed here (EngineInstance.run reports execution alone).
            instance = compiled.engine_instance("compiled")
            start = time.perf_counter()
            buffers = compiled.allocate_buffers(inputs, num_trials, 0)
            allocated = time.perf_counter()
            instance.execute(buffers, num_trials)
            executed = time.perf_counter()
            compiled._collect_results(buffers, num_trials, instance.engine_name)
            extracted = time.perf_counter()
            stats = compiled.stats
            total = extracted - start + stats.total_seconds
            if baseline is None:
                baseline = total
            passes = stats.passes
            report.add(
                model=label,
                opt_level=f"O{opt_level}",
                compilation_s=stats.total_seconds,
                input_construction_s=allocated - start,
                execution_s=executed - allocated,
                output_extraction_s=extracted - executed,
                total_s=total,
                relative_to_first=total / baseline,
                ir_instructions=stats.instructions_after,
                analysis_hits=stats.analysis_hits,
                analysis_misses=stats.analysis_misses,
                artifact_hits=stats.artifact_hits,
                artifact_misses=stats.artifact_misses,
                pass_runs_changed=sum(row["changed"] for row in passes.values()),
                pass_runs_noop=sum(row["noops"] for row in passes.values()),
                noop_passes=",".join(
                    sorted(n for n, row in passes.items() if row["changed"] == 0)
                )
                or "-",
            )
    report.note(
        "As in the paper, compilation cost is visible but amortised: it is paid once "
        "while models are run for hundreds to thousands of trials afterwards."
    )
    report.note(
        "analysis_hits/misses are the per-compile AnalysisManager counters: hits are "
        "dominator trees / loop info / predecessor maps served from cache instead of "
        "rebuilt per pass (see figure7_cache_report for the cold-path comparison)."
    )
    report.note(
        "pass_runs_changed/noop count per-pass invocations that did / did not modify "
        "the IR; noop_passes lists passes that never changed it — the autotuner's "
        "first pruning candidates (see figure10_autotune_report)."
    )
    return report


def figure7_cache_report(repeats: int = 3) -> FigureReport:
    """Cold vs cached compilation: the analysis-manager contribution.

    The "cold" rows compile with ``flags={"analysis_cache": False}`` — every
    pass recomputes its own dominator trees / loop info, the pre-manager
    behaviour — while the "cached" rows use the default per-compile
    :class:`~repro.analysis.manager.AnalysisManager`.  ``optimize_s`` is the
    phase the cache affects (best of ``repeats``, the two modes interleaved
    per repeat); sanitize/codegen/lowering are identical in both
    configurations.
    """
    from ..models import multitasking as mt

    report = FigureReport(
        "Figure 7 (cache)", "O2 compile cost: cold vs cached analysis manager"
    )
    cases = [
        ("Predator-Prey M", lambda: pp_model.build_predator_prey("m")),
        ("Multitasking", lambda: mt.build_multitasking(max_cycles=120)),
    ]
    modes = (("cold", {"analysis_cache": False}), ("cached", None))
    for label, build in cases:
        best_opt = {mode: float("inf") for mode, _ in modes}
        best_total = dict(best_opt)
        compiled = {}
        # Each repeat compiles both modes back to back, so a change in host
        # speed during the measurement lands on both of them.
        for _ in range(max(repeats, 1)):
            for mode, flags in modes:
                start = time.perf_counter()
                compiled[mode] = compile_composition(build(), pipeline="default<O2>", flags=flags)
                best_total[mode] = min(best_total[mode], time.perf_counter() - start)
                best_opt[mode] = min(best_opt[mode], compiled[mode].stats.optimize_seconds)
        for mode, _ in modes:
            stats = compiled[mode].stats
            report.add(
                model=label,
                mode=mode,
                optimize_s=best_opt[mode],
                compile_s=best_total[mode],
                analysis_hits=stats.analysis_hits,
                analysis_misses=stats.analysis_misses,
                skipped_passes=stats.analysis_skipped_passes,
                domtree_builds=stats.analysis_computed.get("domtree", 0),
            )
        report.add(
            model=label,
            mode="speedup",
            optimize_s=best_opt["cold"] / best_opt["cached"],
            compile_s="-",
            analysis_hits="-",
            analysis_misses="-",
            skipped_passes="-",
            domtree_builds="-",
        )
    report.note(
        "Cached compiles build each function's dominator tree at most twice per O2 "
        "pipeline (cold build + one post-simplifycfg rebuild round, pinned by "
        "tests/test_analysis_manager.py); the cold path rebuilds it for every "
        "consuming pass."
    )
    return report


# ---------------------------------------------------------------------------
# Figure 2 — adaptive mesh refinement vs grid search
# ---------------------------------------------------------------------------


def empirical_attention_curve(
    compiled: CompiledModel,
    inputs: Dict[str, np.ndarray],
    levels: Sequence[float],
    samples_per_level: int = 200,
    fixed_allocation: Sequence[float] = (0.0, 0.0),
) -> List[Dict[str, float]]:
    """Average evaluation cost as a function of the prey attention level.

    This is the "grid" series of Figure 2: the model's evaluation kernel is
    executed ``samples_per_level`` times for every candidate level (through
    the lane-compiled grid kernel of the ``lane`` and ``gpu-sim`` engines,
    i.e. exactly what running the model would do), and the mean cost per
    level is reported.
    """
    from ..backends.lane import compile_lane_program, launch_grid_kernel

    info = compiled.grid_searches[0]
    kernel = compile_lane_program(compiled.module, compiled.function).functions[
        info.kernel_name
    ]
    flat_input = (
        list(inputs["player_loc"]) + list(inputs["predator_loc"]) + list(inputs["prey_loc"])
    )
    params = np.asarray(compiled.layout.param_values, dtype=float)
    lanes = samples_per_level
    rows = []
    for level_index, level in enumerate(levels):
        args: List[object] = [(np.broadcast_to(params, (lanes, params.size)), 0)]
        args += [float(v) for v in flat_input]
        args += [float(fixed_allocation[0]), float(fixed_allocation[1]), float(level)]
        args += [
            12345.0,  # fixed PRNG key; per-lane counters below
            np.arange(lanes, dtype=np.float64) * info.counter_stride
            + level_index * lanes * info.counter_stride,
        ]
        costs = launch_grid_kernel(kernel, args, lanes)
        rows.append({"attention": float(level), "mean_cost": float(np.mean(costs))})
    return rows


def figure2_report(grid_levels: int = 100, samples_per_level: int = 1000) -> FigureReport:
    """Mesh refinement over the prey-attention parameter (paper Figure 2)."""
    report = FigureReport(
        "Figure 2", "Finding the best prey attention: compiler analysis vs grid search"
    )
    composition = pp_model.build_predator_prey("m")
    compiled = SESSION.compile_model(composition)
    info = compiled.grid_searches[0]
    kernel = compiled.module.get_function(info.kernel_name)
    specialised = specialize_on_buffer(kernel, 0, compiled.layout.param_values)

    inputs = pp_model.default_inputs(1)[0]
    point_ranges = {}
    flat = list(inputs["player_loc"]) + list(inputs["predator_loc"]) + list(inputs["prey_loc"])
    for i, value in enumerate(flat):
        point_ranges[f"in{i}"] = Interval.point(float(value))
    point_ranges["alloc0"] = Interval.point(2.5)
    point_ranges["alloc1"] = Interval.point(2.5)
    point_ranges["rng_key"] = Interval(0.0, 2.0 ** 31)
    point_ranges["rng_counter"] = Interval(0.0, 2.0 ** 40)

    refiner = MeshRefiner(
        specialised,
        parameter="alloc2",
        objective="min",
        arg_ranges=point_ranges,
        assume_normal_range=3.0,
    )
    result = refiner.refine(0.0, 5.0, tolerance=0.05)

    # The "grid" series: the empirical mean-cost curve over sampled levels.
    curve_levels = list(np.linspace(0.0, 5.0, 26))
    curve = empirical_attention_curve(
        compiled,
        inputs,
        curve_levels,
        samples_per_level=max(samples_per_level // 5, 50),
        fixed_allocation=(2.5, 2.5),
    )
    empirical_best = min(curve, key=lambda row: row["mean_cost"])

    grid_runs = grid_levels * samples_per_level
    report.add(
        method="adaptive mesh refinement (VRP)",
        model_executions=0,
        analysis_rounds=result.rounds,
        vrp_runs=result.vrp_runs,
        estimated_optimum=result.estimate,
        interval=f"[{result.final_interval.lo:.3f}, {result.final_interval.hi:.3f}]",
    )
    report.add(
        method=f"sampled grid ({grid_levels} levels x {samples_per_level} samples)",
        model_executions=grid_runs,
        analysis_rounds="-",
        vrp_runs=0,
        estimated_optimum=f"{empirical_best['attention']:.3f} "
        f"(mean cost {empirical_best['mean_cost']:.3f})",
        interval="-",
    )
    report.note(
        "The paper reports ~7 refinement rounds versus hundreds of thousands of model "
        "runs for the sampled grid; the measured rounds are listed above."
    )
    for step in result.history:
        report.add(
            method=f"  round {step.round_index}",
            model_executions=0,
            analysis_rounds=step.round_index,
            vrp_runs=2,
            estimated_optimum=f"chose {step.chosen}",
            interval=f"[{(step.left if step.chosen == 'left' else step.right).lo:.3f}, "
            f"{(step.left if step.chosen == 'left' else step.right).hi:.3f}]",
        )
    return report


# ---------------------------------------------------------------------------
# Figure 3 — DDM / LCA clone detection
# ---------------------------------------------------------------------------


def figure3_report() -> FigureReport:
    """Clone detection between the LCA and DDM accumulation kernels (Figure 3)."""
    report = FigureReport("Figure 3", "DDM vs LCA accumulation kernels under parameter bindings")
    from ..ir import Module

    module = Module("figure3")
    lca = emit_library_function(
        LeakyCompetingIntegrator(noise=1.0, time_step=0.01, non_negative=0.0),
        input_size=1,
        module=module,
        name="lca_step",
        param_args=("leak", "competition", "offset"),
    )
    ddm = emit_library_function(
        DriftDiffusionIntegrator(noise=1.0, time_step=0.01),
        input_size=1,
        module=module,
        name="ddm_step",
        param_args=("rate",),
    )
    detector = CloneDetector()
    unbound = detector.compare(lca, ddm)
    bound = detector.compare(
        lca,
        ddm,
        left_bindings={"leak": 0.0, "competition": 0.0, "offset": 0.0},
        right_bindings={"rate": 1.0},
    )
    report.add(
        comparison="LCA vs DDM (no bindings)",
        equivalent=unbound.equivalent,
        detail=unbound.reason,
    )
    report.add(
        comparison="LCA(rate=0, offset=0) vs DDM(rate=1)",
        equivalent=bound.equivalent,
        detail=bound.reason,
        matched_instructions=bound.matched_instructions,
    )
    report.note(
        "The paper's Figure 3 highlights the identical accumulation core; with the "
        "same bindings the structural comparator reports equivalence, so the LCA "
        "node can be replaced by the DDM's analytical solution."
    )
    return report


FIG10_MODELS = (
    ("necker_cube_s", True),
    ("predator_prey_s", True),
    ("botvinick_stroop", True),
)


def figure10_autotune_report(quick: bool = False) -> FigureReport:
    """Pipeline autotuner: default<O2> vs the equivalence-proven tuned winner.

    A repro-only extension of the evaluation (the paper hard-codes one
    pipeline per optimisation level).  For each workload the autotuner
    generates candidate pipelines from the incumbent's per-pass changed/no-op
    profile, proves each candidate bitwise-equivalent on the workload's
    representative inputs, races the survivors, and reports the winner's
    weighted compile+run objective next to the incumbent's.  ``gate`` rows
    carry the floor asserted by ``benchmarks/bench_fig10_autotune.py``
    (``check_autotune_floor``): the winner's objective must never exceed
    the incumbent's (the incumbent itself is always raced and eligible, so
    "no candidate wins" degrades to returning the incumbent, not to a
    regression).
    """
    from ..driver.autotune import AutotuneConfig, run_autotune
    from ..fuzz.gen import generate_scale_spec

    config = AutotuneConfig(
        budget=6 if quick else 12,
        repeats=2 if quick else 3,
        warmup=0 if quick else 1,
    )
    report = FigureReport(
        "Figure 10", "Pipeline autotuner: default<O2> vs tuned winner"
    )

    workloads = []
    for name, gate in FIG10_MODELS:
        entry = get_model(name)
        workloads.append(
            (name, entry.build(), entry.inputs(), entry.num_trials, gate)
        )
    for seed, n_mechanisms in ((0, 60), (1, 120)):
        spec = generate_scale_spec(seed, n_mechanisms=n_mechanisms, width=6)
        workloads.append(
            (spec.name, spec.build(), spec.inputs, spec.num_trials, True)
        )

    for name, composition, inputs, num_trials, gate in workloads:
        result = run_autotune(
            composition, inputs, num_trials=num_trials, config=config,
            store=False,
        )
        rejected = sum(1 for r in result.records if r.status == "rejected")
        errored = sum(1 for r in result.records if r.status == "error")
        report.add(
            workload=name,
            default_pipeline=result.incumbent,
            default_objective_s=result.incumbent_objective,
            tuned_pipeline=result.winner,
            tuned_objective_s=result.objective,
            improvement=result.improvement,
            candidates_searched=result.searched,
            proven_equivalent=sum(1 for r in result.records if r.equivalent),
            rejected=rejected,
            errored=errored,
            tuned_is_incumbent=result.winner == result.incumbent,
            gate=gate,
        )
    report.note(
        f"objective = {config.compile_weight:g} * pipeline_compile_s + "
        f"{config.run_weight:g} * min-of-{config.repeats} run_s; every raced "
        "candidate was first proven bitwise-equivalent (result/monitor/state "
        "buffers + final PRNG counters) to the incumbent on the workload's "
        "representative inputs."
    )
    report.note(
        "store=False: every row reflects a fresh search. Cached resolution "
        "(pipeline=\"auto\") is covered by tests/test_autotune.py."
    )
    return report


def all_reports(quick: bool = True) -> List[FigureReport]:
    """Regenerate every figure (used by ``examples/regenerate_paper_figures.py``)."""
    reports = [
        figure2_report(),
        figure3_report(),
        figure4_report(trials_scale=0.5 if quick else 1.0),
        figure5a_report(variants=("s", "m", "l"), include_xl=not quick, xl_levels=40 if quick else 100),
        figure5b_report(trials=10 if quick else 20),
        figure5c_report(levels_per_entity=12 if quick else 20),
        figure6_report(),
        figure7_report(trials=2 if quick else 4),
        figure7_cache_report(repeats=2 if quick else 4),
    ]
    return reports
