"""Tests for the vectorised lane backend (paper §3.5's SIMT model on CPU).

The lane engine lowers structured-codegen output to numpy array programs
over a batch axis: every IR value is an ``(n_lanes,)`` array, batch elements
map onto lanes, and divergent control flow runs under boolean masks.  The
claim under test is *bit-identical* results to the scalar compiled engine —
outputs, monitor records, per-element pass counts and final PRNG counters —
with one documented exception: values from numpy's transcendental kernels
(the exp/log/log1p/tanh/pow intrinsics and ``rng_normal``) may differ from
libm's in the final ulp, within :data:`repro.fuzz.oracle.LANE_RTOL` (see
DESIGN.md, "Lane backend").  ``TestLaneIntrinsics`` pins that bound, the
exact edge cases and the bitwise IEEE-exact ops.

Also covers the run_batch edge cases pinned across engines (empty batch,
batch of one, mismatched input shapes, per-element seed streams), the
per-lane scalar fallback for IR the lane emitter cannot vectorise, and the
persistent lane worker pool.
"""

import itertools
import math

import numpy as np
import pytest

import repro
from repro.backends import lane as lane_backend
from repro.backends import runtime
from repro.cogframe import prng
from repro.core.distill import compile_composition
from repro.errors import EngineError
from repro.fuzz.oracle import LANE_RTOL
from repro.models import predator_prey as pp
from repro.models import stroop

PP_INPUTS = pp.default_inputs(1)


def run_batch_outputs(instance, batch, trials, seeds, **options):
    results = instance.run_batch(batch, num_trials=trials, seed=seeds, **options)
    return [
        [(t.passes, {k: np.asarray(v) for k, v in t.outputs.items()}) for t in r.trials]
        for r in results
    ]


def assert_batches_bitwise(left, right):
    assert len(left) == len(right)
    for le, re in zip(left, right):
        assert len(le) == len(re)
        for (lp, lo), (rp, ro) in zip(le, re):
            assert lp == rp
            assert lo.keys() == ro.keys()
            for node in lo:
                assert np.array_equal(lo[node], ro[node], equal_nan=True), node


# ---------------------------------------------------------------------------
# The vectorised PRNG helpers (shared by gpu_sim and the lane emitter)
# ---------------------------------------------------------------------------


class TestVectorizedPrng:
    KEYS = np.array(
        [prng.CounterRNG.derive_key(seed, stream) for seed in range(16) for stream in range(4)],
        dtype=np.float64,
    )
    COUNTERS = np.arange(64, dtype=np.float64) * 13

    def test_vectorized_uniform_bitwise_vs_scalar(self):
        values, counters = prng.vectorized_uniform(self.KEYS, self.COUNTERS)
        assert counters.dtype == np.float64
        for i in range(len(self.KEYS)):
            value, counter = prng.uniform_from_state(
                int(self.KEYS[i]), int(self.COUNTERS[i])
            )
            assert values[i] == value
            assert counters[i] == counter

    def test_vectorized_normal_counters_bitwise_values_ulp(self):
        """Counters advance bitwise; values match to the final ulp.

        ``np.log`` and ``math.log`` may disagree in the last ulp (both are
        within 1 ulp of the true result, but not always the *same* ulp), so
        the Box-Muller value is pinned to <= 2 ulps of the scalar draw while
        everything feeding it (the two uniforms, the counters) stays exact.
        """
        values, counters = prng.vectorized_normal(self.KEYS, self.COUNTERS)
        for i in range(len(self.KEYS)):
            value, counter = prng.normal_from_state(
                int(self.KEYS[i]), int(self.COUNTERS[i])
            )
            assert counters[i] == counter
            a = np.float64(values[i]).view(np.int64)
            b = np.float64(value).view(np.int64)
            assert abs(int(a) - int(b)) <= 2, (i, values[i], value)

    def test_scalar_broadcast_states(self):
        # gpu_sim passes a scalar key with an array of counters.
        values, counters = prng.vectorized_uniform(12345.0, np.array([0.0, 1.0, 2.0]))
        for i in range(3):
            value, counter = prng.uniform_from_state(12345, i)
            assert values[i] == value and counters[i] == counter


# ---------------------------------------------------------------------------
# The vectorised intrinsic table against the scalar guarded table
# ---------------------------------------------------------------------------


#: Sampling domain of each lane intrinsic's arguments (one range per arg).
INTRINSIC_DOMAINS = {
    "exp": [(-700.0, 700.0)],
    "log": [(-1.0, 1e6)],
    "log1p": [(-1.5, 1e3)],
    "sqrt": [(-1.0, 1e6)],
    "sin": [(-100.0, 100.0)],
    "cos": [(-100.0, 100.0)],
    "tanh": [(-20.0, 20.0)],
    "fabs": [(-1e6, 1e6)],
    "floor": [(-4.0, 4.0)],
    "ceil": [(-4.0, 4.0)],
    "pow": [(-2.0, 10.0), (-5.0, 5.0)],
    "fmin": [(-10.0, 10.0), (-10.0, 10.0)],
    "fmax": [(-10.0, 10.0), (-10.0, 10.0)],
    "copysign": [(-10.0, 10.0), (-10.0, 10.0)],
}

#: Ops whose IEEE result is exactly determined (no transcendental rounding):
#: numpy and libm must agree bit for bit.
IEEE_EXACT = ("sqrt", "fabs", "floor", "ceil", "fmin", "fmax", "copysign")

EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e3, -1e3)


def _scalar_reference(name, args):
    impl = runtime.INTRINSIC_IMPLS[name]
    return np.array([float(impl(*row)) for row in zip(*(a.tolist() for a in args))])


class TestLaneIntrinsics:
    SAMPLES = 20_000

    @pytest.fixture(autouse=True)
    def _lane_errstate(self):
        """The table is called directly here; lane programs run under the
        engine's ``np.errstate(all="ignore")``."""
        with np.errstate(all="ignore"):
            yield

    def _samples(self, name):
        rng = np.random.default_rng(sorted(INTRINSIC_DOMAINS).index(name))
        return [rng.uniform(lo, hi, self.SAMPLES) for lo, hi in INTRINSIC_DOMAINS[name]]

    def test_table_covers_every_sampled_intrinsic(self):
        assert sorted(INTRINSIC_DOMAINS) == sorted(lane_backend.LANE_INTRINSICS)

    @pytest.mark.parametrize("name", sorted(INTRINSIC_DOMAINS))
    def test_agrees_with_scalar_within_lane_rtol(self, name):
        """numpy's transcendental kernels may round differently from libm
        (by host and SIMD path), but never beyond :data:`LANE_RTOL`."""
        args = self._samples(name)
        lane = np.asarray(lane_backend.LANE_INTRINSICS[name](*args), dtype=float)
        scalar = _scalar_reference(name, args)
        assert np.array_equal(np.isnan(lane), np.isnan(scalar))
        assert np.allclose(lane, scalar, rtol=LANE_RTOL, atol=0.0, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(INTRINSIC_DOMAINS))
    def test_edge_cases_match_exactly(self, name):
        """NaN, ±inf and ±0 results match exactly, the sign of zero included
        (every runtime intrinsic is total, so no input is skipped)."""
        impl = runtime.INTRINSIC_IMPLS[name]
        arity = len(INTRINSIC_DOMAINS[name])
        for combo in itertools.product(EDGE_VALUES, repeat=arity):
            expected = float(impl(*combo))
            got = lane_backend.LANE_INTRINSICS[name](*(np.array([c]) for c in combo))
            got = float(np.asarray(got)[0])
            if math.isnan(expected):
                assert math.isnan(got), (name, combo, got)
            else:
                assert got == expected, (name, combo, got, expected)
                assert math.copysign(1.0, got) == math.copysign(1.0, expected), (
                    name, combo, got, expected,
                )

    @pytest.mark.parametrize("name", IEEE_EXACT)
    def test_ieee_exact_ops_are_bitwise(self, name):
        args = self._samples(name)
        lane = np.asarray(lane_backend.LANE_INTRINSICS[name](*args), dtype=float)
        scalar = _scalar_reference(name, args)
        assert np.array_equal(lane.view(np.int64), scalar.view(np.int64))


# ---------------------------------------------------------------------------
# Lane vs scalar compiled conformance
# ---------------------------------------------------------------------------


class TestLaneConformance:
    def test_run_batch_matches_compiled_bitwise(self):
        compiled = compile_composition(
            pp.build_predator_prey("s"), pipeline="default<O2>"
        )
        try:
            scalar = compiled.engine_instance("compiled")
            lane = compiled.engine_instance("lane")
            batch = [PP_INPUTS] * 5
            seeds = [3, 11, 11, 40, 1]
            assert_batches_bitwise(
                run_batch_outputs(scalar, batch, 3, seeds),
                run_batch_outputs(lane, batch, 3, seeds),
            )
            assert lane.lane_fallbacks == []
        finally:
            compiled.close_engines()

    def test_controller_free_run_batch_lowers_every_function(self):
        """The trial driver's ``memset``/``memcpy`` have a lane lowering, so
        a controller-free model runs without per-lane fallbacks, mixed
        trial counts included."""
        from repro.models import necker

        compiled = compile_composition(necker.build_necker_cube_s(passes=60))
        try:
            scalar = compiled.engine_instance("compiled")
            lane = compiled.engine_instance("lane")
            batch = [necker.default_inputs(3)] * 3
            trials, seeds = [1, 3, 2], [0, 5, 9]
            assert_batches_bitwise(
                run_batch_outputs(scalar, batch, trials, seeds),
                run_batch_outputs(lane, batch, trials, seeds),
            )
            assert lane.lane_fallbacks == []
        finally:
            compiled.close_engines()

    def test_single_run_matches_compiled(self):
        compiled = compile_composition(
            stroop.build_botvinick_stroop(noise=0.01), pipeline="default<O2>"
        )
        try:
            inputs = stroop.default_inputs("incongruent")
            base = compiled.run(inputs, num_trials=4, seed=9, engine="compiled")
            vec = compiled.run(inputs, num_trials=4, seed=9, engine="lane")
            for bt, vt in zip(base.trials, vec.trials):
                assert bt.passes == vt.passes
                for node in bt.outputs:
                    np.testing.assert_array_equal(bt.outputs[node], vt.outputs[node])
        finally:
            compiled.close_engines()

    def test_state_buffers_and_rng_counters_bitwise(self):
        compiled = compile_composition(
            pp.build_predator_prey("s"), pipeline="default<O2>"
        )
        try:
            elements = {}
            for engine in ("compiled", "lane"):
                elems = [
                    (compiled.allocate_buffers(PP_INPUTS, 2, seed), 2)
                    for seed in (0, 1, 2)
                ]
                compiled.engine_instance(engine).execute_batch(elems)
                elements[engine] = elems
            for (base, _), (cand, _) in zip(elements["compiled"], elements["lane"]):
                np.testing.assert_array_equal(base["state"], cand["state"])
                for name, offset in compiled.layout.rng_offsets.items():
                    assert base["state"][offset + 1] == cand["state"][offset + 1], name
        finally:
            compiled.close_engines()

    def test_registered_with_capabilities(self):
        caps = repro.engine_capabilities()["lane"]
        assert caps.parallel and caps.supports_workers and caps.compiled
        assert "lane" in repro.list_engines()

    def test_compile_target_lane(self):
        engine = repro.compile(pp.build_predator_prey("s"), target="lane")
        results = engine.run_batch([PP_INPUTS] * 3, num_trials=1, seed=[0, 1, 2])
        assert len(results) == 3
        assert all(r.engine == "lane" for r in results)


# ---------------------------------------------------------------------------
# run_batch edge cases, pinned across engines
# ---------------------------------------------------------------------------


ENGINES = ("compiled", "lane", "mcpu")


class TestRunBatchEdgeCases:
    @pytest.fixture(scope="class")
    def compiled(self):
        model = compile_composition(pp.build_predator_prey("s"), pipeline="default<O2>")
        yield model
        model.close_engines()

    def _options(self, engine):
        return {"workers": 2} if engine == "mcpu" else {}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_batch(self, compiled, engine):
        instance = compiled.engine_instance(engine)
        assert instance.run_batch([], num_trials=1, seed=0, **self._options(engine)) == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_of_one_equals_run(self, compiled, engine):
        instance = compiled.engine_instance(engine)
        options = self._options(engine)
        [batched] = instance.run_batch([PP_INPUTS], num_trials=2, seed=5, **options)
        single = instance.run(PP_INPUTS, num_trials=2, seed=5, **options)
        for bt, st in zip(batched.trials, single.trials):
            assert bt.passes == st.passes
            for node in st.outputs:
                np.testing.assert_array_equal(bt.outputs[node], st.outputs[node])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mismatched_input_shapes_raise_engine_error(self, compiled, engine):
        instance = compiled.engine_instance(engine)
        bad = [[0.1, 0.2, 0.3]]  # the model's input nodes expect 6 values
        with pytest.raises(EngineError, match="expected 6 values"):
            instance.run_batch(
                [PP_INPUTS, bad], num_trials=1, seed=0, **self._options(engine)
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_seed_streams_are_independent_per_element(self, compiled, engine):
        """Distinct element seeds draw distinct PRNG streams, and each
        element reproduces a solo run with its seed."""
        instance = compiled.engine_instance(engine)
        options = self._options(engine)
        results = instance.run_batch(
            [PP_INPUTS] * 3, num_trials=2, seed=[7, 7, 21], **options
        )
        out = lambda r: [  # noqa: E731
            {k: np.asarray(v) for k, v in t.outputs.items()} for t in r.trials
        ]
        # Same seed => identical element results; the engine must not couple
        # lanes/workers into one shared stream.
        for a, b in zip(out(results[0]), out(results[1])):
            for node in a:
                np.testing.assert_array_equal(a[node], b[node])
        solo = instance.run(PP_INPUTS, num_trials=2, seed=21, **options)
        for a, b in zip(out(results[2]), out(solo)):
            for node in a:
                np.testing.assert_array_equal(a[node], b[node])


# ---------------------------------------------------------------------------
# Per-lane scalar fallback and the worker pool
# ---------------------------------------------------------------------------


class TestLaneFallbackAndPool:
    def test_unsupported_intrinsic_falls_back_per_lane(self, monkeypatch):
        """Without a lane lowering for ``exp`` the affected functions must
        drop to the per-lane scalar path — recorded in the stats — while
        results stay bitwise."""
        monkeypatch.delitem(lane_backend.LANE_INTRINSICS, "exp")
        compiled = compile_composition(
            stroop.build_botvinick_stroop(noise=0.01), pipeline="default<O2>"
        )
        try:
            inputs = stroop.default_inputs("incongruent")
            scalar = compiled.engine_instance("compiled")
            lane = compiled.engine_instance("lane")
            batch = [inputs] * 3
            assert_batches_bitwise(
                run_batch_outputs(scalar, batch, 2, [0, 1, 2]),
                run_batch_outputs(lane, batch, 2, [0, 1, 2]),
            )
            assert lane.lane_fallbacks, "expected per-lane fallbacks without exp"
            for name in lane.lane_fallbacks:
                assert "exp" in lane.lane_fallback_reasons[name]
        finally:
            compiled.close_engines()

    def test_worker_pool_bitwise_and_persistent(self):
        """``workers`` chunks the controller-free whole-program sweep (a
        grid-search model's lane runs never reach the pool)."""
        compiled = compile_composition(
            stroop.build_botvinick_stroop(noise=0.01), pipeline="default<O2>"
        )
        try:
            lane = compiled.engine_instance("lane")
            batch = [stroop.default_inputs("incongruent")] * 4
            seeds = [0, 1, 2, 3]
            serial = run_batch_outputs(lane, batch, 2, seeds)
            pooled = run_batch_outputs(lane, batch, 2, seeds, workers=2)
            assert_batches_bitwise(serial, pooled)
            run_batch_outputs(lane, batch, 2, seeds, workers=2)
            assert lane.pool_starts == 1  # one pool across pooled calls
        finally:
            compiled.close_engines()


# ---------------------------------------------------------------------------
# Trial folding: num_trials rides the lane axis on RNG-free models
# ---------------------------------------------------------------------------


from helpers import build_deterministic_cascade  # noqa: E402 - shared model builder


class TestTrialFolding:
    INPUTS = [[0.4, -0.7], [1.2, 0.3]]  # two rows -> trials cycle rows

    def test_folded_trials_bitwise_vs_scalar_and_unfolded(self):
        compiled = compile_composition(build_deterministic_cascade(), pipeline="default<O2>")
        try:
            assert not compiled.layout.rng_offsets
            scalar = compiled.engine_instance("compiled")
            lane = compiled.engine_instance("lane")
            batch = [self.INPUTS] * 3
            base = run_batch_outputs(scalar, batch, 5, [0, 1, 2])
            folded = run_batch_outputs(lane, batch, 5, [0, 1, 2])
            assert lane.trials_folded == 15  # 3 elements x 5 trials
            unfolded = run_batch_outputs(lane, batch, 5, [0, 1, 2], fold_trials=False)
            assert lane.trials_folded == 15  # opt-out leaves the counter alone
            assert_batches_bitwise(base, folded)
            assert_batches_bitwise(folded, unfolded)
        finally:
            compiled.close_engines()

    def test_folded_buffers_bitwise_including_state(self):
        """The split-merge must reproduce the whole buffer set — per-trial
        result records, monitor records and the *last* trial's state/double
        buffers — not just the extracted outputs."""
        compiled = compile_composition(build_deterministic_cascade(), pipeline="default<O2>")
        try:
            elements = {}
            for engine in ("compiled", "lane"):
                elems = [
                    (compiled.allocate_buffers(self.INPUTS, 4, seed), 4)
                    for seed in (0, 1)
                ]
                compiled.engine_instance(engine).execute_batch(elems)
                elements[engine] = elems
            for (base, _), (cand, _) in zip(elements["compiled"], elements["lane"]):
                for key in ("results", "monitor", "state", "prev", "cur"):
                    np.testing.assert_array_equal(base[key], cand[key], err_msg=key)
        finally:
            compiled.close_engines()

    def test_single_run_folds_too(self):
        compiled = compile_composition(build_deterministic_cascade(), pipeline="default<O2>")
        try:
            lane = compiled.engine_instance("lane")
            vec = lane.run(self.INPUTS, num_trials=6, seed=3)
            assert lane.trials_folded == 6
            base = compiled.engine_instance("compiled").run(self.INPUTS, num_trials=6, seed=3)
            for bt, vt in zip(base.trials, vec.trials):
                assert bt.passes == vt.passes
                for node in bt.outputs:
                    np.testing.assert_array_equal(bt.outputs[node], vt.outputs[node])
        finally:
            compiled.close_engines()

    def test_control_models_never_fold(self):
        """A grid-search controller addresses its draws by
        ``eval_epoch = trial_idx * max_passes + pass_idx`` — no amount of
        counter extrapolation reproduces a later trial from a ``trial_idx=0``
        sub-lane, and the stateful counters can still line up while the
        epoch-addressed draws diverge.  Control-bearing models must be
        excluded *statically*, not caught by verification."""
        compiled = compile_composition(pp.build_predator_prey("s"), pipeline="default<O2>")
        try:
            lane = compiled.engine_instance("lane")
            lane.run_batch([PP_INPUTS] * 2, num_trials=3, seed=[0, 1])
            assert lane.trials_folded == 0
            assert lane.rng_trials_folded == 0
            assert lane.rng_fold_fallbacks == 0
        finally:
            compiled.close_engines()


class TestRngTrialFolding:
    """Speculative trial folding for RNG models (PRNG counter extrapolation)."""

    def _buffers(self, compiled, entry, engine, trials, **options):
        buffers = compiled.allocate_buffers(entry.inputs(), trials, 7)
        compiled.engine_instance(engine).execute(buffers, trials, **options)
        return buffers

    def test_rng_fold_bitwise_vs_looped_trials_across_engines(self):
        """Folded RNG trials must be bitwise-identical to the sequential
        masked trial loop — the whole buffer set, against every scalar
        engine and against the lane engine's own unfolded run."""
        from repro.models.registry import get_model

        entry = get_model("necker_cube_s")
        compiled = compile_composition(entry.build(), pipeline="default<O2>")
        try:
            assert compiled.layout.rng_offsets
            trials = 4
            folded = self._buffers(compiled, entry, "lane", trials)
            lane = compiled.engine_instance("lane")
            assert lane.rng_trials_folded == trials
            assert lane.rng_fold_fallbacks == 0
            assert lane.trials_folded == 0  # RNG folds are counted separately
            references = {
                "lane-unfolded": self._buffers(
                    compiled, entry, "lane", trials, fold_trials=False
                ),
                "compiled": self._buffers(compiled, entry, "compiled", trials),
                "mcpu": self._buffers(compiled, entry, "mcpu", trials),
            }
            for ref_name, ref in references.items():
                for key in ("results", "monitor", "state", "prev", "cur"):
                    np.testing.assert_array_equal(
                        np.asarray(ref[key]),
                        np.asarray(folded[key]),
                        err_msg=f"{ref_name}:{key}",
                    )
        finally:
            compiled.close_engines()

    def test_varying_draw_count_falls_back_bitwise(self):
        """A model whose per-trial draw count varies fails the counter
        verification; the element's buffers were never written by the
        speculative lanes, so the fallback rerun is bitwise-clean."""
        from repro.models.registry import get_model

        entry = get_model("multitasking")
        compiled = compile_composition(entry.build(), pipeline="default<O2>")
        try:
            trials = max(entry.num_trials, 3)
            folded = self._buffers(compiled, entry, "lane", trials)
            lane = compiled.engine_instance("lane")
            assert lane.rng_fold_fallbacks == 1
            assert lane.rng_trials_folded == 0
            unfolded = self._buffers(
                compiled, entry, "lane", trials, fold_trials=False
            )
            for key in ("results", "monitor", "state", "prev", "cur"):
                np.testing.assert_array_equal(
                    np.asarray(unfolded[key]), np.asarray(folded[key]), err_msg=key
                )
        finally:
            compiled.close_engines()

    def test_mixed_batch_folds_eligible_elements_only(self):
        """Single-trial elements ride sweep 1 unchanged while multi-trial
        elements of the same batch fold; outputs match per-element runs."""
        from repro.models.registry import get_model

        entry = get_model("botvinick_stroop")
        compiled = compile_composition(entry.build(), pipeline="default<O2>")
        try:
            lane = compiled.engine_instance("lane")
            inputs = entry.inputs()
            batched = [
                (compiled.allocate_buffers(inputs, trials, seed), trials)
                for seed, trials in ((0, 3), (1, 1), (2, 2))
            ]
            lane.execute_batch(batched)
            assert lane.rng_trials_folded == 5  # 3 + 2; the 1-trial lane rides along
            singles = [
                (compiled.allocate_buffers(inputs, trials, seed), trials)
                for seed, trials in ((0, 3), (1, 1), (2, 2))
            ]
            for buffers, trials in singles:
                compiled.engine_instance("compiled").execute(buffers, trials)
            for (folded, _), (base, _) in zip(batched, singles):
                for key in ("results", "monitor", "state"):
                    np.testing.assert_array_equal(
                        np.asarray(base[key]), np.asarray(folded[key]), err_msg=key
                    )
        finally:
            compiled.close_engines()
