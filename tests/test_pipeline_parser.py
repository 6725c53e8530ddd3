"""Tests for the textual pipeline parser (repro.driver.pipeline).

Covers the satellite requirements: ``describe()`` <-> ``parse_pipeline``
round-trips, ``default<O0..O3>`` alias expansion (including the acceptance
check that ``default<O2>`` reproduces the exact ``build_standard_pipeline(2)``
sequence), pass parameters, nesting, and clear ``PipelineParseError``
messages on malformed input.
"""

import pytest
from hypothesis import given, settings

import repro
from repro.driver.pipeline import parse_pipeline
from strategies import pipeline_texts
from repro.driver.registry import create_pass, list_pipeline_aliases
from repro.errors import PipelineParseError
from repro.passes import (
    CommonSubexpressionElimination,
    FixpointPass,
    Inliner,
    Mem2Reg,
    PassManager,
    RepeatPass,
    build_standard_pipeline,
)


def flatten(passes):
    """Recursive (type, params) skeleton of a pass sequence, for equality."""
    out = []
    for p in passes:
        if isinstance(p, RepeatPass):
            out.append(("repeat", p.iterations, tuple(flatten([p.inner]))))
        elif isinstance(p, FixpointPass):
            out.append(("fixpoint", p.max_iterations, tuple(flatten([p.inner]))))
        elif isinstance(p, PassManager):
            out.append(("pipeline", tuple(flatten(p.passes))))
        elif isinstance(p, Inliner):
            out.append((type(p).__name__, p.threshold, p.aggressive))
        else:
            out.append((type(p).__name__,))
    return out


class TestAliasExpansion:
    def test_default_o2_matches_standard_pipeline_exactly(self):
        reference = build_standard_pipeline(2)
        parsed = parse_pipeline("default<O2>")
        assert flatten(parsed.passes) == flatten(reference.passes)
        assert len(parsed.passes) == 17

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_all_levels_expand(self, level):
        parsed = parse_pipeline(f"default<O{level}>")
        reference = build_standard_pipeline(level)
        assert flatten(parsed.passes) == flatten(reference.passes)

    def test_bare_default_is_o2(self):
        assert flatten(parse_pipeline("default").passes) == flatten(
            parse_pipeline("default<O2>").passes
        )

    def test_alias_composes_with_extra_passes(self):
        pm = parse_pipeline("default<O1>,licm,cse")
        base = parse_pipeline("default<O1>")
        assert len(pm.passes) == len(base.passes) + 2
        assert flatten(pm.passes)[: len(base.passes)] == flatten(base.passes)

    def test_default_is_registered_alias(self):
        assert "default" in list_pipeline_aliases()


class TestParameters:
    def test_inline_threshold(self):
        pm = parse_pipeline("inline(threshold=400)")
        (inliner,) = pm.passes
        assert isinstance(inliner, Inliner)
        assert inliner.threshold == 400
        assert inliner.aggressive is False

    def test_bool_and_multiple_params(self):
        pm = parse_pipeline("inline(threshold=400, aggressive=true)")
        (inliner,) = pm.passes
        assert inliner.threshold == 400
        assert inliner.aggressive is True

    def test_iterations_shorthand_wraps_in_repeat(self):
        pm = parse_pipeline("cse(iterations=2)")
        (wrapper,) = pm.passes
        assert isinstance(wrapper, RepeatPass)
        assert wrapper.iterations == 2
        assert isinstance(wrapper.inner, CommonSubexpressionElimination)


class TestNesting:
    def test_repeat(self):
        pm = parse_pipeline("repeat<3>(cse,dce),simplifycfg")
        wrapper, tail = pm.passes
        assert isinstance(wrapper, RepeatPass) and wrapper.iterations == 3
        assert isinstance(wrapper.inner, PassManager)
        assert len(wrapper.inner.passes) == 2
        # Nested sub-pipelines leave verification to the outer manager.
        assert wrapper.inner.verify == "off"

    def test_fixpoint_default_and_explicit_bound(self):
        (fp,) = parse_pipeline("fixpoint(instcombine,dce)").passes
        assert isinstance(fp, FixpointPass)
        assert fp.max_iterations == FixpointPass.DEFAULT_MAX_ITERATIONS
        (fp5,) = parse_pipeline("fixpoint<5>(instcombine)").passes
        assert fp5.max_iterations == 5

    def test_nested_pipeline_preserves_semantics(self):
        from helpers import build_branchy_function
        from repro.backends.interp import Interpreter
        from repro.ir import Module

        def result(pipeline_text):
            module = Module("parser_semantics")
            build_branchy_function(module)
            parse_pipeline(pipeline_text).run(module)
            return [
                Interpreter(module).call("branchy", [float(x), float(y)])
                for x, y in ((-3.0, 1.0), (0.0, 0.0), (7.0, 2.0))
            ]

        baseline = result("")  # O0
        assert result("repeat<2>(mem2reg,constprop,dce),simplifycfg") == baseline
        assert result("fixpoint(default<O2>)") == baseline


class TestRoundTrip:
    CASES = [
        "default<O2>",
        "default<O0>",
        "mem2reg,constprop,dce",
        "inline(threshold=400, aggressive=true),cse",
        "cse(iterations=2)",
        "repeat<2>(cse,dce),simplifycfg",
        "fixpoint(instcombine,dce)",
        "fixpoint<5>(default<O1>)",
        "default<O3>,licm,cse(iterations=2)",
        # Empty sub-pipelines (O0 expands to no passes) must round-trip too —
        # found by the random-tree property test below.
        "fixpoint(default<O0>)",
        "repeat<2>(default<O0>),dce",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_describe_reparses_to_same_pipeline(self, text):
        pm = parse_pipeline(text)
        described = pm.describe()
        reparsed = parse_pipeline(described)
        assert flatten(reparsed.passes) == flatten(pm.passes)
        # describe() is canonical: a second round-trip is a fixed point.
        assert reparsed.describe() == described

    def test_registry_created_pass_carries_repr(self):
        p = create_pass("inline", threshold=400)
        assert p.pipeline_repr == "inline(threshold=400)"

    def test_string_params_with_commas_and_quotes_round_trip(self):
        from repro.driver.registry import register_pass
        from repro.passes import FunctionPass

        @register_pass("echoparam")
        class EchoParamPass(FunctionPass):
            name = "echoparam"

            def __init__(self, label=""):
                self.label = label

            def run_on_function(self, function, am=None):
                return False

        for label in ("a,b", "it's", 'nested "quote"', "paren ) and < angle"):
            pm = parse_pipeline(f"dce,echoparam(label={label!r})")
            assert pm.passes[1].label == label
            reparsed = parse_pipeline(pm.describe())
            assert reparsed.passes[1].label == label
            assert reparsed.describe() == pm.describe()

    def test_unterminated_string_literal_rejected(self):
        with pytest.raises(PipelineParseError, match="unterminated string"):
            parse_pipeline("inline(threshold='oops)")

    @given(pipeline_texts)
    @settings(max_examples=60, deadline=None)
    def test_property_random_trees_round_trip(self, text):
        """``parse_pipeline(describe(p))`` is the identity (and a fixed point)
        over randomly generated pipeline trees: passes, parameters, aliases
        and nested repeat/fixpoint combinators."""
        pm = parse_pipeline(text)
        described = pm.describe()
        reparsed = parse_pipeline(described)
        assert flatten(reparsed.passes) == flatten(pm.passes)
        assert reparsed.describe() == described
        assert reparsed.verify == pm.verify


class TestErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("frobnicate", "unknown pass 'frobnicate'"),
            ("mem2reg,,dce", "empty pipeline entry"),
            ("inline(threshold=400", "unbalanced"),
            ("default<O2", "unbalanced"),
            ("inline(threshold)", "expected key=value"),
            ("dce(foo=1)", "bad parameters for pass 'dce'"),
            ("default<O9>", "bad variant 'O9'"),
            ("default(fast)", "does not take parameters"),
            ("mem2reg<O2>", "does not take a <variant>"),
            ("repeat(cse)", "repeat needs an iteration count"),
            ("repeat<0>(cse)", "positive integer"),
            ("cse(iterations=0)", "iterations must be a positive integer"),
            ("mem2reg dce", "trailing text"),
            ("inline(threshold=1, threshold=2)", "duplicate parameter"),
            ("inline(2x=3)", "bad parameter name"),
            ("inline(threshold=@)", "cannot parse parameter value"),
            ("inline(threshold=)", "empty parameter value"),
            ("fixpoint<0>(cse)", "positive integer"),
            ("fixpoint", "needs a parenthesised sub-pipeline"),
            ("cse)", "unbalanced"),
            ("default<O2>>", "unbalanced"),
            ("cse(iterations=true)", "iterations must be a positive integer"),
            (",cse", "empty pipeline entry"),
            ("<O2>", "cannot parse pipeline entry"),
        ],
    )
    def test_malformed_input_message(self, text, fragment):
        with pytest.raises(PipelineParseError) as excinfo:
            parse_pipeline(text)
        assert fragment in str(excinfo.value)

    def test_unknown_pass_lists_known_passes(self):
        with pytest.raises(PipelineParseError) as excinfo:
            parse_pipeline("nosuchpass")
        assert "mem2reg" in str(excinfo.value)

    def test_non_string_rejected(self):
        with pytest.raises(PipelineParseError):
            parse_pipeline(42)

    def test_error_is_importable_from_top_level(self):
        assert repro.PipelineParseError is PipelineParseError


class TestVerifyPolicy:
    def test_policy_threaded_through(self):
        assert parse_pipeline("dce", verify="each").verify == "each"
        assert parse_pipeline("dce", verify="off").verify == "off"
        assert parse_pipeline("dce").verify == "boundary"

    def test_bools_rejected(self):
        for flag in (True, False):
            with pytest.raises(ValueError, match="unknown verify policy"):
                parse_pipeline("dce", verify=flag)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            parse_pipeline("dce", verify="sometimes")


class TestPublicSurface:
    def test_list_passes(self):
        names = repro.list_passes()
        for expected in (
            "mem2reg",
            "constprop",
            "cse",
            "dce",
            "licm",
            "inline",
            "instcombine",
            "simplifycfg",
        ):
            assert expected in names

    def test_parse_pipeline_exported(self):
        assert repro.parse_pipeline is parse_pipeline

    def test_version(self):
        assert isinstance(repro.__version__, str) and repro.__version__
