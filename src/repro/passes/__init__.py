"""repro.passes — optimisation and analysis passes over the repro IR.

The pass set mirrors the "standard optimization passes" the paper runs on the
LLVM IR generated for cognitive models (section 3.5), plus the supporting
analyses (dominators, loop info) and the aggressive inliner used both for
whole-model optimisation and for model-level clone detection (section 4.4).
"""

from .cloning import clone_function, clone_instruction
from .constprop import ConstantPropagation, fold_instruction
from .cse import CommonSubexpressionElimination, expression_key
from .dce import DeadCodeElimination
from .dominators import DominatorTree
from .inline import Inliner, inline_all_calls
from .instcombine import InstCombine
from .licm import LoopInvariantCodeMotion
from .loopinfo import Loop, LoopInfo
from .mem2reg import Mem2Reg
from .pass_base import FunctionPass, ModulePass, Pass, call_pass
from .pass_manager import (
    VERIFY_POLICIES,
    FixpointPass,
    PassManager,
    RepeatPass,
    build_standard_pipeline,
    coerce_verify_policy,
    describe_pass,
)
from .simplifycfg import SimplifyCFG

__all__ = [
    "Pass",
    "FunctionPass",
    "ModulePass",
    "call_pass",
    "PassManager",
    "RepeatPass",
    "FixpointPass",
    "VERIFY_POLICIES",
    "coerce_verify_policy",
    "describe_pass",
    "build_standard_pipeline",
    "DominatorTree",
    "Loop",
    "LoopInfo",
    "SimplifyCFG",
    "Mem2Reg",
    "ConstantPropagation",
    "fold_instruction",
    "DeadCodeElimination",
    "CommonSubexpressionElimination",
    "expression_key",
    "LoopInvariantCodeMotion",
    "Inliner",
    "inline_all_calls",
    "InstCombine",
    "clone_function",
    "clone_instruction",
]
