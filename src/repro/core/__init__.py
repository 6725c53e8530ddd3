"""repro.core — the Distill compiler.

* :mod:`repro.core.structs` — static data-structure conversion (§3.3).
* :mod:`repro.core.node_codegen` — per-node templates and specialisation (§3.4).
* :mod:`repro.core.codegen` — whole-model code generation, compiled
  scheduling and grid-search regions (§3.4–3.6).
* :mod:`repro.core.distill` — the compilation stages
  (:func:`compile_composition`, :class:`CompiledModel`).
"""

from .codegen import CompiledArtifacts, GridSearchInfo, generate_model_ir
from .distill import CompiledModel, CompileStats, compile_composition
from .structs import StaticLayout, build_layout

__all__ = [
    "compile_composition",
    "CompiledModel",
    "CompileStats",
    "StaticLayout",
    "build_layout",
    "generate_model_ir",
    "CompiledArtifacts",
    "GridSearchInfo",
]
