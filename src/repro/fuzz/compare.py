"""The one differential check: observe two sides, compare what they saw.

Every differential in the repository goes through this pair: the oracle's
engine, pipeline, reference, sanitizer, lane and incremental legs
(:mod:`repro.fuzz.oracle`), the pipeline autotuner's candidate-vs-incumbent
gate (:mod:`repro.driver.autotune`) and, because they replay the oracle, the
shrunk fuzz reproducers.

* :func:`observe` runs one side and returns what it produced — the raw
  ``(results, monitor, state)`` buffers of :func:`raw_buffers`, a list of
  such triples (one per ``run_batch`` element), or any other value a leg
  compares — or, when the side raised, its error as ``"Type: message"``.
* :func:`compare` decides whether two observations agree.  Both sides
  raising is agreement (a model that fails everywhere fails consistently);
  one side raising is a divergence.  Buffers must be equal elementwise with
  ``NaN == NaN`` (bitwise-for-floats): optimisation and engine choice must
  not change observable behaviour at all, and anything looser would let a
  miscompiling autotune candidate win a race.  The state buffer holds every
  mechanism's final PRNG ``(key, counter)``, so equal buffers imply equal
  counters; a mismatch in the state buffer is annotated with both sides'
  final counters.

The one documented tolerance is :data:`LANE_RTOL`, used only by the lane leg
on controller-free models.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LANE_RTOL",
    "Mismatch",
    "buffers_equal",
    "compare",
    "final_rng_counters",
    "observe",
    "proof_hash",
    "raw_buffers",
]

#: Relative tolerance of the lane leg.  The lane engine evaluates the
#: exp/log/log1p/tanh/pow intrinsics and ``rng_normal`` through numpy ufuncs
#: whose transcendental kernels may differ from libm's in the final ulp
#: (measured up to 4e-16 relative on numpy 2.4.6), so those values — and any
#: value computed from them — can sit a few ulps away from the scalar
#: engine's.  Integers, uniforms and PRNG counters are small exact values, so
#: they still compare exactly (DESIGN.md, "Lane backend: tolerance policy").
LANE_RTOL = 1e-14

_BUFFER_NAMES = ("results", "monitor", "state")


def raw_buffers(
    compiled, inputs, num_trials: int, seed: int, engine: str, **options
) -> Tuple[List[float], List[float], List[float]]:
    """Execute ``engine`` and return the raw (results, monitor, state) buffers."""
    buffers = compiled.allocate_buffers(inputs, num_trials, seed)
    compiled.engine_instance(engine).execute(buffers, num_trials, **options)
    return (
        list(buffers["results"]),
        list(buffers["monitor"]),
        list(buffers["state"]),
    )


def buffers_equal(a, b, rtol: float = 0.0) -> Optional[str]:
    """``None`` when two raw buffer triples agree, else the first difference.

    Agreement is exact elementwise equality with ``NaN == NaN``; ``rtol``
    widens it to a relative tolerance (the lane leg's :data:`LANE_RTOL`).
    """
    for name, left, right in zip(_BUFFER_NAMES, a, b):
        la = np.asarray(left, dtype=float)
        ra = np.asarray(right, dtype=float)
        if np.array_equal(la, ra, equal_nan=True):
            continue
        if la.shape != ra.shape:
            return f"{name} buffers differ in length: {la.size} vs {ra.size}"
        close = np.isclose(la, ra, rtol=rtol, atol=0.0, equal_nan=True)
        if close.all():
            continue
        index = int(np.argmin(close))
        beyond = f" beyond rtol={rtol}" if rtol else ""
        return (
            f"{name} buffers differ at slot {index}{beyond}: "
            f"{left[index]} vs {right[index]}"
        )
    return None


def final_rng_counters(compiled, state: Sequence[float]) -> Dict[str, int]:
    """Per-mechanism final PRNG counters read out of a finished state buffer."""
    return {
        name: int(state[offset + 1])
        for name, offset in compiled.layout.rng_offsets.items()
    }


def observe(run: Callable, *args, **kwargs):
    """``run(*args, **kwargs)``, or the error it raised as ``"Type: message"``."""
    try:
        return run(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - an error is an observation
        return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Mismatch:
    """Why two observations disagree."""

    detail: str
    #: Exactly one side raised.
    raised: bool = False


def compare(
    a,
    b,
    labels: Tuple[str, str] = ("baseline", "candidate"),
    model=None,
    equal: Callable[[object, object], Optional[str]] = buffers_equal,
) -> Optional[Mismatch]:
    """``None`` when the observations ``a`` and ``b`` agree, else a :class:`Mismatch`.

    ``labels`` name the two sides in the detail.  ``equal`` compares two
    successful observations (default: :func:`buffers_equal`); a list of
    buffer triples is compared element by element.  ``model`` (a compiled
    model of either side) names the PRNG slots when the state buffers differ.
    """
    a_raised, b_raised = isinstance(a, str), isinstance(b, str)
    if a_raised or b_raised:
        if a_raised and b_raised:
            return None
        return Mismatch(
            f"{labels[0]}={a if a_raised else 'ok'} vs "
            f"{labels[1]}={b if b_raised else 'ok'}",
            raised=True,
        )
    if isinstance(a, list):
        for element, (left, right) in enumerate(zip(a, b)):
            mismatch = compare(left, right, labels, model, equal)
            if mismatch is not None:
                return Mismatch(f"batch element {element}: {mismatch.detail}")
        return None
    detail = equal(a, b)
    if detail is None:
        return None
    if model is not None and detail.startswith("state"):
        detail += (
            f"; final PRNG counters {labels[0]}={final_rng_counters(model, a[2])} "
            f"vs {labels[1]}={final_rng_counters(model, b[2])}"
        )
    return Mismatch(detail)


def proof_hash(observation) -> str:
    """Content hash of an observation: its buffers, or its error string.

    Recorded in autotune provenance: two candidates proven equivalent carry
    the *same* proof hash as the incumbent, so the equivalence claim in a
    persisted tuning record can be audited after the fact without re-running
    the race.
    """
    digest = hashlib.sha256()
    if isinstance(observation, str):
        digest.update(observation.encode("utf-8"))
        return digest.hexdigest()
    for part in observation:
        digest.update(np.asarray(part, dtype=float).tobytes())
        digest.update(b"|")
    return digest.hexdigest()
