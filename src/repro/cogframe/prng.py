"""Counter-based pseudo-random number generation.

Reproducibility is a first-class requirement in cognitive modelling (paper
section 3.6): every evaluation of a grid-search point must draw the *same*
random numbers regardless of whether it runs serially, on a thread pool or on
a (simulated) GPU.  Distill achieves this by making the PRNG state an explicit
read-write parameter that is replicated per evaluation.

We use a small counter-based generator in the spirit of Philox/splitmix64:
the state is a ``(key, counter)`` pair of non-negative integers and each draw
is a pure function of that pair.  Because the state is tiny and explicit, it
can be stored in the static parameter structures generated by the compiler,
copied per thread/lane, and advanced identically by

* the reference (interpretive) runner — via :class:`CounterRNG`,
* the IR interpreter and the compiled Python backend — via the
  ``rng_uniform`` / ``rng_normal`` intrinsics, and
* the vectorised SIMT backend — via the array variants below.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Size (in slots) of one PRNG state in the static parameter structures.
STATE_SLOTS = 2

#: Bytes of replicated state per generator when modelling GPU memory pressure
#: (the paper reports ~7.5 kB of PRNG state per thread for three NumPy
#: MT19937 generators; our counter-based generator is far smaller, so the GPU
#: simulator exposes a configurable ``legacy_state_bytes`` knob to reproduce
#: the paper's memory-pressure study).
LEGACY_NUMPY_STATE_BYTES = 2504


def mix64(key: int, counter: int) -> int:
    """The core mixing function: a pure 64-bit hash of ``(key, counter)``."""
    z = (int(key) * _GAMMA + int(counter) * _MIX1 + 0x632BE59BD9B4E019) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def uniform_from_state(key: int, counter: int) -> Tuple[float, int]:
    """Draw a uniform sample in [0, 1) and return ``(value, new_counter)``."""
    z = mix64(key, counter)
    # 53-bit mantissa for a double in [0, 1).
    value = (z >> 11) * (1.0 / (1 << 53))
    return value, int(counter) + 1


def normal_from_state(key: int, counter: int) -> Tuple[float, int]:
    """Draw a standard normal sample via Box-Muller.

    Consumes two counter values so that parallel lanes drawing interleaved
    uniforms and normals stay reproducible.  The second Box-Muller output is
    discarded: statefulness beyond the counter would break the pure-function
    property the compiler relies on.
    """
    u1, counter = uniform_from_state(key, counter)
    u2, counter = uniform_from_state(key, counter)
    # Guard against log(0).
    u1 = max(u1, 1e-300)
    value = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return value, counter


# ---------------------------------------------------------------------------
# Vectorised variants used by the SIMT (GPU simulator) backend.
# ---------------------------------------------------------------------------

def mix64_array(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorised :func:`mix64` over uint64 arrays."""
    with np.errstate(over="ignore"):
        keys = keys.astype(np.uint64)
        counters = counters.astype(np.uint64)
        z = (
            keys * np.uint64(_GAMMA)
            + counters * np.uint64(_MIX1)
            + np.uint64(0x632BE59BD9B4E019)
        )
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


def uniform_array(keys: np.ndarray, counters: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised uniform draw; returns ``(values, new_counters)``."""
    z = mix64_array(keys, counters)
    values = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return values, counters + 1


def normal_array(keys: np.ndarray, counters: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised standard-normal draw via Box-Muller.

    The two uniforms are drawn through one stacked ``(2, n)`` mix64 pass —
    elementwise identical to two sequential draws, at half the ufunc count.
    """
    counters = np.asarray(counters).astype(np.uint64)
    stacked = np.stack((counters, counters + np.uint64(1)))
    z = mix64_array(np.asarray(keys), stacked)
    u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    u1 = np.maximum(u[0], 1e-300)
    values = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u[1])
    return values, counters + np.uint64(2)


def _coerce_states(keys, counters) -> Tuple[np.ndarray, np.ndarray]:
    """Lift float-typed key/counter slot values to broadcast uint64 arrays.

    Both SIMT-style backends (the GPU simulator and the lane engine) store
    PRNG state in float64 slot buffers; keys fit in 31 bits and counters stay
    far below 2**53, so the float round-trip is exact.
    """
    keys = np.asarray(keys)
    counters = np.asarray(counters).astype(np.uint64)
    keys_u = keys.astype(np.uint64)
    if counters.ndim and keys_u.shape != counters.shape:
        keys_u = np.broadcast_to(keys_u, counters.shape)
    return keys_u, counters


def vectorized_uniform(keys, counters) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform draws from float-typed state slots; counters return as float64.

    Bit-identical per lane to :func:`uniform_from_state` — the shared kernel
    behind ``gpu_sim`` and the lane backend's ``rng_uniform`` lowering.
    """
    keys_u, counters_u = _coerce_states(keys, counters)
    values, new_counters = uniform_array(keys_u, counters_u)
    return values, new_counters.astype(np.float64)


def vectorized_normal(keys, counters) -> Tuple[np.ndarray, np.ndarray]:
    """Normal draws from float-typed state slots; counters return as float64.

    Per lane, the counters (two per draw) and the two uniforms are
    bit-identical to :func:`normal_from_state`, with the same ``1e-300``
    guard; the Box-Muller value goes through numpy's ``log``/``cos``/``sqrt``
    kernels, which may differ from libm's in the final ulp.
    """
    keys_u, counters_u = _coerce_states(keys, counters)
    values, new_counters = normal_array(keys_u, counters_u)
    return values, new_counters.astype(np.float64)


class CounterRNG:
    """Object-style wrapper around the counter-based generator.

    This is the generator used by the *reference* (interpretive) model runner;
    because it shares :func:`uniform_from_state` / :func:`normal_from_state`
    with the compiled backends, reference and compiled executions of the same
    model produce bit-identical random streams — which the test suite checks.
    """

    def __init__(self, seed: int = 0, stream: int = 0):
        self.key = self.derive_key(seed, stream)
        self.counter = 0

    @staticmethod
    def derive_key(seed: int, stream: int) -> int:
        """Derive a per-stream key from a global seed and a stream index."""
        return mix64(int(seed) & MASK64, (int(stream) * 2 + 1) & MASK64) & ((1 << 31) - 1)

    # -- state ----------------------------------------------------------------
    @property
    def state(self) -> Tuple[int, int]:
        return (self.key, self.counter)

    @state.setter
    def state(self, value: Tuple[int, int]) -> None:
        self.key, self.counter = int(value[0]), int(value[1])

    def copy(self) -> "CounterRNG":
        clone = CounterRNG.__new__(CounterRNG)
        clone.key = self.key
        clone.counter = self.counter
        return clone

    # -- draws ----------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        value, self.counter = uniform_from_state(self.key, self.counter)
        return low + (high - low) * value

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        value, self.counter = normal_from_state(self.key, self.counter)
        return mean + std * value

    def choice_index(self, n: int) -> int:
        """Uniformly pick an index in ``range(n)``."""
        if n <= 0:
            raise ValueError("choice_index requires a positive n")
        return min(int(self.uniform() * n), n - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CounterRNG(key={self.key}, counter={self.counter})"
