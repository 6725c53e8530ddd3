"""SIMT (GPU) execution simulator (paper §3.6 and Figure 6, DISTILL-GPU).

No GPU is available in this environment, so the NVPTX/PyCUDA path is replaced
by two cooperating pieces (documented as a substitution in DESIGN.md):

* **Functional SIMT execution** — the ``gpu-sim`` engine (and ``lane`` on
  grid-search models) runs the evaluation kernel *data-parallel* on the
  lane code generator's grid kernel (:class:`repro.backends.lane.
  GridKernelEvaluator`): one lane per (element, grid point) of a scheduler
  step, in bounded launches, every IR value a
  NumPy array, PRNG draws through the vectorised counter-based generator,
  and each lane's replicated PRNG state in its own row of the lane frame.
  This is the mapping the paper's generated CUDA kernel uses (one thread per
  grid point, replicated read-write state), and it produces bit-identical
  results to the serial engine.

* **An analytical occupancy/latency model** — :class:`GpuOccupancyModel`
  reproduces the register-throttling study of Figure 6: occupancy rises as
  the register cap shrinks (more resident warps fit) while spilling into
  local memory makes each thread slower; with ~15–18 kB of private data per
  thread the kernel is memory-bound, which is why fp32 barely helps — the
  paper's observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .grid_driver import drive_elements
from .lane import _LaneProgramInstance


# ---------------------------------------------------------------------------
# Occupancy / latency model (Figure 6)
# ---------------------------------------------------------------------------


@dataclass
class GpuDeviceModel:
    """A small analytical model of the paper's GeForce GTX 1060 (3 GB)."""

    sm_count: int = 9
    registers_per_sm: int = 65536
    max_threads_per_sm: int = 2048
    warp_size: int = 32
    l1_kb_per_sm: float = 48.0
    dram_bandwidth_gbps: float = 192.0
    fp32_throughput: float = 1.0
    fp64_throughput: float = 1.0 / 32.0


@dataclass
class ThrottlePoint:
    """One bar of Figure 6."""

    max_registers: int
    precision: str
    occupancy: float
    estimated_seconds: float
    spill_bytes_per_thread: float


class GpuOccupancyModel:
    """Analytical occupancy and runtime under a register cap.

    ``private_bytes_per_thread`` models the replicated PRNG state and other
    per-evaluation read-write data (the paper reports ~15.5 kB for fp32 and
    ~18.5 kB for fp64, dominated by three MT19937 states of ~2.5 kB each).
    """

    def __init__(
        self,
        device: Optional[GpuDeviceModel] = None,
        kernel_flops: float = 200.0,
        registers_needed: int = 96,
        private_bytes_per_thread: float = 18_500.0,
        measured_reference_seconds: float = 0.7,
    ):
        self.device = device or GpuDeviceModel()
        self.kernel_flops = kernel_flops
        self.registers_needed = registers_needed
        self.private_bytes_per_thread = private_bytes_per_thread
        self.measured_reference_seconds = measured_reference_seconds

    def occupancy(self, max_registers: int) -> float:
        device = self.device
        registers_used = min(self.registers_needed, max_registers)
        threads_by_registers = device.registers_per_sm // max(registers_used, 1)
        occupancy = min(threads_by_registers, device.max_threads_per_sm) / device.max_threads_per_sm
        return min(occupancy, 1.0)

    def spill_bytes(self, max_registers: int) -> float:
        """Bytes per thread spilled to local memory because of the cap."""
        spilled_registers = max(self.registers_needed - max_registers, 0)
        return spilled_registers * 8.0

    def estimate(self, max_registers: int, precision: str = "fp64", grid_size: int = 1_000_000) -> ThrottlePoint:
        total = self.estimate_raw(max_registers, precision, grid_size)
        # Anchor the scale to the measured/paper reference point (256 regs, fp64).
        anchor = self.estimate_raw(256, "fp64", grid_size)
        scale = self.measured_reference_seconds / anchor if anchor > 0 else 1.0
        return ThrottlePoint(
            max_registers=max_registers,
            precision=precision,
            occupancy=self.occupancy(max_registers),
            estimated_seconds=total * scale,
            spill_bytes_per_thread=self.spill_bytes(max_registers),
        )

    def estimate_raw(self, max_registers: int, precision: str, grid_size: int) -> float:
        device = self.device
        occupancy = self.occupancy(max_registers)
        spill = self.spill_bytes(max_registers)
        # Compute time: more resident warps hide more latency, but the kernel
        # is memory-bound so the effect saturates quickly.
        throughput = device.fp32_throughput if precision == "fp32" else device.fp64_throughput
        compute_seconds = (
            self.kernel_flops * grid_size / (occupancy * device.sm_count * 1.5e12 * throughput)
        )
        # Memory time: every thread streams its private state (PRNG replicas)
        # plus whatever the register cap forced it to spill.
        private_bytes = self.private_bytes_per_thread * (0.85 if precision == "fp32" else 1.0)
        bytes_moved = grid_size * (private_bytes + spill * 4.0)
        memory_seconds = bytes_moved / (device.dram_bandwidth_gbps * 1e9)
        # Low occupancy cannot saturate DRAM bandwidth.
        memory_seconds /= max(min(occupancy * 4.0, 1.0), 0.05)
        return max(compute_seconds, memory_seconds)

    def register_sweep(
        self,
        caps: Sequence[int] = (256, 128, 64, 32, 16),
        precisions: Sequence[str] = ("fp32", "fp64"),
        grid_size: int = 1_000_000,
    ) -> List[ThrottlePoint]:
        """The full Figure 6 sweep."""
        return [self.estimate(cap, precision, grid_size) for precision in precisions for cap in caps]


# ---------------------------------------------------------------------------
# Engine registration (see repro.driver.engines)
# ---------------------------------------------------------------------------

from ..driver.engines import EngineCapabilities, EngineInstance, register_engine  # noqa: E402


class _GpuSimInstance(_LaneProgramInstance):
    """A gpu-sim binding: every model runs through the shared scheduler,
    grid evaluations on the lane program's grid kernel (a model without a
    grid-search controller runs whole compiled)."""

    def execute_batch(self, elements, **options):
        drive_elements(self.model, elements, self._evaluator.evaluate_batch)


@register_engine
class GpuSimEngine:
    """Data-parallel SIMT simulation of the evaluation kernel (``gpu-sim``)."""

    name = "gpu-sim"

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            name=self.name,
            description=(
                "data-parallel SIMT simulation of the grid-search kernel with an "
                "analytical occupancy model (DISTILL-GPU, Figures 5c and 6)"
            ),
            parallel=True,
        )

    def prepare(self, model) -> EngineInstance:
        return _GpuSimInstance(self.name, model)
