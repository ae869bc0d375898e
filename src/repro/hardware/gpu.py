"""GPU specifications, device instances, and the calibrated catalog.

The catalog numbers are *effective* (achieved) rates rather than datasheet
peaks.  They are calibrated so that the roofline model in
:mod:`repro.perf.roofline` reproduces the measured heterogeneity ratios of the
paper:

* Table 1 (OPT-2.7B iteration time): A100 : 3090 : P100 is roughly
  1 : 2.45 : 24.5 in the prefill phase (compute bound) and
  1 : 1.47 : 7.93 in the decode phase (bandwidth + overhead bound).
* Fig. 2 (Llama-70B single layer decode): the MLP gap between A100 and P100 is
  far larger than the Attention gap, which is what makes offloading decode
  Attention (but *not* dense modules) to low-end GPUs attractive.

The calibration is checked by the ``calibrated`` rows of the claims table
(:data:`repro.experiments.claims.CLAIMS`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.utils.units import gb_to_bytes, giga, tera
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU type.

    Attributes
    ----------
    name:
        Canonical lower-case type name, e.g. ``"a100"``.
    memory_bytes:
        Total device memory available to the serving engine.
    matmul_flops:
        Effective dense-GEMM throughput (FLOP/s) for large compute-bound
        kernels such as prefill MLP / QKV projections.
    small_batch_flops:
        Effective throughput for small, launch-bound GEMMs (decode-phase dense
        kernels with modest batch sizes).  Low-end GPUs fall off their roofline
        much faster here, which is what the calibration captures.
    mem_bandwidth:
        Effective HBM/GDDR bandwidth (bytes/s) achieved by memory-bound
        kernels (decode Attention, KV-cache reads).
    kernel_overhead:
        Fixed per-kernel launch + scheduling overhead in seconds.  Multiplied
        by the number of kernels an iteration launches; dominates decode on
        slow parts when batches are tiny.
    pcie_bandwidth:
        Host <-> device PCIe bandwidth (bytes/s); used for CPU off/on-loading
        and intra-host traffic that cannot use peer-to-peer copies.
    cost_per_hour:
        Rental price in $/hr, roughly on-demand cloud/colo rates.  Only
        *relative* magnitudes matter: the cost-aware autoscaler uses these to
        rank inactive replica blueprints when scaling up a heterogeneous
        fleet.  Defaults to 0 (cost-unaware) for ad-hoc specs.
    """

    name: str
    memory_bytes: int
    matmul_flops: float
    small_batch_flops: float
    mem_bandwidth: float
    kernel_overhead: float = 5e-6
    pcie_bandwidth: float = giga(12.0)
    cost_per_hour: float = 0.0

    def __post_init__(self) -> None:
        check_positive("memory_bytes", self.memory_bytes)
        check_positive("matmul_flops", self.matmul_flops)
        check_positive("small_batch_flops", self.small_batch_flops)
        check_positive("mem_bandwidth", self.mem_bandwidth)
        check_positive("pcie_bandwidth", self.pcie_bandwidth)
        if self.kernel_overhead < 0:
            raise ValueError("kernel_overhead must be >= 0")
        if self.cost_per_hour < 0:
            raise ValueError("cost_per_hour must be >= 0")

    @property
    def memory_gb(self) -> float:
        """Device memory in decimal GB (for reports and figures)."""
        return self.memory_bytes / 1e9

    def scaled(self, compute_factor: float = 1.0, bandwidth_factor: float = 1.0) -> "GPUSpec":
        """Return a hypothetical variant of this GPU with scaled rates.

        Useful for sensitivity experiments ("what if the low-end GPUs were 2x
        faster?") without touching the catalog.
        """
        return replace(
            self,
            matmul_flops=self.matmul_flops * compute_factor,
            small_batch_flops=self.small_batch_flops * compute_factor,
            mem_bandwidth=self.mem_bandwidth * bandwidth_factor,
        )


# ---------------------------------------------------------------------------
# Calibrated catalog.
#
# The headline rates follow the datasheets (A100 80GB SXM, GeForce RTX 3090,
# Tesla P100 12GB) but are de-rated to *achieved* throughput.  The
# ``small_batch_flops`` values are then calibrated so that the Table-1 decode
# ratios (1 : 1.47 : 7.93) and the Fig.-2 MLP gap (~30-40x for P100) emerge
# from the roofline model rather than being hard-coded anywhere downstream.
# ---------------------------------------------------------------------------

GPU_CATALOG: Dict[str, GPUSpec] = {}


def register_gpu_spec(spec: GPUSpec, overwrite: bool = False) -> GPUSpec:
    """Add a GPU type to the global catalog.

    Raises ``ValueError`` when the name is already registered and
    ``overwrite`` is false, so that test fixtures cannot silently clobber the
    calibrated entries.
    """
    key = spec.name.lower()
    if key in GPU_CATALOG and not overwrite:
        raise ValueError(f"GPU spec {key!r} already registered")
    GPU_CATALOG[key] = spec
    return spec


def get_gpu_spec(name: str) -> GPUSpec:
    """Look up a GPU type by (case-insensitive) name."""
    key = name.lower()
    try:
        return GPU_CATALOG[key]
    except KeyError as exc:
        raise KeyError(
            f"unknown GPU type {name!r}; known types: {sorted(GPU_CATALOG)}"
        ) from exc


register_gpu_spec(
    GPUSpec(
        name="a100",
        memory_bytes=gb_to_bytes(80),
        matmul_flops=tera(250.0),        # achieved fp16 tensor-core GEMM
        small_batch_flops=tera(95.0),
        mem_bandwidth=giga(1700.0),
        kernel_overhead=4e-6,
        pcie_bandwidth=giga(24.0),
        cost_per_hour=3.00,
    )
)

register_gpu_spec(
    GPUSpec(
        name="rtx3090",
        memory_bytes=gb_to_bytes(24),
        matmul_flops=tera(102.0),
        small_batch_flops=tera(55.0),
        mem_bandwidth=giga(900.0),
        kernel_overhead=5e-6,
        pcie_bandwidth=giga(12.0),
        cost_per_hour=0.85,
    )
)

register_gpu_spec(
    GPUSpec(
        name="p100",
        # The paper's cluster uses the 12 GB PCIe variant.
        memory_bytes=gb_to_bytes(12),
        matmul_flops=tera(10.2),         # no tensor cores: fp16 ~= 2x fp32
        small_batch_flops=tera(4.2),
        mem_bandwidth=giga(330.0),
        kernel_overhead=16e-6,
        pcie_bandwidth=giga(10.0),
        cost_per_hour=0.55,
    )
)

# Extra types beyond the paper's cluster, used by the cluster-planner example
# and the large-scale Parallelizer search-overhead experiment (5 GPU types).
register_gpu_spec(
    GPUSpec(
        name="v100",
        memory_bytes=gb_to_bytes(32),
        matmul_flops=tera(95.0),
        small_batch_flops=tera(40.0),
        mem_bandwidth=giga(780.0),
        kernel_overhead=6e-6,
        pcie_bandwidth=giga(12.0),
        cost_per_hour=1.80,
    )
)

register_gpu_spec(
    GPUSpec(
        name="a6000",
        memory_bytes=gb_to_bytes(48),
        matmul_flops=tera(145.0),
        small_batch_flops=tera(65.0),
        mem_bandwidth=giga(700.0),
        kernel_overhead=5e-6,
        pcie_bandwidth=giga(20.0),
        cost_per_hour=1.30,
    )
)

register_gpu_spec(
    GPUSpec(
        name="t4",
        memory_bytes=gb_to_bytes(16),
        matmul_flops=tera(45.0),
        small_batch_flops=tera(18.0),
        mem_bandwidth=giga(260.0),
        kernel_overhead=8e-6,
        pcie_bandwidth=giga(10.0),
        cost_per_hour=0.35,
    )
)


@dataclass
class GPUDevice:
    """A concrete GPU instance placed in a host.

    A device tracks how much of its memory is committed to model parameter
    shards versus reserved for KV cache, which is exactly the accounting the
    paper's memory-efficiency argument (Fig. 1 and Fig. 11) is about.
    """

    device_id: int
    spec: GPUSpec
    host_id: int = 0
    # Fraction of device memory the runtime keeps back for activations,
    # CUDA context, fragmentation slack, etc. (vLLM's gpu_memory_utilization
    # knob plays the same role).
    reserved_fraction: float = 0.10
    weight_bytes: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.reserved_fraction < 1.0:
            raise ValueError("reserved_fraction must be in [0, 1)")
        if self.weight_bytes < 0:
            raise ValueError("weight_bytes must be >= 0")

    # -- memory accounting ---------------------------------------------------

    @property
    def usable_bytes(self) -> int:
        """Memory available to weights + KV cache after the runtime reserve."""
        return int(self.spec.memory_bytes * (1.0 - self.reserved_fraction))

    @property
    def kv_capacity_bytes(self) -> int:
        """Bytes left for KV cache after the currently assigned weight shard."""
        return max(0, self.usable_bytes - self.weight_bytes)

    def assign_weights(self, n_bytes: int) -> None:
        """Commit ``n_bytes`` of model parameters to this device.

        Raises ``MemoryError`` when the shard does not fit -- parallelization
        planners use this to filter infeasible configurations.
        """
        if n_bytes < 0:
            raise ValueError("cannot assign a negative number of weight bytes")
        if n_bytes > self.usable_bytes:
            raise MemoryError(
                f"weight shard of {n_bytes / 1e9:.2f} GB does not fit on "
                f"{self.spec.name} device {self.device_id} "
                f"({self.usable_bytes / 1e9:.2f} GB usable)"
            )
        self.weight_bytes = int(n_bytes)

    # -- convenience ----------------------------------------------------------

    @property
    def name(self) -> str:
        """Readable identifier such as ``a100:3``."""
        return f"{self.spec.name}:{self.device_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GPUDevice({self.name}, host={self.host_id}, "
            f"weights={self.weight_bytes / 1e9:.1f}GB, "
            f"kv={self.kv_capacity_bytes / 1e9:.1f}GB)"
        )
