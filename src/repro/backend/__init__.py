"""Simulated accelerator substrate.

The paper's backends are TensorFlow Eager (per-kernel dispatch overhead) and
XLA (kernel fusion, low dispatch overhead).  This package reproduces the
*mechanisms* those backends contribute to Figure 5:

* :mod:`repro.backend.fusion` — compiles each basic block of a stack program
  into a single generated Python function ("fused kernel"), replacing the
  op-at-a-time interpreter loop.  One dispatch per block instead of one per
  primitive: the XLA analog.  :class:`SuperblockExecutor` goes below that
  floor, chaining blocks into multi-block runs with side exits.
* :mod:`repro.backend.regions` — the region-selection pass feeding the
  superblock executor: static fall-through chains, optionally extended
  through branches by a :class:`~repro.observe.BlockProfile`.
* :mod:`repro.backend.device` — deterministic cost models of a CPU-like and
  a GPU-like device (dispatch overhead, throughput, parallel width), used to
  produce reproducible simulated timings alongside real wall-clock ones.
* :mod:`repro.backend.kernels` — kernel-dispatch accounting shared by both.
"""

from repro.backend.device import CPU_DEVICE, GPU_DEVICE, DeviceModel
from repro.backend.fusion import (
    FusedBlockExecutor,
    FusionUnsupported,
    SuperblockExecutor,
)
from repro.backend.kernels import KernelLibrary
from repro.backend.regions import RegionTable, select_regions

__all__ = [
    "CPU_DEVICE",
    "GPU_DEVICE",
    "DeviceModel",
    "FusedBlockExecutor",
    "FusionUnsupported",
    "SuperblockExecutor",
    "KernelLibrary",
    "RegionTable",
    "select_regions",
]
