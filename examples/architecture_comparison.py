"""Every autobatching architecture from the paper, on one program.

Section 5 surveys the design space: local static autobatching (Algorithm 1,
also Matchbox/JAX-vmap/pfor style), program-counter autobatching
(Algorithm 2, the contribution), and dynamic batching (Neubig et al.).
This repository implements all of them over the same primitive registry —
so here they all run the same recursive Fibonacci batch and we compare what
each one's runtime actually did.

Run: ``python examples/architecture_comparison.py``
"""

import time

import numpy as np

from repro import autobatch
from repro.bench.report import format_table
from repro.dynbatch import DynamicBatcher, LazyContext
from repro.matchbox import MaskedBatch, cond, matchbox_call
from repro.matchbox.masked import as_masked
from repro.vm.instrumentation import Instrumentation


@autobatch
def fib(n):
    if n <= 1:
        return 1
    return fib(n - 2) + fib(n - 1)


def mb_fib(n: MaskedBatch):
    def base(n):
        return (as_masked(1, n.batch_size).with_mask(n.mask),)

    def recurse(n):
        (left,) = matchbox_call(mb_fib, n - 2)
        (right,) = matchbox_call(mb_fib, n - 1)
        return (left + right,)

    return cond(n <= 1, base, recurse, (n,))


def main():
    batch = np.random.RandomState(0).randint(5, 17, size=24).astype(np.int64)
    expected = fib.run_reference(batch)
    rows = []

    def timed(label, fn, kernel_calls=None, note=""):
        start = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - start
        np.testing.assert_array_equal(np.asarray(out), expected)
        rows.append([label, f"{seconds*1e3:.1f}",
                     kernel_calls() if callable(kernel_calls) else (kernel_calls or "-"),
                     note])

    timed("plain Python (per member)", lambda: fib.run_reference(batch),
          note="the semantics; no batching")

    instr = Instrumentation()
    timed("local static (Alg 1)",
          lambda: fib.run_local(batch, instrumentation=instr),
          kernel_calls=lambda: instr.kernel_calls,
          note="masking; recursion on the Python stack")

    instr_h = Instrumentation()
    timed("hybrid (Alg 1 + fused blocks)",
          lambda: fib.run_local(batch, fuse_blocks=True, instrumentation=instr_h),
          note="eager control, one dispatch per straight-line run")

    instr2 = Instrumentation()
    timed("program counter (Alg 2)",
          lambda: fib.run_pc(batch, instrumentation=instr2),
          kernel_calls=lambda: instr2.kernel_calls,
          note="flat machine; batches across stack depths")

    instr3 = Instrumentation()
    timed("program counter, fused (XLA analog)",
          lambda: fib.run_pc(batch, executor="fused", instrumentation=instr3),
          kernel_calls=lambda: instr3.kernel_calls,
          note="one dispatch per block")
    rows[-1][-1] = (f"one dispatch per block "
                    f"({fib.execution_plan('fused').dispatch_count(instr3):,} total)")

    def run_matchbox():
        (out,) = mb_fib(MaskedBatch(batch))
        return out.data

    timed("Matchbox style (§5)", run_matchbox,
          note="masked-array type; queue on the Python stack")

    batcher = DynamicBatcher()
    ctx = LazyContext(batcher)

    def run_dynamic():
        def lazy_fib(n):
            if n <= 1:
                return ctx.constant(1)
            return lazy_fib(n - 2) + lazy_fib(n - 1)

        return [int(lazy_fib(int(n)).value()) for n in batch]

    timed("dynamic batching (§5)", run_dynamic,
          kernel_calls=lambda: batcher.kernel_calls,
          note="opportunistic")
    rows[-1][-1] = f"opportunistic; {batcher.batching_factor():.0f} nodes/kernel"

    print(f"fib on a batch of {len(batch)} (values {batch.min()}..{batch.max()}); "
          "all architectures agree bitwise\n")
    print(format_table(["architecture", "ms", "kernel calls", "notes"], rows))


if __name__ == "__main__":
    main()
