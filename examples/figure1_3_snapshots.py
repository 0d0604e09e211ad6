"""Regenerate the runtime-state snapshots of the paper's Figures 1 and 3.

* **Figure 1** (local static autobatching, batch ``[3, 7, 4, 5]``): the
  recursion lives on the host Python stack, so the snapshot is a stack of
  interpreter activations, each with its own per-member program counter,
  active mask, and variable storage.  Logical threads in different
  activations cannot batch together.

* **Figure 3** (program-counter autobatching, batch ``[6, 7, 8, 9]``): the
  whole state is arrays — per-variable stacks with per-member stack
  pointers, plus a program counter with a stack of its own.  Threads at
  different stack depths batch whenever they wait at the same block.

Run: ``python examples/figure1_3_snapshots.py``
"""

import numpy as np

from repro import autobatch
from repro.vm.local_static import LocalStaticInterpreter
from repro.vm.program_counter import ProgramCounterVM


@autobatch
def fib(n):
    if n <= 1:
        return 1
    return fib(n - 2) + fib(n - 1)


def render_grid(title, columns, rows):
    """rows: list of (label, [cell per member]); '' for absent cells."""
    width = max(6, *(len(str(c)) for row in rows for c in row[1]))
    label_w = max(len(r[0]) for r in rows)
    lines = [title]
    header = " " * label_w + " | " + " ".join(str(c).rjust(width) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for label, cells in rows:
        lines.append(
            label.ljust(label_w)
            + " | "
            + " ".join(str(c).rjust(width) for c in cells)
        )
    return "\n".join(lines)


def figure1(snap_at_step: int = 12):
    """Snapshot the local-static machine mid-run, like Figure 1."""
    batch = np.array([3, 7, 4, 5])
    print(f"=== Figure 1: local static autobatching on fib({batch.tolist()}) ===\n")
    captured = []

    def on_step(interp, block_index, mask):
        interp.steps_seen = getattr(interp, "steps_seen", 0) + 1
        if interp.steps_seen == snap_at_step and not captured:
            frames = []
            for frame in interp.frames:
                env = frame["env"]
                values = {}
                for var in ("n", "__call4"):
                    st = env.get(var)
                    values[var] = (
                        st.array.copy() if st is not None and st.array is not None else None
                    )
                frames.append(
                    {
                        "pc": frame["pc"].copy(),
                        "active": frame["active"].copy(),
                        "vars": values,
                        "about_to_run": block_index,
                    }
                )
            captured.append(frames)

    interp = LocalStaticInterpreter(fib.program, on_step=on_step)
    result = interp.run([batch])
    frames = captured[0]
    members = list(range(len(batch)))
    print(f"snapshot at machine step {snap_at_step}; "
          f"{len(frames)} Python-stack activations deep\n")
    for depth, frame in enumerate(frames):
        rows = [
            ("active", ["*" if a else "." for a in frame["active"]]),
            ("pc (block)", list(frame["pc"])),
        ]
        for var, pretty in (("n", "n"), ("__call4", "left")):
            arr = frame["vars"][var]
            cells = list(arr) if arr is not None else ["-"] * len(batch)
            rows.append((pretty, cells))
        print(render_grid(f"-- Python stack frame {depth} --", members, rows))
        print()
    print("final fib:", result[0], "\n")


def figure3(n_steps: int = 40):
    """Snapshot the program-counter machine mid-run, like Figure 3."""
    batch = np.array([6, 7, 8, 9])
    print(f"=== Figure 3: program counter autobatching on fib({batch.tolist()}) ===\n")
    program = fib.stack_program(optimize=True)
    vm = ProgramCounterVM(program, batch_size=len(batch))
    vm.bind_inputs([batch])
    vm.scheduler.reset()
    for _ in range(n_steps):
        if not vm.step():
            break
    snap = vm.snapshot()
    members = list(range(len(batch)))

    print(f"snapshot after {n_steps} machine steps\n")
    rows = [("pc (top)", list(snap["program_counter"]))]
    print(render_grid("-- program counter --", members, rows))
    print()
    pc_frames = snap["pc_stack"]["frames"]
    depth = max(len(f) for f in pc_frames)
    rows = [
        (
            f"ret[{level}]",
            [f[level] if level < len(f) else "" for f in pc_frames],
        )
        for level in reversed(range(depth))
    ]
    rows.append(("sp", list(snap["pc_stack"]["stack_pointers"])))
    print(render_grid("-- pc return-address stack --", members, rows))
    print()
    for var, pretty in (("fib.n", "stack for n"), ("fib.__call4", "stack for left")):
        data = snap["variable_stacks"].get(var)
        if data is None:
            continue
        frames = data["frames"]
        depth = max(len(f) for f in frames)
        rows = [
            (
                f"[{level}]",
                [
                    (f[level] if level < len(f) else "")
                    for f in frames
                ],
            )
            for level in reversed(range(depth))
        ]
        rows.append(("sp", list(data["stack_pointers"])))
        print(render_grid(f"-- {pretty} (top at sp) --", members, rows))
        print()

    # Finish the run to show correctness is unaffected by pausing.
    while vm.step():
        pass
    print("final fib:", vm.outputs()[0])


if __name__ == "__main__":
    figure1()
    figure3()
