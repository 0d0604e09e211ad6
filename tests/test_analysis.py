"""Unit tests for liveness, call-graph, and storage-class analyses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.call_graph import analyze_call_graph
from repro.analysis.cfg import reverse_postorder, successors
from repro.analysis.liveness import (
    call_save_sets,
    compute_liveness,
    definitely_assigned_check,
)
from repro.analysis.storage import assign_storage
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.instructions import VarKind
from repro.lowering.rename import rename_program

from .programs import fib, gcd, is_even, loop_calling, poly


def diamond_function():
    """entry -> (left | right) -> join; x defined in entry, used at join."""
    b = FunctionBuilder("diamond", params=("a",), outputs=("__ret0",))
    entry, left, right, join = b.blocks("entry", "left", "right", "join")
    entry.prim(("x",), "id", ("a",)).prim(("c",), "gt", ("a", "a")).branch(
        "c", left, right
    )
    left.prim(("y",), "add", ("x", "a")).jump(join)
    right.prim(("y",), "sub", ("x", "a")).jump(join)
    join.prim(("__ret0",), "id", ("y",)).ret()
    return b.build()


class TestCFG:
    def test_successors(self):
        fn = diamond_function()
        succ = successors(fn)
        assert set(succ["entry"]) == {"left", "right"}
        assert succ["join"] == ()

    def test_reverse_postorder_starts_at_entry(self):
        order = reverse_postorder(diamond_function())
        assert order[0] == "entry"
        assert order.index("join") > order.index("left")
        assert order.index("join") > order.index("right")

    def test_reverse_postorder_on_loop(self):
        order = reverse_postorder(gcd.ir)
        assert order[0] == gcd.ir.blocks[0].label
        assert set(order) == {b.label for b in gcd.ir.blocks}


class TestLiveness:
    def test_diamond_live_sets(self):
        fn = diamond_function()
        live = compute_liveness(fn)
        # x flows through both arms; y is live into the join.
        assert "x" in live.live_in["left"]
        assert "x" in live.live_in["right"]
        assert "y" in live.live_in["join"]
        assert "y" not in live.live_in["entry"]

    def test_outputs_live_at_return(self):
        fn = diamond_function()
        live = compute_liveness(fn)
        # __ret0 is used by the Return, hence live after the last op's def.
        assert "__ret0" not in live.live_in["join"]  # defined there
        assert "y" in live.live_in["join"]

    def test_loop_keeps_condition_inputs_live(self):
        fn = gcd.ir
        live = compute_liveness(fn)
        head = next(b.label for b in fn.blocks if "loop_head" in b.label)
        assert "gcd.a".split(".")[-1] not in ()  # placeholder clarity
        assert {"a", "b"} <= set(live.live_in[head])

    def test_fib_save_set_is_exactly_left(self):
        """The Figure 3 fact: only `left` needs caller-saving in fib."""
        program = rename_program(fib.program)
        fn = program.functions["fib"]
        cg = analyze_call_graph(program)
        live = compute_liveness(fn)
        saves = call_save_sets(fn, live, cg.clobbers)
        nonempty = {k: v for k, v in saves.items() if v}
        assert len(saves) == 2  # two recursive call sites
        assert len(nonempty) == 1  # only the second call saves anything
        (save_set,) = nonempty.values()
        assert len(save_set) == 1
        (saved_var,) = save_set
        assert saved_var.startswith("fib.")  # the `left` temporary


class TestDefiniteAssignment:
    def test_clean_function_passes(self):
        assert definitely_assigned_check(diamond_function()) == []

    def test_catches_branch_only_assignment(self):
        b = FunctionBuilder("bad", params=("a",), outputs=("__ret0",))
        entry, left, join = b.blocks("entry", "left", "join")
        entry.prim(("c",), "gt", ("a", "a")).branch("c", left, join)
        left.prim(("y",), "id", ("a",)).jump(join)
        join.prim(("__ret0",), "id", ("y",)).ret()  # y maybe unassigned
        problems = definitely_assigned_check(b.build())
        assert any("'y'" in p for p in problems)

    def test_catches_loop_skippable_assignment(self):
        b = FunctionBuilder("bad2", params=("n",), outputs=("__ret0",))
        entry, head, body, after = b.blocks("entry", "head", "body", "after")
        entry.jump(head)
        head.prim(("c",), "gt", ("n", "n")).branch("c", body, after)
        body.prim(("x",), "id", ("n",)).jump(head)
        after.prim(("__ret0",), "id", ("x",)).ret()
        problems = definitely_assigned_check(b.build())
        assert any("'x'" in p for p in problems)


class TestCallGraph:
    def test_self_recursion_detected(self):
        cg = analyze_call_graph(fib.program)
        assert "fib" in cg.recursive

    def test_mutual_recursion_detected(self):
        cg = analyze_call_graph(is_even.program)
        assert {"is_even", "is_odd"} <= cg.recursive

    def test_non_recursive_function(self):
        cg = analyze_call_graph(poly.program)
        assert cg.recursive == frozenset()

    def test_closure_includes_transitive_callees(self):
        cg = analyze_call_graph(loop_calling.program)
        assert cg.closure["loop_calling"] == frozenset({"loop_calling", "fib"})
        assert cg.closure["fib"] == frozenset({"fib"})

    def test_caller_of_recursive_fn_is_not_recursive(self):
        cg = analyze_call_graph(loop_calling.program)
        assert "loop_calling" not in cg.recursive
        assert "fib" in cg.recursive

    def test_recursive_formals_not_in_clobbers(self):
        program = rename_program(fib.program)
        cg = analyze_call_graph(program)
        assert "fib.n" not in cg.clobbers["fib"]

    def test_non_recursive_formals_in_clobbers(self):
        program = rename_program(loop_calling.program)
        cg = analyze_call_graph(program)
        # fib is recursive so its formal stays out; loop_calling's own formal
        # is in its clobber set (it is non-recursive, bound by update).
        assert "loop_calling.n" in cg.clobbers["loop_calling"]

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.integers(1, 7).flatmap(
            lambda n: st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            ).map(lambda es: (n, es))
        )
    )
    def test_matches_brute_force_transitive_closure(self, edges):
        """Random call graphs (self-loops, mutual recursion, unreachable
        functions, diamonds) against a Warshall closure written here."""
        n, es = edges
        callees = [sorted(j for i, j in es if i == f) for f in range(n)]
        pb = ProgramBuilder(main="f0")
        for f in range(n):
            b = FunctionBuilder(f"f{f}", params=(f"a{f}",), outputs=(f"r{f}",))
            (entry,) = b.blocks("entry")
            for g in callees[f]:
                entry.call((f"t{f}_{g}",), f"f{g}", (f"a{f}",))
            entry.prim((f"r{f}",), "id", (f"a{f}",)).ret()
            pb.add(b.build())
        cg = analyze_call_graph(pb.build())

        reach = [[(i, j) in es for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        recursive = {f for f in range(n) if reach[f][f]}
        writes = [
            {f"r{f}"}
            | {f"t{f}_{g}" for g in callees[f]}
            | (set() if f in recursive else {f"a{f}"})
            for f in range(n)
        ]
        assert cg.recursive == {f"f{f}" for f in recursive}
        for f in range(n):
            closure = {g for g in range(n) if reach[f][g]} | {f}
            assert cg.closure[f"f{f}"] == {f"f{g}" for g in closure}
            assert cg.clobbers[f"f{f}"] == set().union(*(writes[g] for g in closure))


class TestStorage:
    def test_fib_matches_figure3(self):
        """Stacks for exactly n, left (and the pc) — the paper's Figure 3."""
        program = rename_program(fib.program)
        storage = assign_storage(program)
        stacked = {v for v, k in storage.kinds.items() if k is VarKind.STACKED}
        assert "fib.n" in stacked
        assert len(stacked) == 2  # n plus the `left` call temporary
        # The return variable and `right` need no stack:
        assert storage.kinds["fib.__ret0"] is not VarKind.STACKED

    def test_non_recursive_program_has_no_stacks(self):
        """Paper claim: non-recursive programs run without variable stacks."""
        program = rename_program(gcd.program)
        storage = assign_storage(program)
        assert all(k is not VarKind.STACKED for k in storage.kinds.values())

    def test_straightline_is_mostly_temps(self):
        program = rename_program(poly.program)
        storage = assign_storage(program)
        kinds = storage.kinds
        temps = [v for v, k in kinds.items() if k is VarKind.TEMP]
        assert len(temps) >= 5  # all intermediate products

    def test_params_never_temp(self):
        for fn in (fib, gcd, poly, loop_calling):
            program = rename_program(fn.program)
            storage = assign_storage(program)
            for f in program.functions.values():
                for p in f.params:
                    assert storage.kinds[p] is not VarKind.TEMP

    def test_temp_opt_off(self):
        program = rename_program(poly.program)
        storage = assign_storage(program, temp_opt=False)
        assert all(k is not VarKind.TEMP for k in storage.kinds.values())

    def test_register_opt_off(self):
        program = rename_program(fib.program)
        storage = assign_storage(program, register_opt=False)
        non_temp = [k for k in storage.kinds.values() if k is not VarKind.TEMP]
        assert all(k is VarKind.STACKED for k in non_temp)

    def test_loop_calling_var_live_across_call_is_stacked_or_register(self):
        program = rename_program(loop_calling.program)
        storage = assign_storage(program)
        # `total` is live across the call to fib, but fib cannot clobber
        # loop_calling's variables (no recursion back) — so no stack needed.
        assert storage.kinds["loop_calling.total"] is VarKind.REGISTER
