"""Tests for the benchmark harness (timing, reporting, figure sweeps)."""

import pytest

from repro.bench.ablations import (
    AblationConfig,
    ablation_masking,
    ablation_optimizations,
    ablation_scheduler,
    render,
)
from repro.bench.figure5 import Figure5Config, run_figure5
from repro.bench.figure6 import Figure6Config, run_figure6
from repro.bench.report import crossover, format_series, format_table
from repro.bench.timing import best_of, timed


class TestTiming:
    def test_timed_returns_value(self):
        seconds, value = timed(lambda: 42)
        assert value == 42
        assert seconds >= 0

    def test_best_of_runs_warmup_and_repeats(self):
        calls = []
        timing = best_of(lambda: calls.append(1), k=3, warmup=2)
        assert len(calls) == 5
        assert len(timing.all_seconds) == 3
        assert timing.best_seconds == min(timing.all_seconds)

    def test_budget_stops_early(self):
        import time

        timing = best_of(
            lambda: time.sleep(0.02), k=50, warmup=0, budget_seconds=0.05
        )
        assert len(timing.all_seconds) < 50

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, k=0)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "long header"], [[1, 2.5], [333, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "long header" in lines[0]

    def test_format_series_handles_gaps(self):
        out = format_series(
            [1, 10, 100],
            {"a": [1.0, 10.0, 100.0], "b": [None, 5.0, None]},
            x_label="batch",
        )
        assert "A=a" in out and "B=b" in out
        assert "(no data)" not in out

    def test_format_series_no_data(self):
        assert format_series([1], {"a": [None]}) == "(no data)"

    def test_crossover_interpolates(self):
        x = [1, 10, 100]
        a = [1.0, 10.0, 100.0]   # rising
        b = [20.0, 20.0, 20.0]   # flat
        c = crossover(x, a, b)
        assert 10 < c < 100

    def test_crossover_none_when_never(self):
        assert crossover([1, 2], [1.0, 1.0], [5.0, 5.0]) is None

    def test_crossover_immediate(self):
        assert crossover([1, 2], [9.0, 9.0], [5.0, 5.0]) == 1.0


@pytest.fixture(scope="module")
def fig5():
    return run_figure5(Figure5Config.smoke())


class TestFigure5:
    def test_every_strategy_present(self, fig5):
        strategies = {p.strategy for p in fig5.points}
        assert {"pc", "pc_fused", "local", "reference", "stan", "hybrid"} <= strategies

    def test_grads_consistent_across_strategies(self, fig5):
        """All batched strategies run identical chains, so equal batch sizes
        must report equal gradient counts (stan uses its own RNG)."""
        for z in fig5.config.batch_sizes:
            grads = {
                p.strategy: p.grad_evals
                for p in fig5.points
                if p.batch_size == z and p.strategy not in ("stan",)
            }
            assert len(set(grads.values())) == 1, grads

    def test_simulated_gpu_scales_with_batch(self, fig5):
        """The GPU model's grads/sec for the PC strategy must grow with Z."""
        xs, series = fig5.series(metric="simulated", device="gpu")
        pc = [v for v in series["pc"] if v is not None]
        assert pc[-1] > pc[0]

    def test_hybrid_is_executed_and_simulated(self, fig5):
        hybrid = [p for p in fig5.points if p.strategy == "hybrid"]
        assert hybrid and all(p.best_seconds is not None for p in hybrid)
        assert all(p.simulated_seconds for p in hybrid)

    def test_render_mentions_each_section(self, fig5):
        text = fig5.render()
        assert "## Figure 5 sweep" in text
        assert "simulated GPU device" in text

    def test_crossovers_dict(self, fig5):
        cross = fig5.crossovers(metric="simulated", device="cpu")
        assert set(cross) <= {"pc_fused", "pc", "local", "hybrid"}


@pytest.fixture(scope="module")
def fig6():
    return run_figure6(Figure6Config.smoke())


class TestFigure6:
    def test_utilization_bounds(self, fig6):
        for p in fig6.points:
            assert 0.0 < p.utilization <= 1.0

    def test_batch_one_is_fully_utilized(self, fig6):
        for p in fig6.points:
            if p.batch_size == 1:
                assert p.utilization == pytest.approx(1.0)

    def test_pc_at_least_as_utilized_as_local(self, fig6):
        """The paper's headline: PC batches across recursion depths."""
        for z in fig6.config.batch_sizes:
            local = next(p for p in fig6.points if p.strategy == "local" and p.batch_size == z)
            pc = next(p for p in fig6.points if p.strategy == "pc" and p.batch_size == z)
            assert pc.utilization >= local.utilization - 1e-12

    def test_useful_grads_equal_between_strategies(self, fig6):
        for z in fig6.config.batch_sizes:
            grads = {
                p.strategy: p.grad_evals for p in fig6.points if p.batch_size == z
            }
            assert grads["local"] == grads["pc"]

    def test_render(self, fig6):
        text = fig6.render()
        assert "Utilization vs batch size" in text
        assert "recovery" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def config(self):
        return AblationConfig.smoke()

    def test_masking_vs_gather(self, config):
        rows = ablation_masking(config)
        by = {(r.workload, r.variant): r for r in rows}
        # Gather mode never executes inactive lanes.
        for (workload, variant), row in by.items():
            if variant.endswith("/gather"):
                assert row.utilization == pytest.approx(1.0)
        # Masked runs waste lanes whenever control diverges.
        assert by[("fib", "pc/mask")].utilization < 1.0

    def test_scheduler_rows(self, config):
        rows = ablation_scheduler(config)
        variants = {r.variant for r in rows}
        assert variants == {"earliest", "most_active", "round_robin"}

    def test_optimizations_cut_stack_traffic(self, config):
        rows = ablation_optimizations(config)
        by = {(r.workload, r.variant): r for r in rows}
        for workload in ("fib", "nuts"):
            opt = by[(workload, "optimized")]
            raw = by[(workload, "unoptimized")]
            assert opt.stacked_writes < raw.stacked_writes
            assert raw.register_writes == 0  # everything stacked when off

    def test_render_smoke(self, config):
        rows = ablation_scheduler(config)
        text = render(rows, "Ablation B")
        assert "Ablation B" in text and "earliest" in text


class TestBenchAll:
    def test_smoke_writes_all_result_files(self, tmp_path):
        from repro.bench.all import main

        main(["--smoke", "--out-dir", str(tmp_path)])
        for name in ("results_figure5.md", "results_figure6.md", "results_ablations.md"):
            text = (tmp_path / name).read_text()
            assert text.strip(), name

    def test_paper_scale_config_constructs(self):
        config = Figure5Config.paper_scale()
        assert config.n_data == 10_000 and config.n_features == 100
        assert max(config.batch_sizes) >= 4096
