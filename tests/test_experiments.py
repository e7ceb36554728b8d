"""Experiment runners: small-scale smoke + shape assertions + formatting."""

import numpy as np
import pytest

from repro.experiments.ablation import format_ablation, run_ablation
from repro.experiments.common import (
    PAPER_PROC_COUNTS,
    PROTO16,
    VANILLA15,
    VANILLA16,
    allreduce_sweep,
    make_config,
)
from repro.experiments.fig1 import format_fig1, run_fig1
from repro.experiments.fig6 import (
    format_fig6,
    format_sweep,
    run_fig6,
)
from repro.experiments.reporting import text_table, write_csv
from repro.experiments.speedup import format_speedup, run_speedup154

QUICK = dict(proc_counts=(128, 512, 944), n_calls=80, n_seeds=2)


class TestScenarios:
    def test_canonical_scenarios(self):
        assert VANILLA16.tasks_per_node == 16 and not VANILLA16.cosched
        assert VANILLA15.tasks_per_node == 15
        assert PROTO16.cosched and PROTO16.long_polling

    def test_make_config_sizes_machine(self):
        cfg = make_config(VANILLA16, 944)
        assert cfg.machine.n_nodes == 59
        cfg15 = make_config(VANILLA15, 945)
        assert cfg15.machine.n_nodes == 63

    def test_make_config_cron_toggle(self):
        names = {d.name for d in make_config(VANILLA16, 64).noise.daemons}
        assert "cron_health" not in names
        names2 = {d.name for d in make_config(VANILLA16, 64, include_cron=True).noise.daemons}
        assert "cron_health" in names2

    def test_paper_proc_counts_span_range(self):
        assert min(PAPER_PROC_COUNTS) <= 128
        assert max(PAPER_PROC_COUNTS) >= 1700


class TestSweep:
    def test_sweep_shape(self):
        res = allreduce_sweep(VANILLA16, **QUICK)
        assert len(res.mean_us) == 3
        assert res.n_seeds == 2
        assert np.all(res.mean_us > 0)
        assert len(res.rows()) == 3

    def test_sweep_monotone_trend(self):
        res = allreduce_sweep(VANILLA16, **QUICK)
        assert res.mean_us[-1] > res.mean_us[0]


class TestFig1:
    def test_overlap_beats_random(self):
        res = run_fig1()
        assert res.green_overlapped > res.green_random
        assert res.improvement > 1.5

    def test_matches_theory(self):
        res = run_fig1(bursts_per_cpu=400, seed=3)
        assert res.green_random == pytest.approx(res.theory_random, abs=0.05)
        assert res.green_overlapped == pytest.approx(res.theory_overlapped, abs=0.05)

    def test_format(self):
        out = format_fig1(run_fig1())
        assert "overlap improvement" in out


class TestFig6:
    def test_prototype_wins_with_linear_vanilla(self):
        res = run_fig6(**QUICK)
        assert res.slope_ratio > 1.5
        assert res.vanilla_fit.slope > res.prototype_fit.slope
        assert res.mean_ratio_at(944) > 1.5
        out = format_fig6(res)
        assert "paper" in out and "slope ratio" in out

    def test_format_sweep(self):
        res = allreduce_sweep(VANILLA16, **QUICK)
        out = format_sweep(res, "t")
        assert "linear fit" in out and "log fit" in out


class TestSpeedup:
    def test_prototype_faster_than_15tpn(self):
        res = run_speedup154(n_calls=100, n_seeds=2)
        assert res.proto_ranks == 1600 and res.baseline_ranks == 1500
        assert res.speedup_percent > 110.0
        assert "speedup" in format_speedup(res)


class TestAblation:
    def test_cosched_is_the_big_lever(self):
        res = run_ablation(n_ranks=512, n_calls=80, n_seeds=2)
        assert len(res.steps) == 6
        means = {label: m for label, m, _ in res.steps}
        full = means["6 +RT sched fixes (= prototype)"]
        vanilla = means["1 vanilla"]
        cosched = means["5 +cosched (no RT fixes)"]
        assert full < vanilla / 1.5
        assert cosched < vanilla  # co-scheduling already most of the win
        assert "A1" in format_ablation(res)


class TestReporting:
    def test_text_table_alignment(self):
        out = text_table(["a", "bb"], [(1, 2.5), (10, 3.25)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "--" in lines[2]
        assert len(lines) == 5

    def test_write_csv(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(p, ["x", "y"], [(1, 2), (3, 4)])
        assert p.read_text() == "x,y\n1,2\n3,4\n"
