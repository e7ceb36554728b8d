"""The vectorised model: schedule structure, noise injection, fits."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.fits import compare_fits, fit_linear, fit_log
from repro.analytic.model import AllreduceSeriesModel
from repro.analytic.noise import NoiseInjector, SPARE_ABSORPTION
from repro.config import (
    ClusterConfig,
    CoschedConfig,
    KernelConfig,
    MachineConfig,
    MpiConfig,
    NoiseConfig,
)
from repro.daemons.catalog import standard_noise
from repro.experiments.common import PROTO16, VANILLA15, VANILLA16, make_config


def quiet_config(n_ranks, tpn=16, **kw):
    base = dict(
        machine=MachineConfig(n_nodes=-(-n_ranks // tpn), cpus_per_node=16),
        mpi=MpiConfig.with_long_polling(),
        noise=NoiseConfig(),
        kernel=KernelConfig(tick_cost_us=0.0),
    )
    base.update(kw)
    return ClusterConfig(**base)


class TestScheduleStructure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 100])
    def test_round_count_is_log2_pof2(self, n):
        m = AllreduceSeriesModel(quiet_config(n), n, 16)
        pof2 = 1 << (n.bit_length() - 1)
        assert m.pof2 == pof2
        assert len(m.rounds) == pof2.bit_length() - 1
        assert m.rem == n - pof2

    def test_partner_arrays_are_involutions(self):
        m = AllreduceSeriesModel(quiet_config(13), 13, 16)
        for partner in m.rounds:
            for i in range(13):
                p = partner[i]
                if p >= 0:
                    assert partner[p] == i  # symmetric exchange

    def test_folded_evens_idle_in_rd_rounds(self):
        m = AllreduceSeriesModel(quiet_config(13), 13, 16)
        # rem = 5: ranks 0,2,4,6,8 fold out.
        for partner in m.rounds:
            for r in (0, 2, 4, 6, 8):
                assert partner[r] == -1

    def test_requires_two_ranks(self):
        with pytest.raises(ValueError):
            AllreduceSeriesModel(quiet_config(2), 1, 16)


class TestZeroNoiseBaseline:
    def test_latency_is_logarithmic(self):
        """Without noise, mean time grows with log2(N), not N."""
        means = []
        ns = [64, 256, 1024]
        for n in ns:
            m = AllreduceSeriesModel(quiet_config(n), n, 16, seed=1)
            means.append(m.run_series(50).mean_us)
        lin, log, winner = compare_fits(ns, means)
        assert winner == "log"

    def test_zero_noise_is_deterministic_shape(self):
        cfg = quiet_config(64)
        a = AllreduceSeriesModel(cfg, 64, 16, seed=1).run_series(20)
        b = AllreduceSeriesModel(cfg, 64, 16, seed=2).run_series(20)
        assert a.mean_us == pytest.approx(b.mean_us, rel=1e-9)
        assert a.std_us == pytest.approx(0.0, abs=1e-6)

    def test_magnitude_near_paper_model(self):
        """~10 rounds x ~35 us ≈ 350 us at 944 ranks (paper's yardstick)."""
        cfg = quiet_config(944)
        res = AllreduceSeriesModel(cfg, 944, 16, seed=0).run_series(10)
        assert 150 <= res.mean_us <= 600


class TestNoiseInjector:
    def test_spare_cpu_thins_daemon_rate(self):
        cfg = make_config(VANILLA16, 64, seed=0)
        inj16 = NoiseInjector(cfg, 64, 16, np.random.default_rng(0))
        inj15 = NoiseInjector(cfg, 60, 15, np.random.default_rng(0))
        d16 = {s.name: s for s in inj16.sources}
        d15 = {s.name: s for s in inj15.sources}
        assert not d16["mld"].absorbed_by_spare
        assert d15["mld"].absorbed_by_spare
        assert 0.0 < SPARE_ABSORPTION < 1.0

    def test_timer_thread_source_present_unless_long_polling(self):
        cfg = make_config(VANILLA16, 64, seed=0)
        inj = NoiseInjector(cfg, 64, 16, np.random.default_rng(0))
        names = {s.name for s in inj.sources}
        assert "mpi_timer" in names
        cfg2 = cfg.replace(mpi=MpiConfig.with_long_polling())
        inj2 = NoiseInjector(cfg2, 64, 16, np.random.default_rng(0))
        timer = [s for s in inj2.sources if s.name == "mpi_timer"][0]
        assert timer.rate_per_us < 1e-7  # 400 s period

    def test_favored_window_silences_deferrable(self):
        cfg = make_config(PROTO16, 64, seed=0)
        inj = NoiseInjector(cfg, 64, 16, np.random.default_rng(0))
        favored, unfavored = inj.draw_plan(1e6, True), inj.draw_plan(1e6, False)
        totals = sum(inj.sample_round(favored).sum() for _ in range(5))
        totals_unf = sum(inj.sample_round(unfavored).sum() for _ in range(5))
        assert totals < totals_unf

    def test_interrupts_hit_even_in_favored_window(self):
        cfg = make_config(PROTO16, 64, seed=0)
        inj = NoiseInjector(cfg, 64, 16, np.random.default_rng(1))
        favored = inj.draw_plan(1e6, True)
        total = sum(inj.sample_round(favored).sum() for _ in range(10))
        assert total > 0.0  # caddpin/phxentdd are undeferrable

    def test_window_stall_includes_notice_latency(self):
        proto = make_config(PROTO16, 64, seed=0)
        inj = NoiseInjector(proto, 64, 16, np.random.default_rng(0))
        assert np.all(inj.window_stall >= proto.kernel.ipi_latency_us)
        # Without the RT fixes the notice penalty is half a tick.
        novo = proto.replace(
            kernel=proto.kernel.with_options(fix_reverse_preemption=False)
        )
        inj2 = NoiseInjector(novo, 64, 16, np.random.default_rng(0))
        assert inj2.window_stall.min() > inj.window_stall.min()

    def test_cron_hits_land_on_grid(self):
        from repro.daemons.catalog import cron_health_check

        noise = NoiseConfig(daemons=(cron_health_check(period_us=1e6, phase_us=5e5),))
        cfg = make_config(VANILLA16, 32, seed=0, noise=noise)
        inj = NoiseInjector(cfg, 32, 16, np.random.default_rng(0))
        assert inj.cron_hits(0.0, 4e5).sum() == 0.0
        hit = inj.cron_hits(4e5, 6e5)
        assert hit.sum() > 0
        # One victim per node.
        assert (hit > 0).sum() == 2


class TestNoisyScaling:
    def test_noise_turns_scaling_linear(self):
        from repro.experiments.common import allreduce_sweep

        sweep = allreduce_sweep(
            VANILLA16, proc_counts=(128, 256, 512, 944, 1360, 1728),
            n_calls=200, n_seeds=2,
        )
        lin, log, winner = compare_fits(sweep.proc_counts, sweep.mean_us)
        assert winner == "linear"
        assert lin.slope > 0.2

    def test_prototype_beats_vanilla_at_scale(self):
        n = 944
        v = AllreduceSeriesModel(make_config(VANILLA16, n, seed=3), n, 16, seed=1)
        p = AllreduceSeriesModel(make_config(PROTO16, n, seed=3), n, 16, seed=1)
        vm = v.run_series(200, 200.0).mean_us
        pm = p.run_series(200, 200.0).mean_us
        assert vm / pm > 1.8  # paper: ~3x

    def test_15tpn_beats_16tpn_vanilla(self):
        from repro.experiments.common import VANILLA15

        v16 = AllreduceSeriesModel(make_config(VANILLA16, 944, seed=3), 944, 16, seed=1)
        v15 = AllreduceSeriesModel(make_config(VANILLA15, 945, seed=3), 945, 15, seed=1)
        assert v16.run_series(200, 200.0).mean_us > v15.run_series(200, 200.0).mean_us

    def test_series_reproducible(self):
        cfg = make_config(VANILLA16, 128, seed=5)
        a = AllreduceSeriesModel(cfg, 128, 16, seed=9).run_series(50, 100.0)
        b = AllreduceSeriesModel(cfg, 128, 16, seed=9).run_series(50, 100.0)
        assert np.array_equal(a.durations_us, b.durations_us)

    def test_stratified_split_counts(self):
        cfg = make_config(PROTO16, 64, seed=0)
        res = AllreduceSeriesModel(cfg, 64, 16, seed=0).run_series(100, 100.0)
        assert len(res.durations_us) == 100

    @pytest.mark.parametrize("duty", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n_calls", [1, 2, 3, 4, 5])
    def test_short_cosched_series_has_exactly_n_calls(self, n_calls, duty):
        cfg = make_config(PROTO16, 64, seed=1)
        cfg = cfg.replace(cosched=dataclasses.replace(cfg.cosched, duty_cycle=duty))
        model = AllreduceSeriesModel(cfg, 64, 16, seed=1)
        assert len(model.run_series(n_calls).durations_us) == n_calls

    @pytest.mark.parametrize("scenario", [PROTO16, VANILLA16])
    def test_empty_series_is_rejected(self, scenario):
        model = AllreduceSeriesModel(make_config(scenario, 64, seed=1), 64, 16, seed=1)
        with pytest.raises(ValueError):
            model.run_series(0)


def _golden_case(name):
    """(config, n_ranks, tasks_per_node) for one pinned-durations case."""
    cron = standard_noise(include_cron=True, cron_phase_us=10_000.0)
    if name == "vanilla16-n944-quiet-no-compute":
        # Figure 4's zero-noise prediction and `validate`'s base latency.
        cfg = make_config(VANILLA16, 944, seed=3)
        return cfg.replace(noise=NoiseConfig(), mpi=MpiConfig.with_long_polling()), 944, 16
    if name == "vanilla16-n128-cron":
        return make_config(VANILLA16, 128, seed=3, noise=cron), 128, 16
    if name == "vanilla16-n236":
        return make_config(VANILLA16, 236, seed=3), 236, 16
    if name == "vanilla15-n120-cron":
        return make_config(VANILLA15, 120, seed=3, noise=cron), 120, 15
    if name == "proto16-n128":
        return make_config(PROTO16, 128, seed=3), 128, 16
    if name == "proto16-n100":
        return make_config(PROTO16, 100, seed=3), 100, 16
    if name == "vanilla16-n96-aligned-ticks":
        cfg = make_config(VANILLA16, 96, seed=3)
        kernel = cfg.kernel.with_options(tick_phase="aligned", align_ticks_to_global_time=True)
        return cfg.replace(kernel=kernel), 96, 16
    if name == "vanilla16-n128-hardware":
        cfg = make_config(VANILLA16, 128, seed=3, noise=cron)
        return cfg.replace(mpi=MpiConfig(algorithm="hardware")), 128, 16
    raise KeyError(name)


#: Per case, the sha256 of ``SeriesResult.durations_us`` bytes for 60 calls
#: (seed 11) with 200 µs of compute between them, or none for the
#: ``-no-compute`` case, and the sha256 of the RNG state after the series.
#: Any change to the model's float operations moves the first; a draw
#: added, dropped or reordered moves the second.
GOLDEN_DURATIONS = {
    "vanilla16-n128-cron": (
        "9933b59b55b33495d160c7ebf910fb0fccf029b1dd2c7e970155e5b871316849",
        "c7746b847b376aa28efacef7bb996fa8f1d1bedf33ff9c46ab0dfd70820fc001",
    ),
    "vanilla16-n236": (
        "acb71f4e2fc11fc295ac4600940de84d261ad3f1d1e2eceb12bf4fcb73777bf7",
        "78975157e8e500e1cbfd12311db60248f76d78bf6486e8fb7643ad5d12b9b835",
    ),
    "vanilla15-n120-cron": (
        "d41f1b0e58a7ef498deac55bcb0449c726bcf339992a2579d86f1e04c922203e",
        "928584f032744c6a4490472b33bb809f585d39060caf1a9b0dd111ed6d0fa746",
    ),
    "proto16-n128": (
        "1a2c022f883f7670e0dd37d9f3d2d2611f7ca80e79ffd2891c4d8fd94eafe4c0",
        "d493ac46f613dd5a10c02c64c064d71836ebaaa9cb3eda290abf42a40c9dd3bd",
    ),
    "proto16-n100": (
        "70949a9c3ac1940344efa692646ce2776c408ddfcdcb207d3b33ec01a7a6cad0",
        "b4d1e23385fdf9843332aa92bd56dea8df84bdbe13754513f46e3494e820313e",
    ),
    "vanilla16-n96-aligned-ticks": (
        "1333b52f35189bf14bd9efc2d00ace5e54b3ef8e4c5845ae72f2ca82f4c1f47a",
        "859d24872092c2da76173f593e7d32bf2dcf325d8e3b4864d899ef5e52430e7e",
    ),
    "vanilla16-n128-hardware": (
        "3139cb951ce9d5629513d0b9429a658d169a7cd54f5fc42bc742f7b804483527",
        "e01e25e69d0463ca2fa4a0b0f395802826714f80ff9bae94975045d9e1117c98",
    ),
    "vanilla16-n944-quiet-no-compute": (
        "c5b599443a8709c3ad6dfc0b45e0b2696b12823a7ee5c75ef5a86e13220e71b3",
        "b8096bc75ce187260b70a74b3f0d5372f50bd71a8447ee9719ae64cdaed5ffa4",
    ),
}


def _golden_run(name):
    """The case's model after its series, and the series."""
    model = AllreduceSeriesModel(*_golden_case(name), seed=11)
    compute_us = 0.0 if name.endswith("-no-compute") else 200.0
    return model, model.run_series(60, compute_us)


def _rng_state_digest(rng):
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


class TestGoldenDurations:
    """The model's outputs are pinned bit for bit (see docs/architecture.md)."""

    def test_cases_cover_the_model_branches(self):
        models = {name: AllreduceSeriesModel(*_golden_case(name)) for name in GOLDEN_DURATIONS}
        noise = {name: m.noise for name, m in models.items()}
        assert models["proto16-n128"].rem == 0 and models["vanilla16-n236"].rem > 0
        assert noise["proto16-n128"].cosched_on and not noise["vanilla16-n236"].cosched_on
        assert noise["vanilla16-n96-aligned-ticks"].ticks_aligned
        assert not noise["vanilla16-n236"].ticks_aligned
        assert noise["vanilla15-n120-cron"].cron_specs
        assert noise["vanilla15-n120-cron"].tpn < noise["vanilla15-n120-cron"].cpn

    @pytest.mark.parametrize("name", sorted(GOLDEN_DURATIONS))
    def test_durations_digest(self, name):
        model, series = _golden_run(name)
        digest = hashlib.sha256(series.durations_us.tobytes()).hexdigest()
        assert (digest, _rng_state_digest(model.rng)) == GOLDEN_DURATIONS[name]

    @pytest.mark.parametrize("name", ["vanilla16-n128-cron", "vanilla15-n120-cron"])
    def test_cron_fires_inside_the_cron_cases(self, name):
        _, res = _golden_run(name)
        assert res.max_us > 100 * res.median_us


class TestFits:
    def test_linear_fit_exact(self):
        x = np.array([1, 2, 3, 4.0])
        y = 2.0 * x + 5.0
        fit = fit_linear(x, y)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(5.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_log_fit_exact(self):
        x = np.array([2, 4, 8, 16.0])
        y = 3.0 * np.log2(x) + 1.0
        fit = fit_log(x, y)
        assert fit.slope == pytest.approx(3.0)
        assert fit.kind == "log"

    def test_predict(self):
        fit = fit_linear([1, 2, 3], [2, 4, 6])
        assert fit.predict([10])[0] == pytest.approx(20.0)

    def test_compare_picks_generator(self):
        x = np.array([2, 4, 8, 16, 32, 64.0])
        _, _, w1 = compare_fits(x, 0.7 * x + 166)
        assert w1 == "linear"
        _, _, w2 = compare_fits(x, 30 * np.log2(x) + 50)
        assert w2 == "log"

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError):
            fit_linear([1], [2])

    def test_str_rendering(self):
        s = str(fit_linear([1, 2, 3], [2, 4, 6]))
        assert "R²" in s and "y =" in s

    def test_nan_holes_are_left_out_of_the_fit(self):
        x = np.array([128, 512, 944, 1728.0])
        y = 0.7 * x + 166
        y[2] = np.nan
        for fit in (fit_linear, fit_log):
            assert fit(x, y) == fit(np.delete(x, 2), np.delete(y, 2))
        lin, log, winner = compare_fits(x, y)
        assert lin.slope == pytest.approx(0.7) and winner == "linear"

    @pytest.mark.parametrize("n_finite", [0, 1])
    def test_too_few_finite_points_make_no_fit_and_no_winner(self, n_finite):
        x = np.array([128, 512, 944, 1728.0])
        y = np.full(4, np.nan)
        y[:n_finite] = 300.0
        lin, log, winner = compare_fits(x, y)
        assert not lin.fitted and not log.fitted and winner == "none"
        assert str(lin) == "no fit (fewer than 2 finite points)"

    def test_sweep_report_without_finite_points_claims_no_fit(self):
        from repro.experiments.common import SweepResult
        from repro.experiments.fig6 import format_sweep

        nan4 = np.full(4, np.nan)
        res = SweepResult("vanilla16", np.array([128, 512, 944, 1728]), nan4, nan4, nan4, 2, 150)
        text = format_sweep(res, "all points failed")
        assert "R²=1.000" not in text and "linear" not in text
        assert "fits       : no fit (fewer than 2 finite points)" in text

    @settings(max_examples=50)
    @given(
        slope=st.floats(min_value=-10, max_value=10, allow_nan=False),
        intercept=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_linear_fit_recovers_any_line(self, slope, intercept):
        x = np.array([1.0, 2.0, 5.0, 9.0, 17.0])
        fit = fit_linear(x, slope * x + intercept)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.intercept == pytest.approx(intercept, abs=1e-5)
