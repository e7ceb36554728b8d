"""Mean-field fast path: the oracle discipline and its guardrails.

``batch=1`` must be *bit-identical* to the exact engine — not close, not
statistically indistinguishable: the same digest.  That is what lets the
fast path be validated rather than trusted.  Beyond that, the knobs:
exempt nodes stay exact, heavy daemons are derated so no wake clumps
more than ``max_block_us`` of expected service, and batching never
changes *how many* activations happen — only how they are delivered.
"""

import pytest

from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import DaemonSpec
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.common import VANILLA16, make_config
from repro.rng import Constant, Exponential
from repro.sim.meanfield import MeanFieldConfig
from repro.system import System
from repro.units import ms, s, us


def run_one(meanfield, seed=11):
    """One serial run; returns ``(result, events processed)``."""
    noise = scale_noise(standard_noise(include_cron=False), 400)
    config = make_config(VANILLA16, n_ranks=64, noise=noise, seed=seed)
    system = System(config, meanfield=meanfield)
    result = run_aggregate_trace(
        system, 64, 16, AggregateTraceConfig(calls_per_loop=4, compute_between_us=500.0)
    )
    return result, system.sim.events_processed


class TestOracle:
    def test_batch_1_is_bit_identical(self):
        exact, exact_events = run_one(None)
        batch1, batch1_events = run_one(MeanFieldConfig(batch=1))
        assert batch1.digest == exact.digest
        assert batch1_events == exact_events

    def test_batch_1_with_exempt_nodes_is_bit_identical(self):
        exact, _ = run_one(None)
        mf, _ = run_one(MeanFieldConfig(batch=1, exempt_nodes=(0, 2)))
        assert mf.digest == exact.digest

    def test_batching_changes_results_but_not_integrity(self):
        exact, exact_events = run_one(None)
        mf, mf_events = run_one(MeanFieldConfig(batch=16, exempt_nodes=(0,)))
        assert mf.values_ok
        assert mf.digest != exact.digest  # approximation, by design
        assert mf_events < exact_events


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeanFieldConfig(batch=0)
        with pytest.raises(ValueError):
            MeanFieldConfig(batch=2, exempt_nodes=(-1,))
        with pytest.raises(ValueError):
            MeanFieldConfig(batch=2, max_block_us=0.0)

    def test_exempt_node_is_exact(self):
        mf = MeanFieldConfig(batch=32, exempt_nodes=(0,))
        assert mf.batch_for(0) == 1
        assert mf.batch_for(1) == 32

    def test_derating_caps_heavy_daemons(self):
        """A 20 ms flush must not clump: 1000 us / 20 ms -> batch 1.
        A 30 us interrupt handler batches fully."""
        mf = MeanFieldConfig(batch=32, max_block_us=1000.0)
        heavy = DaemonSpec(
            name="syncdish", period_us=s(60), service=Constant(ms(20))
        )
        light = DaemonSpec(
            name="irq", period_us=ms(60), service=Constant(us(30)), per_cpu=True
        )
        assert mf.batch_for(5, heavy) == 1
        assert mf.batch_for(5, light) == 32

    def test_derating_counts_expected_pagefault_surcharge(self):
        mf = MeanFieldConfig(batch=64, max_block_us=1000.0)
        no_pf = DaemonSpec(
            name="a", period_us=ms(10), service=Exponential(us(100))
        )
        with_pf = DaemonSpec(
            name="b", period_us=ms(10), service=Exponential(us(100)),
            pagefault_prob=0.5, pagefault_cost_us=us(400),
        )
        assert mf.batch_for(1, no_pf) == 10
        assert mf.batch_for(1, with_pf) == 3  # E[svc] = 100 + 0.5*400 = 300


class TestActivationConservation:
    def test_batching_preserves_activation_counts(self):
        """Folding B activations into one wake changes delivery, never the
        number of activations the daemon performed by a given sim time."""
        from repro.system import System

        noise = scale_noise(standard_noise(include_cron=False), 400)
        config = make_config(VANILLA16, n_ranks=64, noise=noise, seed=3)

        def counts(meanfield):
            system = System(config, meanfield=meanfield)
            system.sim.run_until(ms(40))
            return {
                (h.spec.name, h.node, h.cpu): h.activations[0]
                for h in system.daemons
            }

        exact = counts(None)
        batched = counts(MeanFieldConfig(batch=8, exempt_nodes=(0,)))
        assert exact.keys() == batched.keys()
        # Exempt node identical; batched nodes conserve totals within one
        # batch's worth of bookkeeping skew (a wake mid-window may have
        # credited its whole batch already, or not yet).
        for key, n_exact in exact.items():
            _, node, _ = key
            if node == 0:
                assert batched[key] == n_exact
            else:
                assert abs(batched[key] - n_exact) <= 8


class TestE14Report:
    def test_oracle_not_run_without_batch_1(self):
        from repro.experiments.e14_meanfield import E14Result, format_e14

        res = E14Result(
            n_ranks=8192, n_nodes=512, calls=4, compute_between_us=40000.0,
            time_compression=50.0, seed=1234, exact_digest="ab" * 32,
            exact_events=1000, exact_elapsed_us=1e6,
            batches=[32], events=[250], event_reduction=[4.0],
            elapsed_dev_pct=[1.0], mean_dev_pct=[0.5],
            curve_err_p50_pct=[1.0], curve_err_p90_pct=[2.0],
            curve_err_max_abs_us=[100.0], digests=["cd" * 32], oracle_ok=True,
        )
        assert "oracle (batch=1 bit-identical): not run" in format_e14(res)

        res.batches, res.digests = [1], [res.exact_digest]
        assert "oracle (batch=1 bit-identical): PASS" in format_e14(res)
        res.oracle_ok = False
        assert "oracle (batch=1 bit-identical): FAIL" in format_e14(res)
