"""Extension experiments (E1–E4): reduced-scale smoke + shape checks."""

import pytest

from repro.experiments.extensions import (
    format_fine_grain,
    format_hw_collectives,
    format_misalignment,
    format_multijob,
    run_fine_grain,
    run_hw_collectives,
    run_misalignment,
    run_multijob,
)
from repro.units import ms


class TestMultijob:
    def test_gang_improves_per_op_latency(self):
        # Needs enough ranks per node that uncoordinated rotation actually
        # scatters a job's ranks (at 4 ranks/node the jobs dovetail by
        # luck); this is the benchmark's scenario with fewer calls.
        res = run_multijob(n_ranks=16, tpn=8, calls=120, slot_us=ms(200))
        assert res.per_op_improvement > 1.2
        assert "gang" in format_multijob(res)


class TestHwCollectives:
    def test_hardware_wins_everywhere(self):
        res = run_hw_collectives(proc_counts=(128, 512), n_calls=80)
        assert all(h < s for h, s in zip(res.hardware_us, res.software_us))
        assert "switch-combined" in format_hw_collectives(res)

    def test_hardware_still_noise_sensitive(self):
        """The slowest deposit gates the combine: hardware at 512 ranks
        with noise is slower than hardware with 128 ranks."""
        res = run_hw_collectives(proc_counts=(128, 512), n_calls=80)
        assert res.hardware_us[1] > res.hardware_us[0]


class TestFineGrain:
    def test_hints_beat_always_on_with_untuned_priority(self):
        res = run_fine_grain(n_ranks=16, timesteps=15)
        assert res.fine_grain_us < res.always_on_us
        assert res.fine_grain_io_us < res.always_on_io_us
        assert "fine-grain" in format_fine_grain(res)


class TestMisalignment:
    def test_smoke_and_format(self):
        # The sync-vs-unsync *direction* needs multi-period runs over
        # several nodes and seeds — that's the misalign row's claim at full
        # size (repro.experiments.cli); here we check the machinery runs and
        # produces sane, positive latencies either way.
        res = run_misalignment(n_ranks=16, tpn=8, calls=400, n_seeds=1)
        assert res.synced_us > 0 and res.unsynced_us > 0
        assert "misaligned" in format_misalignment(res)
