"""Configuration dataclasses: defaults, validation, derived values."""

import pytest

from repro.config import (
    ClusterConfig,
    CoschedConfig,
    DaemonSpec,
    KernelConfig,
    MachineConfig,
    MpiConfig,
    NetworkConfig,
    NoiseConfig,
    PRIO_DAEMON_SYSTEM,
    PRIO_IDLE,
    PRIO_NORMAL,
)
from repro.rng import Constant
from repro.units import ms, s


class TestPriorityBands:
    def test_paper_bands(self):
        """AIX numerics: lower = more favored; the paper's observed values."""
        assert PRIO_DAEMON_SYSTEM == 56 < PRIO_NORMAL == 60 < PRIO_IDLE == 127


class TestMachineConfig:
    def test_total_cpus(self):
        assert MachineConfig(n_nodes=59, cpus_per_node=16).total_cpus == 944

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(n_nodes=0)
        with pytest.raises(ValueError):
            MachineConfig(cpus_per_node=0)

    def test_paper_machines_expressible(self):
        white = MachineConfig(n_nodes=512, cpus_per_node=16)   # ASCI White
        frost = MachineConfig(n_nodes=68, cpus_per_node=16)    # Frost
        blue_oak = MachineConfig(n_nodes=120, cpus_per_node=16)  # Blue Oak
        assert blue_oak.total_cpus == 1920
        assert white.total_cpus == 8192
        assert frost.total_cpus == 1088


class TestCoschedConfig:
    def test_paper_settings_are_defaults(self):
        c = CoschedConfig()
        assert c.period_us == s(5)
        assert c.duty_cycle == pytest.approx(0.90)
        assert c.favored_priority == 30
        assert c.unfavored_priority == 100

    def test_window_lengths(self):
        c = CoschedConfig(period_us=s(10), duty_cycle=0.95)
        assert c.favored_window_us == pytest.approx(s(9.5))
        assert c.unfavored_window_us == pytest.approx(s(0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            CoschedConfig(duty_cycle=0.0)
        with pytest.raises(ValueError):
            CoschedConfig(duty_cycle=1.5)
        with pytest.raises(ValueError):
            CoschedConfig(period_us=0.0)
        with pytest.raises(ValueError):
            CoschedConfig(favored_priority=-1)
        with pytest.raises(ValueError):
            CoschedConfig(unfavored_priority=300)


class TestNetworkConfig:
    def test_defaults_give_paper_scale_allreduce(self):
        """~10 recursive-doubling rounds at ~35 µs each ≈ the paper's
        350 µs model prediction for 944 tasks."""
        net = NetworkConfig()
        mpi = MpiConfig()
        per_round = 2 * net.overhead_us + net.latency_us + mpi.reduce_op_us
        assert 250.0 <= 10 * per_round <= 450.0


class TestMpiConfig:
    def test_long_polling_factory(self):
        assert MpiConfig.with_long_polling().progress_interval_us == s(400)

    def test_validation(self):
        with pytest.raises(ValueError):
            MpiConfig(algorithm="token-ring")
        with pytest.raises(ValueError):
            MpiConfig(wait_mode="pray")

    def test_paper_progress_interval_default(self):
        assert MpiConfig().progress_interval_us == ms(400)


class TestDaemonSpecDefaults:
    def test_hardware_flag_default_off(self):
        d = DaemonSpec(name="x", period_us=ms(1), service=Constant(1.0))
        assert not d.hardware
        assert d.deferrable

    def test_phase_pin_optional(self):
        d = DaemonSpec(name="x", period_us=ms(1), service=Constant(1.0), phase_us=123.0)
        assert d.phase_us == 123.0


class TestClusterConfig:
    def test_replace_shallow(self):
        a = ClusterConfig()
        b = a.replace(seed=9)
        assert a.seed == 0 and b.seed == 9
        assert b.machine is a.machine

    def test_default_composition(self):
        c = ClusterConfig()
        assert isinstance(c.kernel, KernelConfig)
        assert isinstance(c.noise, NoiseConfig)
        assert not c.cosched.enabled


class TestMachinePresets:
    def test_paper_platforms(self):
        from repro.machines import ASCI_WHITE, BLUE_OAK, FROST, machine_preset

        assert ASCI_WHITE.total_cpus == 8192
        assert FROST.total_cpus == 1088
        assert BLUE_OAK.total_cpus == 1920
        assert machine_preset("Blue Oak") is BLUE_OAK
        assert machine_preset("asci_white") is ASCI_WHITE

    def test_unknown_preset(self):
        from repro.machines import machine_preset

        with pytest.raises(KeyError, match="presets"):
            machine_preset("bluegene")


class TestCoschedInversionGuard:
    def test_inverted_priorities_rejected(self):
        with pytest.raises(ValueError, match="numerically below"):
            CoschedConfig(enabled=True, favored_priority=100, unfavored_priority=30)

    def test_equal_priorities_rejected(self):
        with pytest.raises(ValueError, match="numerically below"):
            CoschedConfig(enabled=True, favored_priority=50, unfavored_priority=50)

    def test_disabled_config_not_checked(self):
        # A disabled schedule is inert; don't block configs that carry it.
        CoschedConfig(enabled=False, favored_priority=100, unfavored_priority=30)


class TestKernelConfigPresets:
    def test_vanilla_defaults(self):
        v = KernelConfig.vanilla()
        assert v.big_tick_multiplier == 1
        assert v.tick_phase == "staggered"
        assert not v.realtime_scheduling
        assert not v.daemons_global_queue

    def test_prototype_flips_everything(self):
        p = KernelConfig.prototype()
        assert p.big_tick_multiplier == 25
        assert p.tick_phase == "aligned"
        assert p.align_ticks_to_global_time
        assert p.realtime_scheduling
        assert p.fix_reverse_preemption
        assert p.fix_multi_ipi
        assert p.daemons_global_queue

    def test_prototype_physical_tick(self):
        p = KernelConfig.prototype()
        assert p.physical_tick_period_us == pytest.approx(ms(250))
        assert p.physical_tick_cost_us > p.tick_cost_us

    def test_vanilla_physical_cost_is_base(self):
        v = KernelConfig.vanilla()
        assert v.physical_tick_cost_us == v.tick_cost_us

    def test_with_options_returns_new(self):
        v = KernelConfig.vanilla()
        w = v.with_options(big_tick_multiplier=2)
        assert v.big_tick_multiplier == 1
        assert w.big_tick_multiplier == 2

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            KernelConfig(big_tick_multiplier=0)
        with pytest.raises(ValueError):
            KernelConfig(tick_phase="diagonal")
        with pytest.raises(ValueError):
            KernelConfig(global_queue_penalty=2.0)
        with pytest.raises(ValueError):
            KernelConfig(tick_period_us=0.0)

    def test_with_options_keeps_other_fields(self):
        base = KernelConfig(tick_cost_us=99.0)
        assert base.with_options(big_tick_multiplier=5).tick_cost_us == 99.0

    def test_with_options_validates_values(self):
        with pytest.raises(ValueError):
            KernelConfig().with_options(big_tick_multiplier=0)

    def test_with_options_rejects_unknown_option(self):
        with pytest.raises(TypeError):
            KernelConfig().with_options(no_such_option=1)
