"""E8: fault injection & resilience at full experiment scale."""

from repro.experiments.resilience import format_resilience, run_resilience


def test_bench_resilience(show):
    """Graceful degradation: timesync loss lands the co-scheduled run near
    the uncoordinated baseline (never catastrophically past it), message
    loss is absorbed by retransmits, and the watchdog recovers daemon
    death to near-healthy latency."""
    res = run_resilience()
    show(format_resilience(res))
    # Losing timesync really costs coordination...
    assert res.degradation_ratio > 1.2
    # ...but degrades *to* the paper's no-cosched pathology, not a hang or
    # a collapse (observed ~1.3x the baseline at this scale).
    assert res.vs_baseline_ratio < 1.6
    assert res.degradation_events >= 1
    # Every injected drop was recovered by a retransmit; the forced
    # link-level path stays a rare last resort at 1% loss.
    assert res.drop_net_drops > 0
    assert res.drop_retransmits >= res.drop_net_drops
    assert res.drop_forced <= res.drop_net_drops // 10
    # The watchdog restarted the daemon on every node, and recovery beats
    # unrecovered degradation.
    assert res.death_restarts == -(-res.n_ranks // 8)
    assert res.death_us < res.degraded_us
