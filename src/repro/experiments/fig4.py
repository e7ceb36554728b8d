"""Figure 4: the sorted Allreduce-time curve and its outlier attribution.

The paper plots 448 sorted Allreduce times sampled from one node of a
944-processor run on the standard kernel and reads off: the fastest calls
within ~10 % of the 350 µs model, the median another ~25 % higher, a mean
of ~2240 µs (≈6× expected), and the slowest call — caused by the
15-minute administrative cron job — accounting for more than half the
total time.  The attribution came from AIX traces naming the interfering
daemons.

Two coordinated runs reproduce both halves:

* **Paper-scale numbers** — the vectorised model at 944 ranks, 448 calls,
  with the cron activation pinned inside the window.
* **Mechanism/attribution** — a DES run (reduced scale, stated) with the
  trace recorder on one node and the cron pinned mid-run;
  :func:`repro.trace.analysis.explain_outliers` then names the culprits
  exactly as §5.3 does (T5 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import MpiConfig, NoiseConfig
from repro.daemons.catalog import cron_health_check, scale_noise, standard_noise
from repro.experiments.common import VANILLA16, make_config
from repro.experiments.reporting import text_table
from repro.system import System
from repro.trace.analysis import explain_outliers
from repro.trace.recorder import TraceRecorder
from repro.units import ms, s

__all__ = ["Fig4Result", "run_fig4", "format_fig4"]


@dataclass
class Fig4Result:
    #: Sorted per-call durations at paper scale (µs).
    sorted_durations_us: np.ndarray
    n_ranks: int
    model_prediction_us: float
    #: DES attribution: (call index, duration, [(daemon, cpu_us), ...]).
    outlier_attribution: list
    #: Daemon named for the single slowest DES outlier.
    slowest_culprit: str
    des_n_ranks: int
    des_time_compression: float

    @property
    def min_us(self) -> float:
        return float(self.sorted_durations_us[0])

    @property
    def median_us(self) -> float:
        return float(np.median(self.sorted_durations_us))

    @property
    def mean_us(self) -> float:
        return float(np.mean(self.sorted_durations_us))

    @property
    def max_us(self) -> float:
        return float(self.sorted_durations_us[-1])

    @property
    def slowest_share(self) -> float:
        """Fraction of total time consumed by the slowest call."""
        return float(self.sorted_durations_us[-1] / self.sorted_durations_us.sum())


def run_fig4(
    n_ranks: int = 944,
    n_calls: int = 448,
    seed: int = 4,
    des_ranks: int = 32,
    des_calls: int = 448,
    des_time_compression: float = 40.0,
) -> Fig4Result:
    """Run the paper-scale sorted-times model plus the DES attribution."""
    # ---- paper-scale numbers (vectorised model, cron pinned) ----------
    noise = standard_noise(include_cron=True, cron_phase_us=ms(150))
    cfg = make_config(VANILLA16, n_ranks, seed=seed, noise=noise)
    model = AllreduceSeriesModel(cfg, n_ranks, 16, seed=seed)
    series = model.run_series(n_calls, compute_between_us=200.0)
    sorted_durs = np.sort(series.durations_us)

    # Zero-noise model prediction (the paper's ~350 µs yardstick).
    quiet = cfg.replace(noise=NoiseConfig(), mpi=MpiConfig.with_long_polling())
    qmodel = AllreduceSeriesModel(quiet, n_ranks, 16, seed=seed)
    prediction = qmodel.run_series(32, compute_between_us=0.0).median_us

    # ---- DES attribution run ------------------------------------------
    des_noise = scale_noise(
        standard_noise(include_cron=False), des_time_compression
    )
    # Pin one cron hit mid-run (its true period exceeds the DES window).
    # The cron's service is compressed less than its period so it remains
    # the dominant outlier, as on the real machine (620 ms against ms-scale
    # daemons; here 120 ms against the compressed ecology's ~10 ms tails).
    des_noise = des_noise.__class__(
        daemons=des_noise.daemons + (cron_health_check(phase_us=ms(60), service_us=ms(120)),)
    )
    trace = TraceRecorder(enabled=True, nodes=[0])
    des_cfg = make_config(VANILLA16, des_ranks, seed=seed, noise=des_noise)
    system = System(des_cfg, trace=trace)
    result = run_aggregate_trace(
        system,
        des_ranks,
        16,
        AggregateTraceConfig(calls_per_loop=des_calls, compute_between_us=150.0),
        horizon_us=s(120),
    )
    # Windows = rank 0's (node 0) per-call intervals, as the run timed them.
    threshold = float(np.median(result.durations_us) * 4.0)
    attribution = explain_outliers(
        trace, result.call_windows(), node=0, threshold_us=threshold
    )
    slowest = attribution[0][2][0][0] if attribution and attribution[0][2] else "(none)"

    return Fig4Result(
        sorted_durations_us=sorted_durs,
        n_ranks=n_ranks,
        model_prediction_us=prediction,
        outlier_attribution=attribution[:10],
        slowest_culprit=slowest,
        des_n_ranks=des_ranks,
        des_time_compression=des_time_compression,
    )


def format_fig4(res: Fig4Result) -> str:
    """Render the Figure 4 quantile table and attribution list."""
    d = res.sorted_durations_us
    deciles = [d[int(q * (len(d) - 1))] for q in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)]
    table = text_table(
        ["quantile", "allreduce_us"],
        list(zip(("min", "p25", "median", "p75", "p90", "p99", "max"), deciles)),
        title=f"Figure 4 analogue: sorted Allreduce times, {res.n_ranks} ranks",
    )
    lines = [
        table,
        f"model prediction      : {res.model_prediction_us:.0f} us",
        f"fastest vs prediction : {res.min_us / res.model_prediction_us:.2f}x",
        f"median vs fastest     : {res.median_us / res.min_us:.2f}x",
        f"mean vs prediction    : {res.mean_us / res.model_prediction_us:.2f}x",
        f"slowest call share    : {100 * res.slowest_share:.1f}% of total",
        "",
        f"DES attribution ({res.des_n_ranks} ranks, noise time-compressed "
        f"{res.des_time_compression:.0f}x):",
    ]
    for idx, dur, top in res.outlier_attribution[:5]:
        culprits = ", ".join(f"{name} ({cpu_us:.0f}us)" for name, cpu_us in top)
        lines.append(f"  call {idx:4d}: {dur:8.0f} us  <- {culprits or 'unattributed'}")
    lines.append(f"slowest outlier culprit: {res.slowest_culprit}")
    return "\n".join(lines) + "\n"
