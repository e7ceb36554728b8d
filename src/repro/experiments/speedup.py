"""T2: "100 fully populated nodes running the prototype kernel yielded a
154 % speedup over 100 nodes running at 15 tasks per node on the standard
AIX kernel."

Job-level comparison at fixed node count and fixed total problem size:
the prototype runs 1600 tasks (16/node) while the workaround baseline runs
1500 (15/node), so the prototype splits the compute 16/15 finer *and* its
collectives are cheaper.  Speedup is reported the way the paper reports
ratios (``x % speedup`` = time ratio × 100, matching the "over 300 %"
slope-ratio usage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.experiments.common import PROTO16, VANILLA15
from repro.experiments.reporting import text_table
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.results import register_result

__all__ = ["SpeedupResult", "run_speedup154", "format_speedup"]


@register_result
@dataclass
class SpeedupResult:
    n_nodes: int
    proto_ranks: int
    baseline_ranks: int
    proto_cycle_us: float
    baseline_cycle_us: float
    #: Per-cycle Allreduce component of each configuration.
    proto_allreduce_us: float
    baseline_allreduce_us: float

    @property
    def speedup_percent(self) -> float:
        """Paper usage: 'x% speedup' = time ratio × 100 (cf. 'over 300%'
        for the ~3.2× slope ratio)."""
        return 100.0 * self.baseline_allreduce_us / self.proto_allreduce_us


def run_speedup154(
    n_nodes: int = 100,
    n_calls: int = 400,
    n_seeds: int = 3,
    compute_between_us: float = 200.0,
    seed: int = 11,
    runner: Optional[TrialRunner] = None,
) -> SpeedupResult:
    """Compare Allreduce series on the same 100 nodes, both ways populated.

    The paper's statement is an Allreduce-benchmark result: "100 fully
    populated nodes running the prototype kernel yielded a 154% speedup
    over 100 nodes running at 15 tasks per node on the standard AIX
    kernel" — i.e. the prototype's collectives at 1600 tasks beat the
    workaround's at 1500 tasks by the quoted ratio, despite the prototype
    carrying one extra (noisier) task per node.

    The 2 × *n_seeds* trials run on *runner*
    (:class:`~repro.experiments.runner.TrialRunner`; ``None`` runs
    serially) like every other campaign.
    """
    runner = runner or TrialRunner()
    scenarios = (PROTO16, VANILLA15)
    specs = [
        TrialSpec(
            key=f"speedup154-{scenario.name}-s{k}",
            fn="repro.experiments.common:_allreduce_trial",
            params=dict(
                scenario=scenario,
                n_ranks=n_nodes * scenario.tasks_per_node,
                seed=seed + k,
                model_seed=seed + 13 * k + n_nodes * scenario.tasks_per_node,
                n_calls=n_calls,
                compute_between_us=compute_between_us,
            ),
        )
        for scenario in scenarios
        for k in range(n_seeds)
    ]
    by_key = {o.key: o for o in runner.run(specs)}
    results = {}
    for scenario in scenarios:
        n = n_nodes * scenario.tasks_per_node
        means = [
            by_key[f"speedup154-{scenario.name}-s{k}"].require()["mean_us"]
            for k in range(n_seeds)
        ]
        allreduce = float(np.mean(means))
        # A full bulk-synchronous cycle at the paper's typical granularity
        # (compute + one synchronising collective).
        cycle = compute_between_us + allreduce
        results[scenario.name] = (n, cycle, allreduce)
    pn, pc, pa = results["proto16"]
    bn, bc, ba = results["vanilla15"]
    return SpeedupResult(n_nodes, pn, bn, pc, bc, pa, ba)


def format_speedup(res: SpeedupResult) -> str:
    """Render the T2 table and the paper-convention speedup line."""
    rows = [
        ("prototype 16/node", res.proto_ranks, res.proto_allreduce_us, res.proto_cycle_us),
        ("vanilla 15/node", res.baseline_ranks, res.baseline_allreduce_us, res.baseline_cycle_us),
    ]
    table = text_table(
        ["configuration", "tasks", "allreduce_us", "cycle_us"],
        rows,
        title=f"T2: fixed-size job on {res.n_nodes} nodes",
    )
    return table + (
        f"speedup: {res.speedup_percent:.0f}%  "
        f"(paper: 154% — prototype fully-populated vs 15/node workaround)\n"
    )
