"""The vectorised Allreduce series model.

State is one vector: each rank's ready time.  A call advances every rank
through the recursive-doubling schedule round by round; each round is a
numpy maximum/propagation over partner indices, with noise injected from
:class:`~repro.analytic.noise.NoiseInjector`.  Non-power-of-two sizes use
the exact MPICH fold/unfold structure, so round counts (and therefore the
zero-noise logarithmic baseline) match the DES implementation.

The model is *the cascade, vectorised*: a single delayed rank propagates
its lateness to its partner, then to the partner's partners — max-plus
algebra over the exchange graph — which is why noise turns logarithmic
scaling linear exactly as the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ClusterConfig
from repro.analytic.noise import NoiseInjector

__all__ = ["AllreduceSeriesModel", "SeriesResult"]


@dataclass
class SeriesResult:
    """Outcome of one modelled series of Allreduce calls."""

    #: Mean-over-ranks duration of each call (µs).
    durations_us: np.ndarray
    n_ranks: int
    tasks_per_node: int

    @property
    def mean_us(self) -> float:
        return float(np.mean(self.durations_us))

    @property
    def median_us(self) -> float:
        return float(np.median(self.durations_us))

    @property
    def max_us(self) -> float:
        return float(np.max(self.durations_us))

    @property
    def min_us(self) -> float:
        return float(np.min(self.durations_us))

    @property
    def std_us(self) -> float:
        return float(np.std(self.durations_us))


class AllreduceSeriesModel:
    """Models a rank's-eye series of Allreduce calls at scale.

    Parameters mirror the DES entry points: the same
    :class:`~repro.config.ClusterConfig`, job shape, and a seed.
    """

    def __init__(
        self,
        config: ClusterConfig,
        n_ranks: int,
        tasks_per_node: int,
        seed: int = 0,
    ) -> None:
        if n_ranks < 2:
            raise ValueError("need at least 2 ranks")
        self.config = config
        self.n = int(n_ranks)
        self.tpn = int(tasks_per_node)
        self.rng = np.random.default_rng(seed)
        self.noise = NoiseInjector(config, n_ranks, tasks_per_node, self.rng)

        net = config.network
        self.o = net.overhead_us
        self.r = config.mpi.reduce_op_us
        # Per-pair latency depends on co-residency.
        self._node_of = np.arange(n_ranks) // tasks_per_node

        # Exchange schedule (fold / recursive doubling / unfold).
        self._build_schedule()

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------
    def _build_schedule(self) -> None:
        n = self.n
        pof2 = 1 << (n.bit_length() - 1)
        rem = n - pof2
        self.pof2 = pof2
        self.rem = rem

        # Mapping rank -> "newrank" in the power-of-two phase (-1 for the
        # folded-out even ranks).
        ranks = np.arange(n)
        newrank = np.where(
            ranks < 2 * rem,
            np.where(ranks % 2 == 0, -1, ranks // 2),
            ranks - rem,
        )
        # Inverse: newrank -> real rank.
        inv = np.full(pof2, -1, dtype=int)
        active = newrank >= 0
        inv[newrank[active]] = ranks[active]
        self.active_mask = active
        self.newrank = newrank

        self.rounds: list[np.ndarray] = []  # per-round partner (real ranks), -1 = idle
        mask = 1
        while mask < pof2:
            partner = np.full(n, -1, dtype=int)
            nd = newrank[active] ^ mask
            partner[active] = inv[nd]
            self.rounds.append(partner)
            mask <<= 1

        # Per-round exchange plan over the active ranks: each one's
        # partner latency and its partner's position among the actives.
        active_ranks = ranks[active]
        pos = np.full(n, -1, dtype=int)
        pos[active_ranks] = np.arange(active_ranks.size)
        self._exchanges = [
            (self._pair_latency(active_ranks, partner[active]), pos[partner[active]])
            for partner in self.rounds
        ]
        # Fold/unfold pairs (even folds into odd); latency is symmetric.
        self._evens = np.arange(0, 2 * rem, 2)
        self._odds = self._evens + 1
        self._fold_latency = self._pair_latency(self._evens, self._odds)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run_series(self, n_calls: int, compute_between_us: float = 0.0) -> SeriesResult:
        """Model *n_calls* back-to-back Allreduce calls; returns durations.

        Without co-scheduling this is a single run.  With it, a run of a
        few hundred calls is far shorter than the 5 s window cycle, so a
        single wall-time placement would sample only one phase; instead
        the series is **stratified**: ``duty_cycle`` of the calls run
        inside the favored window (deferrable daemons silent) and the rest
        inside the unfavored window (daemons at stationary rates), plus
        the once-per-period flip stall — the overlapped execution of the
        piled-up daemon backlog, which costs the job ``max`` over ranks of
        their backlogs (everyone stalls simultaneously: the paper's whole
        point) amortised over the calls of one period.  Each window gets
        at least one call when there are two or more; a single call runs
        in the window the duty cycle favours.
        """
        if n_calls < 1:
            raise ValueError(f"need at least 1 call, got {n_calls}")
        if not self.noise.cosched_on:
            return SeriesResult(
                self._run_block(n_calls, compute_between_us, favored=False),
                self.n,
                self.tpn,
            )
        duty = self.noise.favored_len / self.noise.period
        n_unf = int(round(n_calls * (1.0 - duty)))
        if n_calls >= 2:
            n_unf = min(max(1, n_unf), n_calls - 1)
        d_fav = self._run_block(n_calls - n_unf, compute_between_us, favored=True)
        d_unf = self._run_block(n_unf, compute_between_us, favored=False)
        durations = np.concatenate([d_fav, d_unf])
        # Amortised flip stall: once per period the whole job pays the
        # slowest rank's deferred-daemon backlog plus the flip-noticing
        # latency, simultaneously on every node.
        mean_wall = float(durations.mean()) + compute_between_us
        calls_per_period = max(1.0, self.noise.period / mean_wall)
        durations += float(np.max(self.noise.window_stall)) / calls_per_period
        return SeriesResult(durations, self.n, self.tpn)

    def _run_block(
        self, n_calls: int, compute_between_us: float, favored: bool
    ) -> np.ndarray:
        """*n_calls* calls all inside the favored window or all outside it.

        Every update is in place on preallocated buffers, in the float
        association of the plain expressions it replaces — an exchange is
        ``(max(s, s[perm] + lat) + o) + r`` with ``s = ready + o`` — so the
        output is bit-identical to them (docs/architecture.md).
        """
        n = self.n
        o, r = self.o, self.r
        noise = self.noise
        sample = noise.sample_round
        ready = np.zeros(n)
        start = np.empty(n)
        durations = np.empty(n_calls)
        # Exposure estimate per round: overheads + a wire hop (the noise
        # rates are far below 1/round, so precision here barely matters).
        base_round = 2 * o + r + self.config.network.latency_us
        round_plan = noise.draw_plan(base_round, favored)
        compute = compute_between_us > 0.0
        if compute:
            compute_plan = noise.draw_plan(compute_between_us, favored)
        cron = bool(noise.cron_specs)
        evens, odds, fold_lat = self._evens, self._odds, self._fold_latency
        exchanges = self._exchanges
        # Active ranks' positions (all of them at a power of two), with
        # their send times and each one's partner's arrival time.  The
        # indices are in range by construction, so ``take`` uses
        # ``mode="clip"``, which writes ``out`` without a bounce buffer.
        act = np.flatnonzero(self.active_mask)
        send = np.empty(act.size)
        peer = np.empty(act.size)

        hardware = self.config.mpi.algorithm == "hardware"
        net = self.config.network

        for call in range(n_calls):
            if compute:
                ready += compute_between_us
                ready += sample(compute_plan)
            np.copyto(start, ready)
            if cron:
                t0 = float(ready.min())

            if hardware:
                # Switch-combined: one deposit per rank, combine after the
                # slowest, synchronous fan-out.  Laggard sensitivity stays
                # (the max), the log-depth software cascade is gone.
                deposit = ready + o + sample(round_plan)
                done = (
                    float(deposit.max())
                    + net.latency_us
                    + net.hw_collective_latency_us
                )
                ready.fill(done + o)
            elif self.rem == 0:
                # ---- recursive doubling, every rank active -------------
                for lat, perm in exchanges:
                    ready += sample(round_plan)
                    ready += o
                    ready.take(perm, out=peer, mode="clip")
                    peer += lat
                    np.maximum(ready, peer, out=ready)
                    ready += o
                    ready += r
            else:
                # ---- fold phase (non-power-of-two) ---------------------
                arrive = ready[evens] + o + fold_lat
                ready[odds] = np.maximum(ready[odds] + o, arrive) + o + r
                # Evens idle until the unfold at the end.

                # ---- recursive doubling over the active ranks ----------
                for lat, perm in exchanges:
                    ready += sample(round_plan)
                    ready.take(act, out=send, mode="clip")
                    send += o
                    send.take(perm, out=peer, mode="clip")
                    peer += lat
                    np.maximum(send, peer, out=send)
                    send += o
                    send += r
                    ready[act] = send

                # ---- unfold phase --------------------------------------
                arrive = ready[odds] + o + fold_lat
                ready[evens] = np.maximum(ready[evens] + o, arrive) + o

            # ---- long outliers (cron) -----------------------------------
            if cron:
                t1 = float(ready.max())
                hits = noise.cron_hits(t0, max(t1, t0 + 1.0))
                if hits.any():
                    ready += hits

            np.subtract(ready, start, out=start)
            durations[call] = float(np.mean(start))

        return durations

    # ------------------------------------------------------------------
    def _pair_latency(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        net = self.config.network
        same = self._node_of[a] == self._node_of[b]
        nbytes = 8
        return np.where(
            same,
            net.shm_latency_us + nbytes * net.per_byte_us,
            net.latency_us + nbytes * net.per_byte_us,
        )

