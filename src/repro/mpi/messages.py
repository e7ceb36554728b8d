"""Message envelope and reliable-delivery layer for the MPI model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.faults.demo import demo_bug_enabled
from repro.sim.core import EventPriority

__all__ = ["Message", "ReliableTransport"]


@dataclass(frozen=True, init=False)
class Message:
    """One point-to-point message.

    ``tag`` is any hashable; collectives use ``(operation id, phase)``
    tuples so that concurrent operations and rounds can never be confused
    (the simulator equivalent of MPI's reserved collective tag space).
    """

    src: int
    dst: int
    tag: Hashable
    payload: Any
    nbytes: int

    def __init__(self, src: int, dst: int, tag: Hashable, payload: Any, nbytes: int) -> None:
        # One message per send: filling the instance dict directly costs
        # about a third of the generated frozen __init__, which goes
        # through object.__setattr__ once per field.
        d = self.__dict__
        d["src"] = src
        d["dst"] = dst
        d["tag"] = tag
        d["payload"] = payload
        d["nbytes"] = nbytes


class ReliableTransport:
    """Sender-side timeout + retransmit over a lossy fabric.

    Installed per job world by the fault injector; every point-to-point
    send (and hence every software collective round) flows through it.
    Each message carries a ``(src_node, seq)`` key — sequence numbers are
    allocated per source node, so the key is globally unique.  The receive
    side suppresses duplicates (retransmitted or fabric-duplicated
    copies) and, on first delivery, sends an **ack** back on the
    link-level-guaranteed path (``faultable=False``, zero bytes); the ack
    cancels the sender's pending retransmit timer.  Retransmits back off
    exponentially up to ``max_timeout_us``; the attempt that reaches
    ``max_attempts`` goes out on the guaranteed path itself, which bounds
    loss and is why collectives cannot deadlock even at
    ``msg_drop_prob = 1``.

    Acks never consult the fault plane, so they consume no per-link
    fault draws.  Faults are serial-only (the sharded DES rejects them),
    so the transport never crosses a shard boundary.

    With no faults active the extra cost per message is one wrapper
    tuple, one timer event, and one ack message; the timer is cancelled
    when the ack lands, well before ms-scale timeouts fire, so timings of
    the data path are unperturbed.
    """

    #: Acks model a header-only control packet: zero payload bytes.
    ACK_NBYTES = 0

    def __init__(
        self,
        sim,
        fabric,
        deliver: Callable[[Message], None],
        *,
        timeout_us: float,
        backoff: float,
        max_timeout_us: float,
        max_attempts: int,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.deliver = deliver
        self.timeout_us = timeout_us
        self.backoff = backoff
        self.max_timeout_us = max_timeout_us
        self.max_attempts = max_attempts
        #: Per-source-node sequence counters.
        self._next_seq: dict[int, int] = {}
        #: (src_node, seq) -> [src_node, dst_node, msg, attempt, timeout, timer_event]
        self._inflight: dict[tuple, list] = {}
        self._delivered: set[tuple] = set()
        self.retransmits = 0
        self.duplicates_dropped = 0
        self.forced = 0
        #: Messages abandoned at the attempt cap — only the planted
        #: ``retransmit_giveup`` demo bug can make this non-zero.
        self.gaveup = 0

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: counters, in-flight entries, delivered digest."""
        import hashlib

        delivered = ",".join(map(str, sorted(self._delivered)))
        return {
            "next_seq": [list(kv) for kv in sorted(self._next_seq.items())],
            "retransmits": self.retransmits,
            "duplicates_dropped": self.duplicates_dropped,
            "forced": self.forced,
            "n_delivered": len(self._delivered),
            "delivered": hashlib.sha256(delivered.encode()).hexdigest(),
            "inflight": [
                [
                    list(key),
                    e[0],
                    e[1],
                    desc.value(e[2]),
                    e[3],
                    e[4],
                    desc.event(e[5]),
                ]
                for key, e in sorted(self._inflight.items())
            ],
        }

    def send(self, src_node: int, dst_node: int, msg: Message) -> None:
        """Launch *msg* with retransmit protection."""
        seq = self._next_seq.get(src_node, 0)
        self._next_seq[src_node] = seq + 1
        key = (src_node, seq)
        entry = [src_node, dst_node, msg, 1, self.timeout_us, None]
        self._inflight[key] = entry
        self._transmit_data(key, entry, faultable=True)
        entry[5] = self.sim.schedule(
            self.timeout_us, self._on_timeout, key, priority=EventPriority.KERNEL
        )

    def _transmit_data(self, key: tuple, entry: list, faultable: bool) -> None:
        """One data copy over the fabric."""
        src_node, dst_node, msg = entry[0], entry[1], entry[2]
        self.fabric.transmit(
            src_node, dst_node, msg.nbytes, (key, dst_node, msg), self._on_arrive,
            faultable=faultable,
        )

    def _on_arrive(self, wrapped: tuple) -> None:
        key, dst_node, msg = wrapped
        if key in self._delivered:
            self.duplicates_dropped += 1
            return
        self._delivered.add(key)
        self._send_ack(key, dst_node)
        self.deliver(msg)

    def _send_ack(self, key: tuple, dst_node: int) -> None:
        """Ack from the receiver's node back to the sender's (guaranteed)."""
        self.fabric.transmit(
            dst_node, key[0], self.ACK_NBYTES, key, self._on_ack, faultable=False
        )

    def _on_ack(self, key: tuple) -> None:
        entry = self._inflight.pop(key, None)
        if entry is not None and entry[5] is not None:
            entry[5].cancel()
            entry[5] = None

    def _on_timeout(self, key: tuple) -> None:
        entry = self._inflight.get(key)
        if entry is None:  # acked in the meantime
            return
        attempt = entry[3] + 1
        self.retransmits += 1
        entry[3] = attempt
        if attempt >= self.max_attempts:
            if demo_bug_enabled("retransmit_giveup"):
                # Planted bug (REPRO_CHAOS_BUG=retransmit_giveup): give up
                # instead of taking the guaranteed path.  The message is
                # silently lost forever; the entry stays in-flight with no
                # timer, so seq accounting holds but the receiver starves —
                # the deadlock the chaos liveness oracle must catch.
                self.gaveup += 1
                entry[5] = None
                return
            # Last resort: the guaranteed link-level path.  No further timer
            # — this copy always lands (dedup still applies if an earlier
            # copy limps in first), and its ack retires the entry.
            self.forced += 1
            entry[5] = None
            self._transmit_data(key, entry, faultable=False)
            return
        entry[4] = min(entry[4] * self.backoff, self.max_timeout_us)
        self._transmit_data(key, entry, faultable=True)
        entry[5] = self.sim.schedule(
            entry[4], self._on_timeout, key, priority=EventPriority.KERNEL
        )
