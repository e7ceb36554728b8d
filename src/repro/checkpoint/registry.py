"""Names that survive a checkpoint file.

A checkpoint cannot pickle live closures or suspended generators, so it
stores *names*: the run's builder as a ``"pkg.mod:fn"`` reference (the
form :class:`repro.experiments.runner.TrialSpec` uses for trial
functions), and a stable reference for every scheduled callback (used in
fingerprints and divergence reports).  This module names the callbacks
and finds the ones a rebuild could not recreate.
"""

from __future__ import annotations

__all__ = ["callback_ref", "audit_event_callbacks"]


def callback_ref(fn) -> str:
    """Stable, identity-free name for a scheduled callback.

    Bound methods (every callback the simulator sees in practice) become
    ``Owner[@nN].method`` where ``N`` is the owning node when the owner
    exposes one — enough to tell two nodes' schedulers apart without
    leaking ``id()`` values that differ across rebuilds.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return getattr(fn, "__qualname__", None) or repr(fn)
    node_id = getattr(owner, "node_id", None)
    if node_id is None:
        node = getattr(owner, "node", None)
        node_id = getattr(node, "id", None)
    if node_id is None and type(owner).__name__ == "Node":
        node_id = getattr(owner, "id", None)
    tag = f"[@n{node_id}]" if node_id is not None else ""
    return f"{type(owner).__qualname__}{tag}.{getattr(fn, '__name__', '?')}"


def audit_event_callbacks(sim) -> list[str]:
    """References of queued callbacks that a checkpoint could NOT rebuild.

    A closure defined inside a function carries ``<locals>`` in its
    qualname and has no registered identity a restored run would recreate
    — scheduling one makes the run uncheckpointable.  Returns the
    offending references (empty list = calendar is clean).
    """
    offenders = []
    for ev in sim.active_events():
        ref = callback_ref(ev.fn)
        if "<locals>" in ref or "<lambda>" in ref:
            offenders.append(ref)
    return offenders
