"""Run queues: dispatch order, lazy removal, steal filtering, compaction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.runqueue import _COMPACT_MIN_ENTRIES, RunQueue
from repro.kernel.thread import Thread


def make_thread(priority, name="t", allow_steal=True):
    return Thread(
        None, name=name, priority=priority, node_id=0, affinity_cpu=0, allow_steal=allow_steal
    )


class TestBasics:
    def test_empty(self):
        q = RunQueue()
        assert len(q) == 0
        assert not q
        assert q.pop() is None
        assert q.best_priority() is None
        assert q.peek() is None

    def test_push_pop(self):
        q = RunQueue()
        t = make_thread(60)
        q.push(t)
        assert len(q) == 1
        assert q.pop() is t
        assert len(q) == 0

    def test_pop_clears_entry(self):
        q = RunQueue()
        t = make_thread(60)
        q.push(t)
        q.pop()
        assert t.rq_entry is None

    def test_lower_priority_value_pops_first(self):
        q = RunQueue()
        lo, hi = make_thread(100), make_thread(30)
        q.push(lo)
        q.push(hi)
        assert q.pop() is hi
        assert q.pop() is lo

    def test_fifo_among_equals(self):
        q = RunQueue()
        ts = [make_thread(60, name=f"t{i}") for i in range(5)]
        for t in ts:
            q.push(t)
        assert [q.pop() for _ in range(5)] == ts

    def test_double_push_raises(self):
        q = RunQueue()
        t = make_thread(60)
        q.push(t)
        with pytest.raises(RuntimeError):
            q.push(t)

    def test_best_priority(self):
        q = RunQueue()
        q.push(make_thread(90))
        q.push(make_thread(56))
        assert q.best_priority() == 56


class TestRemoval:
    def test_remove_middle(self):
        q = RunQueue()
        a, b, c = make_thread(60), make_thread(60), make_thread(60)
        for t in (a, b, c):
            q.push(t)
        q.remove(b)
        assert len(q) == 2
        assert q.pop() is a
        assert q.pop() is c

    def test_remove_not_queued_raises(self):
        q = RunQueue()
        with pytest.raises(RuntimeError):
            q.remove(make_thread(60))

    def test_remove_then_repush_goes_to_back(self):
        q = RunQueue()
        a, b = make_thread(60), make_thread(60)
        q.push(a)
        q.push(b)
        q.remove(a)
        q.push(a)
        assert q.pop() is b
        assert q.pop() is a

    def test_reprioritise_via_remove_push(self):
        q = RunQueue()
        a, b = make_thread(60), make_thread(60)
        q.push(a)
        q.push(b)
        q.remove(b)
        b.priority = 30
        q.push(b)
        assert q.pop() is b


class TestStealable:
    def test_pop_stealable_skips_bound(self):
        q = RunQueue()
        bound = make_thread(30, allow_steal=False)
        loose = make_thread(60, allow_steal=True)
        q.push(bound)
        q.push(loose)
        assert q.best_stealable_priority() == 60
        assert q.pop_stealable() is loose
        assert len(q) == 1

    def test_pop_stealable_none_when_all_bound(self):
        q = RunQueue()
        q.push(make_thread(30, allow_steal=False))
        assert q.pop_stealable() is None
        assert q.best_stealable_priority() is None

    def test_pop_stealable_best_first(self):
        q = RunQueue()
        worse = make_thread(90)
        better = make_thread(56)
        q.push(worse)
        q.push(better)
        assert q.pop_stealable() is better

    def test_pop_stealable_best_behind_a_bound_head(self):
        # Heap array order [1, 5, 3]: the best stealable is not the first
        # stealable entry of the array.
        q = RunQueue()
        bound, worse, better = (make_thread(1, allow_steal=False), make_thread(5),
                                make_thread(3))
        for t in (bound, worse, better):
            q.push(t)
        assert q.best_stealable_priority() == 3
        assert q.pop_stealable() is better

    def test_threads_iterates_live(self):
        q = RunQueue()
        a, b = make_thread(60), make_thread(70)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert list(q.threads()) == [b]


class TestCompaction:
    """Stale entries must not accumulate without bound (sim/core.py's
    dead > live >= threshold in-place compaction, mirrored here)."""

    def test_mass_removal_compacts_heap(self):
        q = RunQueue()
        keep = [make_thread(50, name=f"k{i}") for i in range(4)]
        churn = [make_thread(80, name=f"c{i}") for i in range(2 * _COMPACT_MIN_ENTRIES)]
        for t in keep + churn:
            q.push(t)
        for t in churn:
            q.remove(t)
        assert len(q) == len(keep)
        # Compaction fired: dead weight was dropped back under the floor
        # instead of accumulating one tombstone per removal.
        dead = len(q._heap) - len(q)
        assert dead < _COMPACT_MIN_ENTRIES

    def test_compaction_preserves_order_and_content(self):
        q = RunQueue()
        keep = [make_thread(p, name=f"k{p}") for p in (30, 60, 60, 90)]
        churn = [make_thread(70) for _ in range(_COMPACT_MIN_ENTRIES + 5)]
        for t in keep + churn:
            q.push(t)
        for t in churn:
            q.remove(t)
        assert [q.pop() for _ in range(len(keep))] == keep

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2),
                      st.integers(min_value=0, max_value=127)),
            max_size=300,
        )
    )
    def test_heap_stays_bounded(self, ops):
        """Under any push/remove/pop interleaving the physical heap stays
        within the compaction bound: dead entries never exceed
        max(threshold, live)."""
        q = RunQueue()
        queued = []
        serial = 0
        for op, prio in ops:
            if op == 0:
                t = make_thread(prio, name=str(serial))
                serial += 1
                q.push(t)
                queued.append(t)
            elif op == 1 and queued:
                q.remove(queued.pop(prio % len(queued)))
            elif op == 2:
                t = q.pop()
                if t is not None:
                    queued.remove(t)
            assert len(q) == len(queued)
            dead = len(q._heap) - len(queued)
            assert dead <= max(_COMPACT_MIN_ENTRIES, len(queued))
        drained = []
        while q:
            drained.append(q.pop())
        assert sorted(drained, key=id) == sorted(queued, key=id)


class TestPropertyOrder:
    @given(st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=50))
    def test_pop_order_is_stable_priority_sort(self, priorities):
        q = RunQueue()
        threads = [make_thread(p, name=str(i)) for i, p in enumerate(priorities)]
        for t in threads:
            q.push(t)
        popped = []
        while q:
            popped.append(q.pop())
        keys = [(t.priority, threads.index(t)) for t in popped]
        assert keys == sorted(keys)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=127), st.booleans()),
            min_size=1,
            max_size=40,
        ),
        st.sets(st.integers(min_value=0, max_value=39)),
    )
    def test_removal_never_corrupts_count(self, specs, to_remove):
        q = RunQueue()
        threads = [make_thread(p, allow_steal=s) for p, s in specs]
        for t in threads:
            q.push(t)
        removed = 0
        for idx in to_remove:
            if idx < len(threads):
                q.remove(threads[idx])
                removed += 1
        assert len(q) == len(threads) - removed
        drained = 0
        while q.pop() is not None:
            drained += 1
        assert drained == len(threads) - removed


#: Virtual runtimes with ties, negatives (sleeper-boosted keys) and
#: near-equal floats.
_VRUNTIMES = (0.0, -2.5, 0.1, 0.30000000000000004, 0.3, 1e-9, 1e9, 7.25)

_KEYS = {
    "aix": lambda vrt: None,
    "constant": lambda vrt: (lambda t: 0.0),
    "vruntime": lambda vrt: (lambda t: vrt[t.name]),
}


class TestModel:
    """Two queues sharing the global sequence, against a sorted-list
    reference of ``(key, push order, thread)``.  Queries are operations of
    their own, so a cleared head may still sit at the top of the heap when
    the next operation runs; after every operation the invariant monitor's
    run-queue check walks both heaps."""

    @settings(max_examples=300)
    @given(
        key_name=st.sampled_from(sorted(_KEYS)),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["push", "push", "push", "repush", "remove", "remove",
                                 "pop", "pop_stealable", "peek", "best_priority",
                                 "head_rank", "best_stealable", "churn"]),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=127),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=200,
        ),
    )
    def test_operations_match_the_reference(self, key_name, ops):
        from types import SimpleNamespace

        from repro.checkpoint.monitor import InvariantMonitor, InvariantReport
        from repro.kernel.thread import ThreadState

        vrt = {}
        key = _KEYS[key_name](vrt)
        queues = [RunQueue("q0", key=key), RunQueue("q1", key=key)]
        model = [[], []]          # per queue: [(key, push order, thread)]
        idle = []                 # threads on no queue, ready to re-push
        order = iter(range(10**9))
        serial = iter(range(10**9))
        system = SimpleNamespace(cluster=SimpleNamespace(nodes=[SimpleNamespace(
            id=0,
            scheduler=SimpleNamespace(local_queues=[queues[0]], global_queue=queues[1]),
        )]))
        monitor = InvariantMonitor(system)

        def push(qi, t, prio, pick):
            t.priority = prio
            vrt[t.name] = _VRUNTIMES[pick % len(_VRUNTIMES)]
            t.state = ThreadState.READY
            queues[qi].push(t)
            k = t.priority if key is None else key(t)
            model[qi].append((k, next(order), t))

        def new_thread(prio, pick):
            return make_thread(prio, name=f"t{next(serial)}", allow_steal=pick % 2 == 0)

        def ranked(qi):
            return sorted(model[qi], key=lambda e: e[:2])

        def remove(qi, t):
            queues[qi].remove(t)
            model[qi] = [e for e in model[qi] if e[2] is not t]
            idle.append(t)

        for op, qi, a, b in ops:
            q, m = queues[qi], ranked(qi)
            head = m[0] if m else None
            if op == "push":
                push(qi, new_thread(a, b), a, b)
            elif op == "repush" and idle:
                push(qi, idle.pop(a % len(idle)), a, b)
            elif op == "remove" and m:
                remove(qi, m[a % len(m)][2])
            elif op == "churn":
                # Enough short-lived entries to cross the compaction floor.
                batch = [new_thread(a, b + i) for i in range(_COMPACT_MIN_ENTRIES + 6)]
                for i, t in enumerate(batch):
                    push(qi, t, (a + i) % 128, b + i)
                for t in batch if b % 2 else batch[::-1]:
                    remove(qi, t)
            elif op == "pop":
                assert q.pop() is (head[2] if head else None)
                if head:
                    model[qi].remove(head)
                    idle.append(head[2])
            elif op == "pop_stealable":
                cands = [e for e in m if e[2].allow_steal]
                want = cands[0] if cands else None
                assert q.pop_stealable() is (want[2] if want else None)
                if want:
                    model[qi].remove(want)
                    idle.append(want[2])
            elif op == "peek":
                assert q.peek() is (head[2] if head else None)
            elif op == "best_priority":
                assert q.best_priority() == (head[0] if head else None)
            elif op == "best_stealable":
                stealable = [e[0] for e in m if e[2].allow_steal]
                assert q.best_stealable_priority() == (min(stealable) if stealable else None)
            elif op == "head_rank":
                ranks = [queues[i].head_rank() for i in (0, 1)]
                heads = [ranked(i)[0][:2] if model[i] else None for i in (0, 1)]
                for rank, want in zip(ranks, heads):
                    assert (rank is None) == (want is None)
                    if rank is not None:
                        assert rank[0] == want[0]
                if heads[0] is not None and heads[1] is not None:
                    # Ranks order across queues as push order does.
                    assert (ranks[0] < ranks[1]) == (heads[0] < heads[1])

            for q, m in zip(queues, model):
                assert len(q) == len(m) and bool(q) == bool(m)
                assert sorted(map(id, q.threads())) == sorted(id(e[2]) for e in m)
                assert all(e[2].rq_entry is not None for e in m)
                dead = len(q._heap) - len(q)
                assert dead <= max(_COMPACT_MIN_ENTRIES, len(q))
            assert all(t.rq_entry is None for t in idle)
            report = InvariantReport(sim_now=0.0)
            monitor._check_runqueues(report)
            assert report.ok, report.summary()
