"""Chaos engine: generator determinism, schedule composition, oracles,
ddmin shrinking, and the planted-bug end-to-end demo.

The expensive fuzzing itself runs in CI's chaos smoke job and offline
campaigns; these tests pin the machinery — that schedules are pure
functions of their seed, that they compose into valid fault configs,
that the oracles pass on schedules known to be survivable and fail on a
deadlock, and that the shrinker minimizes correctly (unit-level with a
synthetic predicate, end-to-end against the planted transport bug)."""

import json

import pytest

from repro.chaos.campaign import chaos_workload
from repro.chaos.generator import estimated_span_us, generate_schedule
from repro.chaos.oracles import judge, liveness_bound_us, run_schedule
from repro.chaos.schedule import ENTRY_KINDS, ChaosSchedule, ChaosWorkload
from repro.chaos.shrink import ddmin, shrink_schedule


QUICK = chaos_workload(quick=True)


# ----------------------------------------------------------------------
# Workload / schedule data model
# ----------------------------------------------------------------------
class TestScheduleModel:
    def test_workload_shape_validation(self):
        with pytest.raises(ValueError):
            ChaosWorkload(n_ranks=1)
        with pytest.raises(ValueError):
            ChaosWorkload(time_compression=0.0)

    def test_entry_kind_validation(self):
        with pytest.raises(ValueError, match="bad chaos entry"):
            ChaosSchedule(seed=0, entries=({"kind": "gremlin"},))

    def test_json_round_trip_is_exact(self):
        for seed in range(20):
            s = generate_schedule(seed, QUICK)
            blob = json.dumps(s.to_json())  # through real serialization
            assert ChaosSchedule.from_json(json.loads(blob)) == s

    def test_duplicate_singleton_axis_rejected(self):
        s = ChaosSchedule(
            seed=0,
            workload=QUICK,
            entries=({"kind": "pipe", "prob": 0.1}, {"kind": "pipe", "prob": 0.2}),
        )
        with pytest.raises(ValueError, match="duplicate singleton"):
            s.fault_config()

    def test_fault_config_composition(self):
        s = ChaosSchedule(
            seed=0,
            workload=QUICK,
            entries=(
                {"kind": "net", "drop_prob": 0.2, "window_us": [10.0, 20.0]},
                {"kind": "pipe", "prob": 0.3},
                {"kind": "timesync", "at_us": 50.0, "jump_us": 5.0,
                 "drift_rate": 1e-5},
                {"kind": "node", "node": 1, "fault": "slowdown", "at_us": 1.0,
                 "duration_us": 2.0, "fraction": 0.4},
                {"kind": "cosched", "node": 0, "fault": "hang", "at_us": 3.0,
                 "duration_us": 4.0},
            ),
        )
        cfg = s.fault_config()
        assert cfg.enabled and cfg.msg_drop_prob == 0.2
        assert cfg.net_window_us == (10.0, 20.0)
        assert cfg.pipe_loss_prob == 0.3
        assert cfg.timesync_loss_at_us == 50.0
        assert len(cfg.node_faults) == 1 and cfg.node_faults[0].fraction == 0.4
        assert len(cfg.cosched_faults) == 1 and cfg.cosched_faults[0].kind == "hang"

    def test_composition_rejects_out_of_range_target(self):
        s = ChaosSchedule(
            seed=0,
            workload=QUICK,  # 2 nodes
            entries=(
                {"kind": "node", "node": 9, "fault": "crash", "at_us": 1.0,
                 "duration_us": 2.0},
            ),
        )
        with pytest.raises(ValueError, match="unknown node"):
            s.fault_config()


# ----------------------------------------------------------------------
# Generator determinism
# ----------------------------------------------------------------------
class TestGenerator:
    def test_same_seed_same_schedule(self):
        for seed in range(20):
            assert generate_schedule(seed, QUICK) == generate_schedule(seed, QUICK)

    def test_seeds_differ(self):
        schedules = {
            json.dumps(generate_schedule(s, QUICK).to_json()) for s in range(20)
        }
        assert len(schedules) > 10  # genuinely random across seeds

    def test_all_kinds_reachable(self):
        kinds = set()
        for seed in range(60):
            kinds.update(e["kind"] for e in generate_schedule(seed, QUICK).entries)
        assert kinds == set(ENTRY_KINDS)

    def test_every_schedule_composes(self):
        for seed in range(60):
            cfg = generate_schedule(seed, QUICK).fault_config()
            assert cfg.enabled

    def test_scheduled_faults_land_inside_the_estimated_span(self):
        for seed in range(60):
            span = estimated_span_us(QUICK, seed)  # span is seed-dependent
            for e in generate_schedule(seed, QUICK).entries:
                if "at_us" in e:
                    assert 0.0 <= e["at_us"] <= 0.8 * span


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
class TestOracles:
    def test_liveness_bound_finite_and_above_base(self):
        for seed in range(10):
            s = generate_schedule(seed, QUICK)
            bound = liveness_bound_us(s)
            assert bound < float("inf")
            assert bound > QUICK.calls * QUICK.compute_between_us

    def test_clean_schedule_passes_all_oracles(self):
        report = judge(ChaosSchedule(seed=3, workload=QUICK))
        assert report.ok, report.details
        assert report.details["completed"] and report.details["values_ok"]
        assert report.details["violations"] == []

    def test_faulty_schedule_passes_and_exercises_defenses(self):
        # Seed 2's draw is the hard one: a drop storm plus node, cosched
        # and pipe faults — survivable, but only through the resilience
        # machinery, whose activity the counters must show.
        report = judge(generate_schedule(2, QUICK))
        assert report.ok, report.details
        c = report.details["counters"]
        assert c["retransmits"] > 0 and c["fault_events"] > 0

    def test_exception_in_a_rank_body_propagates(self, monkeypatch):
        # Only a run that outlives the liveness bound becomes a liveness
        # verdict; an exception inside the DES must fail the trial, even
        # one that is a RuntimeError.
        import repro.apps.aggregate_trace as aggregate_trace

        class Boom(RuntimeError):
            pass

        def body(config, sink, node0_ranks):
            def factory(rank, api):
                yield from api.compute(10.0)
                raise Boom(f"rank {rank}")

            return factory

        monkeypatch.setattr(aggregate_trace, "aggregate_trace_body", body)
        with pytest.raises(Boom):
            run_schedule(ChaosSchedule(seed=3, workload=QUICK))


# ----------------------------------------------------------------------
# ddmin (unit, synthetic predicate — no simulator)
# ----------------------------------------------------------------------
class TestDdmin:
    def test_minimizes_to_exact_culprit_set(self):
        culprits = {3, 11}
        calls = []

        def fails(items):
            calls.append(list(items))
            return culprits <= set(items)

        out = ddmin(list(range(16)), fails)
        assert set(out) == culprits
        assert len(calls) < 60  # polynomial probing, not exhaustive

    def test_single_culprit(self):
        assert ddmin(list(range(10)), lambda it: 7 in it) == [7]

    def test_all_items_needed_stays_whole(self):
        items = [1, 2, 3]
        assert ddmin(items, lambda it: len(it) == 3) == items


# ----------------------------------------------------------------------
# Schedule shrinking (synthetic oracle via monkeypatch — fast)
# ----------------------------------------------------------------------
class TestShrinkSchedule:
    def _fake_judge(self, predicate):
        from repro.chaos.oracles import OracleReport

        def judge(schedule, check_determinism=True):
            failed = ("liveness",) if predicate(schedule) else ()
            return OracleReport(failed=failed, details={})

        return judge

    def test_removes_irrelevant_entries_and_shrinks_fields(self, monkeypatch):
        import repro.chaos.shrink as shrink_mod

        # "Bug": any net drop_prob >= 0.2 deadlocks; everything else noise.
        predicate = lambda s: any(
            e["kind"] == "net" and e.get("drop_prob", 0.0) >= 0.2 for e in s.entries
        )
        monkeypatch.setattr(shrink_mod, "judge", self._fake_judge(predicate))
        schedule = ChaosSchedule(
            seed=0,
            workload=QUICK,
            entries=(
                {"kind": "node", "node": 0, "fault": "crash", "at_us": 1.0,
                 "duration_us": 5.0},
                {"kind": "net", "drop_prob": 0.9, "dup_prob": 0.3,
                 "window_us": [0.0, 100.0]},
                {"kind": "pipe", "prob": 0.2},
            ),
        )
        res = shrink_mod.shrink_schedule(schedule, "liveness", budget=100)
        assert res.minimized_entries == 1
        (entry,) = res.schedule.entries
        assert entry["kind"] == "net"
        assert "dup_prob" not in entry and "window_us" not in entry
        assert 0.2 <= entry["drop_prob"] < 0.45  # halved toward the threshold

    def test_budget_is_respected(self, monkeypatch):
        import repro.chaos.shrink as shrink_mod

        evals = []
        real = self._fake_judge(lambda s: True)

        def counting(schedule, check_determinism=True):
            evals.append(1)
            return real(schedule)

        monkeypatch.setattr(shrink_mod, "judge", counting)
        schedule = generate_schedule(0, QUICK)
        shrink_mod.shrink_schedule(schedule, "liveness", budget=5)
        assert len(evals) <= 5

    def test_shrinking_is_deterministic(self, monkeypatch):
        import repro.chaos.shrink as shrink_mod

        predicate = lambda s: any(
            e["kind"] == "net" and e.get("drop_prob", 0.0) >= 0.15 for e in s.entries
        )
        monkeypatch.setattr(shrink_mod, "judge", self._fake_judge(predicate))
        schedule = ChaosSchedule(
            seed=0,
            workload=QUICK,
            entries=(
                {"kind": "net", "drop_prob": 0.8},
                {"kind": "pipe", "prob": 0.3},
            ),
        )
        a = shrink_mod.shrink_schedule(schedule, "liveness", budget=50)
        b = shrink_mod.shrink_schedule(schedule, "liveness", budget=50)
        assert a.schedule == b.schedule and a.evals == b.evals


# ----------------------------------------------------------------------
# Planted-bug end to end: the fuzzer's seed-2 draw catches the bug and
# ddmin minimizes it (the slow but decisive demo)
# ----------------------------------------------------------------------
class TestPlantedBugEndToEnd:
    def test_retransmit_giveup_found_and_minimized(self, monkeypatch):
        from repro.faults.demo import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "retransmit_giveup")
        schedule = generate_schedule(2, QUICK)
        report = judge(schedule, check_determinism=False)
        assert report.failed == ("liveness",), report.details
        assert report.details["counters"]["gaveup"] > 0

        res = shrink_schedule(schedule, "liveness", budget=30)
        assert res.minimized_entries <= 3
        kinds = {e["kind"] for e in res.schedule.entries}
        assert "net" in kinds  # the drop storm is the load-bearing fault
        # The minimized schedule still reproduces, and cleanly (without
        # the planted bug) the very same schedule survives.
        assert "liveness" in judge(res.schedule, check_determinism=False).failed
        monkeypatch.delenv(ENV_VAR)
        assert judge(res.schedule, check_determinism=False).ok
