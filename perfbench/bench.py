"""Repeated, checked runs of the six benchmark workloads, and traced runs.

Each sample runs in a fresh child process and reports its times in
reference-host seconds, corrected for the host's speed as a probe in
the process saw it (see ``SpeedProbe``); traced runs attribute host time
and work to the simulator's and the harness's layers.

Run from the repository root (no install needed; the benchmark puts
``src`` on the path of each sample process itself)::

    python3 perfbench/bench.py                        # every workload, 5 samples each,
                                                      # round-robin, then a traced round
    python3 perfbench/bench.py --workload fig4 --seed 3 --seconds 20 --trace 0
    python3 perfbench/bench.py --base HEAD~1          # A/B against another commit

With ``--workload`` it measures that one workload for
``--seconds`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A sample is one op; it fails if it raises, if its own
check fails, if its digest differs from the run's reference (the other
samples, the 1-shard digest for ``pdes_2``, the cold records for
``campaign_warm``) or, at seed 0, from ``golden.json``.

``--base REF`` exports REF's ``src`` tree with ``git archive`` and runs
at least 10 alternating (ABBA) pairs of samples per workload, REF's code
against the working tree's, both driven by this file's workload code.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the setup clock starts before any import
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(HERE, "golden.json")

sys.path.insert(0, HERE)
import layertrace  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)
#: Set-up is timed this many times per run at least (extra set-up-only
#: children make up for workloads whose samples are few and long).
MIN_SETUPS = 5
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 100.0
#: Minimum A/B pairs (choosing-metrics section 8).
MIN_PAIRS = 10
#: Host-speed probe: a sample process times one calibration slice of
#: PROBE_STEPS steps every PROBE_CPU_S of its own CPU time.  One slice
#: takes PROBE_REF_S on the reference host (a quiet 2.1 GHz Xeon vCPU,
#: CPython 3.11.7).
PROBE_CPU_S = 0.01
PROBE_STEPS = 1000
PROBE_REF_S = 0.0003
#: Fewest slices a speed is taken from, and the share of the slowest
#: slices left out of their mean.
MIN_SLICES = 8
SLOW_SLICES_DROPPED = 0.1
#: How strongly the measured code feels a slowdown of the slice: the
#: slope of log(seconds) on log(probe speed) over repeated samples of one
#: input was 0.78-0.88 for the five workloads' timed phases (0.57-0.62
#: for set-up), with the host's speed between 0.37 and 1.0.  Memory-bound
#: code slows less than the slice, which is bound by instruction issue.
SPEED_ELASTICITY = 0.8


# ----------------------------------------------------------------------
# Sample process
# ----------------------------------------------------------------------
class _Event:
    __slots__ = ("when", "owner")

    def __init__(self, when, owner):
        self.when, self.owner = when, owner


def calibration_slice() -> float:
    """Seconds one fixed slice of interpreter work takes right now.

    The slice is shaped like the simulator's inner loop: heap pushes and
    pops, attribute access and dict updates.  Past its three containers
    it allocates nothing the cyclic garbage collector tracks, so it does
    not set off collections of the heap of the sample it interrupts.
    """
    heap, fired, ev = [], {}, _Event(0, 0)
    t0 = time.perf_counter()
    for i in range(PROBE_STEPS):
        heapq.heappush(heap, (i * 7919) % 4099)
        if len(heap) > 64:
            ev.when = heapq.heappop(heap)
            ev.owner = ev.when & 63
            fired[ev.owner] = fired.get(ev.owner, 0) + ev.when % 3
    return time.perf_counter() - t0


class SpeedProbe:
    """The host's speed while this process runs, sampled from a signal.

    Each of the host's two vCPUs slows down by up to 1.8x on its own, for
    seconds at a time.  A ``SIGPROF`` handler (the simulator itself uses
    only ``SIGALRM``) times a calibration slice on whichever CPU the
    process is running, every ``PROBE_CPU_S`` of its CPU time, so the
    slices sample the speed the measured code saw.  Forked children
    inherit no timer.
    """

    def __init__(self):
        self.slices = []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_CPU_S, PROBE_CPU_S)

    def _tick(self, _signum, _frame):
        self.slices.append(calibration_slice())

    def speed(self) -> float:
        """Speed since the last call, relative to the reference host."""
        slices, self.slices = self.slices, []
        slices += [calibration_slice() for _ in range(MIN_SLICES - len(slices))]
        slices.sort()
        kept = slices[:max(MIN_SLICES, round(len(slices) * (1 - SLOW_SLICES_DROPPED)))]
        return PROBE_REF_S / statistics.fmean(kept)

    def close(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def child_main(args) -> None:
    """Run one sample and print its result as one JSON line.

    Times are reported in reference-host seconds: the measured seconds of
    a phase times the host speed the probe saw during it, raised to
    ``SPEED_ELASTICITY`` (``*_raw_s`` and ``host_speed`` keep what was
    measured).
    """
    import resource

    out = {"ok": False, "problems": [], "digest": None, "facts": {}, "trace": None}
    probe = SpeedProbe()
    try:
        sys.path.insert(0, args.src)
        workload = workloads.WORKLOADS[args.child]
        tracer = None
        if args.trace_mode == "full":
            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        state = workload.setup(args.seed, args.toy, args.variant, args.work)
        out["setup_raw_s"] = time.perf_counter() - _T0
        out["setup_s"] = out["setup_raw_s"] * probe.speed() ** SPEED_ELASTICITY
        if not args.setup_only:
            if tracer is not None:
                tracer.reset()
            t_run = time.perf_counter()
            res = workload.run(state)
            out["wall_raw_s"] = time.perf_counter() - t_run
            if tracer is not None:
                out["trace"] = tracer.finish()
            out["host_speed"] = probe.speed()
            out["wall_s"] = out["wall_raw_s"] * out["host_speed"] ** SPEED_ELASTICITY
            out["digest"], out["facts"], out["problems"] = workload.check(state, res)
        out["ok"] = not out["problems"]
    except Exception:
        out["problems"].append(traceback.format_exc())
    finally:
        probe.close()
    rusage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rusage / 1024.0
    print(json.dumps(out))


def run_child(name, seed, opts, src, trace="off", variant="", work=None,
              setup_only=False) -> dict:
    """Spawn one sample process and wait for it (and its process group)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", name,
           "--seed", str(seed), "--src", src, "--trace-mode", trace,
           "--variant", variant, "--work", work or WORK_ROOT]
    if opts.toy:
        cmd.append("--toy")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"killed after {CHILD_TIMEOUT_S}s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "problems": [f"no result (exit {proc.returncode}): "
                                          f"{stderr.strip()[-2000:]}"]}


# ----------------------------------------------------------------------
# One workload's measurement session
# ----------------------------------------------------------------------
def quartiles(values):
    """(median, q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Session:
    """Samples of one workload at one seed against one ``src`` tree.

    Each sample is checked against the expected digest: the golden one
    at seed 0, else the reference workload's, else the first sample's.
    """

    def __init__(self, name, seed, opts, src):
        self.name, self.seed, self.opts, self.src = name, seed, opts, src
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
        self.samples = []   # timed samples
        self.setups = []
        self.raw_setups = []
        self.rounds = []    # traced rounds: per-layer metric dicts
        self.attempted = 0
        self.failures = []
        scale = "toy" if opts.toy else "full"
        self.expect = dict(opts.golden.get(scale, {}).get(name, {})) if seed == 0 else {}
        self.ref_dir = None
        ref = workloads.REFERENCE.get(name)
        if ref is not None:
            self.ref_dir = os.path.join(self.work, "ref")
            os.makedirs(self.ref_dir)
            r = run_child(ref, seed, opts, src, work=self.ref_dir)
            self._judge(f"reference {ref}", r,
                        dict(opts.golden.get(scale, {}).get(ref, {})) if seed == 0 else {})
            if r.get("ok"):
                self.expect.setdefault("digest", r["digest"])
                if self.expect["digest"] != r["digest"]:
                    self.failures.append(f"reference {ref} digest {r['digest']} != "
                                         f"{self.expect['digest']}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _sample_dir(self) -> str:
        path = tempfile.mkdtemp(dir=self.work)
        cold_store = os.path.join(self.ref_dir or "", "store")
        if self.name == "campaign_warm" and os.path.isdir(cold_store):
            # The cold run's store.  A warm sample only reads it (its puts
            # find byte-identical records), so every sample shares it
            # rather than writing a fresh copy to disk before each one.
            # If the cold reference failed there is none, and the warm
            # sample fails its hit check.
            os.symlink(cold_store, os.path.join(path, "store"))
        return path

    def _judge(self, label, r, expect) -> bool:
        self.attempted += 1
        problems = list(r.get("problems", []))
        if r.get("ok"):
            for key, want in expect.items():
                got = r["digest"] if key == "digest" else r["facts"].get(key)
                if got != want:
                    problems.append(f"{key} {got!r} != expected {want!r}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return False
        return True

    def run(self, trace="off", variant="", setup_only=False) -> dict:
        work = self._sample_dir()
        try:
            return run_child(self.name, self.seed, self.opts, self.src, trace=trace,
                             variant=variant, work=work, setup_only=setup_only)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def sample(self) -> dict:
        r = self.run()
        if r.get("ok") and "digest" not in self.expect:
            self.expect["digest"] = r["digest"]
        if self._judge("sample", r, self.expect):
            self.samples.append(r)
            self.setups.append(r["setup_s"])
            self.raw_setups.append(r["setup_raw_s"])
        return r

    def top_up_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS:
            r = self.run(setup_only=True)
            if "setup_s" not in r:
                self.failures.append("set-up: " + "; ".join(r.get("problems", [])))
                return
            self.setups.append(r["setup_s"])
            self.raw_setups.append(r["setup_raw_s"])

    def traced_round(self) -> None:
        """An untraced sample, then traced pass(es) of the same inputs."""
        base = self.run()
        if not self._judge("untraced", base, self.expect):
            return
        if "digest" not in self.expect:
            self.expect["digest"] = base["digest"]
        passes = {"": self.run(trace="full")}
        for variant in workloads.EXTRA_TRACED.get(self.name, {}):
            passes[variant] = self.run(trace="full", variant=variant)
        for variant, r in passes.items():
            if not self._judge(f"traced {variant or 'pass'}", r, self.expect):
                return
        m = layertrace.layer_metrics(passes[""]["trace"])
        for variant, prefixes in workloads.EXTRA_TRACED.get(self.name, {}).items():
            extra = layertrace.layer_metrics(passes[variant]["trace"])
            m.update({k: v for k, v in extra.items() if k.startswith(prefixes)})
        m["sim.events_per_s"] = m["sim.events"] / base["wall_s"]
        m["bench.traced_wall_s"] = passes[""]["wall_s"]
        m["bench.trace_overhead"] = passes[""]["wall_s"] / base["wall_s"]
        m["bench.wall_raw_s"] = base["wall_raw_s"]
        m["bench.host_speed"] = base["host_speed"]
        if self.rounds:
            first = self.rounds[0]
            drift = [k for k, v in m.items() if isinstance(v, int) and v != first[k]]
            if drift:
                self.failures.append(f"traced counters differ between rounds: {drift}")
        self.rounds.append(m)

    def e2e_values(self) -> dict:
        return {
            "wall_s": [s["wall_s"] for s in self.samples],
            "setup_s": list(self.setups),
            "peak_rss_mb": [s["peak_rss_mb"] for s in self.samples],
        }

    def raw_values(self) -> dict:
        """The measured seconds behind ``e2e_values`` and the host speeds."""
        return {
            "wall_raw_s": [s["wall_raw_s"] for s in self.samples],
            "setup_raw_s": list(self.raw_setups),
            "host_speed": [s["host_speed"] for s in self.samples],
        }

    def layer_values(self) -> dict:
        return {k: [m[k] for m in self.rounds] for k in (self.rounds[0] if self.rounds else {})}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_block(values: dict, declared: list) -> dict:
    """Median of each declared metric, with its unit; a missing or extra
    name is a harness bug and raises."""
    names = [d["name"] for d in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} are not "
                           "both emitted and declared in BENCHMARK.json")
    out = {}
    for d in declared:
        vals = values[d["name"]]
        out[d["name"]] = {"value": quartiles(vals)[0] if vals else 0.0, "unit": d["unit"]}
    return out


RAW_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s", "host_speed": "ratio"}


def print_stats(name, values: dict, bench: dict) -> None:
    units = dict(RAW_UNITS, **{d["name"]: d["unit"]
                               for d in bench["end_to_end"] + bench["per_layer"]})
    for metric, vals in values.items():
        if not any(vals):
            continue  # a layer this workload never enters
        med, q1, q3 = quartiles(vals)
        print(f"{name:14s} {metric:28s} median {med:.6g} {units[metric]}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")


def session_result(session: Session, trace: bool, bench: dict) -> dict:
    failed = len(session.failures)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = session.layer_values() if trace else session.e2e_values()
    if trace and not values:
        values = {d["name"]: [] for d in declared}
    return {
        "correct": failed == 0,
        "attempted": max(session.attempted, 1),
        "failed": failed,
        "metrics": metric_block(values, declared),
    }


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def measure(opts, bench: dict) -> dict:
    """One workload for about ``--seconds``."""
    start = time.monotonic()
    session = Session(opts.workload[0], opts.seed, opts, opts.src)
    try:
        # The reference sample counts against --seconds; another sample
        # starts only if one as long as the last would end in time.
        while True:
            began = time.monotonic()
            if opts.trace:
                session.traced_round()
            else:
                session.sample()
            now = time.monotonic()
            if session.failures or now + (now - began) - start > opts.seconds:
                break
        if opts.trace:
            print_stats(session.name, session.layer_values(), bench)
        else:
            session.top_up_setups()
            print_stats(session.name, session.e2e_values(), bench)
            print_stats(session.name, session.raw_values(), bench)
        for failure in session.failures:
            print(f"FAILED {session.name}: {failure}")
        return session_result(session, opts.trace, bench)
    finally:
        session.close()


def full(opts, bench: dict) -> dict:
    """Every workload: round-robin samples, then one traced round each."""
    sessions = {name: Session(name, opts.seed, opts, opts.src) for name in opts.workload}
    try:
        for i in range(opts.samples):
            for name, session in sessions.items():
                r = session.sample()
                print(f"[{i + 1}/{opts.samples}] {name}: "
                      + (f"wall {r['wall_s']:.3f}s" if r.get("ok") else "FAILED"), flush=True)
        for session in sessions.values():
            session.top_up_setups()
            session.traced_round()
        report = {}
        for name, session in sessions.items():
            print_stats(name, session.e2e_values(), bench)
            print_stats(name, session.raw_values(), bench)
            print_stats(name, session.layer_values(), bench)
            for failure in session.failures:
                print(f"FAILED {name}: {failure}")
            report[name] = {"end_to_end": session_result(session, False, bench),
                            "per_layer": session_result(session, True, bench)["metrics"]}
        return report
    finally:
        for session in sessions.values():
            session.close()


def export_ref(ref: str, dest: str) -> str:
    """``src`` of git revision *ref*, unpacked under *dest*."""
    tar_path = os.path.join(dest, "src.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", tar_path, ref, "src"],
                   check=True)
    with tarfile.open(tar_path) as tar:
        # The "data" filter exists from Python 3.10.12 / 3.11.4 on.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    os.unlink(tar_path)
    return os.path.join(dest, "src")


def ab_verdict(base, head, lower_better: bool, bound: float) -> dict:
    """Section-8 verdict for one metric on one workload."""
    sign = 1.0 if lower_better else -1.0
    b = [sign * v for v in base]  # from here on, lower is better
    h = [sign * v for v in head]
    wins = sum(hv < bv for bv, hv in zip(b, h))
    mb, bq1, bq3 = quartiles(b)
    mh, hq1, hq3 = quartiles(h)
    spread = max(abs((bq3 - bq1) / mb), abs((hq3 - hq1) / mh))
    worse = (mh - mb) / abs(mb)
    if wins >= 0.9 * len(b) and mb - mh > bq3 - bq1:
        verdict = "improved"
    elif min(h) > max(b) and worse > bound:
        verdict = "regressed"  # every head run reads worse than every base run
    elif spread > bound:
        verdict = "unchanged" if max(h) < min(b) else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {"base": list(quartiles(base)), "head": list(quartiles(head)), "pairs_won": wins,
            "pairs": len(base), "verdict": verdict}


def ab(opts, bench: dict) -> dict:
    """Alternating pairs of REF's code and the working tree's."""
    if opts.pairs < MIN_PAIRS:
        raise SystemExit(f"--pairs must be at least {MIN_PAIRS}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    tree = tempfile.mkdtemp(prefix="ab-", dir=WORK_ROOT)
    sessions = {}
    try:
        # Both sides run from fresh copies at paths of equal length, so
        # neither gains from warm bytecode caches or shorter module paths.
        os.makedirs(os.path.join(tree, "base"))
        base_src = export_ref(opts.base, os.path.join(tree, "base"))
        head_src = shutil.copytree(opts.src, os.path.join(tree, "head", "src"),
                                   ignore=shutil.ignore_patterns("__pycache__"))
        # golden.json describes the working tree; REF may legitimately differ.
        base_opts = argparse.Namespace(**dict(vars(opts), golden={}))
        for name in opts.workload:
            sessions[name] = {"base": Session(name, opts.seed, base_opts, base_src),
                              "head": Session(name, opts.seed, opts, head_src)}
        for i in range(opts.pairs):
            for name, pair in sessions.items():
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    pair[side].sample()
            print(f"[pair {i + 1}/{opts.pairs}] done", flush=True)
        report = {}
        for name, pair in sessions.items():
            base, head = pair["base"], pair["head"]
            ok = not base.failures and not head.failures and len(base.samples) == opts.pairs \
                and len(head.samples) == opts.pairs
            row = {"digests_equal": base.expect.get("digest") == head.expect.get("digest"),
                   "failed": base.failures + head.failures}
            if ok:
                bv, hv = base.e2e_values(), head.e2e_values()
                for d in bench["end_to_end"]:
                    v = ab_verdict(bv[d["name"]][:opts.pairs], hv[d["name"]][:opts.pairs],
                                   d["better"] == "lower", d["bound"])
                    row[d["name"]] = v
                    print(f"{name:14s} {d['name']:12s} base {v['base'][0]:.6g} "
                          f"[{v['base'][1]:.6g}, {v['base'][2]:.6g}]  head {v['head'][0]:.6g} "
                          f"[{v['head'][1]:.6g}, {v['head'][2]:.6g}] {d['unit']}  "
                          f"won {v['pairs_won']}/{v['pairs']}  {v['verdict']}")
            else:
                print(f"{name:14s} FAILED: {row['failed']}")
            report[name] = row
        return report
    finally:
        for pair in sessions.values():
            for session in pair.values():
                session.close()
        shutil.rmtree(tree, ignore_errors=True)


def record_golden(opts) -> None:
    """Write each workload's seed-0 digest (and pinned facts) for this scale."""
    golden = dict(opts.golden)
    scale = "toy" if opts.toy else "full"
    golden[scale] = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    for name in opts.workload:
        session = Session(name, 0, opts, opts.src)
        try:
            r = session.run()
        finally:
            session.close()
        if not r.get("ok"):
            raise SystemExit(f"{name} failed: {r.get('problems')}")
        golden[scale][name] = dict(r["facts"], digest=r["digest"])
        print(f"{name}: {golden[scale][name]}")
    with open(opts.golden_path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=NAMES,
                   help="measure this workload (repeatable with --base)")
    p.add_argument("--seed", type=int, default=0, help="added to each workload's base seed")
    p.add_argument("--seconds", type=float,
                   help="how long one --workload run measures (default: run_seconds)")
    p.add_argument("--trace", choices=("0", "1"), default="0",
                   help="--workload runs: 1 reports the per-layer metrics")
    p.add_argument("--samples", type=int, default=5, help="samples per workload (all-workload run)")
    p.add_argument("--base", help="A/B mode: git revision to compare against")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS, help="A/B pairs per workload")
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to measure")
    p.add_argument("--golden", dest="golden_path", default=GOLDEN,
                   help="golden digests to check seed-0 samples against")
    p.add_argument("--record-golden", action="store_true",
                   help="write the seed-0 digests of this scale into --golden")
    p.add_argument("--toy", action="store_true", help="tiny inputs (harness tests)")
    p.add_argument("--child", choices=NAMES, help=argparse.SUPPRESS)
    p.add_argument("--trace-mode", choices=("off", "full"), default="off",
                   help=argparse.SUPPRESS)
    p.add_argument("--variant", default="", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    if opts.child:
        child_main(opts)
        return 0
    if not os.path.isfile(os.path.join(opts.src, "repro", "__init__.py")):
        print(f"error: no repro package under {opts.src}; run from a full checkout",
              file=sys.stderr)
        return 2
    # A terminated run unwinds, so run_child still kills and reaps its sample.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    opts.trace = opts.trace == "1"
    bench = load_benchmark()
    opts.seconds = opts.seconds or bench["run_seconds"]
    try:
        with open(opts.golden_path) as fh:
            opts.golden = json.load(fh)
    except FileNotFoundError:
        opts.golden = {}
    if opts.base:
        opts.workload = opts.workload or NAMES
        print(json.dumps(ab(opts, bench)))
    elif opts.record_golden:
        opts.workload = opts.workload or NAMES
        record_golden(opts)
    elif opts.workload:
        if len(opts.workload) != 1:
            print("error: give one --workload (or use --base)", file=sys.stderr)
            return 2
        print(json.dumps(measure(opts, bench)))
    else:
        opts.workload = NAMES
        print(json.dumps(full(opts, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
