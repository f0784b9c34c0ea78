#!/usr/bin/env python3
"""Benchmark of the infree package: closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all --seed N        # every workload
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

NAME is warm or cli-cold.  With --trace 0 the end-to-end
metrics are measured; with --trace 1 the same seed runs untraced once and
traced twice, and the per-layer metrics are reported.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Each run is appended to the record file (--record); --compare
reads two record files.  NOTES.md says why each workload exists.

This process stays small and imports no infree code: the work runs in fresh
child interpreters (worker.py, or the CLI itself for cli-cold), so that the
peak memory read from each child is the child's own.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SHIM = BENCH / "cli_shim.py"
WORKLOADS = ("warm", "cli-cold")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPS = 3  # set-ups per warm run, each in its own process; setup_s is their median
CLI_SETUP_REPS = 3  # set-ups per cli-cold run; each includes one pass over its 17 jobs
MIN_JOBS = 40  # timed jobs per run at least: the job count the tail is defined on
# the highest percentile that keeps at least 10 of MIN_JOBS jobs beyond it
TAIL_PCT = 100 * (MIN_JOBS - 10) // MIN_JOBS
TRACED_RUNS = 2  # traced runs per --trace 1 run; their counts must agree
RUN_LIMIT = 170  # seconds one workload may take, children included

UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["fail_frac"] = "ratio"  # printed with its base; in the JSON as failed/attempted


class BenchError(Exception):
    """The benchmark could not measure: a child crashed or the tree is incomplete."""


def child_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return env


ENV = child_env()
_deadline = math.inf  # time.monotonic() by which the current workload must end


def time_left() -> float:
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run took longer than {RUN_LIMIT} s")
    return left


def worker(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload, "--seed", str(seed),
           *extra, "--t0", repr(time.monotonic())]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                           capture_output=True, text=True, timeout=time_left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} {workload} did not end within {RUN_LIMIT} s") from None
    if r.returncode != 0:
        raise BenchError(f"worker {mode} {workload} exited {r.returncode}: {r.stderr.strip()[-3000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def spawn(cmd: list, out_path: Path, env: dict) -> tuple:
    """Run one child with stdout to out_path; (seconds, exit code, the
    child's own peak RSS in MB from wait4)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        left = time_left()
        t = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                             stdout=out, stderr=err)
        timer = threading.Timer(left, p.kill)
        try:
            timer.start()
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        dt = time.perf_counter() - t
        p.returncode = os.waitstatus_to_exitcode(status)
    time_left()  # a child killed at the deadline ends the run
    return dt, p.returncode, usage.ru_maxrss / 1024


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "infree.cli", *argv]


def summarize(lat: list, setups: list, rss: float, attempted: int, failed: int) -> tuple:
    """End-to-end metrics of one run from its job latencies, in job order."""
    sample = sorted(lat)
    rank = math.ceil(TAIL_PCT / 100 * len(sample))  # nearest rank, 1-based
    metrics = {
        "jobs_per_s": len(sample) / sum(sample),
        "job_p50_ms": statistics.median(sample) * 1000,
        "job_tail_ms": sample[rank - 1] * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "fail_frac": failed / attempted,
    }
    notes = {"tail_pct": TAIL_PCT, "beyond_tail": len(sample) - rank, "jobs": len(lat),
             "setups": setups, "lat_s": lat}
    return metrics, notes


# --- warm workload --------------------------------------------------------------


def warm_run(workload: str, seed: int, seconds: float) -> dict:
    """The timed phase is split over SETUP_REPS fresh processes, each with
    its own set-up: one process's speed can sit well above or below
    another's for its whole life, and several of them average that out.
    Each part times its share of what is left of `seconds`, so that parts
    that stop past or short of their share at a pass boundary even out."""
    parts, lat = [], []
    for p in range(SETUP_REPS):
        share = (seconds - sum(lat)) / (SETUP_REPS - p)
        parts.append(worker("run", workload, seed, "--seconds", str(share),
                            "--min-jobs", str(math.ceil(MIN_JOBS / SETUP_REPS)), "--part", str(p)))
        lat += parts[-1]["lat"]
    attempted = sum(r["attempted"] for r in parts)
    failed = sum(r["failed"] for r in parts)
    metrics, notes = summarize(lat, [r["setup_s"] for r in parts],
                               max(r["peak_rss_mb"] for r in parts), attempted, failed)
    io = {k: max(r["io"][k] for r in parts) for k in parts[0]["io"]}
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
            "errors": [e for r in parts for e in r["errors"]][:5], "io": io,
            "inputs": parts[0]["inputs"]}


def spans_path(workload: str, seed: int, p: int) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    return out / f"spans-{workload}-seed{seed}-pass{p}.jsonl"


def warm_trace(workload: str, seed: int) -> dict:
    plain = worker("trace", workload, seed, "--traced", "0")
    runs = [worker("trace", workload, seed, "--traced", "1",
                   "--spans", str(spans_path(workload, seed, p)))
            for p in range(1, TRACED_RUNS + 1)]
    return trace_result(plain["wall_s"], [(r["wall_s"], r["trace"]) for r in runs],
                        [plain] + runs)


def trace_result(plain_wall: float, passes: list, parts: list) -> dict:
    from tracer import layer_metrics  # only traced runs pay for importing it

    errors = [e for p in parts for e in p["errors"]]
    counts = [count_signature(snap) for _, snap in passes]
    for other in counts[1:]:
        if other != counts[0]:
            diff = sorted(k for k in set(counts[0]) | set(other) if counts[0].get(k) != other.get(k))
            errors.append(f"counts differ between traced runs of one seed: {diff[:10]}")
    per = [layer_metrics(snap) for _, snap in passes]
    metrics = {name: (statistics.fmean(p[name] for p in per) if name.endswith("_s")
                      else per[0][name]) for name in per[0]}
    traced_wall = statistics.fmean(w for w, _ in passes)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
            "notes": {"untraced_s": plain_wall, "traced_s": [w for w, _ in passes],
                      "spans": [s["spans"] for _, s in passes],
                      "spans_dropped": [s["dropped"] for _, s in passes]}}


def count_signature(snap: dict) -> dict:
    """Every count a traced run produces; two runs of one seed must agree."""
    sig = {f"calls:{k}": v[0] for k, v in snap["stats"].items()}
    sig.update({f"errors:{k}": v[3] for k, v in snap["stats"].items()})
    sig.update({k: v for k, v in snap["counters"].items() if not k.endswith("_s")})
    return sig


# --- cli-cold --------------------------------------------------------------------


def cli_cold(seed: int, seconds: float, traced: bool) -> dict:
    work = BENCH / "_work" / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _cli_cold(work, seed, seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cli_cold(work: Path, seed: int, seconds: float, traced: bool) -> dict:
    """Like a warm run, the timed loop is split into parts, each after its
    own set-up, so that the set-ups are spread over the run."""
    rel = str(work.relative_to(ROOT))

    def set_up() -> tuple:
        """Write the input files and run one pass; (prep, pass results, seconds)."""
        t0 = time.monotonic()
        prep = worker("cli-prep", "cli-cold", seed, "--dir", rel)
        warm = [spawn(cli_cmd(argv), work / f"ref-{i}.out", ENV)
                for i, argv in enumerate(prep["jobs"])]
        return prep, warm, time.monotonic() - t0

    prep, warm, setup_s = set_up()
    setups = [setup_s]
    jobs = prep["jobs"]
    ref_paths = [work / f"ref-{i}.out" for i in range(len(jobs))]
    refs = [p.read_bytes() for p in ref_paths]
    verdict = worker("cli-verify", "cli-cold", seed, "--dir", rel,
                     "--outputs", *[str(p.relative_to(ROOT)) for p in ref_paths])
    bad = {int(i) for i in verdict["bad"]} | {i for i, w in enumerate(warm) if w[1] != 0}
    errors = [f"job {i} ({' '.join(jobs[i][:3])}): {verdict['bad'].get(str(i), 'non-zero exit')}"
              for i in sorted(bad)]
    out = work / "job.out"

    def one(i: int, cmd: list, env: dict) -> tuple:
        dt, rc, rss = spawn(cmd, out, env)
        ok = rc == 0 and i not in bad and out.read_bytes() == refs[i]
        return dt, rss, ok

    if traced:
        return _cli_trace(work, jobs, one, errors, seed)
    lat, rss, failed, n = [], 0.0, 0, 0
    for part in range(CLI_SETUP_REPS):
        if part:
            _, warm, setup_s = set_up()
            setups.append(setup_s)
            errors += [f"set-up {part}: job {i} ({' '.join(jobs[i][:3])}) changed its output"
                       for i, path in enumerate(ref_paths)
                       if warm[i][1] != 0 or path.read_bytes() != refs[i]]
        start = time.perf_counter()
        share = (seconds - sum(lat)) / (CLI_SETUP_REPS - part)  # as in warm_run
        m = 0
        while True:
            i = m % len(jobs)
            dt, r, ok = one(i, cli_cmd(jobs[i]), ENV)
            lat.append(dt)
            rss = max(rss, r)
            failed += not ok
            m += 1
            passes = m / len(jobs)  # stop at the whole pass nearest to the share
            if (passes.is_integer() and m >= MIN_JOBS / CLI_SETUP_REPS
                    and (time.perf_counter() - start) * (1 + 0.5 / passes) >= share):
                break
        n += m
    metrics, notes = summarize(lat, setups, rss, n, failed)
    return {"metrics": metrics, "notes": notes, "attempted": n, "failed": failed,
            "errors": errors[:5], "io": verdict["io"], "inputs": prep["inputs"]}


def _cli_trace(work: Path, jobs: list, one, errors: list, seed: int) -> dict:
    from tracer import merge

    plain = [one(i, cli_cmd(argv), ENV) for i, argv in enumerate(jobs)]
    passes = []
    failed = sum(not ok for _, _, ok in plain)
    for p in range(1, TRACED_RUNS + 1):
        snaps, wall = [], 0.0
        for i, argv in enumerate(jobs):
            stats = work / f"stats-{i}.json"
            stats.unlink(missing_ok=True)
            env = child_env(BENCH_SPAWN_T=repr(time.monotonic()))
            dt, _, ok = one(i, [sys.executable, str(SHIM), str(stats), *argv], env)
            wall += dt
            failed += not ok
            if not stats.is_file():
                raise BenchError(f"traced job {' '.join(argv[:3])} wrote no trace")
            snaps.append(json.loads(stats.read_text()))
        with open(spans_path("cli-cold", seed, p), "w", encoding="utf-8") as fh:
            for snap in snaps:
                for span in snap.pop("span_list"):
                    fh.write(json.dumps(span) + "\n")
        passes.append((wall, merge(snaps)))
    n = len(jobs) * (1 + len(passes))
    part = {"attempted": n, "failed": failed, "errors": errors[:5]}
    return trace_result(sum(dt for dt, _, _ in plain), passes, [part])


# --- records and reports ---------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(workload: str, seed: int, traced: bool, res: dict) -> None:
    notes = res["notes"]
    if traced:
        print(f"== {workload}  seed {seed}  traced: 1 untraced and 2 traced runs of one "
              f"fixed job list, {res['attempted']} jobs in all")
    else:
        print(f"== {workload}  seed {seed}  closed loop, 1 client, {notes['jobs']} timed jobs")
    for name, value in res["metrics"].items():
        line = f"  {name:28s} {value:14.6g} {UNITS[name]}"
        if name == "job_tail_ms":
            line += f"   p{notes['tail_pct']}, {notes['beyond_tail']} of {notes['jobs']} jobs beyond it"
        elif name == "setup_s":
            line += f"   median of {len(notes['setups'])} set-ups"
        elif name == "fail_frac":
            line += f"   {res['failed']} failed of {res['attempted']} jobs attempted"
        print(line)
    if "io" in res:
        print(f"  outputs: numerators up to {res['io']['max_num_bits']} bits, "
              f"denominators up to {res['io']['max_den_bits']} bits")
    for err in res["errors"]:
        print(f"  error: {err}", file=sys.stderr)


def record(path: Path, workload: str, seed: int, seconds: float, traced: bool, res: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
           "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "git_sha": git_sha(), "machine": machine(), **res}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    global _deadline
    _deadline = time.monotonic() + RUN_LIMIT
    if workload == "cli-cold":
        return cli_cold(seed, seconds, traced)
    return warm_trace(workload, seed) if traced else warm_run(workload, seed, seconds)


# --- compare mode ----------------------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list, b: list, better: str, bound: float | None) -> str:
    """improved / unchanged / worse / unresolved for B against A."""
    if bound is None:
        return "-"
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if am == 0:
        return "unchanged" if bm == 0 else "unresolved"
    sign = 1 if better == "lower" else -1
    gain = sign * (am - bm) / abs(am)  # > 0 means B is better
    better_than = (lambda y, x: y < x) if better == "lower" else (lambda y, x: y > x)
    wins = sum(better_than(y, x) for x in a for y in b) / (len(a) * len(b))
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm) if bm else math.inf)
    if spread > bound:
        if wins == 1:
            return "improved"
        if wins == 0 and all(x != y for x in a for y in b):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > (a3 - a1) / abs(am) and wins >= 0.9:
        return "improved"
    return "unchanged"


def load_records(path: str, seconds: set) -> dict:
    """Metric values by (workload, metric); adds the run lengths of the
    untraced records to `seconds`."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    seconds.add(rec["seconds"])
                for name, value in rec["metrics"].items():
                    out.setdefault((rec["workload"], name), []).append(value)
    return out


def compare(parent_path: str, change_path: str) -> int:
    meta = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    seconds = set()
    a, b = load_records(parent_path, seconds), load_records(change_path, seconds)
    if len(seconds) > 1:
        print(f"benchmark: the records were timed over different run lengths {sorted(seconds)} s; "
              "compare runs of one length only", file=sys.stderr)
        return 2
    print(f"{'workload':12s} {'metric':28s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'delta':>8s}  verdict")
    for key in sorted(set(a) & set(b), key=lambda k: (WORKLOADS.index(k[0]), k[1])):
        workload, name = key
        m = meta.get(name, {})
        aq, bq = quartiles(a[key]), quartiles(b[key])
        delta = f"{(bq[1] - aq[1]) / abs(aq[1]):+8.1%}" if aq[1] else "     n/a"
        fmt = "{:10.4g} {:10.4g} {:10.4g}"
        print(f"{workload:12s} {name:28s} {fmt.format(*aq):>32s} {fmt.format(*bq):>32s} "
              f"{delta}  {verdict(a[key], b[key], m.get('better', 'lower'), m.get('bound'))}"
              f"  (n={len(a[key])}/{len(b[key])})")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="timed phase per run, at least (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=str(BENCH / "records" / "runs.jsonl"),
                    help="append each run to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two record files and exit")
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so children are killed and
    # scratch directories removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "infree" / "__init__.py").is_file():
        print(f"benchmark: no infree sources under {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, traced)
            report(name, args.seed, traced, res)
            record(Path(args.record), name, args.seed, args.seconds, traced, res)
            results[name] = res
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["errors"] for r in results.values())
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, value in res["metrics"].items():
            if metric != "fail_frac":  # carried by failed/attempted; zero on a good run
                metrics[prefix + metric] = {"value": value, "unit": UNITS[metric]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
