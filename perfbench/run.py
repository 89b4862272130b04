#!/usr/bin/env python3
"""Blockserver benchmark: build, prepare inputs, run, check, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload backfill --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1          # every workload
  python3 perfbench/run.py --workload serve --repeat 10     # steadiness
  python3 perfbench/run.py --repeat 10 --sets 2             # two sets agree?
  python3 perfbench/run.py --selftest                       # the tests
  python3 perfbench/run.py --calibrate                      # serve's rate

The last line of standard output is one JSON object (correct, attempted,
failed, metrics). A run whose outputs are wrong exits non-zero and prints
no metrics. perfbench/NOTES.md explains the workloads and metrics.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHES = Path(".perfbench") / "cache"
WORK = Path(".perfbench") / "run"
SPANS = Path(".perfbench") / "trace"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_logged(cmd, log, timeout):
    with open(log, "w") as f:
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(targets=("blockbench",)):
    """Configures (once) and builds the benchmark package; returns its dir."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            sys.stderr.write(log.read_text()[-3000:])
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", *targets]
    if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
        sys.stderr.write(log.read_text()[-3000:])
        fail("build failed")
    return out


@functools.cache
def cache_dir():
    """Hash of the sources of the system under test and of the benchmark.

    The cached inputs (the corpus, its §6.2 codes and the shard roots filled
    through ShardedStore::put) are made by this code, so they are kept under
    this hash and made again when any of it changes."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return CACHES / h.hexdigest()[:16]


def blockbench(out):
    return [str(out / "blockbench"), "--cache", str(cache_dir()), "--work", str(WORK),
            "--spans", str(SPANS)]


def prepare(out):
    """Builds the cached inputs that are missing (once per version of the
    code) and drops those other versions left behind."""
    if (ROOT / CACHES).is_dir():
        for old in (ROOT / CACHES).iterdir():
            if old.name != cache_dir().name:
                shutil.rmtree(old, ignore_errors=True)
    cmd = [str(out / "blockbench"), "prep", "--cache", str(cache_dir())]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("input preparation timed out")
    if r.returncode != 0:
        fail("input preparation failed")


def check_result(res, spec, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    if res["correct"] is not True or not isinstance(res["attempted"], int) \
            or res["attempted"] < 1 or not isinstance(res["failed"], int):
        return "result is not a correct, attempted run"
    got = res["metrics"]
    if set(got) != set(want):
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        if m.get("unit") != want[name]:
            return f"{name}: unit {m.get('unit')} != {want[name]}"
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"{name}: value {v!r} is not a finite number"
    return None


def trace_check(res, spec):
    """Traced vs untraced medians: past service_mean_ms's bound, the traced chain
    no longer matches the product path."""
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "service_mean_ms")
    for op in ("put", "get"):
        r = res["metrics"][f"bench.traced_over_untraced_{op}_p50"]["value"]
        if r > 0 and abs(r - 1) > bound:
            print(f"trace  WARNING traced/untraced {op} p50 = {r:.3f} is outside "
                  f"1 +/- {bound}: the traced chain no longer matches the product path")
        elif r > 0:
            print(f"trace  traced/untraced {op} p50 = {r:.3f} (within 1 +/- {bound})")


def run_once(out, spec, workload, seed, seconds, trace, quiet=False):
    shutil.rmtree(ROOT / WORK, ignore_errors=True)
    cmd = blockbench(out)
    cmd[1:1] = ["run"]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"{workload} seed {seed}: blockbench exited {r.returncode}", 3)
    try:
        res = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} seed {seed}: no result line")
    problem = check_result(res, spec, trace)
    if problem:
        fail(f"{workload} seed {seed}: {problem}")
    if not quiet:
        print("\n".join(lines[:-1]))
        if trace:
            trace_check(res, spec)
    return res


def spread_table(metrics, values, title):
    """Prints median, quartiles and spread per metric next to its bound;
    returns the medians and whether every spread is within its bound."""
    print(f"\n{title}")
    print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    ok, medians = True, {}
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        medians[m["name"]] = med
        spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        print(f"  {m['name']:36} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}  {verdict}")
    return medians, ok


def repeat(out, spec, workloads, seed, n, seconds, trace, sets):
    """Runs each workload n times per set (set k uses seeds seed + k*n ..),
    the sets interleaved run by run. Prints, per set and metric, median,
    quartiles and spread next to BENCHMARK.json's bound and, with two sets
    or more, how far each later set's median is worse than the first's."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    all_ok = True
    for w in workloads:
        values = [{m["name"]: [] for m in metrics} for _ in range(sets)]
        for i in range(n):
            for k in range(sets):
                s = seed + k * n + i
                res = run_once(out, spec, w, s, seconds, trace, quiet=True)
                for name in values[k]:
                    values[k][name].append(res["metrics"][name]["value"])
                print(f"repeat {w} set {k + 1} seed {s}: " + " ".join(
                    f"{name}={v[-1]:.5g}" for name, v in values[k].items()), flush=True)
        medians = []
        for k in range(sets):
            first = seed + k * n
            med, ok = spread_table(metrics, values[k], f"{w} set {k + 1}: {n} runs, "
                                   f"seeds {first}..{first + n - 1}")
            medians.append(med)
            all_ok = all_ok and ok
        for k in range(1, sets):
            print(f"\n{w}: set {k + 1} against set 1 (share of set 1's median "
                  f"by which set {k + 1} is worse)")
            for m in metrics:
                if "bound" not in m:
                    continue
                a, b = medians[0][m["name"]], medians[k][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                fine = worse <= m["bound"]
                all_ok = all_ok and fine
                print(f"  {m['name']:36} {a:12.6g} {b:12.6g} {worse:+8.4f} "
                      f"{m['bound']:>6}  {'agrees' if fine else 'WORSE THAN BOUND'}")
        print(flush=True)
    return all_ok


def selftest(out):
    build(("blockbench", "benchlib_test"))
    r = subprocess.run([str(out / "benchlib_test")], cwd=ROOT)
    if r.returncode != 0:
        fail("benchlib_test failed", 1)
    env = dict(os.environ, PERFBENCH_BLOCKBENCH=str(out / "blockbench"),
               PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                        str(HERE / "tests"), "-p", "test_*.py"], cwd=ROOT, env=env)
    if r.returncode != 0:
        fail("schema tests failed", 1)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload N times and report the spread")
    ap.add_argument("--sets", type=int, default=1,
                    help="with --repeat: interleaved sets of N runs to compare")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--calibrate", action="store_true",
                    help="serve's mix at saturation (the basis of its rate)")
    args = ap.parse_args()

    out = build()
    if args.selftest:
        selftest(out)
        return
    prepare(out)
    workloads = names if args.workload == "all" else [args.workload]
    if args.calibrate:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)
        cmd = blockbench(out)
        cmd[1:1] = ["calibrate"]
        sys.exit(subprocess.run(cmd + ["--seed", str(args.seed), "--seconds",
                                       str(args.seconds)], cwd=ROOT).returncode)
    if args.repeat:
        ok = repeat(out, spec, workloads, args.seed, args.repeat, args.seconds,
                    args.trace, max(1, args.sets))
        sys.exit(0 if ok else 1)
    res = None
    for w in workloads:
        res = run_once(out, spec, w, args.seed, args.seconds, args.trace)
        if len(workloads) > 1:
            print(json.dumps(res), flush=True)
    if len(workloads) == 1:
        print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
