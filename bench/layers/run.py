#!/usr/bin/env python3
"""bench/layers: the rsketch benchmark (README.md in this directory).

Builds rsketch_layers and sketch_tool into build-layers/, then measures each
workload in fresh processes with T = min(nproc, 4) threads and a scrubbed
environment.

One workload, one result line (the last line of stdout):
  run.py --workload NAME --seed N --seconds S --trace 0|1

All workloads, with a table and a results file:
  run.py run --seed 1 [--seconds S] [--quick] [--out FILE]
  run.py trace --seed 1 [--seconds S] [--quick] [--out FILE]
  run.py compare A.json B.json
  run.py selftest

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 reports
the per-layer metrics (ledger, driver sweep, tracing overhead and system
counters) and writes Chrome traces under build-layers/traces/.
"""

import argparse
import copy
import datetime
import fcntl
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-layers")
BIN = os.path.join(BUILD, "rsketch_layers")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
TRACE_SUMMARY = os.path.join(ROOT, "tools", "trace_summary.py")

SETUP_PROCS = 5  # setup_s is the median first-unit time over this many processes
SWEEP_PROCS = 7  # fresh processes in the driver thread sweep
QUICK_UNITS = 5  # units per phase under --quick
# Nothing inherited may steer a run.
SCRUB = ("RSKETCH_", "OMP_", "GOMP_", "KMP_", "MALLOC_", "GLIBC_TUNABLES")
RUN_BUDGET_S = 160  # wall budget for all processes of one workload measurement


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def threads():
    nproc = len(os.sched_getaffinity(0))
    return nproc, min(nproc, 4)


# ---- build -----------------------------------------------------------------


def build():
    """Configure once, build the two targets, refuse anything but Release."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no rsketch sources at {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    nproc, _ = threads()
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(os.path.join(BUILD, "build.log"), "a") as blog:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "-j", str(nproc), "--target", "rsketch_layers"])
        for cmd in steps:
            blog.flush()
            if subprocess.run(cmd, stdout=blog, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see {blog.name})")
    info = json.loads(subprocess.run([BIN, "--info"], capture_output=True, text=True,
                                     check=True).stdout.splitlines()[-1])
    if info["build_type"] != "Release":
        raise BenchError(f"refusing to measure a {info['build_type'] or 'untyped'} build; "
                         f"reconfigure {BUILD} with -DCMAKE_BUILD_TYPE=Release")
    return info


# ---- child processes ---------------------------------------------------------


_deadline = math.inf


def start_clock():
    """Every process spawned from now on must end within RUN_BUDGET_S."""
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S


def spawn(args):
    """Run rsketch_layers in a new process group and its own working
    directory with a scrubbed environment; return its JSON document."""
    _, t = threads()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="proc-", dir=work)
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUB)}
    env["OMP_NUM_THREADS"] = str(t)
    env["RSKETCH_TUNE_CACHE"] = os.path.join(workdir, "tuning.json")
    # glibc raises its mmap threshold as large blocks are freed, after which
    # heap layout (down to the length of argv[0]) moves sap_solve's peak RSS
    # by a third. Pinning the threshold at its 128 KiB default keeps
    # peak_rss_mb a measure of live memory. So does a single malloc arena:
    # with one arena per thread, which thread frees which buffer decides how
    # much freed memory each arena keeps, and batch_mixed's peak RSS moved
    # between 130 and 153 MB from run to run.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["MALLOC_ARENA_MAX"] = "1"
    cmd = [BIN] + [str(a) for a in args] + ["--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, _deadline - time.monotonic()))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # rsketch_layers and any sketch_tool child
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


def trace_accepted(path):
    """tools/trace_summary.py --strict must accept every trace we write."""
    if not os.path.isfile(TRACE_SUMMARY):
        raise BenchError(f"missing {TRACE_SUMMARY}, which checks every trace")
    return subprocess.run([sys.executable, TRACE_SUMMARY, "--strict", path],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def median(values):
    return statistics.median(values)


class Result:
    """One workload's measurement: metric values plus the pass/fail tally."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.details = {}

    def absorb(self, doc, what):
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.errors += [f"{what}: {e}" for e in doc.get("errors", [])]

    def fail(self, why):
        self.attempted += 1
        self.failed += 1
        self.errors.append(why)


def workload_args(name, seed, seconds, quick):
    args = ["--workload", name, "--seed", seed, "--seconds", seconds]
    return args + (["--ops", QUICK_UNITS] if quick else [])


def measure_run(name, seed, seconds, quick=False):
    """End-to-end metrics, tracing off."""
    start_clock()
    r = Result(name)
    main = spawn(workload_args(name, seed, seconds, quick))
    r.absorb(main, "timed process")
    # setup_s processes run after the timed one, so they start on a machine
    # that has been busy: idle vCPUs otherwise dominate the first unit.
    setups = [main["setup_s"]]
    for _ in range(SETUP_PROCS - 1):
        doc = spawn(["--workload", name, "--seed", seed, "--setup-only"])
        r.absorb(doc, "setup process")
        setups.append(doc["setup_s"])
        if main["reference_digest"] != "0" * 16 and doc["setup_digest"] != main["reference_digest"]:
            r.fail("setup process output differs from the reference")
    ph = main["phase"]
    r.metrics = {
        "setup_s": median(setups),
        "lat_p50_ms": ph["lat_p50_ms"],
        "lat_p90_ms": ph["lat_p90_ms"],
        "ops_per_s": ph["ops_per_s"],
        "gflops": ph["gflops"],
        "cpu_ms_per_op": ph["cpu_ms_per_op"],
        "peak_rss_mb": main["peak_rss_mb"],
        "failed_ratio": r.failed / r.attempted,
    }
    r.samples = {"latency_units": ph["units"], "setup_processes": len(setups),
                 "timed_wall_s": ph["wall_s"]}
    return r


def measure_ledger(seed, quick=False):
    """Per-layer probes (one traced process) and the driver thread sweep."""
    _, t = threads()
    r = Result("ledger")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    path = os.path.join(traces, f"ledger-seed{seed}.json")
    doc = spawn(["--ledger", "--seed", seed, "--trace", path] + (["--quick"] if quick else []))
    r.absorb(doc, "ledger")
    r.metrics = dict(doc["metrics"])
    if not trace_accepted(path):
        r.fail(f"trace_summary.py --strict rejected {path}")

    procs = [spawn(["--sweep", "--seed", seed] + (["--quick"] if quick else []))
             for _ in range(2 if quick else SWEEP_PROCS)]
    for p in procs:
        r.absorb(p, "sweep process")
    samples = {c: [s for p in procs for s in p["t_s"][c]] for c in procs[0]["t_s"]}
    # driver.ms_t<c> is taken at min(c, T) threads: the sweep never exceeds T.
    key2 = str(min(2, t))
    t1, t2, tt = median(samples["1"]), median(samples[key2]), median(samples[str(t)])
    flops = procs[0]["flops"]
    imbalance = median([p["imbalance"] for p in procs])
    estimate = median([p["imbalance_est"] for p in procs])
    # A process is slow at 2 threads when its own t2 median exceeds 1.5x the
    # median over every process; its steal and context switches say why.
    slow = [p for p in procs if median(p["t_s"][key2]) > 1.5 * t2]
    r.metrics.update({
        "driver.ms_t1": 1e3 * t1,
        "driver.ms_t2": 1e3 * t2,
        "driver.ms_t4": 1e3 * median(samples[str(min(4, t))]),
        "driver.scaling_eff": t1 / (t * tt),
        "driver.attain": (flops / tt / 1e9) / (t * r.metrics["microkernel.l1_peak_gflops"]),
        "driver.imbalance": imbalance,
        "driver.imbalance_est": estimate,
        "driver.imbalance_err": abs(estimate - imbalance) / imbalance,
        "driver.t2_slow_procs": float(len(slow)),
    })
    r.details["sweep"] = [{
        "t2_ms": 1e3 * median(p["t_s"][key2]),
        "slow": p in slow,
        "steal_frac": p["steal_frac"],
        "ctx_vol": p["ctx_vol"],
        "ctx_invol": p["ctx_invol"],
    } for p in procs]
    r.details["ledger_trace"] = path
    return r


def measure_trace(name, seed, seconds, quick=False, ledger=None):
    """Per-layer metrics: the ledger plus this workload's tracing overhead and
    system counters (from its untraced half)."""
    start_clock()
    r = Result(name)
    path = os.path.join(BUILD, "traces", f"{name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    main = spawn(workload_args(name, seed, seconds, quick) + ["--trace", path])
    r.absorb(main, "timed process")
    if not trace_accepted(path):
        r.fail(f"trace_summary.py --strict rejected {path}")
    if ledger is None:
        ledger = measure_ledger(seed, quick)
    r.attempted += ledger.attempted
    r.failed += ledger.failed
    r.errors += ledger.errors
    plain, traced = main["phase"], main["traced"]
    r.metrics = dict(ledger.metrics)
    r.metrics.update({
        "trace.overhead": traced["lat_p50_ms"] / plain["lat_p50_ms"] - 1.0,
        "sys.steal_frac": plain["steal_frac"],
        "sys.ctx_invol_per_op": plain["ctx_invol_per_op"],
        "sys.ctx_vol_per_op": plain["ctx_vol_per_op"],
        "sys.cpu_util": plain["cpu_util"],
    })
    r.samples = {"untraced_units": plain["units"], "traced_units": traced["units"]}
    r.details = dict(ledger.details, workload_trace=path)
    return r


# ---- reporting -------------------------------------------------------------


# Measured and reported by `run`, but not gated in BENCHMARK.json (README.md
# says why): too noisy on the reference host, or 0 on every good run.
REPORTED_ONLY = {"lat_p90_ms": "ms", "cpu_ms_per_op": "ms", "failed_ratio": "fraction"}


def metric_table(spec, section):
    return {m["name"]: m for m in spec[section]}


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def labelled(result, table):
    """{name: {"value", "unit"}} for every metric of `table`; raises if one is
    missing or not finite."""
    out = {}
    for name, m in table.items():
        v = result.metrics.get(name)
        if not finite(v):
            raise BenchError(f"{result.workload}: metric {name} is {v!r}")
        out[name] = {"value": v, "unit": m["unit"]}
    return out


def provenance(info, seed, seconds, quick):
    nproc, t = threads()
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": nproc, "threads": t, "isa": info["isa"],
            "cache_bytes": info["cache_bytes"], "compiler": info["compiler"],
            "build_type": info["build_type"], "cpu": cpu, "seed": seed,
            "seconds": seconds, "quick": quick,
            "units_per_phase": QUICK_UNITS if quick else "as many as fit in seconds",
            "setup_processes": SETUP_PROCS, "sweep_processes": 2 if quick else SWEEP_PROCS,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


def write_results(doc, out, kind, seed):
    if not out:
        os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
        stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
        out = os.path.join(BUILD, "results", f"{kind}-seed{seed}-{stamp}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    print(f"results: {out}")


def workload_entry(r, table):
    metrics = labelled(r, table)
    return {"metrics": metrics, "samples": r.samples, "attempted": r.attempted,
            "failed": r.failed, "correct": r.failed == 0, "errors": r.errors,
            "details": r.details}


def print_rows(name, entry):
    print(f"\n{name}  (attempted {entry['attempted']}, failed {entry['failed']}; "
          + ", ".join(f"{k} {v:g}" for k, v in entry["samples"].items()) + ")")
    for metric, m in entry["metrics"].items():
        print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")
    for e in entry["errors"]:
        print(f"  ERROR {e}")


def run_all(spec, seed, seconds, quick, trace):
    info = build()
    kind = "trace" if trace else "run"
    table = metric_table(spec, "per_layer" if trace else "end_to_end")
    doc = {"schema": "rsketch-layers/1", "kind": kind,
           "provenance": provenance(info, seed, seconds, quick), "workloads": {}}
    ledger = None
    if trace:
        start_clock()
        ledger = measure_ledger(seed, quick)  # shared by every workload's row
    else:
        table.update({k: {"unit": u} for k, u in REPORTED_ONLY.items()})
    for w in spec["workloads"]:
        name = w["name"]
        if trace:
            r = measure_trace(name, seed, seconds, quick, ledger)
        else:
            r = measure_run(name, seed, seconds, quick)
        entry = workload_entry(r, table)
        doc["workloads"][name] = entry
        print_rows(name, entry)
    if trace:
        doc["sweep"] = ledger.details["sweep"]
        for i, p in enumerate(ledger.details["sweep"]):
            print(f"sweep process {i}: t2 {p['t2_ms']:.1f} ms, steal {p['steal_frac']:.4f}, "
                  f"ctx vol {p['ctx_vol']:g} invol {p['ctx_invol']:g}"
                  + ("  SLOW" if p["slow"] else ""))
    return doc


def compare(spec, a, b):
    """Rows of (workload, metric, A, B, delta, bound, regressed). Relative
    delta, signed so that positive means B is worse; failed_ratio is compared
    absolutely with bound 0."""
    rows = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bounds["failed_ratio"] = {"better": "lower", "bound": 0.0}
    for w in spec["workloads"]:
        wa, wb = a["workloads"].get(w["name"]), b["workloads"].get(w["name"])
        if wa is None or wb is None:
            rows.append((w["name"], "(missing)", math.nan, math.nan, math.inf, 0.0, True))
            continue
        for name, m in bounds.items():
            if name not in wa["metrics"] or name not in wb["metrics"]:
                rows.append((w["name"], name, math.nan, math.nan, math.inf, m["bound"], True))
                continue
            va, vb = wa["metrics"][name]["value"], wb["metrics"][name]["value"]
            if name == "failed_ratio":
                delta = vb - va
            else:
                delta = (vb - va) / va
                if m["better"] == "higher":
                    delta = -delta
            rows.append((w["name"], name, va, vb, delta, m["bound"], delta > m["bound"]))
    return rows


def print_compare(rows):
    print(f"{'workload':<18} {'metric':<14} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}")
    for w, name, va, vb, delta, bound, bad in rows:
        print(f"{w:<18} {name:<14} {va:>12.6g} {vb:>12.6g} {delta:>+9.3f} {bound:>6.2f}"
              + ("  REGRESSED" if bad else ""))
    return not any(r[-1] for r in rows)


# ---- commands ----------------------------------------------------------------


def cmd_single(args, spec):
    """The single-workload interface: the last stdout line is the result."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
    build()
    if args.trace:
        r = measure_trace(args.workload, args.seed, args.seconds)
        table = metric_table(spec, "per_layer")
    else:
        r = measure_run(args.workload, args.seed, args.seconds)
        table = metric_table(spec, "end_to_end")
    metrics = labelled(r, table)
    for e in r.errors:
        log(f"error: {e}")
    print(f"{args.workload}: " + ", ".join(f"{k} {v:g}" for k, v in r.samples.items()))
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}))
    return 0


def cmd_run(args, spec, trace):
    seconds = args.seconds or spec["run_seconds"]
    doc = run_all(spec, args.seed, seconds, args.quick, trace)
    write_results(doc, args.out, doc["kind"], args.seed)
    bad = [w for w, e in doc["workloads"].items() if not e["correct"]]
    if bad:
        log(f"output checks failed on: {', '.join(bad)}")
    return 1 if bad else 0


def cmd_compare(args, spec):
    with open(args.a, encoding="utf-8") as f:
        a = json.load(f)
    with open(args.b, encoding="utf-8") as f:
        b = json.load(f)
    return 0 if print_compare(compare(spec, a, b)) else 1


def cmd_selftest(args, spec):
    checks = []
    run = run_all(spec, args.seed, spec["run_seconds"], True, False)
    trace = run_all(spec, args.seed, spec["run_seconds"], True, True)
    for doc, section in ((run, "end_to_end"), (trace, "per_layer")):
        missing = [f"{w}/{m['name']}" for w in (x["name"] for x in spec["workloads"])
                   for m in spec[section]
                   if not finite(doc["workloads"][w]["metrics"].get(m["name"], {}).get("value"))
                   or not doc["workloads"][w]["metrics"][m["name"]].get("unit")]
        checks.append((f"every {section} metric has a unit and a finite value",
                       not missing, ", ".join(missing[:5])))
    checks.append(("outputs correct in the quick runs",
                   all(e["correct"] for d in (run, trace) for e in d["workloads"].values()), ""))
    checks.append(("compare(x, x) passes",
                   not any(r[-1] for r in compare(spec, run, run)), ""))
    # A latency 1.2x beyond what the bound tolerates must be caught.
    scale = 1.2 * (1.0 + metric_table(spec, "end_to_end")["lat_p50_ms"]["bound"])
    slower = copy.deepcopy(run)
    for e in slower["workloads"].values():
        e["metrics"]["lat_p50_ms"]["value"] *= scale
    checks.append((f"compare(x, x with lat_p50_ms x {scale:g}) fails",
                   any(r[-1] for r in compare(spec, run, slower)), ""))
    print()
    for what, ok, note in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {what}" + (f"  ({note})" if note else ""))
    return 0 if all(ok for _, ok, _ in checks) else 1


def main(argv):
    spec = load_spec()
    if argv and argv[0] in ("run", "trace", "compare", "selftest"):
        ap = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            ap.add_argument("a")
            ap.add_argument("b")
        else:
            ap.add_argument("--seed", type=int, default=1)
        if argv[0] in ("run", "trace"):
            ap.add_argument("--seconds", type=float, default=0)
            ap.add_argument("--quick", action="store_true",
                            help=f"{QUICK_UNITS} units per phase instead of --seconds")
            ap.add_argument("--out", default="")
        args = ap.parse_args(argv[1:])
        if argv[0] == "compare":
            return cmd_compare(args, spec)
        if argv[0] == "selftest":
            return cmd_selftest(args, spec)
        return cmd_run(args, spec, argv[0] == "trace")
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(ap.parse_args(argv), spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
