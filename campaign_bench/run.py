#!/usr/bin/env python3
"""End-to-end campaign benchmark of ompfuzz.

    python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 campaign_bench/run.py --self-test
    python3 campaign_bench/run.py --record-reference SEED [SEED ...] [--workload NAME]
    python3 campaign_bench/run.py --record-pool

Run from the root of the source tree. The first run builds the ompfuzz
library and the `campaign_bench` program (Release) under `.bench_build/`.

With --trace 0 campaign_bench runs the workload's campaign calls through
harness::Campaign::run for about S seconds and this script prints the
end-to-end metrics of BENCHMARK.json; with --trace 1 each call is also
replayed layer by layer and the per-layer metrics are printed instead. Every
metric line carries its unit, median, quartiles and sample count; the last
line of standard output is the JSON summary
{"correct", "attempted", "failed", "metrics"}. A full result with its
provenance envelope (format ompfuzz-bench-v1) is written under
`.bench_build/results/`.

Correctness: every call's report must pass campaign_bench's structural checks
and spot recomputations, and its digest must equal the one reference.json
records for the call's campaign seed, when one is recorded (every sim-paper
call is). A failed check counts the call's runs as failed and makes the exit
status 1. --record-reference records those digests, --record-pool the
sim-paper call pool (see call_seeds); both are for a change that alters
reports or the generator on purpose.

--self-test runs every workload at a tiny size, checks that every named
metric is present and finite, that a corrupted reference digest is caught,
that each simulated report is byte-identical to campaign_demo's for the same
configuration, and that BENCHMARK.json parses.
"""
import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
POOL = os.path.join(BENCH_DIR, "sim_paper_pool.json")
POOL_BASE_SEED = 900_000_000_000
POOL_SIZE = 160
POOL_STRATA = 10
POOL_THREADS = 4
SETUP_SAMPLES = 15
RUN_TIMEOUT_S = 170

# Per workload: campaign size of one self-test call, and calls per seed
# recorded by --record-reference (sim-paper records its whole pool).
SELF_TEST_PROGRAMS = {"sim-paper": 3, "sim-breadth": 20, "real-gxx": 1}
RECORDED_CALLS = {"sim-breadth": 4, "real-gxx": 4}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_spec():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    for key in ("command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"):
        if key not in spec:
            raise BenchError(f"BENCHMARK.json lacks '{key}'")
    return spec


def build():
    """Configures (once) and builds campaign_bench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("ompfuzz sources not found next to campaign_bench/")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "campaign_bench", "-j", jobs])
    return os.path.join(BUILD_DIR, "campaign_bench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"command failed: {' '.join(cmd)}")


def run_bench(binary, *args):
    """Runs campaign_bench and returns its CAMPAIGN_BENCH result object."""
    proc = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"campaign_bench exited with {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.startswith("CAMPAIGN_BENCH "):
            return json.loads(line[len("CAMPAIGN_BENCH "):])
    raise BenchError("campaign_bench printed no result")


def build_info(binary):
    proc = subprocess.run([binary, "--info"], stdout=subprocess.PIPE, text=True, check=True)
    info = json.loads(proc.stdout)
    if info["build_type"] != "Release" or not info["optimized"] or not info["ndebug"]:
        raise BenchError(f"refusing to measure a non-Release build: {info}")
    return info


def setup_seconds(binary, workload, seed, work_dir):
    """Process start to a campaign ready to run, once per spawned campaign_bench."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [binary, "--setup-only", "--t0", str(t0), *workload_args(workload, seed),
             "--work-dir", work_dir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "campaign_bench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def envelope(info, args):
    return {
        "format": "ompfuzz-bench-v1",
        "commit": commit(),
        "source_sha256": source_digest(),
        "build_type": info["build_type"],
        "compiler": info["compiler"],
        "nproc": info["nproc"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def stats(samples):
    """Median, quartiles and count of a metric's samples."""
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def stable_hash(text):
    return int(hashlib.sha256(text.encode()).hexdigest(), 16)


def call_seeds(workload, seed):
    """Campaign seeds of a sim-paper run: one call from each cost stratum.

    A sim-paper call's cost is heavy-tailed (a few programs exhaust the
    interpreter's step budget and cost fifty times the median), so calls
    drawn freely from the seed would make throughput vary across seeds by
    more than any bound worth having. Instead the calls of
    sim_paper_pool.json (see record_pool) are ranked by makespan and cut into
    POOL_STRATA strata of equal size; the seed picks one call per stratum,
    and their order. Other workloads derive their calls from the seed
    directly.
    """
    if workload != "sim-paper":
        return []
    span = load_json(POOL)["makespan_steps"]
    ranked = sorted(span, key=lambda s: (span[s], int(s)))
    size = len(ranked) // POOL_STRATA
    strata = [ranked[i * size:(i + 1) * size] for i in range(POOL_STRATA)]
    order = sorted(range(POOL_STRATA), key=lambda s: stable_hash(f"{seed}:order:{s}"))
    return [int(strata[s][stable_hash(f"{seed}:{s}") % size]) for s in order]


def check_reference(raw, reference):
    """Compares each call's digests with the ones recorded for its campaign seed."""
    recorded = reference.get("digests", {}).get(raw["workload"], {})
    failed, problems, checked = 0, [], 0
    for call in raw["calls"]:
        expected = recorded.get(str(call["campaign_seed"]))
        if expected is None:
            continue
        checked += 1
        if call["digest"] != expected:
            failed += call["runs"]
            problems.append(f"campaign seed {call['campaign_seed']}: report digest "
                            f"{call['digest']} != reference {expected}")
    return failed, problems, checked


def median_of(samples):
    return statistics.median(samples), samples


def evaluate(raw, reference, spec, setup_samples):
    """Turns campaign_bench's raw result into the named metrics."""
    calls = raw["calls"]
    ref_failed, ref_problems, ref_checked = check_reference(raw, reference)
    attempted = raw["attempted"]
    failed = min(attempted, raw["failed"] + ref_failed)
    problems = raw["problems"] + ref_problems
    if raw["trace"] == 0:
        timed = [c for c in calls if not c["warmup"]] or calls
        rates = [c["tests"] / c["wall_s"] for c in timed]
        cpu_ms = [1e3 * c["cpu_s"] / c["tests"] for c in timed]
        if raw["fixed_calls"]:
            # The calls are cost strata (see call_seeds): the run is their sum.
            tests = sum(c["tests"] for c in timed)
            tests_per_s = (tests / sum(c["wall_s"] for c in timed), rates)
            cpu_ms_per_test = (1e3 * sum(c["cpu_s"] for c in timed) / tests, cpu_ms)
        else:
            # Calls alike in size: the median call, so that a burst of load
            # from other tenants of the host moves a few calls, not the run.
            tests_per_s = median_of(rates)
            cpu_ms_per_test = median_of(cpu_ms)
        pass_ratio = 1 - failed / attempted
        measured = {  # value, samples
            "tests_per_s": tests_per_s,
            "cpu_ms_per_test": cpu_ms_per_test,
            "setup_s": median_of(setup_samples),
            "peak_rss_mb": median_of([c["peak_rss_mb"] for c in timed]),
            "pass_ratio": (pass_ratio, [pass_ratio]),
        }
        metrics = {}
        for m in spec["end_to_end"]:
            value, samples = measured[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"], **stats(samples)}
    else:
        metrics = {}
        for m in spec["per_layer"]:
            layer = raw["layers"][m["name"]]
            metrics[m["name"]] = {"value": layer["value"], "unit": m["unit"]}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "checked_runs": raw["checked"],
        "unchecked_runs": raw["unchecked"],
        "interp_mismatch_runs": raw["interp_mismatch"],
        "notes": raw["notes"],
        "reference_calls_checked": ref_checked,
        "problems": problems,
        "metrics": metrics,
    }


def print_result(result, env, raw):
    print(f"campaign_bench {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"commit={env['commit']} build={env['build_type']} compiler={env['compiler']} "
          f"nproc={env['nproc']} at {env['timestamp']}")
    print(f"calls={len(raw['calls'])} programs_per_call={raw['programs_per_call']} "
          f"threads={raw['threads']} runs attempted={result['attempted']} "
          f"failed={result['failed']} spot-checked={result['checked_runs']} "
          f"unchecked={result['unchecked_runs']} "
          f"reference calls checked={result['reference_calls_checked']}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    if result["interp_mismatch_runs"]:
        print(f"{result['interp_mismatch_runs']} real-toolchain runs printed a value other "
              "than the interpreter's (noted, not failed; see check_real_runs):")
    for note in result["notes"]:
        print(f"NOTE: {note}")
    for name, m in result["metrics"].items():
        line = f"{name}: {m['value']:.6g} {m['unit']}"
        if "median" in m:
            line += (f"  (median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, "
                     f"n {m['n']})")
        print(line)


def workload_args(workload, seed):
    args = ["--workload", workload, "--seed", str(seed)]
    seeds = call_seeds(workload, seed)
    return args + ["--call-seeds", ",".join(map(str, seeds))] if seeds else args


def measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload '{args.workload}'; known: {', '.join(names)}")
    binary = build()
    info = build_info(binary)
    env = envelope(info, args)
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        setup_samples = (setup_seconds(binary, args.workload, args.seed, work_dir)
                         if args.trace == 0 else [])
        raw = run_bench(binary, *workload_args(args.workload, args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--work-dir", work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = evaluate(raw, load_json(REFERENCE), spec, setup_samples)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"envelope": env, **result, "calls": raw["calls"]}, f, indent=1)
    print_result(result, env, raw)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def self_test():
    spec = load_spec()
    reference = load_json(REFERENCE)
    binary = build()
    build_info(binary)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "campaign_demo",
               "-j", str(os.cpu_count() or 1)])
    demo = os.path.join(BUILD_DIR, "ompfuzz", "campaign_demo")
    failures = []
    seed = reference["default_seed"]
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            programs = str(SELF_TEST_PROGRAMS[workload])
            common = [*workload_args(workload, seed), "--programs", programs,
                      "--work-dir", os.path.join(tmp, "work")]
            report = os.path.join(tmp, f"{workload}.json")
            setup = setup_seconds(binary, workload, seed, os.path.join(tmp, "work"))
            for trace in (0, 1):
                raw = run_bench(binary, *common, "--seconds", "1", "--max-calls", "1",
                             "--trace", str(trace), "--report-out", report)
                result = evaluate(raw, {}, spec, setup)
                expected = spec["end_to_end" if trace == 0 else "per_layer"]
                for m in expected:
                    value = result["metrics"].get(m["name"], {}).get("value")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        failures.append(f"{workload} trace {trace}: {m['name']} = {value}")
                if not result["correct"]:
                    failures.append(f"{workload} trace {trace}: {result['problems']}")
                if trace == 1:
                    failures += [f"{workload}: {m['name']} unit differs from BENCHMARK.json"
                                 for m in expected
                                 if raw["layers"].get(m["name"], {}).get("unit") != m["unit"]]
                if trace == 0:
                    # A corrupted reference digest must be caught.
                    call = raw["calls"][0]
                    genuine = {"digests": {workload: {str(call["campaign_seed"]): call["digest"]}}}
                    corrupted = {"digests": {workload: {str(call["campaign_seed"]):
                                                        call["digest"][::-1]}}}
                    if not evaluate(raw, genuine, spec, setup)["correct"]:
                        failures.append(f"{workload}: genuine reference digest rejected")
                    if evaluate(raw, corrupted, spec, setup)["correct"]:
                        failures.append(f"{workload}: corrupted reference digest not caught")
            if workload == "real-gxx":
                continue  # real toolchain reports carry wall-clock times
            config = os.path.join(tmp, f"{workload}.ini")
            subprocess.run([binary, "--dump-config", config, *common], cwd=ROOT, check=True)
            demo_dir = os.path.join(tmp, f"demo-{workload}")
            os.makedirs(demo_dir)
            subprocess.run([demo, config], cwd=demo_dir, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S, check=True)
            with open(report, "rb") as a, open(os.path.join(demo_dir, "campaign_report.json"),
                                               "rb") as b:
                if a.read() != b.read():
                    failures.append(f"{workload}: report differs from campaign_demo's")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("self-test:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


def record_reference(seeds, only=None):
    """Records report digests: every sim-paper pool call, and the first
    RECORDED_CALLS calls of each other workload for each of `seeds` (of
    workload `only`, when given)."""
    spec = load_spec()
    binary = build()
    build_info(binary)
    reference = load_json(REFERENCE)
    pool = sorted(map(int, load_json(POOL)["makespan_steps"]))
    for workload in (w["name"] for w in spec["workloads"]):
        if only not in (None, workload):
            continue
        runs = ([["--call-seeds", ",".join(map(str, pool))]] if workload == "sim-paper" else
                [["--seed", str(seed), "--max-calls", str(RECORDED_CALLS[workload])]
                 for seed in seeds])
        for run in runs:
            work_dir = os.path.join(WORK_DIR, f"record-{os.getpid()}")
            try:
                raw = subprocess.run(
                    [binary, "--workload", workload, *run, "--seconds", "100000", "--trace", "0",
                     "--work-dir", work_dir],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            raw = json.loads(raw.split("CAMPAIGN_BENCH ", 1)[1])
            if raw["failed"] or raw["problems"]:
                raise BenchError(f"{workload} {run}: {raw['problems']}")
            for call in raw["calls"]:
                reference["digests"].setdefault(workload, {})[str(call["campaign_seed"])] = \
                    call["digest"]
            log(f"recorded {workload} {' '.join(run)[:60]}")
        with open(REFERENCE, "w", encoding="utf-8") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def makespan(steps, workers):
    """Finish time of program-order list scheduling over `workers` threads."""
    free = [0] * workers
    for work in steps:
        free[free.index(min(free))] += work
    return max(free)


def record_pool():
    """Records the makespan of POOL_SIZE sim-paper calls, which call_seeds ranks.

    A call's makespan is counted in interpreter steps when its programs are
    list-scheduled in order over POOL_THREADS workers, as the campaign
    scheduler does: it tracks both the call's work and its straggler tail,
    and does not depend on the machine.
    """
    binary = build()
    build_info(binary)
    seeds = [POOL_BASE_SEED + i for i in range(POOL_SIZE)]
    work_dir = os.path.join(WORK_DIR, f"pool-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, "--count-steps", "--workload", "sim-paper", "--work-dir", work_dir,
             "--call-seeds", ",".join(map(str, seeds))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    span = {}
    for line in proc.stdout.splitlines():
        if line.startswith("CAMPAIGN_BENCH_STEPS "):
            seed, *steps = map(int, line.split()[1:])
            span[str(seed)] = makespan(steps, POOL_THREADS)
    with open(POOL, "w", encoding="utf-8") as f:
        json.dump({"threads": POOL_THREADS, "makespan_steps": span}, f, indent=1)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--record-pool", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record_pool:
            return record_pool()
        if args.record_reference:
            return record_reference(args.record_reference, args.workload)
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        return measure(args)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"campaign_bench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
