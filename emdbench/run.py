#!/usr/bin/env python3
"""Paper-pipeline benchmark: one command per run.

    python3 emdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call in a checkout builds the library
and the benchmark binary from source (emdbench/CMakeLists.txt) and trains the models
into a cache owned by the benchmark; later calls reuse both. The build lives
in $CARGO_TARGET_DIR (default .bench_build). The model cache is keyed by a
hash of every file under src/ and emdbench/cpp/ plus emdbench/CMakeLists.txt,
so a cache written by another version of the code is never reused.

The last line of standard output is one JSON object:
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}
with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1.

Other modes:
    --smoke       every workload, traced and untraced, at tiny sizes; checks
                  that every metric named in BENCHMARK.json is emitted with
                  its unit
    --self-test   the benchmark binary's built-in checks of its trace arithmetic
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_NAME = os.path.basename(HERE)
WORKLOADS = ("deep_local", "long_stream", "served_governed")
RUN_TIMEOUT_S = 170
TRAIN_TIMEOUT_S = 800
BUILD_TIMEOUT_S = 800


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"error: {msg}")
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def source_hash():
    """Hash of everything the trained models depend on: the library sources,
    the benchmark binary's sources and its build file."""
    h = hashlib.sha256()
    paths = [os.path.join(BENCH_NAME, "CMakeLists.txt")]
    for top in ("src", os.path.join(BENCH_NAME, "cpp")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.relpath(os.path.join(dirpath, f), ROOT)
                      for f in sorted(filenames)]
    for rel in paths:
        h.update(rel.encode())
        h.update(b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def run_quiet(cmd, timeout):
    """Runs a set-up step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")


def ensure_binary():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root",
             code=2)
    build_dir = os.path.join(build_root(), "cmake")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
               "emdbench"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "emdbench")


def ensure_models(binary):
    """Trains the models once per code version; returns (cache, train_s)."""
    cache = os.path.join(build_root(), "models", source_hash())
    stamp = os.path.join(cache, "trained.json")
    if not os.path.isfile(stamp):
        os.makedirs(cache, exist_ok=True)
        log(f"training models into {cache} (once per code version)")
        try:
            proc = subprocess.run([binary, "train", "--cache", cache],
                                  stdout=subprocess.PIPE, stderr=sys.stderr,
                                  timeout=TRAIN_TIMEOUT_S, check=False,
                                  text=True)
        except subprocess.TimeoutExpired:
            fail(f"model training timed out after {TRAIN_TIMEOUT_S} s")
        if proc.returncode != 0:
            fail("model training failed")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tmp = stamp + ".tmp"
        with open(tmp, "w") as f:
            json.dump(result, f)
        os.replace(tmp, stamp)
    with open(stamp) as f:
        return cache, float(json.load(f)["train_s"])


def run_once(binary, cache, train_s, workload, seed, seconds, trace, smoke):
    """One benchmark run; returns (exit code, result dict or None)."""
    trace_dir = os.path.join(build_root(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cache", cache,
           "--train-s", repr(train_s),
           "--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"run timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 1, None


def contract_errors(result, spec, trace):
    """Differences between a result object and BENCHMARK.json."""
    errors = []
    if not isinstance(result, dict):
        return ["no result object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted = {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        errors.append(f"failed = {result['failed']!r}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        errors.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in units.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return errors


def smoke(binary, cache, train_s, spec):
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(binary, cache, train_s, workload, 1, 1,
                                    trace, smoke=True)
            errors = contract_errors(result, spec, trace)
            if code != 0 or not (result or {}).get("correct"):
                errors.append(f"exit code {code}, correct="
                              f"{(result or {}).get('correct')}")
            status = "ok" if not errors else "FAILED: " + "; ".join(errors)
            log(f"smoke {workload} trace={trace}: {status}")
            failures += bool(errors)
    print(json.dumps({"smoke_failures": failures}))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    start = time.monotonic()
    spec = load_spec()
    # Compilers and tools write their temporary files inside the checkout too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    binary = ensure_binary()
    if args.self_test:
        proc = subprocess.run([binary, "self-test"], check=False)
        return proc.returncode
    cache, train_s = ensure_models(binary)
    log(f"set-up done in {time.monotonic() - start:.1f} s")
    if args.smoke:
        return smoke(binary, cache, train_s, spec)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, result = run_once(binary, cache, train_s, args.workload, args.seed,
                            args.seconds, args.trace, smoke=False)
    if result is None:
        fail(f"the run printed no result (exit code {code})")
    errors = contract_errors(result, spec, args.trace)
    if errors:
        fail("result does not match BENCHMARK.json: " + "; ".join(errors))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
