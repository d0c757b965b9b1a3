#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json, METRICS.md).

Run from the repository root:

    python3 perfbench/run.py --workload eval_camera_attack --seed 1 --trace 0

It builds the benchmark binary (perfbench/CMakeLists.txt, on top of the repository's
own build) into .bench_build/, stages the committed policy cache, runs one
workload for BENCHMARK.json's run_seconds and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and metrics.
The line before it carries the run's provenance. Before printing, it checks
that the binary emitted the metrics BENCHMARK.json names for the mode, each
with its unit, and reports the layers a workload does not run as 0.
--seconds is accepted only with the value run_seconds, so every run of the
benchmark measures for the same time.

    python3 perfbench/run.py --prime

retrains the two cached policies with the program's own zoo at the fixed
train scale and rewrites perfbench/policies/ and its MANIFEST.txt.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
ZOO_DIR = os.path.join(BUILD, "zoo")
POLICY_DIR = os.path.join(HERE, "policies")
MANIFEST = os.path.join(POLICY_DIR, "MANIFEST.txt")
BINARY = os.path.join(CMAKE_DIR, "adsec_perfbench")

# The seed used when --seed is not given; a claim measured on it can be
# rechecked on any other seed.
DEFAULT_SEED = 1
# The traced run must charge all but this share of the worker threads'
# time to a named layer.
UNATTRIBUTED_BOUND = 0.05
BUILD_JOBS = 4
# setup_s is the median over this many cold starts of the binary, each
# timed from just before its exec to its first timed step: these set-up-only
# processes plus the measured run itself.
SETUP_ONLY_STARTS = 10
# Per-layer metrics of layers a workload does not run. The binary does not
# emit them; they are reported as 0.
NOT_RUN = {
    "eval_camera_attack": [
        "agents.modular_decide_us", "agents.modular_decide_share",
        "rl.env_step_us", "rl.env_share", "rl.learner_ms_per_update",
        "rl.learner_share", "nn.sac_update_ms"],
    "eval_modular_scripted": [
        "sensors.victim_stage_us", "sensors.victim_stage_share",
        "nn.victim_forward_us", "nn.victim_forward_share", "nn.gemm_gflops",
        "runtime.scheduler_share",
        "rl.env_step_us", "rl.env_share", "rl.learner_ms_per_update",
        "rl.learner_share", "nn.sac_update_ms"],
    "train_driving_sac": [
        "sensors.victim_stage_us", "sensors.victim_stage_share",
        "attack.decide_us", "attack.decide_share",
        "nn.victim_forward_us", "nn.victim_forward_share",
        "core.step_self_us", "core.step_self_share", "core.turnover_share",
        "runtime.scheduler_share", "runtime.busy_frac", "runtime.tail_share",
        "agents.modular_decide_us", "agents.modular_decide_share"],
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, log=None, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no compiler or benchmark process outlives us."""
    out = subprocess.PIPE if capture else (log if log is not None else None)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out,
                            stderr=subprocess.STDOUT if log is not None else None,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, stdout


def build():
    for f in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, f)):
            fail("program sources not found (%s missing); run from the repository root" % f)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        try:
            if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
                code, _ = run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                               "-DCMAKE_BUILD_TYPE=Release"], 300, log)
                if code != 0:
                    fail("cmake configure failed; see .bench_build/build.log")
            code, _ = run(["cmake", "--build", CMAKE_DIR, "--target", "adsec_perfbench",
                           "-j", str(BUILD_JOBS)], 840, log)
        except subprocess.TimeoutExpired:
            fail("build timed out")
    if code != 0:
        fail("build failed; see .bench_build/build.log")


def crc32_file(path):
    with open(path, "rb") as f:
        return "%08x" % (zlib.crc32(f.read()) & 0xFFFFFFFF)


def stage_policies():
    """Fresh copy of the committed policies for the zoo to load, so a
    corrupt or retrained file from an earlier run can never be picked up."""
    if not os.path.isfile(MANIFEST):
        fail("policy manifest missing: " + MANIFEST)
    shutil.rmtree(ZOO_DIR, ignore_errors=True)
    os.makedirs(ZOO_DIR)
    with open(MANIFEST) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            name = line.split()[0]
            shutil.copyfile(os.path.join(POLICY_DIR, name), os.path.join(ZOO_DIR, name))


def source_digest():
    """sha256 over the program's build inputs, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        code, out = run(["git", "rev-parse", "HEAD"], 30, capture=True)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.strip() if code == 0 else "none"


def prime():
    build()
    tmp = os.path.join(BUILD, "prime")
    shutil.rmtree(tmp, ignore_errors=True)
    code, _ = run([BINARY, "--prime-dir", tmp], 3600)
    if code != 0:
        fail("priming failed")
    names = sorted(f for f in os.listdir(tmp) if f.endswith(".bin"))
    os.makedirs(POLICY_DIR, exist_ok=True)
    with open(MANIFEST, "w") as m:
        m.write("# file crc32 bytes -- trained by `python3 perfbench/run.py --prime`\n")
        for n in names:
            shutil.copyfile(os.path.join(tmp, n), os.path.join(POLICY_DIR, n))
            m.write("%s %s %d\n" % (n, crc32_file(os.path.join(tmp, n)),
                                    os.path.getsize(os.path.join(tmp, n))))
    print("primed " + ", ".join(names))


def self_check(spec, workload, trace, result):
    """Every metric BENCHMARK.json names for this mode and workload, with its
    unit, and no other; every value a finite number. Then fills in the
    layers the workload does not run."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    skipped = NOT_RUN[workload] if trace else []
    emitted = set(wanted) - set(skipped)
    got = result.get("metrics", {})
    problems = []
    if set(got) != emitted:
        problems.append("metric names differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(emitted - set(got)), sorted(set(got) - emitted)))
    for name, m in got.items():
        if name in wanted and m.get("unit") != wanted[name]:
            problems.append("%s has unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), wanted[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("%s has no finite value" % name)
    if trace:
        share = got.get("core.unattributed_share", {}).get("value")
        if isinstance(share, (int, float)) and share > UNATTRIBUTED_BOUND:
            problems.append("core.unattributed_share %.4f exceeds %.2f" % (share, UNATTRIBUTED_BOUND))
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": u}) for n, u in wanted.items()}
    return problems


def timed_start(cmd, timeout):
    """Run cmd; return (exit status, stdout, monotonic ns just before exec)."""
    t0 = time.monotonic_ns()
    try:
        code, out = run(cmd, timeout, capture=True)
    except subprocess.TimeoutExpired:
        fail("%s run timed out" % ("set-up" if "--setup-only" in cmd else "workload"))
    return code, out, t0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(seconds))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prime", action="store_true")
    args = ap.parse_args()
    if args.prime:
        prime()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds != seconds:
        ap.error("--seconds must be BENCHMARK.json's run_seconds (%d)" % seconds)

    build()
    stage_policies()
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--zoo-dir", ZOO_DIR, "--manifest", MANIFEST]
    setup_s = []
    for _ in range(SETUP_ONLY_STARTS if args.trace == 0 else 0):
        code, out, t0 = timed_start(base + ["--setup-only"], 100)
        lines = out.splitlines()
        if code != 0 or not lines:
            sys.stderr.write(out)
            fail("benchmark set-up exited with status %d" % code)
        setup_s.append((json.loads(lines[-1])["first_step_ns"] - t0) * 1e-9)
    code, out, t0 = timed_start(base + ["--seconds", str(seconds), "--trace", str(args.trace)],
                                seconds + 100)
    lines = [l for l in out.splitlines() if l.strip()]
    if code not in (0, 1) or len(lines) < 2:
        sys.stderr.write(out)
        fail("benchmark binary exited with status %d" % code)
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    first_step_ns = result.pop("first_step_ns")
    if args.trace == 0:
        setup_s.append((first_step_ns - t0) * 1e-9)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
        provenance["setup_s_samples"] = setup_s
    provenance["git_sha"] = git_sha()
    provenance["src_sha256"] = source_digest()
    problems = self_check(spec, args.workload, args.trace, result)
    for p in problems:
        print("perfbench: self-check: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
