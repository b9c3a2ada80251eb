#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lower-models --seed 1 --seconds 20 --trace 0

The program is built with dune into $CARGO_TARGET_DIR (default
.bench_build); spans of traced runs and the server's socket go to
.bench_out/. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
The line before it stamps the result with the host's nproc, the OCaml
version, OTD_JOBS and the source commit.

Exit codes: 0 with a result; 2 when the sources or the workload are
missing; 3 when the build fails; 4 when the benchmark fails or times out.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py", ".txt")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def git(*args):
    return subprocess.run(["git"] + list(args), capture_output=True,
                          text=True, timeout=10, check=True).stdout.strip()


def source_commit():
    """The git commit, with a digest of the sources appended when the
    working tree differs from it; outside git, the digest alone."""
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return source_digest()
    return head + ("+" + source_digest() if dirty else "")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found", 3)


def build(build_dir):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", build_dir,
        "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if r.returncode != 0:
        fail("build failed", 3)
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def check_result(result, spec, trace):
    """Validate the result line against BENCHMARK.json; per-layer metrics a
    workload does not exercise are reported as 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result), 4)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        fail("metrics not declared in BENCHMARK.json: %s" % unknown, 4)
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail("end-to-end metric %s missing" % name, 4)
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, declared %s"
                 % (name, metrics[name]["unit"], unit), 4)
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    if result["attempted"] < 1:
        fail("no unit of work completed", 4)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-faults", action="store_true",
                    help="corrupt one output, to prove the checks are live")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BENCHMARK.json")):
        fail("run from the repository root: program sources not found", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload, 2)

    exe = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join("perfbench", "golden.txt")]
    if args.inject_faults:
        cmd.append("--inject-faults")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 4)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        sys.stderr.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode, 4)
    stamp = json.loads(lines[-2])["stamp"]
    stamp["commit"] = source_commit()
    result = check_result(json.loads(lines[-1]), spec, args.trace == 1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
