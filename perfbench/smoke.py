#!/usr/bin/env python3
"""Smoke check of the perfbench benchmark.

Runs each workload briefly, untraced and traced, and asserts that every
metric BENCHMARK.json declares is printed with its unit, that the layers a
workload exercises report non-zero figures, and that the outputs were
correct. Then it injects corrupt outputs (a flipped byte in a lowered
module, or a wrong element in a matmul result) and asserts that each one
is counted as failed, which proves the correctness checks are live. On
lower-models the second injection corrupts the pass-manager reference
too, so only the committed digest can catch it.

Run from the repository root:  python3 perfbench/smoke.py [--seconds 4]
"""

import argparse
import json
import subprocess
import sys

# per-layer metrics each workload must move off zero
LIVE = {
    "lower-models": [
        "ir.parse.mb_per_s", "ir.print.mb_per_s", "ir.verify_in.ms",
        "ir.verify_out.ms", "ir.greedy.match_attempts", "ir.greedy.folds",
        "passes.pipeline.ms", "passes.canonicalize.ms", "passes.cse.ms",
        "core.of_script.ms", "core.apply.ms", "core.schedule.cache_hit_ratio",
        "layer.ir.self_ms", "layer.core.self_ms", "trace.spans",
    ],
    "tune-matmul": [
        "ir.parse.mb_per_s", "core.of_script.ms", "core.apply.ms",
        "core.schedule.compile_ms", "interp.run.ms", "interp.flops",
        "interp.loads_stores", "kernel_sim_us.geomean", "autotune.search.ms",
        "layer.interp.self_ms", "trace.spans",
    ],
    "serve-mixed": [
        "ir.parse.mb_per_s", "ir.fingerprint.ms", "ir.greedy.match_attempts",
        "server.rcache.hit_ratio", "server.hit.ms.p50", "server.miss.ms.p50",
        "server.wait.ms",
        "server.cell.job_ms.mean", "layer.server.self_ms", "trace.spans",
    ],
}


def run(workload, seconds, trace, inject=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd.append("--inject-faults")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    assert r.returncode == 0, "%s exited with %d" % (cmd, r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=4)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in [(0, spec["end_to_end"]), (1, spec["per_layer"])]:
            res = run(name, args.seconds, trace)
            assert res["correct"] and res["failed"] == 0, (name, trace, res)
            metrics = res["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                assert got is not None, (name, m["name"], "missing")
                assert got["unit"] == m["unit"], (name, m["name"], got)
                if trace == 0:
                    assert got["value"] > 0, (name, m["name"], got)
            for live in LIVE[name] if trace else []:
                assert metrics[live]["value"] > 0, (name, live, metrics[live])
            print("ok   %-13s trace=%d  %d metrics, %d attempted"
                  % (name, trace, len(metrics), res["attempted"]))
        res = run(name, args.seconds, 0, inject=True)
        injected = 2 if name == "lower-models" else 1
        assert not res["correct"] and res["failed"] == injected, (name, res)
        print("ok   %-13s injected fault counted: %d of %d failed"
              % (name, res["failed"], res["attempted"]))
    print("perfbench smoke check passed")


if __name__ == "__main__":
    main()
