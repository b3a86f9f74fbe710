#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py

Run from the root of a source checkout (it builds through run.py). For
every workload it checks that:
  * untraced and traced runs emit every metric BENCHMARK.json names, each
    with its declared unit, and pass all output checks;
  * the traced ledger rows plus ledger.residual equal trace.wall_s, and the
    residual is under 1 % of it;
  * the exact counts repeat across two processes with the same seed;
  * a tampered outcome digest is reported as a failed operation.
Exits 0 when everything holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
LEDGER_ROWS = [
    "tree.setup_s", "netsim.engine.self_s", "callbacks.other.self_s",
    "link.target.self_s", "floc.admit.self_s", "floc.cap_verify.self_s",
    "floc.control.self_s", "floc.dequeue.self_s", "inetsim.topology_s",
    "inetsim.placement_s", "inetsim.tick_ctor_s",
] + [f"inetsim.{p}.run_s" for p in ("nd", "ff", "na", "a-hi", "a-lo")]
EXACT_COUNTS = [
    "netsim.events", "link.target.pkts_sent", "floc.enqueue.calls",
    "floc.cap_verify.calls", "floc.control.calls", "floc.state_evictions",
    "run.allocs",
] + [f"inetsim.{p}.pkts" for p in ("nd", "ff", "na", "a-hi", "a-lo")]

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"  FAIL {what}")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(label, result, spec):
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: output checks passed")
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in spec},
           f"{label}: emits exactly the declared metrics")
    for m in spec:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"], f"{label}: {m['name']} has unit {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        print(f"{w}:")
        plain = run(w, 0)
        check_metrics(f"{w} untraced", plain, bench["end_to_end"])
        expect(all(v["value"] > 0 for v in plain["metrics"].values()),
               f"{w}: end-to-end metrics are non-zero")

        traced = run(w, 1)
        check_metrics(f"{w} traced", traced, bench["per_layer"])
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        rows = sum(m[r] for r in LEDGER_ROWS)
        wall = m["trace.wall_s"]
        expect(abs(rows + m["ledger.residual"] - wall) <= 1e-9 * wall,
               f"{w}: ledger rows + residual == traced wall")
        expect(abs(m["ledger.residual"]) < 0.01 * wall,
               f"{w}: ledger residual under 1 % of traced wall")
        expect(all(m[r] >= 0 for r in LEDGER_ROWS), f"{w}: ledger rows >= 0")
        expect(all(isinstance(m[c], int) for c in EXACT_COUNTS),
               f"{w}: exact counts printed as integers")

        again = run(w, 1)
        m2 = {k: v["value"] for k, v in again["metrics"].items()}
        expect(all(m[c] == m2[c] for c in EXACT_COUNTS),
               f"{w}: exact counts repeat under the same seed")

        tampered = run(w, 0, "--tamper-digest")
        expect(not tampered["correct"] and tampered["failed"] >= 1,
               f"{w}: tampered digest reported as a failure")
    print("smoke test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
