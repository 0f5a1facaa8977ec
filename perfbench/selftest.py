#!/usr/bin/env python3
"""Self-test of the repo benchmark.

Run from the root of a checkout:  python3 perfbench/selftest.py

1. A tiny-size run of every workload completes, passes every gate and
   prints exactly the end-to-end metric names of BENCHMARK.json; a
   second seed prints the same names.
2. A tiny traced run prints exactly the per-layer metric names.
3. Seeded faults fail the run (exit 1, "correct": false): one corrupted
   served byte, one dropped warm-store record (fleet store and crowd
   store separately), and a stepped/fast deviation above 1%.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed=1, trace="0", extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", trace, "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in spec["workloads"]]:
        for seed in (1, 2):
            code, r = run(w, seed)
            check(code == 0 and r is not None and r["correct"],
                  f"{w} seed {seed}: tiny run passes its gates")
            names = set(r["metrics"]) if r else set()
            check(names == e2e, f"{w} seed {seed}: prints every "
                  f"end-to-end metric (missing {sorted(e2e - names)}, "
                  f"extra {sorted(names - e2e)})")

    code, r = run("fleet", trace="1")
    check(code == 0 and r is not None and r["correct"],
          "traced tiny run passes its gates")
    names = set(r["metrics"]) if r else set()
    check(names == layers, f"traced run prints every per-layer metric "
          f"(missing {sorted(layers - names)}, "
          f"extra {sorted(names - layers)})")

    faults = [("serve", "served-byte"), ("fleet", "store-record"),
              ("crowd", "store-record"), ("fleet", "fast-deviation")]
    for phase, fault in faults:
        code, r = run("fleet", extra=("--only", phase, "--inject", fault))
        check(code == 1 and r is not None and not r["correct"],
              f"{phase}: injected {fault} fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
