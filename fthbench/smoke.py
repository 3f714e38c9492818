#!/usr/bin/env python3
"""bench.smoke: run every workload in BENCHMARK.json for 3 samples, untraced
and traced, and check that each promised metric is printed, that no output
failed its check, and that the harness refuses (exit 2, nothing on stdout)
when an obs environment sink is set.

    smoke.py <path/to/fth_bench> <path/to/BENCHMARK.json>
"""
import json
import os
import subprocess
import sys
import tempfile


def run(exe, args, cwd, env=None):
    return subprocess.run([exe] + args, capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=170)


def main():
    exe, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    promised = {False: [m["name"] for m in bench["end_to_end"]],
                True: [m["name"] for m in bench["per_layer"]]}
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in bench["workloads"]:
            for traced in (False, True):
                what = f"{w['name']} ({'traced' if traced else 'untraced'})"
                args = ["--workload", w["name"], "--samples", "3"] + (["--traced"] if traced else [])
                p = run(exe, args, tmp)
                lines = p.stdout.strip().splitlines()
                try:
                    res = json.loads(lines[-1])
                except (IndexError, ValueError):
                    errors.append(f"{what}: no result line (exit {p.returncode}): {p.stderr.strip()}")
                    continue
                missing = [n for n in promised[traced] if n not in res["metrics"]]
                if missing:
                    errors.append(f"{what}: metrics not printed: {', '.join(missing)}")
                if p.returncode != 0 or res["failed"] != 0 or not res["correct"]:
                    errors.append(f"{what}: exit {p.returncode}, {res['failed']} of "
                                  f"{res['attempted']} failed")
                print(f"{what}: {res['attempted']} attempted, {res['failed']} failed")

        env = dict(os.environ, FTH_TRACE="1")
        p = run(exe, ["--workload", bench["workloads"][0]["name"], "--samples", "1"], tmp, env)
        if p.returncode != 2 or p.stdout.strip():
            errors.append(f"FTH_TRACE=1: expected exit 2 and no output, got exit {p.returncode}")
        else:
            print("FTH_TRACE=1: refused with exit 2")

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
