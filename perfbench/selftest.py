#!/usr/bin/env python3
"""Reduced-size self-test of the repository benchmark.

Runs every workload once per mode (--trace 0 and --trace 1) at self-test
sizes through perfbench/run.py and checks that each run exits 0, passes
every correctness check, and reports exactly the metrics BENCHMARK.json
names, each with its unit and a finite value (end-to-end values non-zero).

Usage (from the repository root): python3 perfbench/selftest.py
Takes about a minute; the first call also builds the benchmark.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            want = spec["per_layer" if trace else "end_to_end"]
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl["name"],
                   "--seed", "3", "--seconds", "0", "--trace", str(trace), "--passes", "1",
                   "--reduced"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            tag = f"{wl['name']} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed ({result['failed']}/{result['attempted']})")
            metrics = result["metrics"]
            for m in want:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: {m['name']} missing")
                elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{tag}: {m['name']} = {got}")
                elif not trace and got["value"] == 0:
                    problems.append(f"{tag}: end-to-end {m['name']} is 0")
            extra = set(metrics) - {m["name"] for m in want}
            if extra:
                problems.append(f"{tag}: unexpected metrics {sorted(extra)}")
            print(f"selftest: {tag}: {len(metrics)} metrics, "
                  f"{result['attempted']} checks passed", flush=True)
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
