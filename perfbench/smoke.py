"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and asserts that each run prints every metric BENCHMARK.json names, with that
metric's unit, that no op failed and that the outputs were judged correct.

    python3 perfbench/smoke.py

from the root of a source checkout. Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for workload in spec["workloads"]:
        for trace, metrics in wanted.items():
            cmd = spec["command"] + [
                "--workload", workload["name"], "--seed", "3",
                "--seconds", "0.2", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
            where = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} of {result['attempted']}")
            got = result["metrics"]
            for m in metrics:
                if m["name"] not in got:
                    failures.append(f"{where}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    failures.append(f"{where}: {m['name']} unit {got[m['name']]['unit']}, "
                                    f"want {m['unit']}")
            extra = set(got) - {m["name"] for m in metrics}
            if extra:
                failures.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops, ok", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
