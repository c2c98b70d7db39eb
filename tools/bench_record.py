"""Record perfbench runs of a parent commit and a change into a BENCH_*.json file.

Usage, from the root of a git checkout:

    python3 tools/bench_record.py --parent <parent ref> --out BENCH_<n>.json \\
        --runs plan_cs2:1-10 --runs analyze_3robot:1-5 --runs build_mix:1-10 \\
        --traced plan_cs2:1 --traced analyze_3robot:1

Each side is the committed tree of a git ref (``--change`` defaults to HEAD),
exported with ``git archive`` into a temporary directory that is removed at
the end, so both sides run the benchmark code of their own commit from a
clean tree. Every run lasts ``run_seconds`` of BENCHMARK.json. For every
workload and seed the two sides run ``perfbench/run.py --trace 0`` one after
the other, one process at a time; the side that runs first alternates from
pair to pair over the whole recording.
The file keeps every run's end-to-end metrics and output digest, the exact
work counters per pass of each run, and per metric each side's quartiles,
the ratio of the medians and how many pairs the change won (ties win for
neither). Each workload's summary leads with how many pairs had equal output
digests and which exact counters differ per pass between the sides.
``--traced`` adds one ``--trace 1`` run per side and seed, again alternating
the side that runs first; with several traced seeds of a workload, each
side's median per metric over them is written too. The file is rewritten
after every pair, so an interrupted recording keeps what it ran.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_list(text):
    """``"1-5"`` or ``"1,3,7"`` to a list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def workload_seeds(text):
    name, sep, seeds = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return name, seed_list(seeds)


def export(ref, dest):
    """Write the committed tree of ``ref`` to ``dest``; return the full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    tar_path = dest.parent / f"{dest.name}.tar"
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return commit


def host():
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"{model}, {os.cpu_count()} logical cores, Python {platform.python_version()}; "
            "runs were sequential")


def run_side(tree, workload, seed, seconds, trace):
    """One benchmark process in ``tree``; returns its result line and record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = tree / "perfbench" / ".out"
    record = json.loads(
        (out / "runs" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    row = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "output_digest": record["output_digest"],
    }
    row.update({k: round(v["value"], 4) for k, v in result["metrics"].items()})
    counters = sorted((out / "counters").glob(f"*-{workload}-seed{seed}.json"))
    exact = json.loads(counters[-1].read_text(encoding="utf-8")) if counters else None
    return row, exact, proc.stderr


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def medians(rows):
    """The median of each metric over ``rows``, one run's row each."""
    names = set.intersection(*map(set, rows)) - {
        "correct", "attempted", "failed", "output_digest", "errors"}
    return {n: round(statistics.median(r[n] for r in rows), 4) for n in sorted(names)}


def summarize(runs, metrics):
    summary = {}
    for m in metrics:
        name = m["name"]
        pairs = [(r["parent"][name], r["change"][name]) for r in runs]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in pairs)
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 4)
            if parent["median"] else None,
            "change_wins": f"{wins}/{len(pairs)}",
        }
    return summary


def agreement(entry):
    """How far the two sides computed the same thing.

    ``digests_equal`` counts the pairs whose output digests match, and
    ``exact_counters_differ`` names the exact counters whose per-pass value
    differs between the sides in any pair.
    """
    runs = entry["runs"]
    equal = sum(r["parent"]["output_digest"] == r["change"]["output_digest"] for r in runs)
    differ = set()
    for pair in entry["exact_counters_per_pass"].values():
        parent, change = ((pair[side] or {}).get("counters", {}) for side in SIDES)
        differ.update(k for k in parent.keys() | change.keys()
                      if parent.get(k) != change.get(k))
    return {"digests_equal": f"{equal}/{len(runs)}", "exact_counters_differ": sorted(differ)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", default="HEAD", help="git ref of the change")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to write")
    parser.add_argument("--runs", action="append", type=workload_seeds, default=[],
                        metavar="WORKLOAD:SEEDS", help="paired --trace 0 runs, e.g. plan_cs2:1-10")
    parser.add_argument("--traced", action="append", type=workload_seeds, default=[],
                        metavar="WORKLOAD:SEEDS",
                        help="one --trace 1 run per side and seed, e.g. plan_cs2:1-3")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="bench_record-") as work:
        record(args, spec, {side: Path(work) / side for side in SIDES})
    print(f"wrote {args.out}")
    return 0


def record(args, spec, trees):
    seconds = spec["run_seconds"]
    commits = {side: export(ref, trees[side])
               for side, ref in zip(SIDES, (args.parent, args.change))}
    doc = {
        "what": "perfbench end-to-end runs of the parent commit and of this change, "
                "one process per run, alternating which side runs first",
        "parent_commit": commits["parent"][:7],
        "change_commit": commits["change"][:7],
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "host": host(),
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    pairs = 0
    for workload, seeds in args.runs:
        # a workload named in several --runs keeps the runs of each
        entry = doc["workloads"].setdefault(workload, {
            "seeds": [], "runs": [], "summary": {}, "exact_counters_per_pass": {}})
        entry["seeds"] += seeds
        for seed in seeds:
            order = SIDES if pairs % 2 == 0 else SIDES[::-1]
            pairs += 1
            rows, counters = {}, {}
            for side in order:
                rows[side], counters[side], _ = run_side(trees[side], workload, seed, seconds, 0)
                print(f"{workload} seed {seed} {side}: op_ms.p50 {rows[side]['op_ms.p50']}",
                      flush=True)
            entry["runs"].append({"seed": seed, "first": order[0], **{s: rows[s] for s in SIDES}})
            entry["exact_counters_per_pass"][f"seed{seed}"] = counters
            entry["summary"] = {**agreement(entry),
                                **summarize(entry["runs"], spec["end_to_end"])}
            save()
    for workload, seeds in args.traced:
        done = []
        for seed in seeds:
            order = SIDES if pairs % 2 == 0 else SIDES[::-1]
            pairs += 1
            rows = {}
            for side in order:
                row, _, stderr = run_side(trees[side], workload, seed, seconds, 1)
                errors = [line for line in stderr.splitlines() if line.startswith("error:")]
                rows[side] = dict(row, errors=errors)
                print(f"{workload} seed {seed} {side} traced", flush=True)
            doc[f"traced_{workload}_seed{seed}"] = {
                "command": f"python3 perfbench/run.py --workload {workload} "
                           f"--seed {seed} --seconds {seconds:g} --trace 1",
                "first": order[0],
                **{s: rows[s] for s in SIDES},
            }
            done.append(rows)
            if len(done) > 1:
                doc[f"traced_{workload}_median"] = {
                    "seeds": seeds[:len(done)],
                    **{s: medians([r[s] for r in done]) for s in SIDES},
                }
            save()


if __name__ == "__main__":
    sys.exit(main())
