"""Paired end-to-end benchmark runs of a parent and a change checkout.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload verify --seeds 21,22 --pairs 10 --out BENCH_27.json

Each pair runs `perfbench/run.py --seconds 12 --trace 0` once in each
checkout, the parent first in even pairs and the change first in odd ones;
pair i uses seed i of the (cycled) seed list.  Per metric of the change's
BENCHMARK.json it prints both sides' median and quartiles, the pairs the
change wins, and whether the medians differ by more than the parent's
interquartile range.  The workload's entry of `end_to_end` in `--out` is
written in the shape of BENCH_18.json; other keys of the file are kept.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


COMMAND = "perfbench/run.py --seconds 12 --trace 0"


def run(checkout: Path, workload: str, seed: int) -> dict:
    """The summary line of one benchmark run in `checkout`."""
    out = subprocess.run([sys.executable, *COMMAND.split(), "--workload", workload,
                          "--seed", str(seed)],
                         cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1", help="comma-separated, cycled over the pairs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, help="JSON file to write the workload's entry into")
    args = ap.parse_args(argv)
    if args.pairs < 2:  # the quartiles of each side need two runs
        ap.error(f"--pairs must be at least 2, got {args.pairs}")
    seeds = [int(s) for s in args.seeds.split(",")]
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run(getattr(args, side), args.workload, seeds[i % len(seeds)])
            runs[side].append(result)
            print(f"pair {i} {side}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    metrics = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        iqr = before["q3"] - before["q1"]
        shift = after["median"] - before["median"]
        metrics[name] = {
            "better": metric["better"], "parent": before, "change": after,
            "change_vs_parent": round(shift / before["median"], 3) if before["median"] else None,
            "change_wins": wins, "parent_runs": [round(v, 4) for v in parent],
            "change_runs": [round(v, 4) for v in change]}
        print(f"{name}: parent {before['median']} [{before['q1']}, {before['q3']}], change "
              f"{after['median']} [{after['q1']}, {after['q3']}], change wins {wins}/"
              f"{args.pairs}, |median shift| {abs(shift):.4g} vs parent IQR {iqr:.4g}: "
              + ("beyond" if abs(shift) > iqr else "within"))

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        section = data.setdefault("end_to_end", {})
        section["command"] = f"python3 {COMMAND} --workload <w> --seed <s>"
        section["statistics"] = ("median and quartiles (inclusive method) over the runs of "
                                 "each side; change_wins counts the pairs in which the "
                                 "change read better; runs alternate which side goes first")
        all_runs = runs["parent"] + runs["change"]
        section.setdefault("workloads", {})[args.workload] = {
            "pairs": args.pairs, "seeds": [seeds[i % len(seeds)] for i in range(args.pairs)],
            "correct": all(r["correct"] for r in all_runs),
            "failed": [r["failed"] for r in all_runs], "metrics": metrics}
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
