"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload map_long --seeds 1-10 --seconds 30

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles from statistics.quantiles(values, n=4) and
the spread (q3 - q1) / median, which BENCHMARK.json's bounds are judged
against; "!" marks a spread above a third of its bound. --baseline LABEL also stores the summary, and each seed's counts and
quality values from the exact-repeat record, in perfbench/baseline.json
under the workload's name.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--baseline", metavar="LABEL", default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    runs, walls, exact, env = [], [], {}, {}
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        runs.append(result)
        env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), env)
        record = ROOT / ".perfbench_out" / "repeat" / f"{args.workload}-full-seed{seed}.json"
        exact[seed] = json.loads(record.read_text())["values"]
        values = " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items())
        print(f"seed {seed}: {walls[-1]:.1f} s wall, {result['attempted']} ops; {values}",
              flush=True)

    summary = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]}
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m, s in summary.items():
        bound = bounds.get(m)
        flag = " !" if bound is not None and s["spread"] > bound / 3 else ""
        print(f"{m:<36} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
              f"{s['spread']:>8.3f} {'' if bound is None else bound:>6}{flag}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")

    if args.baseline:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["label"], doc["env"] = args.baseline, env
        doc.setdefault("workloads", {})[args.workload] = {
            "seeds": seed_list(args.seeds), "seconds": seconds,
            "metrics": summary, "exact_by_seed": exact,
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
