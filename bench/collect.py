"""Run the benchmark once per seed and summarize each metric's spread.

    python3 bench/collect.py --workload rewrite_queries --seeds 1 2 3 4 5

Runs ``bench/run.py --trace 0`` one seed at a time, in this checkout, for
the ``run_seconds`` that BENCHMARK.json sets, and prints for every metric
the median, the quartiles as ``statistics.quantiles(n=4)`` gives them, and
the spread: the distance between the quartiles as a share of the median.
It also prints the median of each run's calibration time, which shows
whether the machine's speed drifted between sets of runs.  ``--out``
also writes the raw results, with each run's ``env`` line, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "env": env, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} calibration_ms={env['calibration_ms']['median']:.4f}",
              flush=True)
    summary = {}
    for name, metric in runs[0]["metrics"].items():
        summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name]["unit"] = metric["unit"]
        s = summary[name]
        print(f"{name:32} median {s['median']:12.6g} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
              f"spread {s['spread']:.4f} {s['unit']}")
    calibration = summarize([r["env"]["calibration_ms"]["median"] for r in runs])
    print(f"{'calibration_ms':32} median {calibration['median']:12.6g} "
          f"spread {calibration['spread']:.4f} ms")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary, "calibration_ms": calibration}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
