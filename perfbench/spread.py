"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload apps --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed (one at a time, for
``run_seconds`` from ``BENCHMARK.json``), then prints for every metric its
median and the distance between its first and third quartiles as a share
of the median — the spread ``BENCHMARK.json``'s bounds are set against.
Exits 1 if a run fails or an end-to-end spread other than ``setup_s``
reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict = {}
    ok = True
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=HERE.parent, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            res = None
        if proc.returncode != 0 or res is None or not res["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n"
                  f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            ok = False
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} seeds, "
          f"{seconds} s per run")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and \
                spread >= bound / 3:
            flag = f"  <-- at or above a third of bound {bound}"
            ok = False
        print(f"  {name:<18} median {med:12.5g}  spread {spread:7.4f}"
              f"{'' if bound is None else f'  bound {bound}'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
