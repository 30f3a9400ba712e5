"""Run the benchmark over several seeds and summarise it.

Usage, from the root of a checkout:

    python3 bench/record.py --seeds 1-10 [--workloads a,b] [--out FILE]

For every workload it runs ``run.py --trace 0`` once per seed, one at a
time, then one ``--trace 1`` run on the first seed.  For every
end-to-end metric it prints the median and the quartile spread
(third minus first quartile of ``statistics.quantiles(values, n=4)``,
as a share of the median) next to the metric's bound from
``BENCHMARK.json``.  With ``--out`` it writes every run's result, the
summaries and the environment to one JSON file, an entry of the BENCH
trajectory in ``bench/trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its result and its environment line.

    The result gains the run's seed and its printed quality figures.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["quality"] = {key: float(value) for _, key, value in
                         (line.split() for line in lines if line.startswith("quality "))}
    return result, env


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile spread / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="", help="free text stored in the record, "
                        "e.g. the commit the program was measured at")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"label": args.label, "run_seconds": spec["run_seconds"],
                    "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            record["environment"] = {k: v for k, v in env.items() if k != "seed"}
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                             "bound": bound, "unit": runs[0]["metrics"][name]["unit"]}
            print(f"{workload:15s} {name:20s} median {med:12.6g} spread {rel:7.2%} "
                  f"bound {bound:.0%}{'' if rel < bound / 3 else '  <-- above bound/3'}")
        traced, _ = run_once(workload, args.seeds[0], spec["run_seconds"], 1)
        record["workloads"][workload] = {"runs": runs, "end_to_end": summary,
                                         "per_layer_seed": args.seeds[0],
                                         "per_layer": traced["metrics"]}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
