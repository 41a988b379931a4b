"""Run-to-run spread of the end-to-end metrics, calibrated and raw.

Run from the root of a source checkout::

    python3 perfbench/spread.py --workload cold_sync_sqlite --seeds 41-50 --seconds 30

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every end-to-end metric the median over the runs and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
spread is given for the reported (calibrated) value and for the same
metric before calibration, which ``run.py`` prints on standard error.  The
noise study in ``spec.json`` was made with this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RAW_PREFIX = "un-normalised: "


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run; returns its calibrated and raw metric values."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False)
    if out.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    raw_lines = [line for line in out.stderr.splitlines() if line.startswith(RAW_PREFIX)]
    calibrated = {name: metric["value"] for name, metric in result["metrics"].items()}
    return calibrated, json.loads(raw_lines[-1][len(RAW_PREFIX):])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 41-50")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + json.dumps({name: round(value, 4)
                                            for name, value in runs[-1][0].items()}),
              flush=True)
    if len(runs) < 2:
        return 0
    for name in runs[0][0]:
        calibrated = [values[name] for values, _raw in runs]
        raw = [raw[name] for _values, raw in runs]
        print(f"{name:24s} median {statistics.median(calibrated):12.5g}  "
              f"spread {spread(calibrated):.3f}  raw spread {spread(raw):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
