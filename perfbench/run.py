"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search-mmap --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` replays the workload untraced and reports its end-to-end
metrics; ``--trace 1`` runs the per-layer ladder (see ``layers.py``)
with a tracer installed and writes a Chrome trace under
``.perfbench_out/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (each
``{"value", "unit"}``); the lines before it print every metric by name
with its unit. ``--scale tiny`` is a seconds-long smoke run for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put the checkout's ``src/`` and the benchmark package on the path;
    fail loudly (no result line) when the program is not there."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "medium"), default="medium")
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import workloads
    from perfbench.measure import calibrate, median

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}"
    probe = calibrate()
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        from perfbench import layers

        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        result = layers.run(args.workload, args.scale, args.seed, args.seconds, workdir, trace_path)
    else:
        result = workloads.run(args.workload, args.scale, args.seed, args.seconds, workdir)
    probe += calibrate()
    metrics = dict(result["metrics"])
    if args.trace:
        metrics["host.calibration_ms"] = (median(probe), "ms")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    for name, (value, unit) in result.get("ungated", {}).items():
        print(f"{f'({name})':40s} {value:14.4f} {unit}")
    if not args.trace:
        print(f"{'(host.calibration_ms)':40s} {median(probe):14.4f} ms")
    for key in result.get("mismatches", []):
        print(f"mismatch: {key!r}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
