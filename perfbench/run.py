"""Run the stiefelprox benchmark.

    python3 perfbench/run.py --workload cm-small-r --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run it from the root of a checkout: it imports the package from ``src/``
beside it, never an installed copy. Each workload prints its metrics by name
and unit, the environment and any difference from the recorded fingerprint;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
and writes its spans to ``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cm-small-r", "spca-large-r", "cm-modes", "sweep")
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="base seed; solve i of block b derives its seed from it")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stiefelprox" / "__init__.py").is_file():
        print(f"perfbench: no src/stiefelprox under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS

    # one BLAS thread per process: the sweep's nproc workers then use nproc
    # cores in all, and OpenBLAS reads these only when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from perfbench import workloads

    w = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"env {json.dumps(workloads.environment())}")
    if args.trace:
        out = workloads.trace(w, args.seed, args.seconds, reference)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in out["layers"].items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{w.name}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for tracer in out["tracers"]:
                tracer.write(fh)
        print(f"{w.name} seed {args.seed}: traced run, {out['blocks']} passes over block 0, "
              f"spans in {spans_path}")
    else:
        out = workloads.measure(w, args.seed, args.seconds, reference)
        metrics = out["metrics"]
        print(f"{w.name} seed {args.seed}: {out['attempted']} solves in {out['blocks']} blocks")
    for name, (value, unit) in metrics.items():
        suffix = f" (n={out['samples']})" if name == "solve_s_p50" else ""
        print(f"  {name} {value:.6g} {unit}{suffix}")
    recorded = reference["fingerprints"].get(w.name, {}).get(str(args.seed))
    diffs = workloads.fingerprint_diff(recorded, out["fingerprint"])
    print("fingerprint " + ("matches the recorded one" if not diffs else "; ".join(diffs)))
    for error in out["errors"][:20]:
        print(f"FAILED {error}")

    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
