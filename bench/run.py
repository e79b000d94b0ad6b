"""hvacrl benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one process each

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
are the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). Lines before it give the machine record, the behaviour
digest and each metric by name with its unit. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("offline-sweep", "rollout-eval", "online-collect")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")   # numpy seeds are non-negative
    return args


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "hvacrl" / "__init__.py").is_file():
        print(f"bench: no hvacrl sources at {src}; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    from workloads import WORKLOADS

    try:
        out = harness.run_workload(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace),
                                   BENCH / ".work")
    except harness.SetupFailed as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(f"bench: workload={out.workload} seed={out.seed} "
          f"iterations={len(out.wall_s)} traced={len(out.traced_wall_s)}")
    print("iteration_walls_s " + " ".join(f"{w:.3f}" for w in out.wall_s)
          + " | traced " + " ".join(f"{w:.3f}" for w in out.traced_wall_s))
    print("setup_walls_s " + " ".join(f"{w:.4f}" for w in out.setup_s))
    print(f"reference_kernel_s median={statistics.median(out.reference_s):.4f} "
          f"samples={len(out.reference_s)} speed_factor={out.speed:.4f}")
    print("machine " + json.dumps(harness.machine_record(ROOT), sort_keys=True))
    print(f"digest {out.digest}")
    for problem in out.problems:
        print(f"problem {problem}")
    e2e = out.end_to_end()
    metrics = out.layers if args.trace else e2e
    shown = dict(e2e)
    # printed only: JSON metrics must never be zero, and updates_per_s is
    # zero on rollout-eval, failed_frac on every workload at this commit;
    # raw wall times drift with the machine's speed
    shown["updates_per_s"] = (out.updates / e2e["wall_s"][0], "1/s")
    shown["failed_frac"] = (out.failed / out.attempted, "ratio")
    shown["raw_wall_s"] = (statistics.median(out.wall_s), "s")
    shown["raw_setup_s"] = (statistics.median(out.setup_s), "s")
    if args.trace:
        shown.update(out.layers)
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
