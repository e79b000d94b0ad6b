"""Train (or reuse) the collection expert and compare it with the rule.

The expert is the history-aware SAC policy used to generate the
"trained" datasets and regret references. It is cached under
<out>/experts keyed by its configuration fingerprint, so re-running is
free once it exists. The script then evaluates both the expert and the
deadband rule on the held-out weather preset and prints the comparison.
It imports ``hvacrl`` from the ``src`` directory of its own checkout.

Usage:
    python3 scripts/train_expert.py --out results --env dc --steps 9000
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hvacrl.buildsim import EVAL_PRESET  # noqa: E402
from hvacrl.evalharness import (  # noqa: E402
    HarnessConfig,
    base_env,
    ensure_expert,
    evaluate_policy,
    rule_baseline_report,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--env", choices=("dc", "mu"), default="dc")
    ap.add_argument("--steps", type=int, default=9_000,
                    help="online environment steps for expert training")
    ap.add_argument("--eval-days", type=float, default=30.0)
    ap.add_argument("--eval-seeds", type=int, default=3)
    args = ap.parse_args()

    cfg = HarnessConfig(env_kind=args.env, out_dir=args.out,
                        expert_steps=args.steps, eval_days=args.eval_days)
    t0 = time.time()
    path = ensure_expert(cfg)
    print(f"expert checkpoint: {path}  ({time.time() - t0:.0f}s)")

    env = base_env(cfg)
    holdout = EVAL_PRESET[args.env]
    seeds = tuple(range(args.eval_seeds))
    expert = evaluate_policy(path, env, weather=holdout, seeds=seeds)
    rule = rule_baseline_report(env, presets=[holdout], seeds=seeds)

    print(f"\nheld-out preset: {holdout}, {args.eval_days:g} days, "
          f"{len(seeds)} rollouts")
    print(f"{'policy':8s} {'avg_reward':>11s} {'violation':>10s} "
          f"{'power_kw':>9s}")
    for name, reports in (("expert", expert), ("rule", rule)):
        ar = np.median([r.avg_reward for r in reports])
        tv = np.median([r.violation for r in reports])
        ap_ = np.median([r.avg_power_kw for r in reports])
        print(f"{name:8s} {ar:11.4f} {tv:10.4f} {ap_:9.2f}")

    worse = max(r.violation for r in expert)
    best_rule = min(r.violation for r in rule)
    verdict = "beats" if worse < best_rule else "does NOT beat"
    print(f"\nexpert {verdict} the rule on comfort "
          f"(worst expert T.V. {worse:.4f} vs best rule {best_rule:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
