"""Summarize sweep results and check each study's headline claim.

Reads results/<rq>/summary.csv (plus the per-cell report.json and
quality.json) written by ``hvacrl sweep``, prints the aggregated tables,
and states whether the expected ordering holds on this run:

  rq1  conservative offline learners beat naive off-policy ones
  rq2  history encoder raises reward and tightens per-zone spread
  rq3  regret tracks the perturbation rate; mild noise helps learning
  rq4  returns saturate with dataset size
  rq5  longer windows do not hurt, and saturate at the top end

Usage:
    python3 scripts/analyze_results.py --out results
    python3 scripts/analyze_results.py --out results --rq 3
"""
import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from hvacrl.evalharness import spearman_rho

OFFLINE_ALGOS = ("cql", "td3bc")
BASELINE_ALGOS = ("td3", "sac")


def read_summary(out: Path, rq: str):
    path = out / rq / "summary.csv"
    if not path.exists():
        return None
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for col in ("avg_reward", "violation", "avg_power_kw",
                    "episode_return"):
            if col in row:
                row[col] = float(row[col])
    return rows


def cell_median(rows, cell: str, metric: str = "avg_reward") -> float:
    vals = [r[metric] for r in rows if r["cell"] == cell]
    return float(np.median(vals))


def cell_dir(out: Path, rq: str, rows, cell: str) -> Path:
    fp = next(r["cell_fingerprint"] for r in rows if r["cell"] == cell)
    return out / rq / fp


def zone_iqrs(out: Path, rq: str, rows, cell: str) -> np.ndarray:
    """Median over seeds of each zone's temperature IQR."""
    report = json.loads((cell_dir(out, rq, rows, cell)
                         / "report.json").read_text())
    per_seed = [[z["iqr"] for z in s["report"]["zone_quantiles"]]
                for s in report["seeds"]]
    return np.median(np.asarray(per_seed), axis=0)


def analyze_rq1(out: Path) -> None:
    rows = read_summary(out, "rq1")
    if not rows:
        print("rq1: no results")
        return
    scenarios = sorted({r["axis_scenario"] for r in rows})
    algos = sorted({r["axis_algo"] for r in rows})
    for scenario in scenarios:
        med = {a: cell_median(rows, f"{scenario}-{a}") for a in algos}
        line = "  ".join(f"{a}={med[a]:.4f}" for a in algos)
        floor = min(med[a] for a in OFFLINE_ALGOS if a in med)
        ceil = max(med[a] for a in BASELINE_ALGOS if a in med)
        ok = floor > ceil
        print(f"rq1 {scenario:13s} {line}  "
              f"offline>baseline: {'yes' if ok else 'NO'}")


def analyze_rq2(out: Path) -> None:
    rows = read_summary(out, "rq2")
    if not rows:
        print("rq2: no results")
        return
    modes = sorted({r["axis_mode"] for r in rows})
    for mode in modes:
        flat = cell_median(rows, f"{mode}-flat")
        hist = cell_median(rows, f"{mode}-hist")
        print(f"rq2 {mode:5s} flat={flat:.4f} hist={hist:.4f}  "
              f"gain={hist - flat:+.4f}")
    if "cql" in modes:
        flat_iqr = zone_iqrs(out, "rq2", rows, "cql-flat")
        hist_iqr = zone_iqrs(out, "rq2", rows, "cql-hist")
        tighter = bool(np.all(hist_iqr < flat_iqr))
        pairs = "  ".join(f"z{i}: {h:.3f}<{f:.3f}" if h < f
                          else f"z{i}: {h:.3f}>={f:.3f}"
                          for i, (h, f) in enumerate(zip(hist_iqr,
                                                         flat_iqr)))
        print(f"rq2 cql zone-temp IQR {pairs}  "
              f"all tighter: {'yes' if tighter else 'NO'}")


def analyze_rq3(out: Path) -> None:
    rows = read_summary(out, "rq3")
    if not rows:
        print("rq3: no results")
        return
    sigmas = sorted({float(r["axis_sigma"]) for r in rows})
    epsilons = sorted({float(r["axis_epsilon"]) for r in rows})
    for sg in sigmas:
        regrets, rewards = [], []
        for eps in epsilons:
            cell = f"eps{eps:g}-sigma{sg:g}"
            quality = json.loads((cell_dir(out, "rq3", rows, cell)
                                  / "quality.json").read_text())
            regrets.append(quality["mean"])
            rewards.append(cell_median(rows, cell))
        rho = spearman_rho(epsilons, regrets)
        best = epsilons[int(np.argmax(rewards))]
        line = "  ".join(f"e{e:g}: d={d:.3f} r={r:.3f}"
                         for e, d, r in zip(epsilons, regrets, rewards))
        print(f"rq3 sigma={sg:g} {line}")
        print(f"rq3 sigma={sg:g} regret-vs-rate rho={rho:.3f}  "
              f"best reward at eps={best:g}")


def analyze_rq4(out: Path) -> None:
    rows = read_summary(out, "rq4")
    if not rows:
        print("rq4: no results")
        return
    sizes = sorted({int(r["axis_size"]) for r in rows})
    ref = cell_median(rows, f"size{max(sizes)}")
    for size in sizes:
        med = cell_median(rows, f"size{size}")
        gap = (ref - med) / abs(ref) if ref else 0.0
        print(f"rq4 size={size:<8d} median A.R. {med:.4f}  "
              f"below largest by {gap:+.1%}")


def analyze_rq5(out: Path) -> None:
    rows = read_summary(out, "rq5")
    if not rows:
        print("rq5: no results")
        return
    lens = sorted({int(r["axis_seq_len"]) for r in rows})
    meds = [cell_median(rows, f"len{L:02d}") for L in lens]
    line = "  ".join(f"L{L}: {m:.4f}" for L, m in zip(lens, meds))
    print(f"rq5 {line}")
    if len(meds) >= 2:
        tail = abs(meds[-1] - meds[-2]) / abs(meds[-2]) if meds[-2] else 0.0
        rising = bool(np.all(np.diff(meds) >= 0))
        print(f"rq5 non-decreasing: {'yes' if rising else 'NO'}  "
              f"change over last step: {tail:.1%}")


ANALYZERS = {"1": analyze_rq1, "2": analyze_rq2, "3": analyze_rq3,
             "4": analyze_rq4, "5": analyze_rq5}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--rq", action="append", choices=tuple(ANALYZERS),
                    help="restrict to one study (repeatable)")
    args = ap.parse_args()
    out = Path(args.out)
    for rq in args.rq or ANALYZERS:
        ANALYZERS[rq](out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
