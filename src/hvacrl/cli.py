"""Command-line entry point.

Subcommands: simulate, collect, train, eval, sweep, regret, report. All
configuration lives in one JSON document whose defaults are embedded here
and printable via --print-config; flags override single values. Every run
appends one JSON line to <out>/audit.jsonl recording the command, the
configuration fingerprint, the seeds involved, and the wall duration.

Exit codes: 0 ok, 2 usage, 3 bad data or fingerprint mismatch,
4 numerical divergence or simulation fault, 5 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shlex
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .agents import AgentConfig, load_agent, make_agent, train_offline
from .buildsim import BuildingEnv, EnvConfig, rule_controller
from .datagen import (
    build_quality_report,
    collect_final_buffer,
    collect_trained,
    read_dataset,
    write_dataset,
)
from .errors import DataError, HvacrlError, UsageError
from .evalharness import RQ_RUNNERS, HarnessConfig, evaluate_policy
from .fingerprint import canonical_json, fingerprint, to_jsonable

ENV_OUT_DIR = "HVACRL_OUT_DIR"     # overrides every --out directory
ENV_MAX_JOBS = "HVACRL_MAX_JOBS"   # caps sweep parallelism


# ---------------------------------------------------------------------------
# run configuration: embedded defaults, JSON overrides, fingerprint


def default_config() -> dict:
    """The full default configuration, one block per subsystem."""
    return {
        "environment": to_jsonable(EnvConfig()),
        "agent": to_jsonable(AgentConfig()),
        "data": {
            "scenario": "trained",   # final-buffer | trained
            "algo": "td3",           # final-buffer collection agent
            "epsilon": 0.1,
            "sigma": 0.1,
            "steps": 100_000,
            "days": 1.0,             # collection episode length
            "expert": "",
        },
        "harness": HarnessConfig().to_jsonable(),
        "seed": 0,
        "out_dir": "results",
    }


def _merge(defaults, override, path="config"):
    if not isinstance(override, dict):
        raise UsageError(f"{path} must be a JSON object")
    merged = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {path}.{key}")
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, f"{path}.{key}")
        else:
            merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    cfg = default_config()
    if path:
        p = Path(path)
        if not p.exists():
            raise DataError(f"config file {path} not found")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise DataError(f"config file {path} is not valid JSON: {e}")
        cfg = _merge(cfg, user)
    return cfg


def config_fingerprint(cfg: dict) -> str:
    return fingerprint(cfg)


# ---------------------------------------------------------------------------
# small helpers


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(canonical_json(obj))
    tmp.replace(path)


def _audit(out_dir: Path, argv, subcommand: str, fp: str, seeds,
           t0: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    row = {
        "utc": datetime.now(timezone.utc).isoformat(),
        "command": shlex.join(argv),
        "subcommand": subcommand,
        "config_fingerprint": fp,
        "seeds": list(seeds),
        "duration_s": round(time.perf_counter() - t0, 3),
    }
    with open(out_dir / "audit.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")


def _out_dir(flag_value: str | None, cfg: dict, args_env: dict) -> Path:
    value = args_env.get(ENV_OUT_DIR) or flag_value or cfg["out_dir"]
    return Path(value)


def _weather_spec(value: str | None) -> str:
    if not value:
        return ""
    return value if ":" in value else f"preset:{value}"


def _env_from(cfg: dict, kind: str | None = None, weather: str | None = None,
              days: float | None = None) -> BuildingEnv:
    block = dict(cfg["environment"])
    if kind:
        block["kind"] = kind
    if weather is not None:
        block["weather"] = _weather_spec(weather)
    if days is not None:
        block["days"] = days
    return BuildingEnv(EnvConfig(**block))


def _median_summary(reports: list) -> dict:
    return {
        "avg_reward": float(np.median([r.avg_reward for r in reports])),
        "violation": float(np.median([r.violation for r in reports])),
        "avg_power_kw": float(np.median([r.avg_power_kw for r in reports])),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, cfg: dict, argv, env_vars) -> int:
    if args.days is not None and args.days <= 0:
        raise UsageError("--days must be positive")
    t0 = time.perf_counter()
    out = _out_dir(args.out, cfg, env_vars)
    env = _env_from(cfg, kind=args.env, weather=args.weather, days=args.days)
    if args.controller == "rule":
        kind = env.config.kind
        policy = lambda obs: rule_controller(obs, kind)
        policy.__name__ = "rule"
    elif args.controller.startswith("ckpt:"):
        policy = args.controller.split(":", 1)[1]
        if not Path(policy).exists():
            raise DataError(f"checkpoint {policy} not found")
    else:
        raise UsageError("--controller must be 'rule' or 'ckpt:PATH'")
    fp = config_fingerprint(cfg)
    reports = evaluate_policy(policy, env, seeds=(args.seed,), out_dir=out)
    _write_json(out / "report.json", {
        "run_fingerprint": fp,
        "reports": [r.to_jsonable() for r in reports]})
    _audit(out, argv, "simulate", fp, [args.seed], t0)
    rep = reports[0]
    print(f"simulate: {out} avg_reward={rep.avg_reward:.4f} "
          f"violation={rep.violation:.4f} avg_power_kw={rep.avg_power_kw:.2f}")
    return 0


def cmd_collect(args, cfg: dict, argv, env_vars) -> int:
    t0 = time.perf_counter()
    data = dict(cfg["data"])
    for key in ("epsilon", "sigma", "steps"):
        flag = getattr(args, key)
        if flag is not None:
            data[key] = flag
    if args.expert:
        data["expert"] = args.expert
    scenario = args.scenario or data["scenario"]
    seed = cfg["seed"]
    out = Path(env_vars.get(ENV_OUT_DIR) or "") / args.out
    env = _env_from(cfg, days=data["days"])
    if scenario == "final-buffer":
        ds, _ = collect_final_buffer(env, data["algo"],
                                     total_steps=int(data["steps"]),
                                     noise=data["sigma"], seed=seed)
    else:
        if not data["expert"]:
            raise UsageError("trained scenario needs --expert PATH")
        if not Path(data["expert"]).exists():
            raise DataError(f"expert checkpoint {data['expert']} not found")
        ds = collect_trained(env, data["expert"],
                             total_steps=int(data["steps"]),
                             epsilon=data["epsilon"], sigma=data["sigma"],
                             seed=seed)
    fp = config_fingerprint(cfg)
    ds.metadata["run_fingerprint"] = fp
    write_dataset(ds, out)
    _audit(out.parent, argv, "collect", fp, [seed], t0)
    print(f"collect: {out} transitions={len(ds)} "
          f"episodes={ds.num_episodes} fingerprint={ds.fingerprint()}")
    return 0


def cmd_train(args, cfg: dict, argv, env_vars) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args.out, cfg, env_vars)
    block = dict(cfg["agent"])
    if args.algo:
        block["algo"] = args.algo
    if args.history is not None:
        block["history"] = args.history == "on"
        if args.history == "off" and args.seq_len is None:
            block["seq_len"] = 1
    if args.seq_len is not None:
        if args.seq_len > 1 and not block["history"]:
            raise UsageError("--seq-len above 1 requires --history on")
        block["seq_len"] = args.seq_len
    acfg = AgentConfig(**block)
    ds = read_dataset(args.data)
    view = ds.view()
    agent = make_agent(acfg, view.obs_dim, view.act_dim)
    fp = config_fingerprint(cfg)
    summary = train_offline(agent, view,
                            checkpoint_dir=out / "checkpoints",
                            log_path=out / "train_log.jsonl")
    final = out / "agent.ckpt"
    agent.save(final, epoch=len(summary.records),
               step=acfg.train_steps,
               extra_meta={"dataset_fingerprint": ds.fingerprint(),
                           "run_fingerprint": fp})
    _write_json(out / "summary.json", {
        "run_fingerprint": fp,
        "dataset_fingerprint": ds.fingerprint(),
        "algo": acfg.algo,
        "train_steps": acfg.train_steps,
        "epochs": len(summary.records),
        "checkpoint": final.name,
        "final_losses": summary.records[-1]["losses"] if summary.records
        else {}})
    _audit(out, argv, "train", fp, [acfg.seed], t0)
    print(f"train: {final} algo={acfg.algo} epochs={len(summary.records)}")
    return 0


def cmd_eval(args, cfg: dict, argv, env_vars) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    t0 = time.perf_counter()
    out = _out_dir(args.out, cfg, env_vars)
    if not Path(args.ckpt).exists():
        raise DataError(f"checkpoint {args.ckpt} not found")
    env = _env_from(cfg, kind=args.env, weather=args.weather, days=args.days)
    fp = config_fingerprint(cfg)
    seeds = list(range(args.seeds))
    reports = evaluate_policy(args.ckpt, env, seeds=seeds, out_dir=out)
    _write_json(out / "report.json", {
        "run_fingerprint": fp,
        "median": _median_summary(reports),
        "reports": [r.to_jsonable() for r in reports]})
    _audit(out, argv, "eval", fp, seeds, t0)
    med = _median_summary(reports)
    print(f"eval: {out} seeds={args.seeds} "
          f"median avg_reward={med['avg_reward']:.4f} "
          f"violation={med['violation']:.4f}")
    return 0


def cmd_sweep(args, cfg: dict, argv, env_vars) -> int:
    t0 = time.perf_counter()
    overrides = {}
    out_flag = env_vars.get(ENV_OUT_DIR) or args.out
    if out_flag:
        overrides["out_dir"] = out_flag
    jobs = args.jobs if args.jobs is not None else cfg["harness"]["jobs"]
    cap = env_vars.get(ENV_MAX_JOBS)
    if cap is not None:
        jobs = min(jobs, int(cap))
    overrides["jobs"] = max(jobs, 1)
    hcfg = HarnessConfig.from_jsonable(cfg["harness"], **overrides)
    fp = config_fingerprint(cfg)
    result = RQ_RUNNERS[args.rq](hcfg)
    _audit(Path(hcfg.out_dir), argv, "sweep", fp,
           list(range(hcfg.seeds)), t0)
    print(f"sweep: rq{args.rq} cells={len(result.cells)} "
          f"summary={result.summary_path}")
    return 0


def cmd_regret(args, cfg: dict, argv, env_vars) -> int:
    t0 = time.perf_counter()
    out = Path(env_vars.get(ENV_OUT_DIR) or "") / args.out
    if not Path(args.expert).exists():
        raise DataError(f"expert checkpoint {args.expert} not found")
    ds = read_dataset(args.data)
    expert, _ = load_agent(args.expert)
    env = BuildingEnv(EnvConfig(kind=ds.env_kind, days=ds.days))
    report = build_quality_report(ds, expert, env)
    fp = config_fingerprint(cfg)
    _write_json(out, {"run_fingerprint": fp,
                      "dataset_fingerprint": ds.fingerprint(),
                      **report.to_jsonable()})
    _audit(out.parent, argv, "regret", fp, [], t0)
    print(f"regret: {out} episodes={len(report.deltas)} "
          f"mean_delta={report.mean:.6f}")
    return 0


def cmd_report(args, cfg: dict, argv, env_vars) -> int:
    root = _out_dir(args.results, cfg, env_vars)
    path = root / f"rq{args.rq}" / "summary.csv"
    if not path.exists():
        raise DataError(f"no summary at {path}; run the sweep first")
    text = path.read_text().splitlines()
    if not text:
        print(f"report: rq{args.rq} is empty (zero-seed grid)")
        return 0
    rows = list(csv.DictReader(text))
    cols = ["cell", "seed", "best_epoch", "avg_reward", "violation",
            "avg_power_kw"]
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) for c in cols))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hvacrl",
        description="Train and evaluate HVAC controllers on surrogate "
                    "building simulators.")
    p.add_argument("--config", metavar="FILE.json",
                   help="JSON overrides merged over the embedded defaults")
    p.add_argument("--print-config", action="store_true",
                   help="dump the effective configuration as JSON and exit")
    sub = p.add_subparsers(dest="subcommand")

    s = sub.add_parser("simulate", help="roll one controller episode")
    s.add_argument("--env", choices=("dc", "mu"))
    s.add_argument("--controller", default="rule",
                   help="'rule' or 'ckpt:PATH'")
    s.add_argument("--weather", help="preset:NAME or csv:PATH")
    s.add_argument("--days", type=float)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, metavar="DIR")

    c = sub.add_parser("collect", help="generate a transition dataset")
    c.add_argument("--scenario", choices=("final-buffer", "trained"))
    c.add_argument("--epsilon", type=float)
    c.add_argument("--sigma", type=float)
    c.add_argument("--steps", type=int)
    c.add_argument("--expert", metavar="PATH")
    c.add_argument("--out", required=True, metavar="FILE.hvds")

    t = sub.add_parser("train", help="train an agent offline on a dataset")
    t.add_argument("--algo", choices=("td3", "sac", "td3bc", "cql"))
    t.add_argument("--data", required=True, metavar="FILE.hvds")
    t.add_argument("--history", choices=("on", "off"))
    t.add_argument("--seq-len", type=int, dest="seq_len")
    t.add_argument("--out", required=True, metavar="DIR")

    e = sub.add_parser("eval", help="evaluate a checkpoint deterministically")
    e.add_argument("--ckpt", required=True, metavar="PATH")
    e.add_argument("--env", choices=("dc", "mu"))
    e.add_argument("--weather", help="preset:NAME or csv:PATH")
    e.add_argument("--days", type=float)
    e.add_argument("--seeds", type=int, default=1, metavar="K")
    e.add_argument("--out", required=True, metavar="DIR")

    w = sub.add_parser("sweep", help="run one research-question grid")
    w.add_argument("--rq", required=True, choices=tuple(RQ_RUNNERS))
    w.add_argument("--jobs", type=int)
    w.add_argument("--out", metavar="DIR")

    r = sub.add_parser("regret", help="score a dataset against its expert")
    r.add_argument("--data", required=True, metavar="FILE.hvds")
    r.add_argument("--expert", required=True, metavar="PATH")
    r.add_argument("--out", default="quality.json", metavar="FILE.json")

    q = sub.add_parser("report", help="print a sweep summary table")
    q.add_argument("--rq", required=True, choices=tuple(RQ_RUNNERS))
    q.add_argument("--results", metavar="DIR")
    return p


COMMANDS = {
    "simulate": cmd_simulate,
    "collect": cmd_collect,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "regret": cmd_regret,
    "report": cmd_report,
}


def main(argv=None, env_vars=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    env_vars = dict(os.environ) if env_vars is None else env_vars
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = load_config(args.config)
        if args.print_config:
            print(canonical_json({**cfg,
                                  "fingerprint": config_fingerprint(cfg)}))
            return 0
        if not args.subcommand:
            parser.print_usage(sys.stderr)
            print("hvacrl: error: a subcommand is required", file=sys.stderr)
            return 2
        return COMMANDS[args.subcommand](args, cfg, argv, env_vars)
    except HvacrlError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:                                # noqa: BLE001
        print(f"InternalError: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
