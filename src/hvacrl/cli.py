"""Command-line entry point.

Subcommands: simulate, collect, train, eval, sweep, regret, report. Report
prints a finished sweep's summary table, then the study's claim check on
it (`evalharness.claim_lines`). All configuration lives in one JSON
document whose defaults are embedded here and printable via
--print-config; flags override single values. For each command that
writes files, `main` appends one JSON line to the audit.jsonl of the
directory it wrote, recording the command, the configuration fingerprint,
the seeds used, and the wall duration; `report` writes none.

Exit codes: 0 ok, 2 usage, 3 bad data or fingerprint mismatch,
4 numerical divergence or simulation fault, 5 internal error.
"""
from __future__ import annotations

import argparse
import os
import shlex
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .agents import AgentConfig, load_agent, make_agent, train_offline
from .buildsim import BuildingEnv, EnvConfig, rule_controller
from .container import append_jsonl, read_json, write_json
from .datagen import (Recipe, build_quality_report, delta_stats,
                      read_dataset, write_dataset)
# bench/tracing.py wraps the collectors here as well as in evalharness
from .datagen import collect_final_buffer, collect_trained  # noqa: F401
from .errors import HvacrlError, SpecError, UsageError
from .evalharness import (METRICS, REPORT_COLUMNS, RQ_RUNNERS,
                          HarnessConfig, claim_lines, collect,
                          evaluate_policy, load_sweep)
from .fingerprint import bad_fields, canonical_json, fingerprint, to_jsonable

ENV_OUT_DIR = "HVACRL_OUT_DIR"     # overrides every --out directory
ENV_MAX_JOBS = "HVACRL_MAX_JOBS"   # caps sweep parallelism
#: ``data.scenario`` and ``collect --scenario`` values: their `Recipe` name
SCENARIOS = {"final-buffer": "final_buffer", "trained": "trained"}


# ---------------------------------------------------------------------------
# run configuration: embedded defaults, JSON overrides, fingerprint


def default_config() -> dict:
    """The full default configuration, one block per subsystem."""
    return {
        "environment": to_jsonable(EnvConfig()),
        "agent": to_jsonable(AgentConfig()),
        "data": {                    # a `datagen.Recipe`, seeded by "seed"
            "scenario": "trained",   # final-buffer | trained
            "algo": "td3",           # final-buffer learner: td3 | sac
            "epsilon": 0.1,          # trained: perturbation rate in [0, 1]
            "sigma": 0.1,            # noise scale, >= 0
            "steps": 100_000,        # final buffer: one episode at least
            "days": 1.0,             # collection episode length
            "expert": "",            # trained: the expert checkpoint
        },
        "harness": to_jsonable(HarnessConfig()),
        "seed": 0,
    }


def _merge(defaults, override, path="config"):
    """``override`` over ``defaults``, block by block; a key or type (a
    list's items: its first item's) the defaults lack is a UsageError."""
    kinds = {key: [type(d[0])] if isinstance(d, list) and d else type(d)
             for key, d in defaults.items()}
    bad = bad_fields(override, kinds, optional=True, closed=True)
    if bad:
        raise UsageError(f"config keys {[f'{path}.{k}' for k in bad]} are "
                         f"unknown or of the wrong type")
    return {**defaults, **{
        key: _merge(defaults[key], value, f"{path}.{key}")
        if isinstance(value, dict) else value
        for key, value in override.items()}}


def load_config(path: str | None) -> dict:
    cfg = default_config()
    return _merge(cfg, read_json(path)) if path else cfg


# ---------------------------------------------------------------------------
# small helpers


def _out_dir(flag_value: str, args_env: dict) -> Path:
    return Path(args_env.get(ENV_OUT_DIR) or flag_value)


def _out_file(flag_value: str, args_env: dict) -> Path:
    """A file output: its name inside the `_out_dir` of its directory."""
    path = Path(flag_value)
    return _out_dir(str(path.parent), args_env) / path.name


def _env_from(cfg: dict, kind: str | None = None, weather: str | None = None,
              days: float | None = None) -> BuildingEnv:
    """The config's environment with the command's overrides; a value
    `EnvConfig` rejects, or days under one control step, is a UsageError."""
    block = dict(cfg["environment"])
    if kind:
        block["kind"] = kind
    try:
        env = BuildingEnv(EnvConfig(**block)).variant(weather, days)
    except SpecError as e:
        raise UsageError(str(e)) from None
    if env.horizon < 1:
        raise UsageError(f"days={env.config.days} is under one control step")
    return env


# ---------------------------------------------------------------------------
# subcommands: each returns the (directory, seeds) `main` audits, or None


def cmd_simulate(args, cfg: dict, fp: str, env_vars):
    out = _out_dir(args.out, env_vars)
    env = _env_from(cfg, kind=args.env, weather=args.weather, days=args.days)
    if args.controller == "rule":
        kind = env.config.kind
        policy = lambda obs: rule_controller(obs, kind)
        policy.__name__ = "rule"
    elif args.controller.startswith("ckpt:"):
        policy = args.controller.split(":", 1)[1]
    else:
        raise UsageError("--controller must be 'rule' or 'ckpt:PATH'")
    reports = evaluate_policy(policy, env, seeds=(args.seed,), out_dir=out)
    write_json(out / "report.json", {
        "run_fingerprint": fp,
        "reports": [r.to_jsonable() for r in reports]})
    rep = reports[0]
    print(f"simulate: {out} avg_reward={rep.avg_reward:.4f} "
          f"violation={rep.violation:.4f} avg_power_kw={rep.avg_power_kw:.2f}")
    return out, [args.seed]


def cmd_collect(args, cfg: dict, fp: str, env_vars):
    data = {**cfg["data"], **{k: v for k, v in vars(args).items()
                              if k in cfg["data"] and v is not None}}
    if data["scenario"] not in SCENARIOS:
        raise UsageError(f"data.scenario must be one of {list(SCENARIOS)}, "
                         f"got {data['scenario']!r}")
    recipe = Recipe(SCENARIOS[data["scenario"]], data["steps"],
                    data["epsilon"], data["sigma"], data["algo"], cfg["seed"])
    if recipe.scenario == "trained" and not data["expert"]:
        raise UsageError("trained scenario needs --expert PATH")
    out = _out_file(args.out, env_vars)
    ds = collect(_env_from(cfg, days=data["days"]), recipe, data["expert"])
    ds.metadata["run_fingerprint"] = fp
    write_dataset(ds, out)
    print(f"collect: {out} transitions={len(ds)} "
          f"episodes={ds.num_episodes} fingerprint={ds.fingerprint()}")
    return out.parent, [recipe.seed]


def cmd_train(args, cfg: dict, fp: str, env_vars):
    out = _out_dir(args.out, env_vars)
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
    agent = make_agent(acfg, ds.obs_dim, ds.act_dim)
    summary = train_offline(agent, ds,
                            checkpoint_dir=out / "checkpoints",
                            log_path=out / "train_log.jsonl")
    final = out / "agent.ckpt"
    agent.save(final, epoch=len(summary.records),
               step=acfg.train_steps,
               extra_meta={"dataset_fingerprint": ds.fingerprint(),
                           "run_fingerprint": fp})
    write_json(out / "summary.json", {
        "run_fingerprint": fp,
        "dataset_fingerprint": ds.fingerprint(),
        "algo": acfg.algo,
        "train_steps": acfg.train_steps,
        "epochs": len(summary.records),
        "checkpoint": final.name,
        "final_losses": summary.records[-1]["losses"]})
    print(f"train: {final} algo={acfg.algo} epochs={len(summary.records)}")
    return out, [acfg.seed]


def cmd_eval(args, cfg: dict, fp: str, env_vars):
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    out = _out_dir(args.out, env_vars)
    env = _env_from(cfg, kind=args.env, weather=args.weather, days=args.days)
    seeds = list(range(args.seeds))
    reports = evaluate_policy(args.ckpt, env, seeds=seeds, out_dir=out)
    med = {m: float(np.median([getattr(r, m) for r in reports]))
           for m in METRICS}
    write_json(out / "report.json", {
        "run_fingerprint": fp,
        "median": med,
        "reports": [r.to_jsonable() for r in reports]})
    print(f"eval: {out} seeds={args.seeds} "
          f"median avg_reward={med['avg_reward']:.4f} "
          f"violation={med['violation']:.4f}")
    return out, seeds


def cmd_sweep(args, cfg: dict, fp: str, env_vars):
    jobs = args.jobs if args.jobs is not None else cfg["harness"]["jobs"]
    cap = env_vars.get(ENV_MAX_JOBS)
    if cap is not None:
        try:
            jobs = min(jobs, int(cap))
        except ValueError:
            raise UsageError(f"{ENV_MAX_JOBS} must be an integer, "
                             f"got {cap!r}") from None
    # a jobs count below 1, given or capped, is HarnessConfig's UsageError
    hcfg = HarnessConfig.from_jsonable(cfg["harness"], jobs=jobs, out_dir=str(
        _out_dir(args.out or cfg["harness"]["out_dir"], env_vars)))
    result = RQ_RUNNERS[args.rq](hcfg)
    print(f"sweep: rq{args.rq} cells={len(result.cells)} "
          f"summary={result.summary_path}")
    return Path(hcfg.out_dir), list(range(hcfg.seeds))


def cmd_regret(args, cfg: dict, fp: str, env_vars):
    out = _out_file(args.out, env_vars)
    ds = read_dataset(args.data)
    expert, _ = load_agent(args.expert)
    env = BuildingEnv(EnvConfig(kind=ds.env_kind, days=ds.days))
    report = build_quality_report(ds, expert, env)
    write_json(out, {"run_fingerprint": fp,
                     "dataset_fingerprint": ds.fingerprint(),
                     **report.to_jsonable()})
    print(f"regret: {out} episodes={len(report.deltas)} "
          f"mean_delta={delta_stats(report.deltas)['mean']:.6f}")
    return out.parent, []


def cmd_report(args, cfg: dict, fp: str, env_vars):
    result = load_sweep(
        _out_dir(args.results or cfg["harness"]["out_dir"], env_vars),
        f"rq{args.rq}")
    if not result.cells:
        print(f"report: rq{args.rq} is empty (zero-seed grid)")
        return
    table = [dict(zip(REPORT_COLUMNS, REPORT_COLUMNS)), *result.rows]
    widths = {c: max(len(r[c]) for r in table) for c in REPORT_COLUMNS}
    for r in table:
        print("  ".join(r[c].ljust(widths[c]) for c in REPORT_COLUMNS))
    for line in claim_lines(result):
        print(line)


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
    c.add_argument("--scenario", choices=tuple(SCENARIOS))
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

    q = sub.add_parser("report", help="print a sweep summary table and "
                                      "check the study's claim on it")
    q.add_argument("--rq", required=True, choices=tuple(RQ_RUNNERS))
    q.add_argument("--results", metavar="DIR",
                   help="default: the config's harness.out_dir")
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
        fp = fingerprint(cfg)
        if args.print_config:
            print(canonical_json({**cfg, "fingerprint": fp}))
            return 0
        if not args.subcommand:
            parser.print_usage(sys.stderr)
            print("hvacrl: error: a subcommand is required", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        done = COMMANDS[args.subcommand](args, cfg, fp, env_vars)
        if done is not None:
            out_dir, seeds = done
            append_jsonl(out_dir / "audit.jsonl", {
                "utc": datetime.now(timezone.utc).isoformat(),
                "command": shlex.join(argv),
                "subcommand": args.subcommand,
                "config_fingerprint": fp,
                "seeds": seeds,
                "duration_s": round(time.perf_counter() - t0, 3),
            })
        return 0
    except HvacrlError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:                                # noqa: BLE001
        print(f"InternalError: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
