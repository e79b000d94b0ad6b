"""Outside-in tracing of the hvacrl layers.

The program has no spans of its own yet, so the traced run wraps the
public functions of each module where their callers look them up (the
importing module's namespace, a class attribute, or a dispatch table) and
restores the originals afterwards. Each wrapper records one span: its
inclusive duration, and its self time, which is the duration minus the
part covered by traced calls made inside it. Spans stay in memory; the
per-layer metrics are derived from them when the run ends.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

from hvacrl import buildsim, cli, datagen, envcore, evalharness
from hvacrl.agents.core import Agent, SACAgent, TD3Agent
from hvacrl.agents.replay import ReplayBuffer, ReplayView
from hvacrl.errors import DivergenceError, SimulationFault
from hvacrl.neuralsub import tensor
from hvacrl.neuralsub.optim import Adam

# candidate tail percentiles, highest first; a tail is reported at the
# highest one that leaves at least TAIL_SAMPLES samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_SAMPLES = 10


class Tracer:
    """In-memory spans and counters for one traced stretch of work."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._children: list[float] = []   # traced child time per open span

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, prefix: str) -> int:
        return sum(len(v) for k, v in self.durations.items()
                   if _under(k, prefix))

    def span(self, name, fn, errors=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's positional
        arguments. ``errors`` maps an exception type to a counter bumped
        when the call raises it; the exception still propagates.
        """
        errors = errors or {}

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except tuple(errors) as exc:
                for kind, counter in errors.items():
                    if isinstance(exc, kind):
                        self.count(counter)
                raise
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dt
                self.durations.setdefault(label, []).append(dt)
                self.self_s[label] = self.self_s.get(label, 0.0) + dt - child
        traced.__wrapped__ = fn
        return traced


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


@contextmanager
def installed(tracer: Tracer):
    """Route every traced entry point through ``tracer`` while active."""
    undo = []

    def patch(owners, attr, name, inner=None, errors=None):
        for owner in owners if isinstance(owners, tuple) else (owners,):
            table = owner if isinstance(owner, dict) else owner.__dict__
            original = table[attr]
            fn = inner(original) if inner else original
            _assign(owner, attr, tracer.span(name, fn, errors))
            undo.append((owner, attr, original))

    def then(hook):
        """Inner wrapper calling ``hook(args, result)`` after the call."""
        def inner(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(args, result)
                return result
            return wrapped
        return inner

    def counting_collect(fn):
        def wrapped(*args, **kwargs):
            before = tracer.calls("buildsim.step")
            result = fn(*args, **kwargs)
            ds = result[0] if isinstance(result, tuple) else result
            tracer.count("datagen.stepped",
                         tracer.calls("buildsim.step") - before)
            tracer.count("datagen.stored", len(ds))
            return result
        return wrapped

    def counts_bytes(counter):
        return then(lambda a, r: tracer.count(counter, _file_bytes(a[1])))

    # cli: one span per subcommand, looked up in the dispatch table
    for sub in list(cli.COMMANDS):
        patch(cli.COMMANDS, sub, f"cli.{sub}")
    # evalharness
    for rq in list(evalharness.RQ_RUNNERS):
        patch(evalharness.RQ_RUNNERS, rq, "evalharness.run_rq")
    patch((cli, evalharness), "evaluate_policy", "evalharness.evaluate_policy")
    patch(evalharness, "audit_violation_from_csv",
          "evalharness.audit_violation_from_csv")
    # datagen
    patch((cli, evalharness), "collect_trained", "datagen.collect_trained",
          inner=counting_collect)
    patch((cli, evalharness), "collect_final_buffer",
          "datagen.collect_final_buffer", inner=counting_collect)
    patch((cli, evalharness), "build_quality_report",
          "datagen.build_quality_report",
          inner=then(lambda a, r: tracer.count("datagen.scored_episodes",
                                               len(r.deltas))))
    patch(datagen, "expert_reference_return",
          "datagen.expert_reference_return")
    patch((cli, evalharness), "write_dataset", "datagen.write_dataset",
          inner=counts_bytes("datagen.hvds_bytes"))
    patch((cli, evalharness), "read_dataset", "datagen.read_dataset")
    # agents
    patch(Agent, "update",
          lambda a: f"agents.update.{a[0].cfg.algo}"
                    f"{'-hist' if a[0].cfg.history else ''}",
          errors={DivergenceError: "agents.divergences"})
    patch((TD3Agent, SACAgent), "policy_action",
          lambda a: "agents.policy_action."
                    f"{'hist' if a[0].cfg.history else 'flat'}")
    patch(Agent, "save", "agents.save",
          inner=counts_bytes("neuralsub.checkpoint_bytes"))
    patch((cli, evalharness, datagen), "load_agent", "agents.load_agent")
    patch((cli, evalharness), "train_offline", "agents.train_offline")
    patch((evalharness, datagen), "train_online", "agents.train_online")
    patch(ReplayBuffer, "add", "agents.replay.buffer_add")
    patch(ReplayBuffer, "view", "agents.replay.buffer_view")
    patch(ReplayView, "sample_batch", "agents.replay.sample_batch")
    # neuralsub: Tensor.backward resolves the module-level function
    patch(tensor, "backward", "neuralsub.backward")
    patch(Adam, "step", "neuralsub.adam_step")
    # buildsim
    patch(buildsim.BuildingEnv, "step",
          lambda a: f"buildsim.step.{a[0].config.kind}",
          errors={SimulationFault: "buildsim.faults"})
    patch(buildsim.BuildingEnv, "fingerprint", "buildsim.fingerprint")
    patch((evalharness, datagen), "run_episode", "buildsim.run_episode")
    patch(cli, "rule_controller", "buildsim.rule_controller")
    patch(evalharness, "write_trajectory_csv", "buildsim.write_trajectory_csv",
          inner=counts_bytes("buildsim.trajectory_csv_bytes"))
    patch(evalharness, "read_trajectory_csv", "buildsim.read_trajectory_csv")
    # envcore: agents and datagen import these from envcore at call time
    patch(envcore, "normalize_obs", "envcore.normalize_obs")
    patch(envcore, "denormalize_action", "envcore.denormalize_action")
    patch(buildsim, "compute_reward", "envcore.compute_reward")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            _assign(owner, attr, original)


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


class _Pooled:
    """One set-up trace plus the mean of ``n`` traced iterations."""

    def __init__(self, setup: Tracer, runs: Tracer, n: int):
        self.setup, self.runs, self.n = setup, runs, n

    def _sum(self, table_of, prefix, reduce):
        total = 0.0
        for tracer, weight in ((self.setup, 1.0), (self.runs, 1.0 / self.n)):
            total += weight * sum(reduce(v) for k, v in table_of(tracer).items()
                                  if _under(k, prefix))
        return total

    def calls(self, prefix):
        return self._sum(lambda t: t.durations, prefix, len)

    def s(self, prefix):
        return self._sum(lambda t: t.durations, prefix, sum)

    def self_s(self, prefix):
        return self._sum(lambda t: t.self_s, prefix, float)

    def count(self, name):
        return (self.setup.counts.get(name, 0)
                + self.runs.counts.get(name, 0) / self.n)

    def samples(self, prefix):
        return [x for t in (self.setup, self.runs)
                for k, v in t.durations.items() if _under(k, prefix) for x in v]


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with enough samples beyond it; 100 is
    the maximum, used when there are too few samples for any percentile."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            return p
    return 100.0


def _median(xs):
    return float(np.median(xs)) if xs else 0.0


def _tail(xs):
    return float(np.percentile(xs, tail_percentile(len(xs)))) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# per-call timing distributions: (span name or prefix, unit)
DISTRIBUTIONS = [
    *[(f"agents.update.{a}", "ms")
      for a in ("td3", "sac", "td3bc", "cql", "cql-hist")],
    ("agents.policy_action.flat", "us"),
    ("agents.policy_action.hist", "us"),
    ("buildsim.step.dc", "us"),
    ("buildsim.step.mu", "us"),
    ("agents.replay.buffer_add", "us"),
    ("agents.replay.buffer_view", "us"),
    ("agents.replay.sample_batch", "us"),
]
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def layer_metrics(setup: Tracer, runs: Tracer, iterations: int,
                  overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Counts, inclusive seconds (``s``) and self seconds (``self_s``) are per
    unit of work: one set-up plus one iteration of the timed commands.
    Percentiles pool every traced call.
    """
    p = _Pooled(setup, runs, iterations)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for span, unit in DISTRIBUTIONS:
        xs = p.samples(span)
        put(f"{span}.calls", p.calls(span), "count")
        put(f"{span}.{unit}_p50", _median(xs) * SCALE[unit], unit)
        put(f"{span}.{unit}_tail", _tail(xs) * SCALE[unit], unit)
    for span, unit in (("neuralsub.backward", "ms"),
                       ("neuralsub.adam_step", "us"),
                       ("buildsim.rule_controller", "us"),
                       ("envcore.normalize_obs", "us"),
                       ("envcore.denormalize_action", "us"),
                       ("envcore.compute_reward", "us")):
        put(f"{span}.{unit}_p50", _median(p.samples(span)) * SCALE[unit], unit)
    for span in ("neuralsub.backward", "neuralsub.adam_step",
                 "buildsim.fingerprint", "evalharness.evaluate_policy",
                 "datagen.expert_reference_return", "agents.save",
                 "agents.load_agent"):
        put(f"{span}.calls", p.calls(span), "count")
    for span in ("agents.update", "neuralsub.backward", "neuralsub.adam_step",
                 "agents.policy_action", "buildsim.step",
                 "buildsim.run_episode", "buildsim.fingerprint",
                 "evalharness.evaluate_policy", "evalharness.run_rq",
                 "agents.train_offline", "agents.train_online",
                 "datagen.collect_trained", "datagen.collect_final_buffer",
                 "datagen.build_quality_report"):
        put(f"{span}.self_s", p.self_s(span), "s")
    for span in ("buildsim.write_trajectory_csv",
                 "buildsim.read_trajectory_csv",
                 "evalharness.evaluate_policy", "datagen.collect_trained",
                 "datagen.collect_final_buffer", "datagen.build_quality_report",
                 *(f"cli.{c}" for c in ("sweep", "eval", "simulate", "regret",
                                        "collect"))):
        put(f"{span}.s", p.s(span), "s")
    for span in ("datagen.write_dataset", "datagen.read_dataset",
                 "agents.save", "agents.load_agent"):
        put(f"{span}.ms", _median(p.samples(span)) * 1e3, "ms")
    audit = p.s("buildsim.write_trajectory_csv") \
        + p.s("evalharness.audit_violation_from_csv")
    put("evalharness.audit_share",
        _ratio(audit, p.s("evalharness.evaluate_policy")), "ratio")
    put("agents.replay.views_per_sample",
        _ratio(p.calls("agents.replay.buffer_view"),
               p.calls("agents.replay.sample_batch")), "ratio")
    put("datagen.reference_rollouts_per_episode",
        _ratio(p.calls("datagen.expert_reference_return"),
               p.count("datagen.scored_episodes")), "ratio")
    put("datagen.stored_frac",
        _ratio(p.count("datagen.stored"), p.count("datagen.stepped")), "ratio")
    for counter, unit in (("buildsim.trajectory_csv_bytes", "bytes"),
                          ("datagen.hvds_bytes", "bytes"),
                          ("neuralsub.checkpoint_bytes", "bytes"),
                          ("agents.divergences", "count"),
                          ("buildsim.faults", "count")):
        put(counter, p.count(counter), unit)
    put("trace.overhead_frac", overhead_frac, "ratio")
    return out
