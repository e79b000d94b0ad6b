"""Print one sha256 per file that a fixed tiny pipeline writes.

Two checkouts that print the same JSON produce the same bytes for every
dataset, checkpoint, trajectory CSV, quality report and sweep result the
pipeline covers, so a change meant to keep behaviour can be checked with
one diff:

    python3 scripts/artifact_digest.py /tmp/digest-a > a.json
    (cd ../other-checkout && python3 scripts/artifact_digest.py /tmp/digest-b) > b.json
    diff a.json b.json

The pipeline, all on a quarter-day (36-step) ``dc`` environment unless
noted, writes under OUT_DIR, which must not exist or be empty (``-h``
or ``--help`` prints this text instead):

* ``collect_final_buffer`` (TD3, three episodes plus a dropped tail) and
  the trained agent's checkpoint;
* ``evaluate_policy`` of that agent on seeds 0 and 1, which writes one
  trajectory CSV per seed under ``eval/``;
* ``collect_trained`` with that agent as expert (epsilon 0.5, sigma 0.2);
* ``subsample`` of the trained dataset;
* ``build_quality_report`` of the trained dataset against the expert;
* ``RQ_RUNNERS`` "1"-"5" on a tiny `HarnessConfig` (one seed, one job):
  rq1 with all four algorithms (td3, sac, td3bc, cql), rq2 cql/sac, two
  rq3 cells, rq4 sizes 72/360, rq5 L=1,2.

The script imports ``hvacrl`` from the ``src`` directory of its own
checkout. Output is a JSON object mapping each file's path relative to
OUT_DIR to its sha256, keys sorted. Takes a few seconds on a 2-vCPU x86
host.
"""
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hvacrl.buildsim import BuildingEnv, EnvConfig  # noqa: E402
from hvacrl.datagen import (build_quality_report, collect_final_buffer,  # noqa: E402
                            collect_trained, subsample, write_dataset)
from hvacrl.evalharness import (RQ_RUNNERS, HarnessConfig,  # noqa: E402
                                evaluate_policy)

HARNESS = dict(
    seeds=1, eval_seed=5, eval_days=0.25, data_days=0.5, dataset_steps=360,
    train_steps=8, epoch_steps=4, batch_size=16, jobs=1, expert_steps=40,
    expert_seq_len=2, expert_batch=16,
    rq1_algos=("td3", "sac", "td3bc", "cql"),
    rq2_modes=("cql", "sac"), rq2_seq_len=2, rq2_batch=16,
    rq2_online_steps=8,
    rq3_epsilons=(0.0, 0.2), rq3_sigmas=(0.1,), rq3_dataset_steps=144,
    rq3_train_steps=8,
    rq4_sizes=(72, 360),
    rq5_seq_lens=(1, 2), rq5_batch=16, rq5_train_steps=6)


def run_pipeline(out: Path) -> None:
    env = BuildingEnv(EnvConfig(kind="dc", days=0.25))
    final, agent = collect_final_buffer(env, "td3",
                                        total_steps=3 * env.horizon + 5,
                                        seed=1)
    write_dataset(final, out / "final_buffer.hvds")
    agent.save(out / "td3.ckpt", epoch=0, step=3 * env.horizon + 5)
    evaluate_policy(agent, env, seeds=(0, 1), out_dir=out / "eval")
    trained = collect_trained(env, agent, total_steps=3 * env.horizon,
                              epsilon=0.5, sigma=0.2, seed=2)
    write_dataset(trained, out / "trained.hvds")
    write_dataset(subsample(trained, target=env.horizon, seed=3),
                  out / "subsample.hvds")
    quality = build_quality_report(trained, agent, env).to_jsonable()
    (out / "quality.json").write_text(json.dumps(quality, sort_keys=True))
    cfg = HarnessConfig(out_dir=str(out / "results"), **HARNESS)
    for rq in ("1", "2", "3", "4", "5"):
        RQ_RUNNERS[rq](cfg)


def digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"artifact_digest: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    run_pipeline(out)
    print(json.dumps(digests(out), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
