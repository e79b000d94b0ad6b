"""Dataset collection, the column container, regret scoring, subsampling."""
import hashlib

import numpy as np
import pytest

from hvacrl import datagen as dg
from hvacrl.agents import AgentConfig, PolicyController, make_agent
from hvacrl.buildsim import BUILDINGS, BuildingEnv, EnvConfig, run_episode
from hvacrl.envcore import normalize_obs
from hvacrl.errors import DataError, SimulationFault, UsageError
from hvacrl.fingerprint import canonical_json

from container_cases import ContainerCases, rewrite_header


def dc_env(days=1.0):
    return BuildingEnv(EnvConfig(kind="dc", days=days))


def frozen_expert(env, seed=1, algo="td3"):
    cfg = AgentConfig(algo=algo, seed=seed)
    return make_agent(cfg, env.obs_spec.size, env.act_spec.size)


def nan_on_first_call(agent, row=1):
    """Make ``agent``'s first `policy_action` emit NaN in ``row``: with
    three lockstep episodes, the second one faults on its first step."""
    policy_action = agent.policy_action
    first = [True]

    def patched(windows, counts, deterministic=True):
        act = policy_action(windows, counts, deterministic)
        if first:
            first.clear()
            act[row] = np.nan
        return act

    agent.policy_action = patched
    return agent


def synthetic_dataset(n=600, ep_len=100, obs_dim=4, act_dim=2, seed=0):
    """Hand-built dataset (no simulator) for container and slicing tests."""
    rng = np.random.default_rng(seed)
    starts = np.arange(0, n, ep_len)
    terminals = np.zeros(n, dtype=bool)
    terminals[np.concatenate([starts[1:] - 1, [n - 1]])] = True
    return dg.Dataset(
        env_kind="dc", days=ep_len / 144.0, horizon=ep_len,
        obs_spec_fingerprint="obs-test", act_spec_fingerprint="act-test",
        obs_lows=[0.0] * obs_dim, obs_highs=[1.0] * obs_dim,
        act_lows=[-1.0] * act_dim, act_highs=[1.0] * act_dim,
        episode_starts=starts,
        metadata={"scenario": "synthetic", "seed": seed,
                  "weather_preset": f"w{seed}",
                  "weather_presets": [f"w{seed}"] * len(starts)},
        obs=rng.random((n, obs_dim), dtype=np.float32),
        actions=rng.uniform(-1, 1, (n, act_dim)).astype(np.float32),
        rewards=rng.normal(size=n).astype(np.float32),
        terminals=terminals)


class TestCollection:
    def test_total_equal_to_horizon_gives_one_episode(self):
        env = dc_env()
        expert = frozen_expert(env)
        ds = dg.collect_trained(env, expert, total_steps=env.horizon,
                                epsilon=0.0, seed=5)
        assert len(ds) == env.horizon
        assert ds.num_episodes == 1
        assert list(ds.episode_starts) == [0]
        assert ds.terminals[-1] and not ds.terminals[:-1].any()

    def test_final_buffer_total_equal_to_horizon(self):
        env = dc_env()
        ds, _ = dg.collect_final_buffer(env, "td3", total_steps=env.horizon,
                                        seed=3)
        assert len(ds) == env.horizon
        assert ds.num_episodes == 1
        assert ds.metadata["dropped_tail_steps"] == 0

    def test_actions_stay_in_normalized_range(self):
        env = dc_env()
        expert = frozen_expert(env)
        ds = dg.collect_trained(env, expert, total_steps=200, epsilon=0.5,
                                sigma=0.8, seed=2)
        assert ds.actions.min() >= -1.0 and ds.actions.max() <= 1.0
        ds2, _ = dg.collect_final_buffer(env, "td3", total_steps=200, seed=2)
        assert ds2.actions.min() >= -1.0 and ds2.actions.max() <= 1.0

    def test_boundaries_align_with_terminals(self):
        env = dc_env()
        expert = frozen_expert(env)
        ds = dg.collect_trained(env, expert, total_steps=300, seed=4)
        ends = np.concatenate([ds.episode_starts[1:] - 1, [len(ds) - 1]])
        assert ds.terminals[ends].all()
        assert ds.terminals.sum() == len(ends)

    def test_final_buffer_drops_unfinished_tail(self):
        env = dc_env()
        # 300 steps = 2 full days + 12 orphan steps of day 3
        ds, _ = dg.collect_final_buffer(env, "td3", total_steps=300, seed=3)
        assert len(ds) == 288
        assert ds.metadata["dropped_tail_steps"] == 12
        assert ds.terminals[-1]

    def test_epsilon_zero_is_reproducible_and_noise_free(self):
        env = dc_env()
        expert = frozen_expert(env)
        a = dg.collect_trained(env, expert, total_steps=144, epsilon=0.0,
                               sigma=0.5, seed=9)
        b = dg.collect_trained(env, expert, total_steps=144, epsilon=0.0,
                               sigma=2.0, seed=9)
        # sigma is irrelevant when no step is perturbed
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert a.metadata["noisy_steps"] == 0
        # and identical arguments give an identical container
        c = dg.collect_trained(env, expert, total_steps=144, epsilon=0.0,
                               sigma=0.5, seed=9)
        assert c.fingerprint() == a.fingerprint()
        # and the rollout matches the plain controller episode bit for bit
        ep_env = env.variant(weather="chicago")
        controller = PolicyController(expert, ep_env.obs_spec, ep_env.act_spec)
        [traj] = run_episode([(ep_env, 9 * 100_003)], controller)
        obs_n = [normalize_obs(o, ep_env.obs_spec) for o in traj.obs[:-1]]
        assert np.array_equal(a.obs, np.asarray(obs_n, dtype=np.float32))
        assert np.array_equal(a.rewards, traj.rewards.astype(np.float32))

    @pytest.mark.parametrize("scenario", ["final_buffer", "trained"])
    def test_recorded_resets_reproduce_episode_starts(self, scenario):
        env = dc_env(days=0.25)
        if scenario == "trained":
            ds = dg.collect_trained(env, frozen_expert(env),
                                    total_steps=3 * env.horizon,
                                    epsilon=0.5, seed=4)
        else:
            # three whole episodes plus an unfinished tail that is dropped
            ds, _ = dg.collect_final_buffer(
                env, "td3", total_steps=3 * env.horizon + 5, seed=4)
        md = ds.metadata
        assert ds.num_episodes == 3
        assert len(md["reset_seeds"]) == len(md["weather_presets"]) == 3
        make_env, _ = dg.preset_rotation(env)
        for i in range(ds.num_episodes):
            ep_env = make_env(i)
            assert ep_env.config.weather == \
                f"preset:{md['weather_presets'][i]}"
            first = normalize_obs(ep_env.reset(seed=md["reset_seeds"][i]),
                                  ep_env.obs_spec)
            assert np.array_equal(ds.obs[ds.episode_starts[i]],
                                  first.astype(np.float32))

    def test_perturbed_fraction_matches_epsilon(self):
        rng = np.random.default_rng(11)
        noise = dg.perturbations(rng, 100_000, 2, 0.1, 0.2)
        hits = sum(d is not None for d in noise)
        # binomial: mean 10000, sigma ~95, 3 sigma ~285
        assert abs(hits - 10_000) < 300

    def test_collection_records_noise_metadata(self):
        env = dc_env()
        expert = frozen_expert(env)
        ds = dg.collect_trained(env, expert, total_steps=288, epsilon=0.3,
                                sigma=0.2, seed=7)
        md = ds.metadata
        assert md["scenario"] == "trained"
        assert md["epsilon"] == 0.3 and md["sigma"] == 0.2
        assert md["policy_fingerprint"] == expert.fingerprint()
        assert md["seed"] == 7
        # 3 sigma of Binomial(288, 0.3) is about 23 around 86
        assert 60 <= md["noisy_steps"] <= 112
        assert len(md["weather_presets"]) == ds.num_episodes
        assert set(md["weather_presets"]) <= set(BUILDINGS["dc"].train_presets)

    def test_final_buffer_metadata_and_rotation(self):
        env = dc_env()
        ds, agent = dg.collect_final_buffer(env, "td3", total_steps=3 * 144,
                                            noise=0.2, seed=6)
        md = ds.metadata
        assert md["scenario"] == "final_buffer"
        assert md["sigma"] == 0.2
        assert md["policy_fingerprint"] == agent.fingerprint()
        assert md["weather_presets"] == list(BUILDINGS["dc"].train_presets)[:3]

    def test_final_buffer_rejects_offline_algos(self):
        env = dc_env()
        with pytest.raises(UsageError):
            dg.collect_final_buffer(env, "cql", total_steps=100)

    def test_expert_dim_mismatch_rejected(self):
        env = dc_env()
        bad = make_agent(AgentConfig(algo="td3"), 3, 2)
        with pytest.raises(Exception) as e:
            dg.collect_trained(env, bad, total_steps=10)
        assert "dims" in str(e.value)

    # sha256 of the HVDS file that a history SAC expert (L=4) collects over
    # three quarter-day episodes with perturbed steps, and of the canonical
    # JSON of its quality report; windows are partial at every episode start
    TRAINED_HVDS = \
        "28fe0b983715460033e98b93a80f1c47567538888f75f4287743134bbddb46a1"
    TRAINED_QUALITY = \
        "dccdd1d3a4a2cfa10a99b9d8db6316e86bf8ac68de6fae45f52a07081c0d6aed"

    def test_history_expert_dataset_and_report_bytes_are_pinned(
            self, tmp_path):
        env = dc_env(days=0.25)
        expert = make_agent(AgentConfig(
            algo="sac", history=True, seq_len=4, enc_feat=16, enc_heads=2,
            enc_hidden=24, hidden=32, seed=3), env.obs_spec.size,
            env.act_spec.size)
        # one step past two episodes, so a third is collected whole
        ds = dg.collect_trained(env, expert, total_steps=2 * env.horizon + 1,
                                epsilon=0.3, sigma=0.2, seed=5)
        assert ds.num_episodes == 3 and 0 < ds.metadata["noisy_steps"]
        path = tmp_path / "trained.hvds"
        dg.write_dataset(ds, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            self.TRAINED_HVDS
        report = dg.build_quality_report(ds, expert, env)
        assert hashlib.sha256(canonical_json(report.to_jsonable()).encode()
                              ).hexdigest() == self.TRAINED_QUALITY

    def test_faulted_episode_fails_the_collection(self):
        env = dc_env(days=0.25)
        expert = nan_on_first_call(frozen_expert(env))
        with pytest.raises(SimulationFault, match="non-finite"):
            dg.collect_trained(env, expert, total_steps=3 * env.horizon,
                               epsilon=0.0, seed=1)

    def test_final_buffer_covers_more_state_space(self):
        # exploration-heavy learning traffic visits more (dim, decile)
        # cells than a frozen deterministic controller with sparse noise
        env = dc_env()
        ds_fb, _ = dg.collect_final_buffer(env, "td3", total_steps=1440,
                                           noise=0.3, seed=0)
        expert = frozen_expert(env, seed=0)
        ds_tr = dg.collect_trained(env, expert, total_steps=1440,
                                   epsilon=0.1, sigma=0.1, seed=0)
        fb = dg.coverage_cells(ds_fb.obs)
        tr = dg.coverage_cells(ds_tr.obs)
        assert fb > tr, (fb, tr)


class TestRegret:
    def test_ratio_arithmetic(self):
        rv = dg.regret_ratio(400.0, 500.0)
        assert rv.value == pytest.approx(0.2)
        assert not rv.flagged

    def test_ratio_is_antitone_in_return(self):
        r_opt = 500.0
        values = [dg.regret_ratio(r, r_opt).value
                  for r in (100.0, 250.0, 400.0, 500.0, 600.0)]
        assert values == sorted(values, reverse=True)
        assert values[3] == pytest.approx(0.0)

    def test_negative_reference_uses_sign_safe_form_and_flags(self):
        rv = dg.regret_ratio(-600.0, -500.0)
        assert rv.flagged
        assert rv.value == pytest.approx(0.2)
        # still antitone and zero at the reference
        assert dg.regret_ratio(-500.0, -500.0).value == pytest.approx(0.0)
        assert dg.regret_ratio(-400.0, -500.0).value < 0.0

    def test_zero_reference_is_an_error(self):
        with pytest.raises(DataError):
            dg.regret_ratio(1.0, 0.0)

    def test_quality_report_reference_scores_zero(self):
        env = dc_env()
        expert = frozen_expert(env, seed=2)
        seed = 9
        ds = dg.collect_trained(env, expert, total_steps=144, epsilon=0.0,
                                seed=seed)
        # the dataset records its reset seeds, so each reference rollout
        # repeats its episode's reset
        rep = dg.build_quality_report(ds, expert, env)
        assert abs(rep.deltas[0]) < 1e-5
        stats = dg.delta_stats(rep.deltas)
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_faulted_reference_rollout_is_a_data_error(self):
        env = dc_env(days=0.25)
        expert = nan_on_first_call(frozen_expert(env, seed=2))
        with pytest.raises(DataError, match="simulator fault"):
            dg.expert_reference_return(env, expert, ["chicago", "tampa", ""],
                                       env.config.days, [1, 2, 3])

    def test_quality_report_groups_by_preset(self):
        env = dc_env()
        expert = frozen_expert(env, seed=2)
        ds = dg.collect_trained(env, expert, total_steps=3 * 144,
                                epsilon=0.2, sigma=0.3, seed=1)
        rep = dg.build_quality_report(ds, expert, env)
        assert set(rep.groups) == set(ds.metadata["weather_presets"])
        assert sum(len(g.deltas) for g in rep.groups.values()) \
            == ds.num_episodes
        for g in rep.groups.values():
            stats = dg.delta_stats(g.deltas)
            assert stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["variance"] >= 0.0
        j = rep.to_jsonable()
        assert set(j) >= {"deltas", "groups", "min", "max", "mean",
                          "variance"}

    def test_noisier_data_spreads_regret(self):
        # perturbing the behavior policy moves returns away from the
        # reference; the regret distribution widens
        env = dc_env()
        expert = frozen_expert(env, seed=2)
        clean = dg.collect_trained(env, expert, total_steps=288,
                                   epsilon=0.0, seed=3)
        noisy = dg.collect_trained(env, expert, total_steps=288,
                                   epsilon=0.8, sigma=0.6, seed=3)
        rep_c = dg.build_quality_report(clean, expert, env)
        rep_n = dg.build_quality_report(noisy, expert, env)
        assert dg.delta_stats(rep_n.deltas)["variance"] \
            > dg.delta_stats(rep_c.deltas)["variance"]
        assert max(map(abs, rep_n.deltas)) > max(map(abs, rep_c.deltas))


class TestSubsample:
    def test_full_target_returns_identical_columns(self):
        ds = synthetic_dataset()
        sub = dg.subsample(ds, target=len(ds), seed=5)
        assert np.array_equal(sub.obs, ds.obs)
        assert np.array_equal(sub.actions, ds.actions)
        assert np.array_equal(sub.rewards, ds.rewards)
        assert np.array_equal(sub.terminals, ds.terminals)
        assert np.array_equal(sub.episode_starts, ds.episode_starts)

    def test_whole_episodes_with_original_ordering(self):
        ds = synthetic_dataset(n=1000, ep_len=100)
        sub = dg.subsample(ds, target=250, seed=0)
        assert sub.num_episodes == 3          # ceil(250 / 100) whole episodes
        assert len(sub) == 300
        # every selected episode appears intact, in dataset order
        starts = [int(s) for s in sub.episode_starts]
        assert starts == [0, 100, 200]
        matched = []
        for i in range(sub.num_episodes):
            block = sub.obs[sub.episode_slice(i)]
            hits = [j for j in range(ds.num_episodes)
                    if np.array_equal(block, ds.obs[ds.episode_slice(j)])]
            assert len(hits) == 1
            matched.append(hits[0])
        assert matched == sorted(matched)

    def test_seed_changes_selection(self):
        ds = synthetic_dataset(n=1000, ep_len=100)
        a = dg.subsample(ds, target=100, seed=0)
        b = dg.subsample(ds, target=100, seed=1)
        assert not np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.obs,
                              dg.subsample(ds, target=100, seed=0).obs)

    def test_records_parent_fingerprint(self):
        ds = synthetic_dataset()
        sub = dg.subsample(ds, target=150, seed=2)
        assert sub.metadata["parent_fingerprint"] == ds.fingerprint()
        assert sub.metadata["subsample_target"] == 150

    def test_target_above_size_rejected(self):
        ds = synthetic_dataset()
        with pytest.raises(UsageError):
            dg.subsample(ds, target=len(ds) + 1)
        with pytest.raises(UsageError):
            dg.subsample(ds, target=0)

    def test_keeps_per_episode_lists_aligned_and_adds_none(self):
        ds = synthetic_dataset(n=1000, ep_len=100)
        ds.metadata["weather_presets"] = [f"w{i}" for i in range(10)]
        ds.metadata["reset_seeds"] = list(range(100, 110))
        sub = dg.subsample(ds, target=250, seed=0)
        picked = [seed - 100 for seed in sub.metadata["reset_seeds"]]
        assert sub.metadata["weather_presets"] == [f"w{i}" for i in picked]
        for i, j in enumerate(picked):
            assert np.array_equal(sub.obs[sub.episode_slice(i)],
                                  ds.obs[ds.episode_slice(j)])
        # a list the parent lacks stays absent
        bare = dg.subsample(synthetic_dataset(), target=150, seed=3)
        assert "reset_seeds" not in bare.metadata
        assert len(bare.metadata["weather_presets"]) == bare.num_episodes

    def test_result_validates_and_feeds_replay(self):
        ds = synthetic_dataset()
        sub = dg.subsample(ds, target=150, seed=3)
        sub.validate()
        batch = sub.sample_batch(16, 4, np.random.default_rng(0))
        assert batch.windows.shape == (16, 4, ds.obs.shape[1])


class DatasetFormat:
    """HVDS datasets, written by `write_dataset`, read by `read_dataset`."""

    magic = dg.MAGIC

    def save(self, path):
        ds = synthetic_dataset()
        dg.write_dataset(ds, path)
        return ds.header_dict(), dict(ds.columns())

    def load(self, path):
        ds = dg.read_dataset(path)
        return ds.header_dict(), dict(ds.columns())

    def resave(self, src, dst):
        dg.write_dataset(dg.read_dataset(src), dst)

    def verify(self, path):
        dg.verify_dataset(path)


def golden_dataset():
    """Two three-step episodes with exact binary values, built by hand."""
    return dg.Dataset(
        env_kind="dc", days=3 / 144, horizon=3,
        obs_spec_fingerprint="obs-golden", act_spec_fingerprint="act-golden",
        obs_lows=[0.0, 0.0], obs_highs=[1.0, 1.0],
        act_lows=[-1.0], act_highs=[1.0],
        episode_starts=[0, 3],
        metadata={"scenario": "golden", "weather_presets": ["a", "b"],
                  "reset_seeds": [1, 2]},
        obs=np.arange(12, dtype=np.float32).reshape(6, 2) / 16,
        actions=np.linspace(-1, 1, 6, dtype=np.float32).reshape(6, 1),
        rewards=np.array([-0.5, 0.25, 1.0, -2.0, 0.125, 3.0],
                         dtype=np.float32),
        terminals=[False, False, True, False, False, True])


#: one wrongly typed value per kind of dataset header field
MISTYPED_HEADER_FIELDS = [("episode_starts", ["x"]), ("horizon", "abc"),
                          ("days", [1]), ("metadata", 5), ("env_kind", 7),
                          ("obs_lows", "zz")]


class TestContainer(ContainerCases):
    fmt = DatasetFormat()

    def test_golden_file_bytes(self, tmp_path):
        # pins the HVDS0001 layout: a change here is a format change
        path = tmp_path / "golden.hvds"
        dg.write_dataset(golden_dataset(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "996a223c03f960c4108e9828d86b43d4a67170ea65490050670ad80d47632809"

    @pytest.mark.parametrize("edit", [
        lambda h: {**h, "collected_by": "someone"},
        lambda h: {k: v for k, v in h.items() if k != "horizon"},
        lambda h: {k: v for k, v in h.items() if k != "episode_starts"},
    ], ids=["unknown", "missing", "missing-starts"])
    def test_bad_header_fields_are_data_errors(self, tmp_path, edit):
        path = tmp_path / "a.hvds"
        dg.write_dataset(golden_dataset(), path)
        rewrite_header(path, edit)
        with pytest.raises(DataError, match="collected_by|horizon|starts"):
            dg.read_dataset(path)

    @pytest.mark.parametrize("field,value", MISTYPED_HEADER_FIELDS)
    def test_mistyped_header_fields_are_data_errors(self, tmp_path, field,
                                                    value):
        path = tmp_path / "a.hvds"
        dg.write_dataset(golden_dataset(), path)
        rewrite_header(path, lambda h: {**h, field: value})
        with pytest.raises(DataError, match=field):
            dg.read_dataset(path)


class TestValidation:
    def test_interior_terminal_rejected(self):
        ds = synthetic_dataset()
        ds.terminals[5] = True
        with pytest.raises(DataError):
            ds.validate()

    def test_missing_final_terminal_rejected(self):
        ds = synthetic_dataset()
        ds.terminals[-1] = False
        with pytest.raises(DataError):
            ds.validate()

    def test_out_of_range_actions_rejected(self):
        ds = synthetic_dataset()
        ds.actions[3, 0] = 1.5
        with pytest.raises(DataError):
            ds.validate()

    def test_bad_boundaries_rejected(self):
        ds = synthetic_dataset()
        ds.episode_starts = np.array([5, 100, 200, 300, 400, 500])
        with pytest.raises(DataError):
            ds.validate()

    def test_non_finite_rewards_rejected(self):
        ds = synthetic_dataset()
        ds.rewards[0] = np.nan
        with pytest.raises(DataError):
            ds.validate()

    def test_checked_on_construction(self):
        ds = synthetic_dataset()
        terminals = ds.terminals.copy()
        terminals[5] = True
        with pytest.raises(DataError):
            dg.Dataset(ds.obs, ds.actions, ds.rewards, terminals,
                       **{**ds.header_dict(),
                          "episode_starts": ds.episode_starts})
