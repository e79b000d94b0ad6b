"""Dataset collection, the column container, regret scoring, subsampling."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hvacrl import datagen as dg
from hvacrl.agents import AgentConfig, PolicyController, make_agent
from hvacrl.buildsim import TRAIN_PRESETS, BuildingEnv, EnvConfig, run_episode
from hvacrl.errors import DataError, UsageError

from test_networks import respace_header


def dc_env(days=1.0):
    return BuildingEnv(EnvConfig(kind="dc", days=days))


def frozen_expert(env, seed=1, algo="td3"):
    cfg = AgentConfig(algo=algo, seed=seed)
    return make_agent(cfg, env.obs_spec.size, env.act_spec.size)


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
        # and the rollout matches the plain controller episode exactly
        cfg = replace(env.config, weather="preset:chicago")
        ep_env = BuildingEnv(cfg, thermal=env.thermal,
                             reward_params=env.reward_params)
        controller = PolicyController(expert, ep_env.obs_spec, ep_env.act_spec)
        traj = run_episode(ep_env, controller, seed=9 * 100_003)
        assert np.allclose(a.rewards.sum(), traj.rewards.sum(), rtol=1e-5)

    def test_perturbed_fraction_matches_epsilon(self):
        rng = np.random.default_rng(11)
        action = np.zeros(2, dtype=np.float32)
        hits = sum(dg.perturb_action(rng, action, 0.1, 0.2)[1]
                   for _ in range(100_000))
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
        assert set(md["weather_presets"]) <= set(TRAIN_PRESETS["dc"])

    def test_final_buffer_metadata_and_rotation(self):
        env = dc_env()
        ds, agent = dg.collect_final_buffer(env, "td3", total_steps=3 * 144,
                                            noise=0.2, seed=6)
        md = ds.metadata
        assert md["scenario"] == "final_buffer"
        assert md["sigma"] == 0.2
        assert md["policy_fingerprint"] == agent.fingerprint()
        assert md["weather_presets"] == list(TRAIN_PRESETS["dc"])[:3]

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
        # align the reference rollout seed with the dataset's first episode
        rep = dg.build_quality_report(ds, expert, env,
                                      reference_seed=seed * 100_003)
        assert abs(rep.deltas[0]) < 1e-5
        assert rep.minimum <= rep.mean <= rep.maximum

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
            assert g.minimum <= g.mean <= g.maximum
            assert g.variance >= 0.0
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
        assert rep_n.variance > rep_c.variance
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

    def test_result_validates_and_feeds_replay(self):
        ds = synthetic_dataset()
        sub = dg.subsample(ds, target=150, seed=3)
        sub.validate()
        view = sub.view()
        batch = view.sample_batch(16, 4, np.random.default_rng(0))
        assert batch.windows.shape == (16, 4, ds.obs.shape[1])


class TestMerge:
    def test_merge_is_order_independent(self):
        a = synthetic_dataset(seed=0)
        b = synthetic_dataset(seed=1)
        c = synthetic_dataset(seed=2)
        m1 = dg.merge_datasets([a, b, c])
        m2 = dg.merge_datasets([c, a, b])
        assert m1.fingerprint() == m2.fingerprint()
        assert len(m1) == len(a) + len(b) + len(c)
        m1.validate()

    def test_merge_offsets_boundaries(self):
        a = synthetic_dataset(n=200, ep_len=100, seed=0)
        b = synthetic_dataset(n=200, ep_len=100, seed=1)
        m = dg.merge_datasets([a, b])
        assert list(m.episode_starts) == [0, 100, 200, 300]

    def test_merge_rejects_mismatched_specs(self):
        a = synthetic_dataset(seed=0)
        b = synthetic_dataset(seed=1, obs_dim=5)
        b.obs_spec_fingerprint = "other"
        with pytest.raises(DataError):
            dg.merge_datasets([a, b])
        with pytest.raises(UsageError):
            dg.merge_datasets([])


class TestContainer:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        ds = synthetic_dataset()
        p1, p2 = tmp_path / "a.hvds", tmp_path / "b.hvds"
        dg.write_dataset(ds, p1)
        again = dg.read_dataset(p1)
        dg.write_dataset(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_preserves_everything(self, tmp_path):
        ds = synthetic_dataset()
        p = tmp_path / "d.hvds"
        dg.write_dataset(ds, p)
        back = dg.read_dataset(p)
        assert back.fingerprint() == ds.fingerprint()
        assert np.array_equal(back.obs, ds.obs)
        assert back.metadata == ds.metadata
        assert back.env_kind == ds.env_kind
        assert back.horizon == ds.horizon

    def test_magic_and_header_integrity(self, tmp_path):
        ds = synthetic_dataset()
        p = tmp_path / "d.hvds"
        dg.write_dataset(ds, p)
        assert p.read_bytes()[:8] == b"HVDS0001"
        blob = bytearray(p.read_bytes())
        blob[0] = ord("X")
        p.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            dg.read_dataset_header(p)

    def test_corrupted_column_fails_checksum(self, tmp_path):
        ds = synthetic_dataset()
        p = tmp_path / "d.hvds"
        dg.write_dataset(ds, p)
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF        # flip a payload byte
        p.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            dg.read_dataset(p)
        with pytest.raises(DataError):
            dg.verify_dataset(p)

    def test_truncated_file_detected(self, tmp_path):
        ds = synthetic_dataset()
        p = tmp_path / "d.hvds"
        dg.write_dataset(ds, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(DataError):
            dg.verify_dataset(p)

    def test_noncanonical_header_spacing_reads(self, tmp_path):
        ds = synthetic_dataset()
        p = tmp_path / "d.hvds"
        dg.write_dataset(ds, p)
        respace_header(p)
        dg.verify_dataset(p)
        assert dg.read_dataset(p).fingerprint() == ds.fingerprint()

    def test_partial_column_read(self, tmp_path):
        ds = synthetic_dataset()
        p = tmp_path / "d.hvds"
        dg.write_dataset(ds, p)
        cols = dg.read_dataset_columns(p, ["reward", "terminal"])
        assert np.array_equal(cols["reward"], ds.rewards)
        assert np.array_equal(cols["terminal"].astype(bool), ds.terminals)
        with pytest.raises(DataError):
            dg.read_dataset_columns(p, ["nope"])

    def test_streaming_memory_stays_below_column_size(self, tmp_path):
        # a million rows: obs column is 16 MB, but verification must
        # stream in chunks and a single-column read must not pull in the
        # whole file
        n, obs_dim, ep_len = 1_000_000, 4, 1000
        rng = np.random.default_rng(0)
        starts = np.arange(0, n, ep_len)
        terminals = np.zeros(n, dtype=bool)
        terminals[np.concatenate([starts[1:] - 1, [n - 1]])] = True
        ds = dg.Dataset(
            env_kind="dc", days=float(ep_len) / 144.0, horizon=ep_len,
            obs_spec_fingerprint="obs-test", act_spec_fingerprint="act-test",
            obs_lows=[0.0] * obs_dim, obs_highs=[1.0] * obs_dim,
            act_lows=[-1.0], act_highs=[1.0],
            episode_starts=starts, metadata={"scenario": "synthetic"},
            obs=rng.random((n, obs_dim), dtype=np.float32),
            actions=rng.uniform(-1, 1, (n, 1)).astype(np.float32),
            rewards=np.zeros(n, dtype=np.float32),
            terminals=terminals)
        p = tmp_path / "big.hvds"
        dg.write_dataset(ds, p)
        obs_bytes = ds.obs.nbytes

        tracemalloc.start()
        dg.verify_dataset(p)
        _, peak_verify = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak_verify < obs_bytes // 2, peak_verify

        tracemalloc.start()
        cols = dg.read_dataset_columns(p, ["obs"])
        _, peak_read = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak_read < 2 * obs_bytes, peak_read
        assert cols["obs"].shape == (n, obs_dim)

    def test_csv_export_shape(self, tmp_path):
        ds = synthetic_dataset(n=50, ep_len=25)
        p = tmp_path / "d.csv"
        dg.export_dataset_csv(ds, p)
        lines = p.read_text().strip().split("\n")
        assert len(lines) == 51
        header = lines[0].split(",")
        assert header[0] == "step" and header[-1] == "terminal"
        assert header.count("obs_0") == 1 and "act_1" in header
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(float(ds.obs[0, 0]))


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

    def test_view_roundtrip_matches_source(self):
        ds = synthetic_dataset()
        view = ds.view()
        assert len(view) == len(ds)
        assert view.num_episodes == ds.num_episodes
