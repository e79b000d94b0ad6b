"""Learning-algorithm tests: window sampling semantics, bootstrap targets
mirrored in plain numpy, convergence on closed-form toy problems, the
conservative penalty, target-network schedules, and training-loop artifacts.
"""
import contextlib
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvacrl.agents import (AgentConfig, ReplayBuffer, ReplayView,
                           RolloutWindow, WindowBatch, load_agent, make_agent,
                           train_offline, train_online)
from hvacrl.buildsim import BUILDINGS, EnvConfig, BuildingEnv
from hvacrl.errors import DataError, DivergenceError, SpecError
from hvacrl.neuralsub import tensor as T
from hvacrl.neuralsub.layers import Module

from reference_graphs import param_arrays, sample_tanh_gaussian, window_at


def make_view(n=200, od=4, ad=2, ep=50, seed=0, reward=None, actions=None):
    rng = np.random.default_rng(seed)
    obs = rng.uniform(0, 1, (n, od)).astype(np.float32)
    act = actions if actions is not None else \
        rng.uniform(-1, 1, (n, ad)).astype(np.float32)
    rew = reward if reward is not None else rng.normal(0, 1, n).astype(np.float32)
    term = np.zeros(n, bool)
    term[np.arange(ep - 1, n, ep)] = True
    return ReplayView(obs, act, rew, term, list(range(0, n, ep)))


def const_obs_view(n, od, actions, rewards, ep=500):
    obs = np.full((n, od), 0.5, np.float32)
    term = np.zeros(n, bool)
    term[np.arange(ep - 1, n, ep)] = True
    return ReplayView(obs, np.asarray(actions, np.float32),
                      np.asarray(rewards, np.float32), term,
                      list(range(0, n, ep)))


def mlp_forward_np(mlp, x):
    """Plain-numpy mirror of the MLP forward pass (float32 throughout)."""
    h = np.asarray(x, dtype=np.float32)
    for layer in mlp.layers[:-1]:
        h = np.maximum(h @ layer.w.data + layer.b.data, 0.0)
    last = mlp.layers[-1]
    return h @ last.w.data + last.b.data


# ---------------------------------------------------------------------------
# window sampling


class TestReplayView:
    def test_fourth_step_of_episode_has_exactly_four_valid_slots(self):
        view = make_view(n=60, ep=20)
        window, count = window_at(view, 20 + 3, seq_len=30)
        assert count == 4
        assert np.array_equal(window[:4], view.obs[20:24])
        assert np.array_equal(window[4:], np.zeros_like(window[4:]))

    def test_window_suffix_ends_at_sampled_step(self):
        view = make_view(n=100, ep=25, seed=3)
        rng = np.random.default_rng(7)
        batch = view.sample_batch(64, seq_len=8, rng=rng)
        counts = batch.counts
        for i in range(64):
            last = batch.windows[i, counts[i] - 1]
            # the last observation must be a real stored one
            matches = np.where((view.obs == last).all(axis=1))[0]
            assert len(matches) >= 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 30), min_size=1, max_size=5),
           st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    def test_windows_never_cross_episode_boundaries(self, ep_lengths, seq_len,
                                                    seed):
        n = sum(ep_lengths)
        obs = np.zeros((n, 2), np.float32)
        obs[:, 0] = np.arange(n)           # slot identity in channel 0
        term = np.zeros(n, bool)
        starts, s = [], 0
        for L in ep_lengths:
            starts.append(s)
            s += L
            term[s - 1] = True
        view = ReplayView(obs, np.zeros((n, 1), np.float32),
                          np.zeros(n, np.float32), term, starts)
        rng = np.random.default_rng(seed)
        batch = view.sample_batch(32, seq_len, rng)
        starts_arr = np.asarray(starts)
        counts = batch.counts
        for i in range(32):
            ids = batch.windows[i, :counts[i], 0].astype(int)
            t = ids[-1]
            ep_start = starts_arr[starts_arr <= t].max()
            # contiguous run ending at t, clipped at the episode start
            assert np.array_equal(ids, np.arange(t - counts[i] + 1, t + 1))
            assert ids[0] >= ep_start
            assert counts[i] == min(seq_len, t - ep_start + 1)
            # left-aligned prefix, zero padding after
            assert not batch.windows[i, counts[i]:].any()

    def test_seq_len_one_degenerates_to_flat_transitions(self):
        n = 80
        obs = np.zeros((n, 2), np.float32)
        obs[:, 0] = np.arange(n)
        term = np.zeros(n, bool)
        term[39] = term[79] = True
        view = ReplayView(obs, np.zeros((n, 1), np.float32),
                          np.arange(n, dtype=np.float32), term, [0, 40])
        batch = view.sample_batch(128, 1, np.random.default_rng(0))
        ids = batch.windows[:, 0, 0].astype(int)
        assert (batch.counts == 1).all()
        assert np.array_equal(batch.windows[:, 0], view.obs[ids])
        assert np.array_equal(batch.rewards, view.rewards[ids])
        nxt = batch.next_windows[:, 0, 0].astype(int)
        expect = np.where(view.terminals[ids], ids, ids + 1)
        assert np.array_equal(nxt, expect)

    def test_terminal_steps_reuse_their_own_window_as_next(self):
        view = make_view(n=50, ep=25, seed=1)
        batch = view.sample_batch(400, 6, np.random.default_rng(2))
        counts = batch.counts
        hit = [i for i in range(400)
               if batch.terminals[i] == 1.0
               and np.array_equal(batch.windows[i], batch.next_windows[i])]
        # every terminal sample must reuse its window
        n_term = int(batch.terminals.sum())
        assert n_term > 0 and len(hit) == n_term
        assert counts.min() >= 1

    def test_sampling_is_uniform_over_steps(self):
        n = 40
        obs = np.zeros((n, 2), np.float32)
        obs[:, 0] = np.arange(n)
        term = np.zeros(n, bool)
        term[19] = term[39] = True
        view = ReplayView(obs, np.zeros((n, 1), np.float32),
                          np.zeros(n, np.float32), term, [0, 20])
        rng = np.random.default_rng(4)
        counts = np.zeros(n, int)
        for _ in range(5):
            batch = view.sample_batch(200_000, 1, rng)
            counts += np.bincount(batch.windows[:, 0, 0].astype(int),
                                  minlength=n)
        expected = 1_000_000 / n
        bound = 3 * np.sqrt(1_000_000 * (1 / n) * (1 - 1 / n))
        assert np.abs(counts - expected).max() <= bound

    def test_live_tail_step_is_not_sampled(self):
        # last stored step of an unfinished episode has no successor yet
        n = 30
        obs = np.zeros((n, 1), np.float32)
        obs[:, 0] = np.arange(n)
        term = np.zeros(n, bool)
        term[19] = True
        view = ReplayView(obs, np.zeros((n, 1), np.float32),
                          np.zeros(n, np.float32), term, [0, 20])
        batch = view.sample_batch(4000, 1, np.random.default_rng(0))
        assert batch.windows[:, 0, 0].max() < n - 1

    def test_boundary_without_terminal_rejected(self):
        term = np.zeros(40, bool)
        term[39] = True  # missing terminal at step 19
        with pytest.raises(DataError):
            ReplayView(np.zeros((40, 2), np.float32),
                       np.zeros((40, 1), np.float32),
                       np.zeros(40, np.float32), term, [0, 20])

    def test_terminal_without_boundary_rejected(self):
        term = np.zeros(40, bool)
        term[10] = term[39] = True
        with pytest.raises(DataError):
            ReplayView(np.zeros((40, 2), np.float32),
                       np.zeros((40, 1), np.float32),
                       np.zeros(40, np.float32), term, [0])

    def test_empty_store_rejected(self):
        with pytest.raises(DataError):
            ReplayView(np.zeros((0, 2), np.float32),
                       np.zeros((0, 1), np.float32),
                       np.zeros(0, np.float32), np.zeros(0, bool), [0])


class TestReplayBuffer:
    def test_matches_manual_columns(self):
        buf = ReplayBuffer(2, 1, capacity=100)
        rng = np.random.default_rng(0)
        rows = []
        for ep in range(3):
            for t in range(10):
                row = (rng.uniform(0, 1, 2).astype(np.float32),
                       rng.uniform(-1, 1, 1).astype(np.float32),
                       float(rng.normal()), t == 9)
                rows.append(row)
                buf.add(*row)
        view = buf.view()
        assert len(view) == 30 and view.num_episodes == 3
        assert np.array_equal(view.obs, np.stack([r[0] for r in rows]))
        assert np.array_equal(view.episode_starts, [0, 10, 20])

    @pytest.mark.parametrize("seq_len", [1, 4])
    @pytest.mark.parametrize("lengths, live, capacity, stored", [
        ((5, 7), 3, 100, 15),      # live (unterminated) tail
        ((5, 7), 0, 100, 12),      # closed tail
    ])
    def test_samples_in_place_like_its_view(self, lengths, live, capacity,
                                            stored, seq_len):
        buf = ReplayBuffer(3, 2, capacity=capacity)
        rng = np.random.default_rng(3)
        for n, closed in [(n, True) for n in lengths] + [(live, False)]:
            for t in range(n):
                buf.add(rng.uniform(0, 1, 3), rng.uniform(-1, 1, 2),
                        float(rng.normal()), closed and t == n - 1)
        assert len(buf) == stored
        got = buf.sample_batch(64, seq_len, np.random.default_rng(9))
        want = buf.view().sample_batch(64, seq_len, np.random.default_rng(9))
        for f in dataclasses.fields(WindowBatch):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name

    def test_nothing_sampleable_is_data_error(self):
        buf = ReplayBuffer(1, 1, capacity=4)
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            buf.sample_batch(2, 1, rng)
        buf.add([0.0], [0.0], 0.0, False)   # a live step has no successor
        for store in (buf, buf.view()):
            with pytest.raises(DataError):
                store.sample_batch(2, 1, rng)

    def test_single_episode_larger_than_capacity_rejected(self):
        # a full buffer rejects the next add, whether its episodes are
        # closed or live: it holds one run and never evicts
        for closed in (True, False):
            buf = ReplayBuffer(1, 1, capacity=4)
            for t in range(4):
                buf.add([float(t)], [0.0], 0.0, closed and t % 2 == 1)
            with pytest.raises(DataError, match="full"):
                buf.add([0.0], [0.0], 0.0, False)
            assert len(buf) == 4
            assert np.array_equal(buf.view().obs[:, 0], [0, 1, 2, 3])


class TestRolloutWindow:
    def test_tracks_trailing_window_left_aligned(self):
        rw = RolloutWindow(obs_dim=2, seq_len=4, n=1)
        seen = []
        for t in range(7):
            obs = np.array([t, -t], np.float32)
            rw.push(obs[None])
            seen.append(obs)
            windows, counts = rw.arrays()
            k = min(t + 1, 4)
            assert counts.tolist() == [k]
            assert np.array_equal(windows[0, :k], np.stack(seen[-k:]))
            if k < 4:
                assert not windows[0, k:].any()

    def test_reset_clears(self):
        rw = RolloutWindow(2, 3, 1)
        rw.push(np.ones((1, 2), np.float32))
        rw.reset(2)
        assert rw.buf.shape == (2, 3, 2)
        assert rw.count == 0 and not rw.buf.any()
        assert rw.arrays()[1].tolist() == [0, 0]


# ---------------------------------------------------------------------------
# bootstrap targets mirrored in numpy


class TestTDTargets:
    def test_td3_target_matches_numpy_mirror(self):
        view = make_view(n=120, ep=30, seed=5)
        cfg = AgentConfig(algo="td3", batch_size=32, train_steps=0, seed=13)
        agent = make_agent(cfg, 4, 2)
        batch = view.sample_batch(32, 1, np.random.default_rng(1))

        mirror_rng = np.random.default_rng()
        mirror_rng.bit_generator.state = agent.rng.bit_generator.state
        got = agent._td_target(batch)

        obs2 = batch.next_windows[:, 0, :]
        a2 = np.tanh(mlp_forward_np(agent.actor_target.head, obs2))
        noise = mirror_rng.normal(0.0, cfg.target_noise, size=a2.shape)
        noise = np.clip(noise, -cfg.target_noise_clip, cfg.target_noise_clip)
        a2 = np.clip(a2 + noise.astype(np.float32), -1.0, 1.0)
        x = np.concatenate([obs2, a2], axis=1)
        q1 = mlp_forward_np(agent.critic_target.q1_head, x)[:, 0]
        q2 = mlp_forward_np(agent.critic_target.q2_head, x)[:, 0]
        want = batch.rewards + cfg.gamma * (1 - batch.terminals) * np.minimum(q1, q2)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_sac_target_matches_numpy_mirror(self):
        view = make_view(n=120, ep=30, seed=6)
        cfg = AgentConfig(algo="sac", batch_size=32, train_steps=0, seed=17)
        agent = make_agent(cfg, 4, 2)
        batch = view.sample_batch(32, 1, np.random.default_rng(2))

        mirror_rng = np.random.default_rng()
        mirror_rng.bit_generator.state = agent.rng.bit_generator.state
        got = agent._td_target(batch)

        obs2 = batch.next_windows[:, 0, :]
        out = mlp_forward_np(agent.actor.head, obs2)
        mean, log_std = out[:, :2], np.clip(out[:, 2:], -20.0, 2.0)
        std = np.exp(log_std)
        eps = mirror_rng.standard_normal(size=mean.shape).astype(np.float32)
        u = mean + std * eps
        a2 = np.tanh(u)
        z = (u - mean) * np.exp(-log_std)
        log_gauss = -(0.5 * z * z + log_std + 0.5 * np.log(2 * np.pi))
        log_det = 2.0 * (np.log(2.0) - u - np.logaddexp(np.float32(0.0), -2.0 * u))
        logp = (log_gauss - log_det).sum(axis=1)
        x = np.concatenate([obs2, a2], axis=1)
        q1 = mlp_forward_np(agent.critic_target.q1_head, x)[:, 0]
        q2 = mlp_forward_np(agent.critic_target.q2_head, x)[:, 0]
        boot = np.minimum(q1, q2) - agent.alpha * logp
        want = batch.rewards + cfg.gamma * (1 - batch.terminals) * boot
        assert np.allclose(got, want, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("algo", ["td3", "sac", "td3bc", "cql"])
    def test_terminal_steps_do_not_bootstrap(self, algo):
        # gamma = 0.9 but reward-only targets on terminal rows
        view = make_view(n=60, ep=10, seed=7)
        agent = make_agent(AgentConfig(algo=algo, batch_size=16,
                                       train_steps=0, seed=3), 4, 2)
        batch = view.sample_batch(256, 1, np.random.default_rng(3))
        got = agent._td_target(batch)
        mask = batch.terminals == 1.0
        assert mask.any()
        assert np.allclose(got[mask], batch.rewards[mask], atol=1e-7)


# ---------------------------------------------------------------------------
# closed-form learning problems


class TestLearning:
    def test_zero_discount_constant_reward_critic_regresses_to_constant(self):
        rng = np.random.default_rng(1)
        n, od, ad = 4000, 3, 2
        acts = rng.uniform(-1, 1, (n, ad)).astype(np.float32)
        view = const_obs_view(n, od, acts, np.full(n, 0.7, np.float32))
        cfg = AgentConfig(algo="td3", gamma=0.0, batch_size=64,
                          train_steps=2000, epoch_steps=2000, seed=5)
        agent = make_agent(cfg, od, ad)
        train_offline(agent, view)
        batch = view.sample_batch(256, 1, np.random.default_rng(9))
        q1, q2 = agent.q_values(batch.windows, batch.counts, batch.actions)
        assert np.abs(q1 - 0.7).max() < 0.01
        assert np.abs(q2 - 0.7).max() < 0.01

    def test_actor_on_frozen_quadratic_critic_drives_actions_to_zero(self):
        class QuadraticCritic:
            def features(self, windows, counts):
                return None

            def heads(self, feat, actions, count=2):
                return (T.scale(T.sum_(T.square(actions), axis=1), -1.0),) \
                    * count

        view = make_view(n=200, ep=50, seed=2)
        agent = make_agent(AgentConfig(algo="td3", batch_size=64,
                                       train_steps=0, seed=4), 4, 2)
        agent.critic = QuadraticCritic()
        rng = np.random.default_rng(0)
        for _ in range(2000):
            batch = view.sample_batch(64, 1, rng)
            loss, _ = agent._actor_loss(batch)
            agent.actor_opt.zero_grad()
            loss.backward()
            agent.actor_opt.step()
        batch = view.sample_batch(256, 1, rng)
        with T.no_grad():
            a = agent.actor(batch.windows, batch.counts).data
        assert np.abs(a).max() < 0.05

    def test_sac_finds_bandit_optimum(self):
        rng = np.random.default_rng(2)
        n, od, ad = 4000, 3, 1
        acts = rng.uniform(-1, 1, (n, ad)).astype(np.float32)
        rew = -((acts[:, 0] - 0.4) ** 2).astype(np.float32)
        view = const_obs_view(n, od, acts, rew)
        cfg = AgentConfig(algo="sac", gamma=0.0, batch_size=64,
                          train_steps=3000, epoch_steps=3000, seed=6)
        agent = make_agent(cfg, od, ad)
        train_offline(agent, view)
        w, c = window_at(view, 0, 1)
        a = agent.policy_action(w[None], np.array([c]), deterministic=True)
        assert abs(float(a[0, 0]) - 0.4) < 0.1

    def test_zero_bc_weight_reduces_to_pure_behavior_cloning(self):
        n, od, ad = 4000, 3, 2
        target = np.array([0.4, -0.2], np.float32)
        acts = np.tile(target, (n, 1))
        view = const_obs_view(n, od, acts, np.zeros(n, np.float32))
        cfg = AgentConfig(algo="td3bc", bc_weight=0.0, batch_size=64,
                          train_steps=2500, epoch_steps=2500, seed=7)
        agent = make_agent(cfg, od, ad)
        summary = train_offline(agent, view)
        assert summary.records[-1]["losses"]["bc_lambda"] == 0.0
        w, c = window_at(view, 0, 1)
        a = agent.policy_action(w[None], np.array([c]))
        assert np.abs(a[0] - target).max() < 0.02

    def test_bc_lambda_is_weight_over_mean_abs_q(self):
        class ConstantCritic:
            def __init__(self, c):
                self.c = c

            def features(self, windows, counts):
                return None

            def heads(self, feat, actions, count=2):
                # keep a gradient path so backward() has work to do
                zero = T.scale(T.sum_(actions, axis=1), 0.0)
                return (T.add(zero, np.full(actions.data.shape[0], self.c,
                                            np.float32)),) * count

        view = make_view(n=100, ep=50, seed=3)
        agent = make_agent(AgentConfig(algo="td3bc", bc_weight=2.5,
                                       batch_size=32, train_steps=0, seed=8),
                           4, 2)
        agent.critic = ConstantCritic(-4.0)
        batch = view.sample_batch(32, 1, np.random.default_rng(1))
        _, extra = agent._actor_loss(batch)
        assert extra["bc_lambda"] == pytest.approx(2.5 / 4.0, rel=1e-5)


class TestCQL:
    def test_penalty_vanishes_when_policy_matches_behavior(self):
        rng = np.random.default_rng(3)
        n, od, ad = 4000, 3, 1
        acts = np.tanh(rng.normal(0.3, 0.15, (n, ad))).astype(np.float32)
        rew = (-((acts[:, 0] - 0.3) ** 2)).astype(np.float32)
        view = const_obs_view(n, od, acts, rew)
        cfg = AgentConfig(algo="cql", gamma=0.0, batch_size=64,
                          train_steps=800, epoch_steps=800, seed=8)
        agent = make_agent(cfg, od, ad)
        train_offline(agent, view)
        B = 1024
        w = np.full((B, 1, od), 0.5, np.float32)
        c = np.ones(B, np.int64)
        matched = agent._policy_samples(w, c, 1)
        gap = agent.conservative_gap(w, c, matched, mc_samples=20)
        assert abs(gap) <= 0.05
        # contrast: actions far outside the policy's support score much lower
        far = np.full((B, ad), -0.95, np.float32)
        assert agent.conservative_gap(w, c, far, mc_samples=20) > 1.0

    def test_out_of_distribution_actions_score_below_in_support_max(self):
        rng = np.random.default_rng(4)
        n = 4000
        acts = rng.uniform(-0.2, 0.2, (n, 1)).astype(np.float32)
        rew = (0.5 + acts[:, 0]).astype(np.float32)
        view = const_obs_view(n, 3, acts, rew)
        cfg = AgentConfig(algo="cql", gamma=0.0, batch_size=64,
                          train_steps=1500, epoch_steps=1500, seed=9)
        agent = make_agent(cfg, 3, 1)
        train_offline(agent, view)
        w, c = window_at(view, 0, 1)
        W = np.repeat(w[None], 41, 0)
        C = np.full(41, c)
        grid = np.linspace(-0.2, 0.2, 41, dtype=np.float32)[:, None]
        q_in, _ = agent.q_values(W, C, grid)
        q_ood, _ = agent.q_values(W[:1], C[:1], np.array([[0.9]], np.float32))
        assert q_ood[0] < q_in.max()

    def test_zero_weight_is_bitwise_identical_to_sac(self):
        view = make_view(n=400, ep=100, seed=5)
        sac = make_agent(AgentConfig(algo="sac", batch_size=32,
                                     train_steps=0, seed=11), 4, 2)
        cql = make_agent(AgentConfig(algo="cql", cql_weight=0.0, batch_size=32,
                                     train_steps=0, seed=11), 4, 2)
        for _ in range(40):
            b1 = view.sample_batch(32, 1, sac.rng)
            b2 = view.sample_batch(32, 1, cql.rng)
            i1 = sac.update(b1)
            i2 = cql.update(b2)
            assert i1["critic_loss"] == i2["critic_loss"]
            assert i1["actor_loss"] == i2["actor_loss"]
        for (n1, p1), (n2, p2) in zip(sac.critic.named_parameters(),
                                      cql.critic.named_parameters()):
            assert np.array_equal(p1.data, p2.data), n1
        for (n1, p1), (n2, p2) in zip(sac.actor.named_parameters(),
                                      cql.actor.named_parameters()):
            assert np.array_equal(p1.data, p2.data), n1

    def test_positive_weight_changes_the_update(self):
        view = make_view(n=400, ep=100, seed=5)
        sac = make_agent(AgentConfig(algo="sac", batch_size=32,
                                     train_steps=0, seed=11), 4, 2)
        cql = make_agent(AgentConfig(algo="cql", cql_weight=5.0, batch_size=32,
                                     train_steps=0, seed=11), 4, 2)
        b1 = view.sample_batch(32, 1, sac.rng)
        b2 = view.sample_batch(32, 1, cql.rng)
        i1 = sac.update(b1)
        i2 = cql.update(b2)
        assert i1["critic_loss"] != i2["critic_loss"]
        assert "cql_penalty" in i2 and "cql_penalty" not in i1

    def test_cql_penalty_matches_numpy_mirror(self):
        view = make_view(n=120, ep=30, seed=8)
        cfg = AgentConfig(algo="cql", batch_size=32, train_steps=0, seed=19)
        agent = make_agent(cfg, 4, 2)
        batch = view.sample_batch(32, 1, np.random.default_rng(4))
        m = cfg.cql_samples

        mirror_rng = np.random.default_rng()
        mirror_rng.bit_generator.state = agent.rng.bit_generator.state
        # the target's next-action sample comes first
        mirror_rng.standard_normal(size=(32, 2))
        obs = batch.windows[:, 0, :]
        out = mlp_forward_np(agent.actor.head, obs)
        mean = np.repeat(out[:, :2], m, axis=0)
        std = np.exp(np.clip(np.repeat(out[:, 2:], m, axis=0), -20.0, 2.0))
        eps = mirror_rng.standard_normal(size=mean.shape).astype(np.float32)
        a_pi = np.tanh(mean + std * eps)

        def q(x):
            return (mlp_forward_np(agent.critic.q1_head, x)[:, 0].mean()
                    + mlp_forward_np(agent.critic.q2_head, x)[:, 0].mean())

        want = (q(np.concatenate([np.repeat(obs, m, axis=0), a_pi], axis=1))
                - q(np.concatenate([obs, batch.actions], axis=1)))
        got = agent._critic_update(batch)["cql_penalty"]
        assert np.isclose(got, want, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# schedules, targets, temperature, guards


class TestSchedules:
    def test_polyak_distance_decays_geometrically(self):
        cfg = AgentConfig(algo="td3", train_steps=0, seed=1)
        agent = make_agent(cfg, 4, 2)
        rng = np.random.default_rng(0)
        for _, p in agent.critic.named_parameters():
            p.data += rng.normal(0, 0.5, p.data.shape).astype(np.float32)
        d0 = [np.abs(pt.data - p.data).astype(np.float64)
              for (_, pt), (_, p) in zip(agent.critic_target.named_parameters(),
                                         agent.critic.named_parameters())]
        tau, k = 0.01, 50
        for _ in range(k):
            agent.critic_target.polyak_from(agent.critic, tau)
        for (name, pt), (_, p), d in zip(agent.critic_target.named_parameters(),
                                         agent.critic.named_parameters(), d0):
            dk = np.abs(pt.data.astype(np.float64) - p.data)
            assert np.allclose(dk, (1 - tau) ** k * d, rtol=1e-3, atol=2e-6), name

    def test_actor_updates_only_on_delay_multiples(self):
        view = make_view(n=200, ep=50, seed=6)
        cfg = AgentConfig(algo="td3", policy_delay=2, batch_size=16,
                          train_steps=0, seed=2)
        agent = make_agent(cfg, 4, 2)
        rng = np.random.default_rng(1)

        def actor_hash():
            return hash(tuple(p.data.tobytes()
                              for _, p in agent.actor.named_parameters()))

        before = actor_hash()
        changes = []
        for step in range(1, 9):
            agent.update(view.sample_batch(16, 1, rng))
            now = actor_hash()
            changes.append(now != before)
            before = now
        assert changes == [s % 2 == 0 for s in range(1, 9)]

    def test_targets_update_only_with_the_actor(self):
        view = make_view(n=200, ep=50, seed=6)
        agent = make_agent(AgentConfig(algo="td3", policy_delay=3,
                                       batch_size=16, train_steps=0, seed=2),
                           4, 2)
        rng = np.random.default_rng(1)
        snap = param_arrays(agent.critic_target)
        agent.update(view.sample_batch(16, 1, rng))
        agent.update(view.sample_batch(16, 1, rng))
        after2 = param_arrays(agent.critic_target)
        assert all(np.array_equal(snap[k], after2[k]) for k in snap)
        agent.update(view.sample_batch(16, 1, rng))  # third update fires
        after3 = param_arrays(agent.critic_target)
        assert any(not np.array_equal(snap[k], after3[k]) for k in snap)

    def test_sac_targets_update_every_step(self):
        view = make_view(n=200, ep=50, seed=6)
        agent = make_agent(AgentConfig(algo="sac", batch_size=16,
                                       train_steps=0, seed=2), 4, 2)
        snap = param_arrays(agent.critic_target)
        agent.update(view.sample_batch(16, 1, np.random.default_rng(1)))
        after = param_arrays(agent.critic_target)
        assert any(not np.array_equal(snap[k], after[k]) for k in snap)

    def test_temperature_rises_when_entropy_is_below_target(self):
        view = make_view(n=200, ep=50, seed=7)
        cfg = AgentConfig(algo="sac", actor_lr=0.0, batch_size=32,
                          train_steps=0, seed=3)
        agent = make_agent(cfg, 4, 2)
        agent.target_entropy = 5.0  # far above the frozen policy's entropy
        rng = np.random.default_rng(2)
        alphas = [agent.alpha]
        for _ in range(25):
            agent.update(view.sample_batch(32, 1, rng))
            alphas.append(agent.alpha)
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    def test_temperature_falls_when_entropy_is_above_target(self):
        view = make_view(n=200, ep=50, seed=7)
        cfg = AgentConfig(algo="sac", actor_lr=0.0, batch_size=32,
                          train_steps=0, seed=3)
        agent = make_agent(cfg, 4, 2)
        agent.target_entropy = -8.0  # far below the frozen policy's entropy
        rng = np.random.default_rng(2)
        alphas = [agent.alpha]
        for _ in range(25):
            agent.update(view.sample_batch(32, 1, rng))
            alphas.append(agent.alpha)
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_divergence_guard_raises_with_diagnostics(self):
        view = make_view(n=200, ep=50, seed=8)
        agent = make_agent(AgentConfig(algo="td3", batch_size=16,
                                       train_steps=0, seed=4), 4, 2)
        agent.critic.q1_head.layers[-1].b.data[:] = 2e6
        with pytest.raises(DivergenceError) as exc:
            agent.update(view.sample_batch(16, 1, np.random.default_rng(0)))
        assert exc.value.diagnostics["median_abs_q"] > 1e6

    def test_non_finite_parameter_raises(self):
        view = make_view(n=200, ep=50, seed=8)
        agent = make_agent(AgentConfig(algo="td3", batch_size=16,
                                       train_steps=0, seed=4), 4, 2)
        agent.critic.q1_head.layers[0].w.data[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="non-finite"):
            agent.update(view.sample_batch(16, 1, np.random.default_rng(0)))

    def test_every_update_leaves_parameters_finite(self):
        view = make_view(n=400, ep=100, seed=9)
        for algo in ("td3", "sac", "td3bc", "cql"):
            agent = make_agent(AgentConfig(algo=algo, batch_size=16,
                                           train_steps=0, seed=5), 4, 2)
            rng = np.random.default_rng(3)
            for _ in range(6):
                agent.update(view.sample_batch(16, 1, rng))
            for _, p in agent.critic.named_parameters():
                assert np.all(np.isfinite(p.data))


class TestFrozenCriticInActorUpdates:
    HISTORY = dict(history=True, seq_len=4, enc_feat=8, enc_blocks=1,
                   enc_heads=2, enc_hidden=12)

    @staticmethod
    def trained_state(cfg, steps=4):
        view = make_view(n=200, ep=50, seed=11)
        agent = make_agent(cfg, 4, 2)
        rng = np.random.default_rng(5)
        for _ in range(steps):
            agent.update(view.sample_batch(cfg.batch_size, cfg.seq_len, rng))
        return param_arrays(agent)

    @pytest.mark.parametrize("history", [False, True], ids=["flat", "history"])
    @pytest.mark.parametrize("algo", ["td3", "sac", "td3bc", "cql"])
    def test_bit_equal_to_updates_that_fill_critic_grads(self, algo, history,
                                                         monkeypatch):
        cfg = AgentConfig(algo=algo, batch_size=16, hidden=16, seed=7,
                          **(self.HISTORY if history else {}))
        got = self.trained_state(cfg)
        # the reference: actor losses also backpropagate into the critic
        monkeypatch.setattr(Module, "frozen",
                            lambda self: contextlib.nullcontext())
        ref = self.trained_state(cfg)
        assert got.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(got[name], ref[name]), name

    @pytest.mark.parametrize("algo", ["td3", "sac", "td3bc", "cql"])
    def test_actor_update_leaves_critic_grads_untouched(self, algo):
        view = make_view(n=200, ep=50, seed=12)
        agent = make_agent(AgentConfig(algo=algo, batch_size=16, seed=8,
                                       **self.HISTORY), 4, 2)
        batch = view.sample_batch(16, 4, np.random.default_rng(6))
        agent.update_count = agent.cfg.policy_delay   # an actor step for TD3
        agent._critic_update(batch)
        before = [(p.grad, p.grad.copy()) for p in agent.critic.parameters()]
        agent._policy_update(batch)
        after = agent.critic.parameters()
        assert len(after) == len(before)
        for p, (grad, values) in zip(after, before):
            assert p.grad is grad
            assert np.array_equal(p.grad, values)
        assert all(p.grad is not None for p in agent.actor.parameters())


# ---------------------------------------------------------------------------
# acting


class TestActing:
    def test_deterministic_action_is_repeatable_and_bounded(self):
        agent = make_agent(AgentConfig(algo="sac", train_steps=0, seed=6), 4, 2)
        w = np.random.default_rng(0).uniform(0, 1, (1, 1, 4)).astype(np.float32)
        c = np.ones(1, np.int64)
        a1 = agent.policy_action(w, c)
        a2 = agent.policy_action(w, c, deterministic=True)
        assert a1.shape == (1, 2)
        assert np.array_equal(a1, a2)
        assert np.abs(a1).max() <= 1.0

    def test_stochastic_actions_vary(self):
        agent = make_agent(AgentConfig(algo="sac", train_steps=0, seed=6), 4, 2)
        w = np.full((1, 1, 4), 0.3, np.float32)
        c = np.ones(1, np.int64)
        a1 = agent.policy_action(w, c, deterministic=False)
        a2 = agent.policy_action(w, c, deterministic=False)
        assert not np.array_equal(a1, a2)

    def test_td3_exploration_adds_bounded_noise(self):
        agent = make_agent(AgentConfig(algo="td3", explore_noise=0.1,
                                       train_steps=0, seed=7), 4, 2)
        w = np.full((64, 1, 4), 0.3, np.float32)
        c = np.ones(64, np.int64)
        base = agent.policy_action(w, c, deterministic=True)
        noisy = agent.explore_action(w, c)
        assert np.abs(noisy).max() <= 1.0
        spread = noisy - np.clip(base, -1, 1)
        assert 0.0 < np.abs(spread).mean() < 0.5

    # default network sizes; the history one is the harness expert's shape
    STACKED = {"td3-flat": AgentConfig(algo="td3", train_steps=0, seed=8),
               "sac-flat": AgentConfig(algo="sac", train_steps=0, seed=9),
               "sac-history": AgentConfig(algo="sac", history=True,
                                          seq_len=8, train_steps=0, seed=10)}

    @given(st.sampled_from(list(STACKED)),
           st.lists(st.integers(1, 8), min_size=1, max_size=16),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stacked_windows_act_as_single_windows(self, name, counts,
                                                   seed):
        # lockstep rollouts act on N windows at once: each row must be the
        # bits a batch-1 call gives, with left-aligned partial windows
        cfg = self.STACKED[name]
        agent = make_agent(cfg, 8, 4)
        counts = np.minimum(counts, cfg.seq_len)
        rng = np.random.default_rng(seed)
        valid = np.arange(cfg.seq_len) < counts[:, None]
        windows = np.where(valid[..., None], rng.uniform(
            0, 1, (len(counts), cfg.seq_len, 8)), 0).astype(np.float32)
        stacked = agent.policy_action(windows, counts)
        single = np.concatenate([agent.policy_action(windows[i:i + 1],
                                                     counts[i:i + 1])
                                 for i in range(len(counts))])
        assert stacked.tobytes() == single.tobytes()

    @staticmethod
    def stacked_windows(cfg, n, seed, obs=8):
        """n left-aligned windows with counts drawn from 1..seq_len."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, cfg.seq_len + 1, n)
        valid = np.arange(cfg.seq_len) < counts[:, None]
        windows = np.where(valid[..., None], rng.uniform(
            0, 1, (n, cfg.seq_len, obs)), 0).astype(np.float32)
        return windows, counts

    @pytest.mark.parametrize("n", [65, 130])
    @pytest.mark.parametrize("name", list(STACKED))
    def test_stacked_groups_act_as_single_windows(self, name, n):
        # more windows than one `rows` group: the rows after the first 64
        # run in later groups, and must still give batch-1 bits
        cfg = self.STACKED[name]
        agent = make_agent(cfg, 8, 4)
        windows, counts = self.stacked_windows(cfg, n, n)
        stacked = agent.policy_action(windows, counts)
        single = np.concatenate([agent.policy_action(windows[i:i + 1],
                                                     counts[i:i + 1])
                                 for i in range(n)])
        assert stacked.tobytes() == single.tobytes()

    @pytest.mark.parametrize("name", list(STACKED))
    def test_results_do_not_alias_the_workspace(self, name):
        # `rows` reuses its buffers from call to call; what it returned
        # before must survive the next call at the same size
        cfg = self.STACKED[name]
        actor = make_agent(cfg, 8, 4).actor
        first = self.stacked_windows(cfg, 5, 0)
        second = self.stacked_windows(cfg, 5, 1)
        feats = actor.encoder.rows(*first)
        head = actor.head.rows(feats)
        act = actor.act(*first)
        kept = [a.copy() for a in (feats, head, act)]
        actor.head.rows(actor.encoder.rows(*second))
        actor.act(*second)
        for got, want in zip((feats, head, act), kept):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("history", [False, True])
    def test_dist_params_equal_with_and_without_tape(self, history):
        cfg = AgentConfig(algo="sac", history=history,
                          seq_len=6 if history else 1, enc_feat=16,
                          enc_heads=4, enc_hidden=24, hidden=32,
                          train_steps=0, seed=12)
        actor = make_agent(cfg, 8, 4).actor
        windows, counts = self.stacked_windows(cfg, 7, 2)
        taped = actor.dist_params(windows, counts)
        assert all(t.requires_grad for t in taped)
        with T.no_grad():
            free = actor.dist_params(windows, counts)
        assert not any(t.requires_grad for t in free)
        for a, b in zip(taped, free):
            assert a.data.tobytes() == b.data.tobytes()

    def test_lockstep_memory_does_not_grow_with_windows(self):
        # a 700-window call runs in groups of 64, so it holds no more
        # traced memory than a 64-window call, apart from its per-window
        # outputs (the features, the head's output and the actions)
        cfg = self.STACKED["sac-history"]

        def peak(n):
            agent = make_agent(cfg, 8, 4)
            windows, counts = self.stacked_windows(cfg, n, 3)
            tracemalloc.start()
            try:
                agent.policy_action(windows, counts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        outputs = 700 * 4 * (cfg.enc_feat + 4 * 4)
        assert peak(700) <= peak(64) + outputs

    @pytest.mark.parametrize("algo", ["sac", "td3"])
    def test_history_rollout_action_matches_taped_forward(self, algo):
        # the tape-free batch-1 act path against the taped actor, while a
        # rollout window fills (pushes 1-6) and then slides (7-20)
        cfg = AgentConfig(algo=algo, history=True, seq_len=6, enc_feat=16,
                          enc_heads=4, enc_hidden=24, hidden=32, train_steps=0,
                          seed=11)
        agent = make_agent(cfg, 4, 2)
        rw = RolloutWindow(4, cfg.seq_len, 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            rw.push(rng.normal(size=(1, 4)).astype(np.float32))
            windows, counts = rw.arrays()
            if algo == "sac":
                taped = sample_tanh_gaussian(
                    *agent.actor.dist_params(windows, counts), None,
                    deterministic=True)[0]
            else:
                taped = agent.actor(windows, counts)
            assert taped.requires_grad
            got = agent.policy_action(windows, counts)
            assert got.dtype == np.float32
            assert np.array_equal(got, np.clip(taped.data, -1.0, 1.0))
        if algo == "sac":   # the stochastic draw too, from the same stream
            state = agent.rng.bit_generator.state
            got = agent.policy_action(windows, counts, deterministic=False)
            agent.rng.bit_generator.state = state
            taped = agent.actor.sample(windows, counts, agent.rng)[0]
            assert np.array_equal(got, np.clip(taped.data, -1.0, 1.0))


# ---------------------------------------------------------------------------
# training loops and artifacts


class TestTrainLoops:
    def test_offline_epochs_checkpoints_and_log(self, tmp_path):
        view = make_view(n=400, ep=100, seed=10)
        cfg = AgentConfig(algo="td3", batch_size=16, train_steps=250,
                          epoch_steps=100, seed=9)
        agent = make_agent(cfg, 4, 2)
        log = tmp_path / "train.jsonl"
        summary = train_offline(agent, view, checkpoint_dir=tmp_path,
                                log_path=log,
                                eval_fn=lambda a, e: {"avg_reward": float(e)})
        assert [r["step"] for r in summary.records] == [100, 200, 250]
        assert len(summary.checkpoint_paths) == 3
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(rows) == 3
        assert all({"epoch", "step", "seed", "wall_s", "losses", "eval"}
                   <= set(r) for r in rows)
        assert summary.best_epoch == 3  # eval_fn grows with epoch

    def test_zero_steps_emits_initial_checkpoint_only(self, tmp_path):
        view = make_view(n=100, ep=50, seed=11)
        cfg = AgentConfig(algo="sac", train_steps=0, seed=10)
        agent = make_agent(cfg, 4, 2)
        before = param_arrays(agent)
        summary = train_offline(agent, view, checkpoint_dir=tmp_path)
        assert summary.checkpoint_paths == [str(tmp_path / "epoch_0000.ckpt")]
        after = param_arrays(agent)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_same_seed_reproduces_training_bitwise(self):
        view = make_view(n=400, ep=100, seed=12)

        def run():
            agent = make_agent(AgentConfig(algo="cql", batch_size=16,
                                           train_steps=30, epoch_steps=30,
                                           seed=21), 4, 2)
            summary = train_offline(agent, view)
            return agent, summary

        a1, s1 = run()
        a2, s2 = run()
        assert s1.records[-1]["losses"] == s2.records[-1]["losses"]
        p1, p2 = param_arrays(a1), param_arrays(a2)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_divergence_is_logged_then_raised(self, tmp_path):
        view = make_view(n=200, ep=50, seed=13)
        agent = make_agent(AgentConfig(algo="td3", batch_size=16,
                                       train_steps=50, seed=11), 4, 2)
        agent.critic.q1_head.layers[-1].b.data[:] = 5e6
        log = tmp_path / "log.jsonl"
        with pytest.raises(DivergenceError):
            train_offline(agent, view, log_path=log)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert any("error" in r for r in rows)

    def test_online_divergence_logs_diagnostics(self, tmp_path):
        def make_env(ep):
            return BuildingEnv(EnvConfig(kind="dc", weather="preset:chicago",
                                         days=1))

        agent = make_agent(AgentConfig(algo="td3", batch_size=16,
                                       train_steps=50, seed=11), 8, 4)
        agent.critic.q1_head.layers[-1].b.data[:] = 5e6
        log = tmp_path / "log.jsonl"
        with pytest.raises(DivergenceError):
            train_online(agent, make_env, start_steps=20, log_path=log)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        errors = [r for r in rows if "error" in r]
        assert len(errors) == 1
        assert errors[0]["diagnostics"]["update"] == 1

    def test_checkpoint_roundtrip_restores_policy_exactly(self, tmp_path):
        view = make_view(n=400, ep=100, seed=14)
        cfg = AgentConfig(algo="cql", batch_size=16, train_steps=40,
                          epoch_steps=40, seed=12)
        agent = make_agent(cfg, 4, 2)
        train_offline(agent, view, checkpoint_dir=tmp_path)
        loaded, header = load_agent(tmp_path / "epoch_0001.ckpt")
        assert header["meta"]["algo"] == "cql"
        batch = view.sample_batch(32, 1, np.random.default_rng(5))
        a1 = agent.policy_action(batch.windows, batch.counts)
        a2 = loaded.policy_action(batch.windows, batch.counts)
        assert np.array_equal(a1, a2)
        q1a, _ = agent.q_values(batch.windows, batch.counts, batch.actions)
        q1b, _ = loaded.q_values(batch.windows, batch.counts, batch.actions)
        assert np.array_equal(q1a, q1b)

    def test_online_training_fills_buffer_and_logs(self, tmp_path):
        presets = BUILDINGS["dc"].train_presets

        def make_env(ep):
            name = presets[ep % len(presets)]
            return BuildingEnv(EnvConfig(kind="dc", weather=f"preset:{name}",
                                         days=1))

        cfg = AgentConfig(algo="sac", batch_size=64, train_steps=400,
                          epoch_steps=200, seed=7)
        agent = make_agent(cfg, 8, 4)
        summary = train_online(agent, make_env, start_steps=100,
                               checkpoint_dir=tmp_path,
                               log_path=tmp_path / "log.jsonl")
        assert len(summary.records) == 2
        assert len(summary.buffer) == 400
        view = summary.buffer.view()
        assert view.num_episodes == 3  # 144-step days plus a live tail
        assert view.obs.min() >= 0.0 and view.obs.max() <= 1.0
        assert view.actions.min() >= -1.0 and view.actions.max() <= 1.0

    def test_online_training_is_reproducible(self):
        def make_env(ep):
            return BuildingEnv(EnvConfig(kind="dc", weather="preset:chicago",
                                         days=1))

        def run():
            agent = make_agent(AgentConfig(algo="td3", batch_size=32,
                                           train_steps=200, epoch_steps=200,
                                           seed=19), 8, 4)
            return train_online(agent, make_env, start_steps=50)

        b1 = run().buffer
        b2 = run().buffer
        assert np.array_equal(b1.view().obs, b2.view().obs)
        assert np.array_equal(b1.view().actions, b2.view().actions)
        assert np.array_equal(b1.view().rewards, b2.view().rewards)


# ---------------------------------------------------------------------------
# config validation


class TestAgentConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(SpecError):
            AgentConfig(algo="ppo")
        with pytest.raises(SpecError):
            AgentConfig(gamma=1.0)
        with pytest.raises(SpecError):
            AgentConfig(batch_size=0)
        with pytest.raises(SpecError):
            AgentConfig(cql_weight=-1.0)
        with pytest.raises(SpecError):
            AgentConfig(seq_len=5)  # history off
        with pytest.raises(SpecError):
            AgentConfig(history=True, seq_len=0)
        for sizes in ({"hidden": 0}, {"hidden": -1}, {"enc_feat": 0},
                      {"enc_heads": 0}, {"enc_hidden": 0}, {"enc_blocks": -1}):
            with pytest.raises(SpecError):
                AgentConfig(**sizes)

    def test_history_config_builds_and_runs(self):
        view = make_view(n=200, ep=50, seed=15)
        cfg = AgentConfig(algo="td3", history=True, seq_len=6, enc_feat=16,
                          enc_blocks=1, enc_heads=4, enc_hidden=24,
                          batch_size=8, train_steps=0, seed=13)
        agent = make_agent(cfg, 4, 2)
        info = agent.update(view.sample_batch(8, 6, np.random.default_rng(0)))
        assert np.isfinite(info["critic_loss"])

    def test_fingerprint_tracks_config_and_dims(self):
        a = make_agent(AgentConfig(algo="td3", train_steps=0, seed=1), 4, 2)
        b = make_agent(AgentConfig(algo="td3", train_steps=0, seed=1), 5, 2)
        c = make_agent(AgentConfig(algo="td3", train_steps=0, seed=2), 4, 2)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
