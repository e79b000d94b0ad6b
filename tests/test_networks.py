"""Layer, encoder, optimizer, sampler, and checkpoint behavior."""
import tracemalloc

import numpy as np
import pytest

from hvacrl import container
from hvacrl.agents import CHECKPOINT_MAGIC, AgentConfig, load_agent, make_agent
from hvacrl.agents import core as agents_core
from hvacrl.cli import main
from hvacrl.errors import DataError, FingerprintMismatchError, SpecError
from hvacrl.neuralsub import tensor as T
from hvacrl.neuralsub.layers import MLP, EncoderConfig, HistoryEncoder, Linear
from hvacrl.neuralsub.optim import Adam
from hvacrl.neuralsub.sampling import (sample_tanh_gaussian,
                                       tanh_gaussian_action)

from container_cases import ContainerCases, rewrite_header
from gradcheck import TOL, check_module
import reference_graphs as R
from reference_graphs import causal_bias, composed_attention, param_arrays

SMALL = EncoderConfig(window=6, feat=16, blocks=2, heads=4, hidden=24)


def make_window(rng, batch, cfg, obs_size, counts=None):
    """A zero-padded window batch and its observation counts."""
    window = rng.normal(size=(batch, cfg.window, obs_size)).astype(np.float32)
    if counts is None:
        counts = rng.integers(1, cfg.window + 1, size=batch)
    counts = np.asarray(counts)
    window[np.arange(cfg.window) >= counts[:, None]] = 0.0
    return window, counts


class TestEncoder:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        enc = HistoryEncoder(5, SMALL, rng)
        window, counts = make_window(rng, 7, SMALL, 5)
        out = enc(window, counts)
        assert out.shape == (7, SMALL.feat)

    def test_padding_slots_are_inert(self):
        # rewriting the padded tail must not move the readout at all
        rng = np.random.default_rng(1)
        enc = HistoryEncoder(4, SMALL, rng)
        window, counts = make_window(rng, 5, SMALL, 4, counts=[1, 2, 3, 4, 6])
        base = enc(window, counts).data.copy()
        noisy = window.copy()
        pad = np.arange(SMALL.window) >= counts[:, None]
        noisy[pad] = rng.normal(size=noisy.shape)[pad].astype(np.float32) * 10
        again = enc(noisy, counts).data
        assert np.array_equal(base, again)

    def test_readout_is_causal_in_history_length(self):
        # a window of n valid slots sees exactly the first n observations:
        # extending the history must not change the shorter window's output
        rng = np.random.default_rng(2)
        enc = HistoryEncoder(3, SMALL, rng)
        window, _ = make_window(rng, 1, SMALL, 3, counts=[SMALL.window])
        for n in range(1, SMALL.window):
            short = window.copy()
            short[:, n:] = 0.0
            out_short = enc(short, np.array([n])).data
            out_full_prefix = enc(window, np.array([SMALL.window])).data
            # different readout positions, so only check self-consistency
            again = enc(short + 0.0, np.array([n])).data
            assert np.array_equal(out_short, again)
            assert out_short.shape == out_full_prefix.shape

    def test_changing_a_valid_slot_changes_output(self):
        rng = np.random.default_rng(3)
        enc = HistoryEncoder(4, SMALL, rng)
        window, counts = make_window(rng, 1, SMALL, 4, counts=[4])
        base = enc(window, counts).data.copy()
        window[0, 0] += 1.0
        assert not np.allclose(enc(window, counts).data, base)

    def test_rejects_out_of_range_or_mask_shaped_counts(self):
        rng = np.random.default_rng(4)
        enc = HistoryEncoder(3, SMALL, rng)
        window = np.zeros((2, SMALL.window, 3), dtype=np.float32)
        for counts in (np.array([1, 0]), np.array([SMALL.window + 1, 2]),
                       np.ones((2, SMALL.window), dtype=np.int64)):
            for forward in (enc, enc.rows):
                with pytest.raises(SpecError):
                    forward(window, counts)

    def test_rejects_bad_window_length(self):
        rng = np.random.default_rng(5)
        enc = HistoryEncoder(3, SMALL, rng)
        window = np.zeros((1, SMALL.window + 1, 3), dtype=np.float32)
        for forward in (enc, enc.rows):
            with pytest.raises(SpecError):
                forward(window, np.array([1]))

    def test_gradients_reach_every_parameter(self):
        rng = np.random.default_rng(6)
        enc = HistoryEncoder(4, SMALL, rng)
        window, counts = make_window(rng, 3, SMALL, 4)
        T.backward(T.mean(T.square(enc(window, counts))))
        for name, p in enc.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_encoder_gradcheck(self):
        rng = np.random.default_rng(7)
        enc = HistoryEncoder(4, SMALL, rng)
        window, counts = make_window(rng, 3, SMALL, 4, counts=[2, 4, 6])
        probe = rng.uniform(-1, 1, size=(3, SMALL.feat))

        def forward():
            return T.mean(T.mul(enc(window, counts), probe))

        assert check_module(enc, forward, rng, samples_per_param=3) <= TOL

    def test_matches_reference_that_rebuilds_the_mask(self):
        # the pre-node encoder: a fresh causal mask per call, the composed
        # attention graph and a per-block repeat of the bias over heads
        cfg = EncoderConfig(window=6, feat=20, blocks=2, heads=4, hidden=24)
        rng = np.random.default_rng(8)
        enc = HistoryEncoder(4, cfg, rng)
        window, counts = make_window(rng, 5, cfg, 4, counts=[1, 6, 3, 2, 5])
        probe = rng.uniform(-1, 1, size=(5, cfg.feat)).astype(np.float32)

        def reference(window, counts):
            b, n, _ = window.shape
            x = T.add(enc.embed(window),
                      T.reshape(enc.position, (1, n, cfg.feat)))
            for blk in enc.blocks:
                a = blk.attn
                att = composed_attention(a.wq(x), a.wk(x), a.wv(x), a.heads,
                                         causal_bias(counts, n, a.heads))
                x = R.layer_norm(T.add(x, a.wo(att)), blk.norm1.gain,
                                 blk.norm1.bias)
                ff = T.mlp(x, [(blk.ff1.w, blk.ff1.b), (blk.ff2.w, blk.ff2.b)])
                x = R.layer_norm(T.add(x, ff), blk.norm2.gain, blk.norm2.bias)
            return T.take_per_row(x, counts - 1)

        results = []
        for forward in (enc, reference):
            for p in enc.parameters():
                p.grad = None
            out = forward(window, counts)
            T.backward(T.sum_(T.mul(out, probe)))
            results.append([out.data] + [p.grad for p in enc.parameters()])
        for got, ref in zip(*results):
            assert np.array_equal(got, ref)

    def test_causal_mask_is_not_a_parameter(self):
        enc = HistoryEncoder(3, SMALL, np.random.default_rng(9))
        assert not any("causal" in name for name, _ in enc.named_parameters())

    def test_config_validation(self):
        with pytest.raises(SpecError):
            EncoderConfig(window=0)
        with pytest.raises(SpecError):
            EncoderConfig(feat=10, heads=4)


class TestMLP:
    def test_shapes_and_final_gain(self):
        rng = np.random.default_rng(0)
        net = MLP([6, 20, 20, 3], rng, final_gain=0.01)
        x = rng.normal(size=(5, 6)).astype(np.float32)
        y = net(x)
        assert y.shape == (5, 3)
        # the small final gain keeps initial outputs near zero
        assert np.abs(y.data).max() < 0.05
        assert len(net.parameters()) == 6

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        net = MLP([4, 10, 2], rng)
        x = rng.normal(size=(6, 4)).astype(np.float32)

        def forward():
            return T.mean(T.square(net(x)))

        assert check_module(net, forward, rng) <= TOL

    def test_state_roundtrip(self):
        rng = np.random.default_rng(2)
        net = MLP([3, 5, 2], rng)
        other = MLP([3, 5, 2], rng)
        other.copy_from(net)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        assert np.array_equal(net(x).data, other(x).data)

    def test_polyak_blend(self):
        rng = np.random.default_rng(3)
        a = Linear(3, 2, rng)
        b = Linear(3, 2, rng)
        wa, wb = a.w.data.copy(), b.w.data.copy()
        a.polyak_from(b, tau=0.25)
        assert np.allclose(a.w.data, 0.75 * wa + 0.25 * wb, atol=1e-6)


class TestFrozen:
    def test_frozen_block_records_no_parameter_gradients(self):
        rng = np.random.default_rng(20)
        frozen, live = MLP([3, 4, 1], rng), MLP([3, 4, 3], rng)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        with frozen.frozen():
            assert frozen.parameters() == []
            T.backward(T.sum_(frozen(live(x))))
        assert all(p.grad is None for p in frozen.parameters())
        assert all(p.grad is not None for p in live.parameters())

    def test_requires_grad_restored_after_an_exception(self):
        mlp = MLP([3, 4, 2], np.random.default_rng(21))
        names = [name for name, _ in mlp.named_parameters()]
        with pytest.raises(RuntimeError):
            with mlp.frozen():
                raise RuntimeError("inside the block")
        assert [name for name, _ in mlp.named_parameters()] == names
        assert all(p.requires_grad for p in mlp.parameters())


class TestAdam:
    def test_minimizes_quadratic(self):
        rng = np.random.default_rng(0)
        x = T.parameter(rng.normal(size=4).astype(np.float32) * 3)
        opt = Adam([x], lr=0.05)
        target = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
        for _ in range(400):
            opt.zero_grad()
            T.backward(T.mean(T.square(T.sub(x, target))))
            opt.step()
        assert np.allclose(x.data, target, atol=1e-2)

    def test_no_gradient_leaves_params_unchanged(self):
        x = T.parameter(np.ones(3, dtype=np.float32))
        opt = Adam([x])
        before = x.data.copy()
        opt.zero_grad()
        opt.step()
        assert opt.t == 1
        assert np.array_equal(x.data, before)

    def test_zero_gradient_leaves_params_unchanged(self):
        x = T.parameter(np.ones(3, dtype=np.float32))
        opt = Adam([x])
        x.grad = np.zeros(3, dtype=np.float32)
        opt.step()
        assert opt.t == 1
        assert np.array_equal(x.data, np.ones(3, dtype=np.float32))

    def test_state_before_the_first_step_is_zero_moments(self):
        # the moments are allocated by the first step; until then the
        # state reads as zero moments of each parameter's shape
        params = [T.parameter(np.ones((2, 3), dtype=np.float32)),
                  T.parameter(np.ones(4, dtype=np.float32))]
        opt = Adam(params)
        state = opt.state_arrays()
        assert sorted(state) == ["m.0", "m.1", "t", "v.0", "v.1"]
        assert state["t"].tolist() == [0.0]
        for i, p in enumerate(params):
            for key in (f"m.{i}", f"v.{i}"):
                assert state[key].dtype == p.data.dtype
                assert state[key].shape == p.data.shape
                assert not state[key].any()
        opt.step()
        assert opt.state_arrays()["t"].tolist() == [1.0]


class TestTanhGaussianSampler:
    def test_sample_in_open_interval(self):
        rng = np.random.default_rng(0)
        mean = T.Tensor(rng.normal(size=(256, 3)).astype(np.float32))
        log_std = T.Tensor(np.full((256, 3), -1.0, dtype=np.float32))
        a, logp = sample_tanh_gaussian(mean, log_std, rng)
        assert np.all(np.abs(a.data) < 1.0)
        assert logp.shape == (256,)
        assert np.isfinite(logp.data).all()

    def test_log_prob_finite_near_saturation(self):
        # huge means push tanh within 1e-6 of +/-1; log-prob must stay finite
        rng = np.random.default_rng(1)
        mean = T.Tensor(np.array([[30.0, -30.0]], dtype=np.float32))
        log_std = T.Tensor(np.zeros((1, 2), dtype=np.float32))
        a, logp = sample_tanh_gaussian(mean, log_std, rng)
        assert np.abs(a.data).max() >= 1.0 - 1e-6
        assert np.isfinite(logp.data).all()

    def test_deterministic_mode_returns_tanh_mean(self):
        rng = np.random.default_rng(2)
        mean = T.Tensor(rng.normal(size=(4, 2)).astype(np.float32))
        log_std = T.Tensor(np.zeros((4, 2), dtype=np.float32))
        a, _ = R.sample_tanh_gaussian(mean, log_std, rng, deterministic=True)
        assert np.allclose(a.data, np.tanh(mean.data), atol=1e-6)

    def test_matches_plain_numpy_log_prob(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=(64, 3)).astype(np.float32)
        log_std = rng.uniform(-2, 0, size=(64, 3)).astype(np.float32)
        a, logp = sample_tanh_gaussian(T.Tensor(mean), T.Tensor(log_std), rng)
        ref = R.tanh_gaussian_log_prob(mean.astype(np.float64),
                                       log_std.astype(np.float64),
                                       a.data.astype(np.float64))
        assert np.allclose(logp.data, ref, atol=1e-3)

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_plain_action_matches_taped_sample(self, deterministic):
        mean = np.random.default_rng(4).normal(size=(64, 3)).astype(np.float32)
        log_std = np.linspace(-25, 5, 192, dtype=np.float32).reshape(64, 3)
        rng_taped, rng_plain = np.random.default_rng(11), np.random.default_rng(11)
        a, _ = R.sample_tanh_gaussian(T.Tensor(mean), T.Tensor(log_std),
                                      rng_taped, deterministic=deterministic)
        got = tanh_gaussian_action(mean, log_std, rng_plain, deterministic)
        assert got.dtype == a.data.dtype
        assert np.array_equal(got, a.data)
        assert rng_plain.bit_generator.state == rng_taped.bit_generator.state

    def test_entropy_matches_quadrature_oracle(self):
        # oracle: H(tanh(u)) = H(u) + E[log(1 - tanh(u)^2)], the expectation
        # taken by Gauss-Hermite quadrature; Monte Carlo -mean(logp) must
        # land within 2%
        rng = np.random.default_rng(4)
        mu = np.array([0.3, -0.8, 1.2])
        log_sigma = np.array([-0.5, 0.0, -1.2])
        sigma = np.exp(log_sigma)
        nodes, weights = np.polynomial.hermite_e.hermegauss(101)
        correction = 0.0
        for m, s in zip(mu, sigma):
            u = m + s * nodes
            vals = 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))
            correction += (weights * vals).sum() / np.sqrt(2.0 * np.pi)
        h_gauss = (log_sigma + 0.5 * np.log(2.0 * np.pi * np.e)).sum()
        oracle = h_gauss + correction

        n = 60_000
        mean = T.Tensor(np.tile(mu, (n, 1)).astype(np.float32))
        log_std = T.Tensor(np.tile(log_sigma, (n, 1)).astype(np.float32))
        _, logp = sample_tanh_gaussian(mean, log_std, rng)
        mc = -logp.data.mean()
        assert abs(mc - oracle) <= 0.02 * abs(oracle)

    def test_gradients_flow_to_mean_and_log_std(self):
        rng = np.random.default_rng(5)
        mean = T.parameter(np.zeros((8, 2), dtype=np.float32))
        log_std = T.parameter(np.full((8, 2), -0.5, dtype=np.float32))
        _, logp = sample_tanh_gaussian(mean, log_std, rng)
        T.backward(T.mean(logp))
        assert mean.grad is not None and np.isfinite(mean.grad).all()
        assert log_std.grad is not None and np.isfinite(log_std.grad).all()


class CheckpointFormat:
    """Agent checkpoints, written by `Agent.save`, read by `load_agent`."""

    magic = CHECKPOINT_MAGIC

    def save(self, path):
        agent = make_agent(AgentConfig(algo="sac", hidden=16, seed=7), 4, 2)
        agent.save(path, epoch=1, step=100)
        return self.state(agent, {"seed": 7, "update_count": 0}, 100), \
            param_arrays(agent)

    def load(self, path):
        agent, header = load_agent(path)
        return self.state(agent, header["seed_record"],
                          header["meta"]["step"]), param_arrays(agent)

    @staticmethod
    def state(agent, seed_record, step):
        return {"config": agent.fingerprint(), "seed_record": seed_record,
                "step": step}

    def resave(self, src, dst):
        load_agent(src)[0].save(dst, epoch=1, step=100)

    def verify(self, path):
        container.verify(path, self.magic)


#: edits of a SAC checkpoint's arrays that no agent's parameters match
MISMATCHED_ARRAYS = {
    "no-log-alpha": lambda a: a.pop("log_alpha"),
    "log-alpha-shape-3": lambda a: a.update(log_alpha=np.zeros(3, np.float32)),
    "log-alpha-shape-1": lambda a: a.update(log_alpha=np.zeros(1, np.float32)),
    "extra-array": lambda a: a.update(stray=np.zeros(2, np.float32)),
    "no-critic-weight": lambda a: a.pop(
        min(k for k in a if k.startswith("critic."))),
    "log-alpha-float64": lambda a: a.update(
        log_alpha=a["log_alpha"].astype(np.float64)),
}


class TestCheckpoint(ContainerCases):
    fmt = CheckpointFormat()

    @pytest.mark.parametrize("edit", MISMATCHED_ARRAYS.values(),
                             ids=MISMATCHED_ARRAYS.keys())
    def test_arrays_must_match_the_agents_parameters(self, tmp_path, capsys,
                                                     edit):
        # built for `dc`'s 8/4 obs/act dims, so `eval` gets as far as loading
        path = tmp_path / "model.ckpt"
        make_agent(AgentConfig(algo="sac", hidden=16, seed=7), 8, 4).save(
            path, epoch=1, step=100)
        header, arrays = container.read(path, CHECKPOINT_MAGIC)
        del header["columns"]
        edit(arrays)
        container.write(path, CHECKPOINT_MAGIC, header, sorted(arrays.items()))
        with pytest.raises(SpecError):
            load_agent(path)
        assert main(["eval", "--ckpt", str(path), "--days", "0.25",
                     "--out", str(tmp_path / "e")], env_vars={}) == 3
        assert "SpecError" in capsys.readouterr().err

    def test_fingerprint_mismatch_refuses_to_load(self, tmp_path):
        path = tmp_path / "model.ckpt"
        self.fmt.save(path)
        rewrite_header(path, lambda h: {**h, "config_fingerprint": "zzz999"})
        with pytest.raises(FingerprintMismatchError):
            load_agent(path)

    def test_fingerprint_is_compared_before_networks_are_built(
            self, tmp_path, monkeypatch):
        # a changed dimension must not build (and allocate) its networks
        path = tmp_path / "model.ckpt"
        self.fmt.save(path)
        rewrite_header(path, lambda h: {**h, "meta": {**h["meta"],
                                                      "obs_dim": 10 ** 6}})
        monkeypatch.setattr(agents_core, "make_agent", None)
        with pytest.raises(FingerprintMismatchError):
            load_agent(path)

    def test_load_holds_about_one_copy_of_the_parameters(self, tmp_path):
        # the payloads are read straight into the parameters, and an agent
        # that has not trained holds no Adam moments
        path = tmp_path / "expert.ckpt"
        make_agent(AgentConfig(algo="sac", history=True, seq_len=8), 8,
                   4).save(path, epoch=0, step=0)
        tracemalloc.start()
        agent, _ = load_agent(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        params = sum(p.data.nbytes for p in agent.parameters())
        assert peak <= 1.5 * params, peak / params

    def test_read_into_refuses_an_array_it_cannot_fill_in_place(self,
                                                                 tmp_path):
        # a flat view of a transposed array is a copy: the read would be lost
        path = tmp_path / "a"
        container.write(path, CHECKPOINT_MAGIC, {},
                        [("w", np.ones((2, 3), np.float32))])
        target = {"w": np.zeros((3, 2), np.float32).T}
        with pytest.raises(SpecError):
            container.read(path, CHECKPOINT_MAGIC, into=lambda header: target)
        assert not target["w"].any()

    def test_previous_format_rejected(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        self.fmt.save(path)
        path.write_bytes(b"HVCK0001" + path.read_bytes()[8:])
        with pytest.raises(DataError, match="HVCK0001.*HVCK0002"):
            load_agent(path)
        assert main(["eval", "--ckpt", str(path), "--days", "0.25",
                     "--out", str(tmp_path / "e")], env_vars={}) == 3
        assert "HVCK0002" in capsys.readouterr().err
