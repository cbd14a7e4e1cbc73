import itertools
import json
import struct

import numpy as np
import pytest

from mecpriv.nn import (Adam, CheckpointError, NetworkSpec,
                        backward, clone_params, forward, forward_step,
                        gradient_check, init_hidden, init_params,
                        load_checkpoint, polyak_update, save_checkpoint,
                        zeros_like_params)
from mecpriv.nn import network
from mecpriv.nn.checkpoint import FORMAT_VERSION, MAGIC
from mecpriv.nn.network import _gru_backward, _gru_step

GRU_SPEC = NetworkSpec(input_dim=4, gru=(6,), dense=(5,), output_dim=3)
DENSE_SPEC = NetworkSpec(input_dim=6, gru=(), dense=(8, 8), output_dim=4)
STACK_SPEC = NetworkSpec(input_dim=4, gru=(6, 5), dense=(5,), output_dim=3)


@pytest.fixture(params=["gates-kept", "gates-rebuilt"])
def gate_path(request, monkeypatch):
    """Run a test with GATE_BYTES as is (small layers keep their gates) and
    at 0 (every GRU layer's gates are rebuilt in backward)."""
    if request.param == "gates-rebuilt":
        monkeypatch.setattr(network, "GATE_BYTES", 0)


def random_net(spec, seed=0):
    rng = np.random.default_rng(seed)
    return init_params(spec, rng), rng


def gates(p):
    """A GRU layer's per-gate arrays, w_z .. b_h, sliced from z | r | h."""
    n = p["u"].shape[0]
    return {f"{k}_{gate}": p[k][..., i * n:(i + 1) * n]
            for i, gate in enumerate("zrh") for k in ("w", "u", "b")}


def gru_case(batch, seed=4):
    """A 9-input, 16-unit GRU layer with nonzero biases, and an input and
    hidden state of the given batch."""
    params, rng = random_net(NetworkSpec(input_dim=9, gru=(16,), dense=(),
                                         output_dim=3), seed)
    p = {k: v + (0.1 * rng.standard_normal(v.shape) if k == "b" else 0)
         for k, v in params[0].items()}
    x = rng.standard_normal((batch, 9))
    h = np.tanh(rng.standard_normal((batch, 16)))
    return p, x, h, rng


class TestSpec:
    @pytest.mark.parametrize("w", [0, -1])
    def test_every_width_below_one_rejected(self, w):
        NetworkSpec(3, (4, 4), (5, 5), 2)
        for args in [(w, (4, 4), (5, 5), 2), (3, (w, 4), (5, 5), 2),
                     (3, (4, w), (5, 5), 2), (3, (4, 4), (w, 5), 2),
                     (3, (4, 4), (5, w), 2), (3, (4, 4), (5, 5), w)]:
            with pytest.raises(ValueError, match="every width must be >= 1"):
                NetworkSpec(*args)

    def test_gru_after_dense_rejected(self, tmp_path):
        # A spec has no way to put a GRU after a dense layer; a checkpoint
        # descriptor does, and the loader must not build a spec from it.
        blob = json.dumps({"input_dim": 3, "layers": [
            ["dense", 4, "relu"], ["gru", 4], ["dense", 2, "identity"]]},
            sort_keys=True, separators=(",", ":")).encode()
        # sized for its layers: dense(3, 4), GRU(4, 4), dense(4, 2)
        n = 3 * 4 + 4 + 2 * 4 * 12 + 12 + 4 * 2 + 2
        path = tmp_path / "net.qnet"
        path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob))
                         + blob + bytes(8 * n))
        with pytest.raises(CheckpointError,
                           match="layers must be GRU, then relu dense"):
            load_checkpoint(path)

    def test_default_recurrent_stack(self):
        from mecpriv.agents import AgentConfig, network_spec
        from mecpriv.env import EnvParams
        spec = network_spec(EnvParams(), AgentConfig(), recurrent=True)
        assert spec == NetworkSpec(input_dim=66, gru=(128,) * 3,
                                   dense=(128,) * 2, output_dim=54)
        assert spec.layer_dims() == [(66, 128)] + [(128, 128)] * 4 + \
            [(128, 54)]


class TestForward:
    def test_zero_gru_params_halve_hidden(self):
        spec = NetworkSpec(input_dim=3, gru=(4,), dense=(), output_dim=4)
        params = zeros_like_params(init_params(spec, np.random.default_rng(0)))
        v = np.array([[0.3, -0.2, 0.9, 0.5]])
        x = np.array([[[1.0, 2.0, -1.0]]])
        _, h, _ = forward(spec, params, x, h0=[v], collect_cache=False)
        # z = sigmoid(0) = 0.5 and candidate tanh(0) = 0, so h' = 0.5 * v
        assert np.allclose(h[0], 0.5 * v)

    def test_identity_dense_passthrough(self):
        spec = NetworkSpec(input_dim=3, gru=(), dense=(), output_dim=3)
        params = zeros_like_params(init_params(spec, np.random.default_rng(0)))
        params[0]["w"] = np.eye(3)
        xs = np.random.default_rng(1).standard_normal((4, 2, 3))
        out, _, _ = forward(spec, params, xs, collect_cache=False)
        assert np.array_equal(out, xs)

    def test_sequence_equals_threaded_steps_bitwise(self):
        params, rng = random_net(GRU_SPEC)
        xs = rng.standard_normal((7, 2, 4))
        full, h_full, _ = forward(GRU_SPEC, params, xs, collect_cache=False)
        h = None
        outs = []
        for t in range(7):
            y, h = forward_step(GRU_SPEC, params, xs[t], h)
            outs.append(y)
        assert np.array_equal(full, np.stack(outs))
        assert all(np.array_equal(a, b) for a, b in zip(h_full, h))

    @pytest.mark.parametrize("batch", [1, 2, 32])
    def test_gru_step_equals_gate_formulas_bitwise(self, batch):
        # The step fuses the gates' matmuls and works in place, into the
        # caller's arrays if given; a seeded training run must still give
        # the bits of the textbook form.
        p, x, h, _ = gru_case(batch)
        q = {k: v.copy() for k, v in gates(p).items()}
        sig = lambda a: 0.5 * (1.0 + np.tanh(0.5 * a))
        z = sig(x @ q["w_z"] + h @ q["u_z"] + q["b_z"])
        r = sig(x @ q["w_r"] + h @ q["u_r"] + q["b_r"])
        hc = np.tanh(x @ q["w_h"] + (r * h) @ q["u_h"] + q["b_h"])
        h_want = (1.0 - z) * h + z * hc
        assert np.array_equal(_gru_step(p, x, h), h_want)
        zr_out, hc_out, h_out = (np.empty((batch, k)) for k in (32, 16, 16))
        assert _gru_step(p, x, h, zr_out, hc_out, h_out) is h_out
        assert np.array_equal(h_out, h_want)
        assert np.array_equal(zr_out, np.hstack((z, r)))
        assert np.array_equal(hc_out, hc)

    def test_hidden_only_pass_matches_full_pass(self):
        # The cached, uncached and hidden-only passes step the whole GRU
        # stack per timestep; each must give the bits of a layer at a time
        # over the whole sequence, the order before.
        spec = STACK_SPEC
        params, rng = random_net(spec, 6)
        for batch, with_h0 in itertools.product((1, 2, 32), (False, True)):
            xs = rng.standard_normal((7, batch, 4))
            h_start = [np.tanh(rng.standard_normal((batch, n))) if with_h0
                       else np.zeros((batch, n)) for n in (6, 5)]
            h0 = [v.copy() for v in h_start] if with_h0 else None
            cur, h_want = xs, []
            for p, h in zip(params, h_start):
                outs = []
                for t in range(len(xs)):
                    outs.append(h := _gru_step(p, cur[t], h))
                cur = np.stack(outs)
                h_want.append(h)
            cur = np.maximum(cur @ params[2]["w"] + params[2]["b"], 0.0)
            want = cur @ params[3]["w"] + params[3]["b"]
            cached, h_cached, cache = forward(spec, params, xs, h0)
            plain, h_plain, none = forward(spec, params, xs, h0,
                                           collect_cache=False)
            out, h_only, no_cache = forward(spec, params, xs, h0,
                                            collect_cache=False,
                                            outputs=False)
            assert none is None and out is None and no_cache is None
            assert np.array_equal(cached, want)
            assert np.array_equal(plain, want)
            for got in (h_cached, h_plain, h_only):
                assert all(np.array_equal(a, b) for a, b in zip(got, h_want))
            # the cache holds each layer's states from the initial one on,
            # and no pass writes into h0
            for li in range(2):
                hs = cache.layers[li][1]
                assert np.array_equal(hs[0], h_start[li])
                assert np.array_equal(hs[-1], h_want[li])
            if with_h0:
                assert all(np.array_equal(a, b) for a, b in zip(h0, h_start))
        with pytest.raises(ValueError):
            forward(spec, params, xs, outputs=False)

    def test_length_one_equals_single_step(self):
        params, rng = random_net(GRU_SPEC, 3)
        x = rng.standard_normal((1, 5, 4))
        out_seq, h_seq, _ = forward(GRU_SPEC, params, x, collect_cache=False)
        out_one, h_one = forward_step(GRU_SPEC, params, x[0], None)
        assert np.array_equal(out_seq[0], out_one)
        assert np.array_equal(h_seq[0], h_one[0])

    def test_shape_mismatch_rejected(self):
        params, rng = random_net(GRU_SPEC)
        with pytest.raises(ValueError):
            forward(GRU_SPEC, params, rng.standard_normal((3, 2, 5)))
        with pytest.raises(ValueError):
            forward(GRU_SPEC, params, rng.standard_normal((3, 2, 4)),
                    h0=[np.zeros((2, 7))])

    def test_hidden_state_bounded(self):
        params, rng = random_net(GRU_SPEC, 5)
        xs = 10.0 * rng.standard_normal((50, 3, 4))
        _, h, _ = forward(GRU_SPEC, params, xs, collect_cache=False)
        assert np.all(np.abs(h[0]) < 1.0)

    def test_deterministic_given_seed(self):
        a, _ = random_net(GRU_SPEC, 11)
        b, _ = random_net(GRU_SPEC, 11)
        xs = np.random.default_rng(2).standard_normal((4, 2, 4))
        out_a, _, _ = forward(GRU_SPEC, a, xs, collect_cache=False)
        out_b, _, _ = forward(GRU_SPEC, b, xs, collect_cache=False)
        assert np.array_equal(out_a, out_b)


class TestBackward:
    def test_zero_output_gradient_gives_zero_grads(self):
        params, rng = random_net(GRU_SPEC, 7)
        xs = rng.standard_normal((5, 2, 4))
        out, _, cache = forward(GRU_SPEC, params, xs)
        grads = backward(cache, np.zeros_like(out))
        assert all(np.all(g == 0.0) for layer in grads for g in layer.values())

    def test_linear_layer_closed_form(self):
        spec = NetworkSpec(input_dim=3, gru=(), dense=(), output_dim=2)
        params, rng = random_net(spec, 1)
        x = rng.standard_normal((1, 4, 3))
        out, _, cache = forward(spec, params, x)
        dy = rng.standard_normal(out.shape)
        grads = backward(cache, dy)
        assert np.allclose(grads[0]["w"], x[0].T @ dy[0], atol=1e-15)
        assert np.allclose(grads[0]["b"], dy[0].sum(axis=0), atol=1e-15)

    def test_gradcheck_dense_only(self):
        assert gradient_check(DENSE_SPEC, 7) <= 1e-6

    def test_gradcheck_gru(self):
        spec = NetworkSpec(input_dim=5, gru=(4,), dense=(), output_dim=4)
        assert gradient_check(spec, 7, seq_len=6) <= 1e-4

    def test_gradcheck_stacked(self):
        spec = NetworkSpec(input_dim=5, gru=(4, 3), dense=(6,), output_dim=4)
        assert gradient_check(spec, 11, seq_len=5) <= 1e-4

    def test_gradcheck_stacked_batch(self, gate_path):
        # batch 1 checks BLAS's matrix-vector path; training runs gemm
        spec = NetworkSpec(input_dim=5, gru=(4, 3), dense=(6,), output_dim=4)
        assert gradient_check(spec, 11, seq_len=5, batch=3) <= 1e-4

    def test_rebuilt_gates_equal_kept_gates_bitwise(self, monkeypatch):
        # A GRU layer whose (T, B, 3n) gate block is over GATE_BYTES caches
        # no gates, and backward rebuilds them step by step with the
        # forward's own calls: the gradients keep every bit. The middle
        # limit is the GRU(5) layer's block exactly, so it keeps its gates
        # and the GRU(6) layer below it does not.
        params, rng = random_net(STACK_SPEC, 6)
        for batch, with_h0 in itertools.product((1, 2, 32), (False, True)):
            xs = rng.standard_normal((7, batch, 4))
            h0 = ([np.tanh(rng.standard_normal((batch, n))) for n in (6, 5)]
                  if with_h0 else None)
            dy = rng.standard_normal((7, batch, 3))
            runs = []
            for limit in (network.GATE_BYTES, 7 * batch * 15 * 8, 0):
                monkeypatch.setattr(network, "GATE_BYTES", limit)
                out, _, cache = forward(STACK_SPEC, params, xs, h0)
                for n, (_, hs, zr, hc) in zip((6, 5), cache.layers):
                    assert hs.shape == (8, batch, n)
                    if 7 * batch * 3 * n * 8 <= limit:
                        assert zr.shape == (7, batch, 2 * n)
                        assert hc.shape == (7, batch, n)
                    else:
                        assert zr is None and hc is None
                runs.append((out, backward(cache, dy)))
            (out, grads), *others = runs
            for out_b, grads_b in others:
                assert np.array_equal(out_b, out)
                assert all(np.array_equal(a[k], b[k])
                           for a, b in zip(grads, grads_b) for k in a)

    def test_backward_writes_nothing_and_repeats(self, gate_path):
        # backward reads grad_out and the cache only, so a second backward
        # on the same cache gives the same gradients
        params, rng = random_net(STACK_SPEC, 12)
        xs = rng.standard_normal((6, 4, 4))
        out, _, cache = forward(STACK_SPEC, params, xs)
        dy = rng.standard_normal(out.shape)
        dy_before = dy.copy()
        arrays = [a for layer in cache.layers for a in layer if a is not None]
        before = [a.copy() for a in arrays]
        first = backward(cache, dy)
        second = backward(cache, dy)
        assert np.array_equal(dy, dy_before)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert all(np.array_equal(a[k], b[k])
                   for a, b in zip(first, second) for k in a)

    def test_corrupted_gradient_detected(self):
        # negative control: a broken analytic gradient must show up
        spec = NetworkSpec(input_dim=3, gru=(), dense=(), output_dim=3)
        params, rng = random_net(spec, 2)
        xs = rng.standard_normal((2, 1, 3))
        target = rng.standard_normal((2, 1, 3))
        out, _, cache = forward(spec, params, xs)
        grads = backward(cache, out - target)
        grads[0]["w"][0, 0] += 0.5

        def loss():
            o, _, _ = forward(spec, params, xs, collect_cache=False)
            return 0.5 * float(np.sum((o - target) ** 2))

        orig = params[0]["w"][0, 0]
        params[0]["w"][0, 0] = orig + 1e-5
        up = loss()
        params[0]["w"][0, 0] = orig - 1e-5
        down = loss()
        params[0]["w"][0, 0] = orig
        numeric = (up - down) / 2e-5
        rel = abs(grads[0]["w"][0, 0] - numeric) / max(
            abs(grads[0]["w"][0, 0]), abs(numeric))
        assert rel > 1e-2

    @pytest.mark.parametrize("need_dx", [False, True])
    @pytest.mark.parametrize("batch", [1, 2, 32])
    def test_gru_backward_equals_gate_formulas_bitwise(self, batch, need_dx):
        # The textbook per-gate backward step on contiguous per-gate
        # arrays, in the order of operations the fused step keeps.
        p, x, h, rng = gru_case(batch, 5)
        zr, hc = np.empty((batch, 32)), np.empty((batch, 16))
        _gru_step(p, x, h, zr, hc)
        c = (x, h, zr, hc)
        dh_total = rng.standard_normal(h.shape)
        g = {k: rng.standard_normal(v.shape) for k, v in p.items()}
        q = {k: v.copy() for k, v in gates(p).items()}
        want = {k: v.copy() for k, v in gates(g).items()}
        z, r = zr[:, :16], zr[:, 16:]
        dz = dh_total * (hc - h)
        dhin = dh_total * z * (1.0 - hc * hc)
        drh = dhin @ q["u_h"].T
        dzin = dz * z * (1.0 - z)
        drin = drh * h * r * (1.0 - r)
        dh_prev = (dh_total * (1.0 - z) + drh * r + dzin @ q["u_z"].T
                   + drin @ q["u_r"].T)
        for gate, d, hh in (("z", dzin, h), ("r", drin, h),
                            ("h", dhin, r * h)):
            want[f"w_{gate}"] += x.T @ d
            want[f"u_{gate}"] += hh.T @ d
            want[f"b_{gate}"] += d.sum(axis=0)
        dx, got_dh = _gru_backward(p, g, c, dh_total, need_dx)
        assert np.array_equal(got_dh, dh_prev)
        assert all(np.array_equal(v, want[k]) for k, v in gates(g).items())
        if need_dx:
            assert np.array_equal(dx, dhin @ q["w_h"].T + dzin @ q["w_z"].T
                                  + drin @ q["w_r"].T)
        else:
            assert dx is None

    def test_gradient_shape_mismatch_rejected(self):
        params, rng = random_net(GRU_SPEC, 9)
        xs = rng.standard_normal((4, 2, 4))
        out, _, cache = forward(GRU_SPEC, params, xs)
        with pytest.raises(ValueError):
            backward(cache, np.zeros((4, 2, 5)))
        with pytest.raises(ValueError):
            backward(cache, np.zeros((3, 2, 3)))


class TestOptim:
    def test_adam_first_step_magnitude(self):
        # bias-corrected first step moves by about lr regardless of scale
        for c in (0.1, 3.0, 250.0):
            params = [{"w": np.array([1.0])}]
            assert Adam(0.01).step(params, [{"w": np.array([c])}]) is None
            assert params[0]["w"][0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_nonfinite_gradient_rejected(self):
        # a rejected step writes neither the params nor either moment
        opt = Adam(0.1)
        params = [{"w": np.array([1.0, 2.0]), "b": np.array([0.5])}]
        opt.step(params, [{"w": np.array([0.3, -1.0]), "b": np.array([2.0])}])
        before = [clone_params(x) for x in (params, opt._m, opt._v)]
        with pytest.raises(ValueError):
            opt.step(params, [{"w": np.array([1.0, 1.0]),
                               "b": np.array([np.nan])}])
        for got, want in zip((params, opt._m, opt._v), before):
            assert all(np.array_equal(a[k], b[k])
                       for a, b in zip(got, want) for k in a)
        assert opt.t == 1

    def test_polyak_endpoints(self):
        for tau, want in ((0.0, 1.0), (1.0, 0.0), (0.5, 0.5)):
            tgt = [{"w": np.array([0.0])}]
            assert polyak_update(tgt, [{"w": np.array([1.0])}], tau) is None
            assert tgt[0]["w"][0] == want

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.99, 1 - 1e-4, 1.0])
    def test_polyak_in_place_is_the_formula_bitwise(self, tau):
        # the oracle: tau * t + (1 - tau) * o, a new array per entry
        rng = np.random.default_rng(17)
        target, online = (init_params(GRU_SPEC, rng) for _ in range(2))
        want = [{k: tau * t[k] + (1.0 - tau) * o[k] for k in t}
                for t, o in zip(target, online)]
        arrays = [t[k] for t in target for k in t]
        assert polyak_update(target, online, tau) is None
        assert all(a is b for a, b in zip(
            [t[k] for t in target for k in t], arrays))
        assert all(a[k].tobytes() == b[k].tobytes()
                   for a, b in zip(target, want) for k in a)
        # aliased: online is the target itself
        want = [{k: tau * t[k] + (1.0 - tau) * t[k] for k in t}
                for t in target]
        polyak_update(target, target, tau)
        assert all(a[k].tobytes() == b[k].tobytes()
                   for a, b in zip(target, want) for k in a)

    def test_polyak_validation(self):
        tgt = [{"w": np.array([0.0])}]
        with pytest.raises(ValueError):
            polyak_update(tgt, [{"w": np.zeros(2)}], 0.5)
        with pytest.raises(ValueError):
            polyak_update(tgt, tgt, 1.5)


class TestCheckpoint:
    def test_round_trip_byte_exact(self, tmp_path):
        params, _ = random_net(GRU_SPEC, 13)
        first = tmp_path / "a.qnet"
        second = tmp_path / "b.qnet"
        save_checkpoint(first, GRU_SPEC, params)
        spec2, params2 = load_checkpoint(first)
        assert spec2 == GRU_SPEC
        assert all(np.array_equal(a[k], b[k])
                   for a, b in zip(params, params2) for k in a)
        save_checkpoint(second, spec2, params2)
        assert first.read_bytes() == second.read_bytes()

    def test_v1_layout_stores_gru_gates_one_by_one(self, tmp_path):
        # The file keeps the per-gate order of format 1, whatever the
        # in-memory layout: w_z, u_z, b_z, w_r, .., b_h per GRU layer.
        spec = NetworkSpec(input_dim=4, gru=(3, 2), dense=(), output_dim=2)
        rng = np.random.default_rng(17)
        blob = (b'{"input_dim":4,"layers":[["gru",3],["gru",2],'
                b'["dense",2,"identity"]]}')
        expected = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(blob)),
                    blob]
        params = []
        for d, n in ((4, 3), (3, 2)):
            per_gate = [[rng.standard_normal(shape)
                         for shape in ((d, n), (n, n), (n,))]
                        for _ in "zrh"]
            expected += [a.astype("<f8").tobytes()
                         for gate in per_gate for a in gate]
            params.append({k: np.concatenate([gate[i] for gate in per_gate],
                                             axis=-1)
                           for i, k in enumerate(("w", "u", "b"))})
        dense = {"w": rng.standard_normal((2, 2)), "b": rng.standard_normal(2)}
        expected += [dense["w"].tobytes(), dense["b"].tobytes()]
        params.append(dense)
        path = tmp_path / "v1.qnet"
        save_checkpoint(path, spec, params)
        assert path.read_bytes() == b"".join(expected)
        spec2, params2 = load_checkpoint(path)
        assert spec2 == spec
        assert [sorted(layer) for layer in params2] == \
            [["b", "u", "w"]] * 2 + [["b", "w"]]
        assert all(np.array_equal(a[k], b[k]) and a[k].shape == b[k].shape
                   for a, b in zip(params, params2) for k in a)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.qnet"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("input_dim", [True, 2.0, 2.9])
    def test_non_integer_input_dim_rejected(self, tmp_path, input_dim):
        # the parameter bytes fit the net that int(input_dim) would give
        blob = json.dumps({"input_dim": input_dim,
                           "layers": [["dense", 1, "identity"]]}).encode()
        path = tmp_path / "size.qnet"
        path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob))
                         + blob + bytes(8 * (int(input_dim) + 1)))
        with pytest.raises(CheckpointError, match="not an integer"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.qnet"
        params, _ = random_net(DENSE_SPEC, 1)
        save_checkpoint(path, DENSE_SPEC, params)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestInit:
    def test_biases_zero_kernels_bounded(self):
        params, _ = random_net(GRU_SPEC, 21)
        arrays = [*gates(params[0]).items(), *params[1].items(),
                  *params[2].items()]
        assert len(arrays) == 13
        for name, arr in arrays:
            if name.startswith("b"):
                assert np.all(arr == 0.0)
            else:
                fan_in, fan_out = arr.shape
                lim = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.all(np.abs(arr) <= lim)

    def test_gru_init_draws_gate_by_gate(self):
        spec = NetworkSpec(input_dim=3, gru=(2,), dense=(), output_dim=1)
        params, _ = random_net(spec, 8)
        rng = np.random.default_rng(8)
        for gate in "zrh":
            for name, shape in ((f"w_{gate}", (3, 2)), (f"u_{gate}", (2, 2))):
                lim = np.sqrt(6.0 / sum(shape))
                assert np.array_equal(gates(params[0])[name],
                                      rng.uniform(-lim, lim, size=shape))
        assert set(params[0]) == {"w", "u", "b"}

    def test_clone_is_deep(self):
        params, _ = random_net(DENSE_SPEC, 4)
        copy = clone_params(params)
        copy[0]["w"][0, 0] += 1.0
        assert params[0]["w"][0, 0] != copy[0]["w"][0, 0]

    def test_init_hidden_shapes(self):
        h = init_hidden(GRU_SPEC, 3)
        assert len(h) == 1 and h[0].shape == (3, 6)
        assert np.all(h[0] == 0.0)
