import os
import signal
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

from oracles import (adam_reference, finite_diff_grad, gauss_solve,
                     mlp_backward_reference, mlp_forward_reference,
                     mlp_scalar_forward, sigmoid_reference, solve_spd_lu)
from ncacf import numerics
from ncacf.errors import TrainingDivergedError
from ncacf.numerics import (AdamState, Layer, MLPParams, adam_step, mlp_backward,
                            mlp_forward, relu, sigmoid, solve_spd)


def random_mlp(rng, dims, acts=None, bias=True):
    layers = []
    for i in range(len(dims) - 1):
        act = acts[i] if acts else ("relu" if i < len(dims) - 2 else "identity")
        layers.append(Layer(rng.normal(0, 1, (dims[i + 1], dims[i])),
                            rng.normal(0, 1, dims[i + 1]) if bias else None, act))
    return MLPParams(layers)


class TestSolveSpd:
    def test_identity_system(self):
        npt.assert_allclose(solve_spd(np.eye(3), np.array([1.0, 2, 3])), [1, 2, 3])

    def test_scaled_identity(self):
        npt.assert_allclose(solve_spd(2 * np.eye(2), np.array([4.0, 6])), [2, 3])

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(0)
        G = rng.normal(0, 1, (5, 5))
        A = G.T @ G + np.eye(5)
        b = rng.normal(0, 1, 5)
        npt.assert_allclose(solve_spd(A, b), gauss_solve(A, b), atol=1e-10)

    def test_residual_bound_on_random_ridge_systems(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(1, 33))
            G = rng.normal(0, 1, (k, k))
            lam = float(rng.uniform(0.01, 10))
            A = G.T @ G + lam * np.eye(k)
            b = rng.normal(0, 1, k)
            x = solve_spd(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))

    def test_non_pd_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_spd(-np.eye(2), np.ones(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    @staticmethod
    def _spd_stack(rng, n, k):
        G = rng.normal(0, 1, (n, k, k))
        A = G @ G.swapaxes(1, 2) + 0.5 * np.eye(k)
        return (A + A.swapaxes(1, 2)) / 2, rng.normal(0, 1, (n, k))

    def test_stack_solves_each_system_alone(self):
        A, b = self._spd_stack(np.random.default_rng(2), 7, 5)
        x = solve_spd(A, b)
        assert x.shape == (7, 5)
        for i in range(7):
            assert np.array_equal(x[i], solve_spd(A[i], b[i]))
            npt.assert_allclose(x[i], gauss_solve(A[i], b[i]), atol=1e-10)

    def test_stack_solves_each_system_alone_at_k128(self):
        A, b = self._spd_stack(np.random.default_rng(2), 7, 128)
        x = solve_spd(A, b)
        assert x.shape == (7, 128)
        for i in range(7):
            assert np.array_equal(x[i], solve_spd(A[i], b[i]))
        npt.assert_allclose(x, solve_spd_lu(A, b), rtol=0,
                            atol=1e-12 * np.abs(x).max())

    @staticmethod
    def _ridge_stack(rng, n, k, lam, rank):
        """n systems G G^T / rank + lam I with G (k, rank)."""
        G = rng.normal(0, 1, (n, k, rank))
        A = G @ G.swapaxes(1, 2) / rank + lam * np.eye(k)
        return (A + A.swapaxes(1, 2)) / 2, rng.normal(0, 1, (n, k))

    @pytest.mark.parametrize("k", [1, 2, 16, 128])
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_matches_lu_reference(self, k, n):
        """Well-conditioned ridge systems (eigenvalues in [1, ~5]): within
        1e-12 of the LU solve relative to each system's largest entry."""
        rng = np.random.default_rng(100 + k + n)
        A, b = self._ridge_stack(rng, n, k, 1.0, k)
        x = solve_spd(A, b)
        want = solve_spd_lu(A, b)
        assert x.shape == want.shape == (n, k)
        assert np.all(np.abs(x - want).max(axis=-1, initial=0)
                      <= 1e-12 * np.abs(want).max(axis=-1, initial=0))

    @pytest.mark.parametrize("k", [2, 16, 128])
    def test_residual_bound_at_tiny_ridge(self, k):
        """lam = 1e-6 on rank-k/2 Gramians: condition numbers near 1e6, and
        the normwise backward error stays at rounding level, as the LU's."""
        rng = np.random.default_rng(200 + k)
        A, b = self._ridge_stack(rng, 40, k, 1e-6, k // 2)
        for x in (solve_spd(A, b), solve_spd_lu(A, b)):
            residual = np.linalg.norm((A @ x[..., None])[..., 0] - b, axis=-1)
            scale = (np.linalg.norm(A, 2, axis=(-2, -1)) * np.linalg.norm(x, axis=-1)
                     + np.linalg.norm(b, axis=-1))
            assert np.all(residual <= 1e-13 * scale)

    def test_factors_each_system_once(self, monkeypatch):
        """One stacked Cholesky factors every system; no LU runs after it."""
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        def no_lu(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        monkeypatch.setattr(np.linalg, "solve", no_lu)
        A, b = self._spd_stack(np.random.default_rng(6), 9, 4)
        x = solve_spd(A, b)
        assert calls == [(9, 4, 4)]
        y = solve_spd(A[3], b[3])
        assert calls == [(9, 4, 4), (4, 4)]
        monkeypatch.undo()
        npt.assert_allclose(x, solve_spd_lu(A, b), rtol=1e-12)
        assert np.array_equal(y, x[3])

    def test_leaves_its_arguments_unchanged(self):
        A, b = self._spd_stack(np.random.default_rng(7), 3, 4)
        A0, b0 = A.copy(), b.copy()
        solve_spd(A, b)
        solve_spd(A[0], b[0])
        assert np.array_equal(A, A0) and np.array_equal(b, b0)

    def test_stack_with_non_pd_system_raises(self):
        A, b = self._spd_stack(np.random.default_rng(3), 4, 3)
        A[2] = -np.eye(3)
        with pytest.raises(np.linalg.LinAlgError, match="SPD factorization failed"):
            solve_spd(A, b)

    def test_stack_with_asymmetric_system_rejected(self):
        A, b = self._spd_stack(np.random.default_rng(4), 4, 3)
        A[1, 0, 2] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            solve_spd(A, b)

    def test_stack_shape_mismatch_rejected(self):
        A, b = self._spd_stack(np.random.default_rng(5), 4, 3)
        with pytest.raises(ValueError):
            solve_spd(A, b[:3])


class TestMlpForward:
    def test_identity_layer(self):
        net = MLPParams([Layer(np.eye(3), np.zeros(3), "identity")])
        x = np.array([1.0, -2.0, 0.5])
        out, _ = mlp_forward(net, x[None, :])
        npt.assert_array_equal(out[0], x)

    def test_relu_layer(self):
        net = MLPParams([Layer(np.eye(2), np.zeros(2), "relu")])
        out, _ = mlp_forward(net, np.array([[-1.0, 2.0]]))
        npt.assert_array_equal(out[0], [0.0, 2.0])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        net = random_mlp(rng, [4, 5, 3], acts=["relu", "identity"])
        x = rng.normal(0, 1, 4)
        out, _ = mlp_forward(net, x[None, :])
        expect = mlp_scalar_forward(
            [(l.weights, l.bias, l.activation) for l in net.layers], x)
        npt.assert_allclose(out[0], expect, atol=1e-12)

    def test_batched_equals_per_row(self):
        rng = np.random.default_rng(8)
        net = random_mlp(rng, [3, 4, 2])
        X = rng.normal(0, 1, (6, 3))
        batch, _ = mlp_forward(net, X)
        for row in range(6):
            single, _ = mlp_forward(net, X[row][None, :])
            npt.assert_allclose(batch[row], single[0], rtol=0, atol=1e-12)

    def test_dim_mismatch(self):
        net = MLPParams([Layer(np.eye(2), None, "identity")])
        with pytest.raises(ValueError):
            mlp_forward(net, np.ones((1, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        net = random_mlp(rng, [3, 3])
        x = rng.normal(0, 1, (1, 3))
        a, _ = mlp_forward(net, x)
        b, _ = mlp_forward(net, x)
        assert np.array_equal(a, b)


class TestMlpBackward:
    def test_linear_layer_gradients(self):
        rng = np.random.default_rng(3)
        A = rng.normal(0, 1, (3, 4))
        net = MLPParams([Layer(A, np.zeros(3), "identity")])
        x = rng.normal(0, 1, 4)
        g = rng.normal(0, 1, 3)
        _, cache = mlp_forward(net, x[None, :])
        grads, grad_in = mlp_backward(net, cache, g[None, :])
        npt.assert_allclose(grads["layer0.weight"], np.outer(g, x), atol=1e-12)
        npt.assert_allclose(grads["layer0.bias"], g, atol=1e-12)
        npt.assert_allclose(grad_in[0], A.T @ g, atol=1e-12)

    def test_dead_relu_blocks_gradient(self):
        net = MLPParams([Layer(np.eye(2), np.array([-5.0, -5.0]), "relu")])
        x = np.array([[1.0, 2.0]])
        _, cache = mlp_forward(net, x)
        grads, grad_in = mlp_backward(net, cache, np.ones((1, 2)))
        assert not grads["layer0.weight"].any()
        assert not grad_in.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = random_mlp(rng, [5, 4, 3, 1], acts=["relu", "relu", "sigmoid"])
        x = rng.normal(0, 1, (1, 5))

        _, cache = mlp_forward(net, x)
        grads, _ = mlp_backward(net, cache, np.ones((1, 1)))
        for li, layer in enumerate(net.layers):
            for arr_name, arr in (("weight", layer.weights), ("bias", layer.bias)):
                analytic = grads[f"layer{li}.{arr_name}"]

                def f(a, _layer=layer, _name=arr_name):
                    saved = _layer.weights if _name == "weight" else _layer.bias
                    if _name == "weight":
                        _layer.weights = a
                    else:
                        _layer.bias = a
                    out, _ = mlp_forward(net, x)
                    if _name == "weight":
                        _layer.weights = saved
                    else:
                        _layer.bias = saved
                    return float(out[0, 0])

                numeric = finite_diff_grad(f, arr.copy(), h=1e-5)
                npt.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_grad_output_left_unchanged(self):
        rng = np.random.default_rng(12)
        net = random_mlp(rng, [3, 4, 2], acts=["relu", "relu"])
        _, cache = mlp_forward(net, rng.normal(0, 1, (6, 3)))
        g = rng.normal(0, 1, (6, 2))
        before = g.copy()
        mlp_backward(net, cache, g)
        assert np.array_equal(g, before)

    # Extractor shapes: (batch, features -> hidden -> K); K = 1 and hidden
    # width 1 take sum's path for their bias sums.
    @pytest.mark.parametrize("dims", [[5, 8, 8, 3], [4, 6, 1], [3, 1, 4], [20, 64, 64, 16]])
    @pytest.mark.parametrize("rows", [1, 5, 200])
    def test_extractor_bit_equal_to_reference(self, dims, rows):
        rng = np.random.default_rng(rows + len(dims))
        net = random_mlp(rng, dims)
        x = rng.normal(0, 1, (rows, dims[0]))
        out, cache = mlp_forward(net, x)
        want, cache_ref = mlp_forward_reference(net, x)
        assert np.array_equal(out, want)
        for (inp, _, post), (inp_ref, _, post_ref) in zip(cache, cache_ref):
            assert np.array_equal(inp, inp_ref) and np.array_equal(post, post_ref)
        # Training hands the extractor a transposed (Fortran-ordered) gradient.
        for g in (rng.normal(0, 1, (rows, dims[-1])), rng.normal(0, 1, (dims[-1], rows)).T):
            grads, g_in = mlp_backward(net, cache, g)
            grads_ref, g_in_ref = mlp_backward_reference(net, cache_ref, g)
            assert grads.keys() == grads_ref.keys() == net.param_dict().keys()
            for name in grads_ref:
                assert np.array_equal(grads[name], grads_ref[name]), name
            assert np.array_equal(g_in, g_in_ref)

    def test_stale_cache_rejected(self):
        net = MLPParams([Layer(np.eye(2), None, "identity")])
        _, cache = mlp_forward(net, np.ones((1, 2)))
        deeper = MLPParams([Layer(np.eye(2), None, "identity")] * 2)
        with pytest.raises(ValueError):
            mlp_backward(deeper, cache, np.ones((1, 2)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"x": np.array([1.0, 2.0])}
        before = p["x"].copy()
        st = AdamState.init(p, lr=0.1)
        new_p, new_st = adam_step(st, p, {"x": np.zeros(2)})
        npt.assert_array_equal(new_p["x"], before)
        assert new_st.step == 1

    def test_first_step_magnitude_is_lr(self):
        # For |g| >> eps the first bias-corrected step is exactly lr*sign(g).
        g = np.array([3.0, -0.5, 10.0])
        p = {"x": np.zeros(3)}
        st = AdamState.init(p, lr=1e-3)
        new_p, _ = adam_step(st, p, {"x": g})
        npt.assert_allclose(new_p["x"], -1e-3 * np.sign(g), rtol=1e-6)

    def test_statefulness_vs_doubled_gradient(self):
        g = np.array([1.0, -2.0])
        p0 = np.array([0.3, 0.7])
        st = AdamState.init({"x": p0}, lr=0.01)
        p1, st1 = adam_step(st, {"x": p0.copy()}, {"x": g})
        p2, _ = adam_step(st1, {"x": p1["x"]}, {"x": g})
        once, _ = adam_step(AdamState.init({"x": p0}, lr=0.01), {"x": p0.copy()},
                            {"x": 2 * g})
        assert not np.allclose(p2["x"], once["x"])
        npt.assert_allclose(p2["x"], adam_reference(p0, [g, g], lr=0.01), atol=1e-14)

    def test_lr_zero_is_identity(self):
        p = {"x": np.array([5.0])}
        before = p["x"].copy()
        st = AdamState.init(p, lr=0.0)
        new_p, _ = adam_step(st, p, {"x": np.array([123.0])})
        npt.assert_array_equal(new_p["x"], before)

    def test_non_finite_gradient_raises(self):
        p = {"x": np.zeros(1)}
        st = AdamState.init(p, lr=0.1)
        with pytest.raises(TrainingDivergedError):
            adam_step(st, p, {"x": np.array([np.nan])})


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]))
        npt.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_grad(lambda v: 3.0, np.array([1.0, -1.0]))
        npt.assert_array_equal(grad, [0.0, 0.0])

    def test_sigmoid_derivative_at_zero(self):
        grad = finite_diff_grad(
            lambda v: float(sigmoid(np.array([v[0]]))[0]), np.array([0.0]))
        npt.assert_allclose(grad, [0.25], atol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            finite_diff_grad(lambda v: float("nan"), np.array([0.0]))


class TestActivations:
    def test_sigmoid_strictly_inside_unit_interval(self):
        x = np.array([-1e6, -50.0, 0.0, 50.0, 1e6])
        s = sigmoid(x)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_sigmoid_bit_equal_to_sign_split_reference(self):
        rng = np.random.default_rng(3)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e308, -1e308,
                 709.0, -709.0, 36.0, -36.0, 5e-324, -5e-324]
        x = np.concatenate([edges, rng.normal(0, 1, 500), rng.normal(0, 40, 500)])
        got, want = sigmoid(x), sigmoid_reference(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[4])
        grid = x[5:].reshape(-1, 10)
        assert np.array_equal(sigmoid(grid), sigmoid_reference(grid))

    def test_relu_nonnegative(self):
        rng = np.random.default_rng(2)
        assert np.all(relu(rng.normal(0, 10, 100)) >= 0.0)


class TestMapBlocks:
    @pytest.fixture
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(numerics, "_POOL", None)
        yield
        if numerics._POOL is not None:
            numerics._POOL.shutdown()

    def test_yields_in_block_order(self, two_cores):
        def slow_first(block):
            if block == 0:
                time.sleep(0.05)  # finishes after the later blocks
            return block

        assert list(numerics.map_blocks(slow_first, range(6))) == list(range(6))
        assert numerics._POOL is not None

    def test_forked_child_builds_its_own_pool(self, two_cores):
        """The pool's threads do not survive a fork; a child that inherited
        the pool object would queue its blocks forever."""
        barrier = threading.Barrier(2)  # both of the parent's workers start

        def together(block):
            barrier.wait(timeout=10)
            return abs(block)

        assert list(numerics.map_blocks(together, [-1, -2])) == [1, 2]
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write, repr(list(numerics.map_blocks(abs, [-3, -4]))).encode())
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 10.0
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's map_blocks did not finish")
            time.sleep(0.01)
        with os.fdopen(read) as fh:
            assert fh.read() == "[3, 4]"
