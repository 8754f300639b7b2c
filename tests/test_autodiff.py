import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit.errors import ContractError, DimensionError, TapeLookupError

from helpers import central_diff, masked_sigmoid, relative_error


def scalar_leaf(tape, v):
    return tape.leaf(np.asarray(float(v)))


class TestForwardValues:
    def test_matmul_identity(self):
        with ad.Tape() as tape:
            a = tape.leaf(np.eye(2))
            b = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
            out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_matmul_hand(self):
        with ad.Tape() as tape:
            a = tape.leaf(np.array([[1.0, 2.0]]))
            b = tape.leaf(np.array([[3.0], [4.0]]))
            out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_mismatch(self):
        with ad.Tape() as tape:
            a = tape.leaf(np.ones((2, 3)))
            b = tape.leaf(np.ones((2, 3)))
            with pytest.raises(DimensionError):
                ad.matmul(a, b)

    def test_swish_at_zero(self):
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 0.0)
            assert ad.swish(x).item() == 0.0

    def test_swish_saturates_to_identity(self):
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 40.0)
            assert ad.swish(x).item() == pytest.approx(40.0, abs=1e-12)

    def test_leaky_relu_negative_side(self):
        with ad.Tape() as tape:
            x = scalar_leaf(tape, -1.0)
            assert ad.activation(x, "leaky_relu").item() == pytest.approx(-0.2)

    def test_unknown_activation_rejected(self):
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 1.0)
            with pytest.raises(ContractError):
                ad.activation(x, "tanh")

    def test_untracked_inputs_stay_untracked(self):
        # No active tape: plain numpy arithmetic, no node handles.
        out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
        assert out.node is None and out.tape is None
        np.testing.assert_array_equal(out.data, [4.0, 6.0])


class TestFirstOrderGradients:
    def test_square(self):
        # f(x) = x^2 at x=3 -> df/dx = 6
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 3.0)
            f = ad.mul(x, x)
            (g,) = ad.gradient(f, [x])
        assert g.item() == pytest.approx(6.0)

    def test_swish_derivative_at_zero(self):
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 0.0)
            (g,) = ad.gradient(ad.swish(x), [x])
        assert g.item() == pytest.approx(0.5)

    def test_matmul_sum_adjoint(self):
        # d sum(a@b) / da == ones(4,3) @ b^T, cross-checked against FD.
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=(4, 5))
        b0 = rng.normal(size=(5, 3))
        with ad.Tape() as tape:
            a = tape.leaf(a0.copy())
            b = tape.leaf(b0.copy())
            s = ad.sum_all(ad.matmul(a, b))
            (ga,) = ad.gradient(s, [a])
        analytic = np.ones((4, 3)) @ b0.T
        np.testing.assert_allclose(ga.data, analytic, rtol=1e-12)
        fd = central_diff(lambda av: float((av @ b0).sum()), a0)
        assert relative_error(ga.data, fd) < 1e-4

    def test_three_layer_net_matches_finite_differences(self):
        """Full MLP gradient vs central differences, every parameter."""
        rng = np.random.default_rng(21)
        sizes = [(4, 8), (8, 8), (8, 1)]
        weights = [rng.normal(size=s, scale=0.7) for s in sizes]
        biases = [rng.normal(size=s[1], scale=0.3) for s in sizes]
        x0 = rng.normal(size=(5, 4))

        def forward_np(ws, bs):
            h = x0
            for i, (w, b) in enumerate(zip(ws, bs)):
                h = h @ w + b
                if i < 2:
                    h = h * (1.0 / (1.0 + np.exp(-h)))
            return float(h.sum())

        with ad.Tape() as tape:
            tw = [tape.leaf(w.copy(), param=True) for w in weights]
            tb = [tape.leaf(b.copy(), param=True) for b in biases]
            h = tape.leaf(x0.copy())
            for i in range(3):
                h = ad.add_row(ad.matmul(h, tw[i]), tb[i])
                if i < 2:
                    h = ad.swish(h)
            loss = ad.sum_all(h)
            grads = ad.gradient(loss, tw + tb)

        for k, g in enumerate(grads[:3]):
            def f(wv, k=k):
                ws = [w.copy() for w in weights]
                ws[k] = wv
                return forward_np(ws, biases)
            assert relative_error(g.data, central_diff(f, weights[k])) < 1e-4
        for k, g in enumerate(grads[3:]):
            def f(bv, k=k):
                bs = [b.copy() for b in biases]
                bs[k] = bv
                return forward_np(weights, bs)
            assert relative_error(g.data, central_diff(f, biases[k])) < 1e-4

    def test_gradient_through_intermediate_node(self):
        # wrt may be any tape node, not only leaves.
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 2.0)
            y = ad.mul(x, x)          # y = 4
            z = ad.mul(y, y)          # z = y^2
            (gy,) = ad.gradient(z, [y])
        assert gy.item() == pytest.approx(8.0)  # dz/dy = 2y

    def test_detached_tensor_gets_zero_gradient(self):
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 1.5)
            c = ad.constant(np.asarray(2.0))
            f = ad.mul(x, x)
            (gc,) = ad.gradient(f, [c])
        np.testing.assert_array_equal(gc.data, 0.0)

    def test_nonscalar_output_rejected(self):
        with ad.Tape() as tape:
            x = tape.leaf(np.ones(3))
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                ad.gradient(y, [x])

    def test_foreign_tape_rejected(self):
        with ad.Tape() as t1:
            x = scalar_leaf(t1, 1.0)
            f = ad.mul(x, x)
        with ad.Tape() as t2:
            y = scalar_leaf(t2, 1.0)
        with pytest.raises(TapeLookupError):
            ad.gradient(f, [y])

    def test_output_off_tape_rejected(self):
        with pytest.raises(TapeLookupError):
            ad.gradient(ad.constant(1.0), [ad.constant(1.0)])


def _primitive_cases():
    """(name, builder) pairs; builder(rng) -> (forward_np, x0) where the
    differentiated scalar is sum(op(x)) for a single input x kept away
    from any kink of the op."""

    def away_from(rng, shape, bad, margin):
        x = rng.normal(size=shape)
        while np.any(np.abs(x - bad) < margin):
            x = rng.normal(size=shape)
        return x

    def matmul_case(rng):
        b = rng.normal(size=(4, 3))
        return lambda x: float((x @ b).sum()), rng.normal(size=(2, 4)), \
            lambda t: ad.matmul(t, ad.constant(b))

    def transpose_case(rng):
        w = rng.normal(size=(3, 2))
        return lambda x: float((x.T * w).sum()), rng.normal(size=(2, 3)), \
            lambda t: ad.mul(ad.transpose(t), ad.constant(w))

    def add_case(rng):
        c = rng.normal(size=(2, 3))
        return lambda x: float((x + c).sum()), rng.normal(size=(2, 3)), \
            lambda t: ad.add(t, ad.constant(c))

    def sub_case(rng):
        c = rng.normal(size=(2, 3))
        return lambda x: float((c - x).sum()), rng.normal(size=(2, 3)), \
            lambda t: ad.sub(ad.constant(c), t)

    def mul_case(rng):
        c = rng.normal(size=(2, 3))
        return lambda x: float((x * c).sum()), rng.normal(size=(2, 3)), \
            lambda t: ad.mul(t, ad.constant(c))

    def neg_case(rng):
        return lambda x: float((-x).sum()), rng.normal(size=(2, 3)), ad.neg

    def scale_case(rng):
        return lambda x: float((2.5 * x).sum()), rng.normal(size=(2, 3)), \
            lambda t: ad.scale(t, 2.5)

    def add_row_case(rng):
        r = rng.normal(size=3)
        return lambda x: float((x + r).sum()), rng.normal(size=(4, 3)), \
            lambda t: ad.add_row(t, ad.constant(r))

    def mul_scalar_case(rng):
        m = rng.normal(size=(2, 3))
        return lambda x: float((m * x).sum()), np.asarray(rng.normal()), \
            lambda t: ad.mul_scalar(ad.constant(m), t)

    def reciprocal_case(rng):
        x0 = 0.5 + np.abs(rng.normal(size=(2, 3)))
        return lambda x: float((1.0 / x).sum()), x0, ad.reciprocal

    def sigmoid_case(rng):
        return lambda x: float((1.0 / (1.0 + np.exp(-x))).sum()), \
            rng.normal(size=(2, 3)), ad.sigmoid

    def leaky_case(rng):
        x0 = away_from(rng, (3, 4), 0.0, 0.05)
        return lambda x: float(np.where(x > 0, x, 0.2 * x).sum()), x0, \
            lambda t: ad.leaky_relu(t, 0.2)

    def clip_case(rng):
        x0 = rng.normal(size=(3, 4))
        while np.any(np.abs(np.abs(x0) - 1.0) < 0.05):
            x0 = rng.normal(size=(3, 4))
        return lambda x: float(np.clip(x, -1.0, 1.0).sum()), x0, \
            lambda t: ad.clip(t, -1.0, 1.0)

    def sum0_case(rng):
        w = rng.normal(size=3)
        return lambda x: float((x.sum(axis=0) * w).sum()), \
            rng.normal(size=(4, 3)), \
            lambda t: ad.mul(ad.sum0(t), ad.constant(w))

    def sum1_case(rng):
        w = rng.normal(size=(4, 1))
        return lambda x: float((x.sum(axis=1, keepdims=True) * w).sum()), \
            rng.normal(size=(4, 3)), \
            lambda t: ad.mul(ad.sum1(t), ad.constant(w))

    def take_rows_case(rng):
        idx = np.array([2, 0, 2, 1])
        w = rng.normal(size=(4, 3))
        return lambda x: float((x[idx] * w).sum()), rng.normal(size=(3, 3)), \
            lambda t: ad.mul(ad.take_rows(t, idx), ad.constant(w))

    def reshape_case(rng):
        w = rng.normal(size=(6,))
        return lambda x: float((x.reshape(6) * w).sum()), \
            rng.normal(size=(2, 3)), \
            lambda t: ad.mul(ad.reshape(t, (6,)), ad.constant(w))

    return [
        ("matmul", matmul_case),
        ("transpose", transpose_case),
        ("add", add_case),
        ("sub", sub_case),
        ("mul", mul_case),
        ("neg", neg_case),
        ("scale", scale_case),
        ("add_row", add_row_case),
        ("mul_scalar", mul_scalar_case),
        ("reciprocal", reciprocal_case),
        ("sigmoid", sigmoid_case),
        ("leaky_relu", leaky_case),
        ("clip", clip_case),
        ("sum0", sum0_case),
        ("sum1", sum1_case),
        ("take_rows", take_rows_case),
        ("reshape", reshape_case),
    ]


class TestPrimitiveFiniteDifferences:
    @pytest.mark.parametrize("name,case", _primitive_cases(),
                             ids=[n for n, _ in _primitive_cases()])
    def test_matches_central_differences(self, name, case):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            f_np, x0, build = case(rng)
            with ad.Tape() as tape:
                x = tape.leaf(x0.copy())
                out = build(x)
                s = out if out.data.size == 1 else ad.sum_all(out)
                (g,) = ad.gradient(s, [x])
            worst = max(worst, relative_error(g.data, central_diff(f_np, x0)))
        assert worst < 1e-4, f"{name}: worst relative error {worst}"


class TestSecondOrder:
    def test_cube_second_derivative(self):
        # g(x) = d/dx x^3 = 3x^2, then dg/dx at x=2 -> 12
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 2.0)
            f = ad.mul(ad.mul(x, x), x)
            (g,) = ad.gradient(f, [x])
            assert g.item() == pytest.approx(12.0)
            (gg,) = ad.gradient(g, [x])
        assert gg.item() == pytest.approx(12.0)

    def test_second_order_vs_fd_of_first_order(self):
        # FD applied to the autodiff first derivative of x^3.
        def first(xv):
            with ad.Tape() as tape:
                x = tape.leaf(np.asarray(float(xv)))
                f = ad.mul(ad.mul(x, x), x)
                (g,) = ad.gradient(f, [x])
            return float(g.data)

        with ad.Tape() as tape:
            x = scalar_leaf(tape, 2.0)
            f = ad.mul(ad.mul(x, x), x)
            (g,) = ad.gradient(f, [x])
            (gg,) = ad.gradient(g, [x])
        h = 1e-5
        fd = (first(2.0 + h) - first(2.0 - h)) / (2 * h)
        assert gg.item() == pytest.approx(fd, rel=1e-6)

    def test_hessian_symmetry(self):
        """Grad-of-grad Hessian of a nonquadratic scalar field is symmetric."""
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4))
        x0 = rng.normal(size=(4, 1))
        with ad.Tape() as tape:
            x = tape.leaf(x0.copy())
            quad = ad.matmul(ad.transpose(x), ad.matmul(ad.constant(m), x))
            f = ad.add(ad.sum_all(quad), ad.sum_all(ad.swish(x)))
            (g,) = ad.gradient(f, [x])
            hess = np.zeros((4, 4))
            for i in range(4):
                gi = ad.sum_all(ad.take_rows(g, np.array([i])))
                (row,) = ad.gradient(gi, [x])
                hess[i] = row.data.reshape(-1)
        np.testing.assert_allclose(hess, hess.T, atol=1e-8)
        np.testing.assert_allclose(hess - (m + m.T), np.diag(np.diag(hess - (m + m.T))), atol=1e-8)

    def test_second_order_through_matrix_pipeline(self):
        # d/dx of sum(sigmoid(w@x)) via grad-of-grad matches FD Hessian diag.
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 3))
        x0 = rng.normal(size=(3, 1))

        def grad_np(xv):
            z = w @ xv
            s = 1.0 / (1.0 + np.exp(-z))
            return w.T @ (s * (1 - s))

        with ad.Tape() as tape:
            x = tape.leaf(x0.copy())
            f = ad.sum_all(ad.sigmoid(ad.matmul(ad.constant(w), x)))
            (g,) = ad.gradient(f, [x])
            np.testing.assert_allclose(g.data, grad_np(x0), rtol=1e-10)
            s = ad.sum_all(g)
            (g2,) = ad.gradient(s, [x])
        h = 1e-5
        fd = np.zeros((3, 1))
        for i in range(3):
            e = np.zeros((3, 1))
            e[i] = h
            fd[i] = (grad_np(x0 + e).sum() - grad_np(x0 - e).sum()) / (2 * h)
        assert relative_error(g2.data, fd) < 1e-4


class TestAlgebraicInvariants:
    def test_gradient_linearity(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(3, 3))
            x0 = rng.normal(size=(3, 3))
            a, b = rng.normal(size=2)
            with ad.Tape() as tape:
                x = tape.leaf(x0.copy())
                f = ad.sum_all(ad.sigmoid(ad.matmul(x, ad.constant(w))))
                g = ad.sum_all(ad.mul(x, x))
                combined = ad.add(ad.scale(f, a), ad.scale(g, b))
                (gf,) = ad.gradient(f, [x])
                (gg,) = ad.gradient(g, [x])
                (gc,) = ad.gradient(combined, [x])
            np.testing.assert_allclose(
                gc.data, a * gf.data + b * gg.data, atol=1e-12)

    def test_gradient_accumulates_over_shared_subexpression(self):
        # x used twice: adjoints must sum.
        with ad.Tape() as tape:
            x = scalar_leaf(tape, 3.0)
            y = ad.add(ad.mul(x, x), ad.scale(x, 4.0))
            (g,) = ad.gradient(y, [x])
        assert g.item() == pytest.approx(10.0)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            w = rng.normal(size=(4, 4))
            x0 = rng.normal(size=(2, 4))
            with ad.Tape() as tape:
                x = tape.leaf(x0)
                f = ad.sum_all(ad.swish(ad.matmul(x, ad.constant(w))))
                (g,) = ad.gradient(f, [x])
            return f.data.copy(), g.data.copy()

        f1, g1 = run()
        f2, g2 = run()
        assert np.array_equal(f1, f2) and np.array_equal(g1, g2)

    def test_tape_replay_reproduces_values_bit_exactly(self):
        rng = np.random.default_rng(9)
        with ad.Tape() as tape:
            x = tape.leaf(rng.normal(size=(3, 4)))
            w = tape.leaf(rng.normal(size=(4, 2)), param=True)
            f = ad.sum_all(ad.swish(ad.matmul(x, w)))
            ad.gradient(f, [w, x])
        replayed = tape.replay()
        assert len(replayed) == len(tape)
        for cached, again in zip(tape.values, replayed):
            assert np.array_equal(cached, again)

    def test_topological_order(self):
        rng = np.random.default_rng(5)
        with ad.Tape() as tape:
            x = tape.leaf(rng.normal(size=(2, 2)))
            f = ad.sum_all(ad.sigmoid(ad.mul(x, x)))
            ad.gradient(f, [x])
        for nid, ps in enumerate(tape.parents):
            assert all(p < nid for p in ps)

    def test_parameter_ids_marked(self):
        with ad.Tape() as tape:
            w = tape.leaf(np.ones((2, 2)), param=True)
            tape.leaf(np.ones(2))
        assert tape.parameter_ids == [w.node]


class TestStableSigmoidOracle:
    """stable_sigmoid against the masked two-branch form, byte for byte."""

    TINY = np.finfo(np.float64).smallest_subnormal

    @pytest.mark.parametrize("values", [
        [0.0, -0.0],
        [745.0, -745.0, 746.0, -746.0, 709.8, -709.8],
        [np.inf, -np.inf],
        [TINY, -TINY, 1e-310, -1e-310, 2.2e-308, -2.2e-308],
        [1.0, -1.0, 36.7, -36.7, 1e-17, -1e-17],
    ])
    def test_special_values(self, values):
        x = np.array(values)
        assert ad.stable_sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_random_blocks(self, scale):
        x = np.random.default_rng(int(scale)).normal(scale=scale, size=(128, 64))
        assert ad.stable_sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("value", [0.0, -0.0, 3.5, -3.5, -800.0])
    def test_zero_dimensional(self, value):
        x = np.asarray(value)
        out = ad.stable_sigmoid(x)
        assert out.shape == ()
        assert out.tobytes() == masked_sigmoid(x).tobytes()

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan, 1.0])
        out = ad.stable_sigmoid(x)
        assert np.isnan(out[:2]).all()
        assert out[2] == masked_sigmoid(x)[2]

    def test_input_untouched(self):
        x = np.array([-2.0, 0.0, 2.0])
        ad.stable_sigmoid(x)
        assert x.tolist() == [-2.0, 0.0, 2.0]
