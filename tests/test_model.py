import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmkit import autodiff as ad
from ebmkit.compose import SummedEnergy
from ebmkit.errors import ConfigError, DimensionError, LabelError
from ebmkit.model import ACTIVATIONS, EnergyNet, Layer, ModelConfig

from helpers import (QuadraticEnergy, central_diff, reference_backward,
                     reference_energy_grad, relative_error,
                     two_sigmoid_grad_x)


def small_net(widths=(3, 8, 1), activation="swish", num_classes=0,
              spectral=True, seed=0):
    cfg = ModelConfig(widths=widths, activation=activation,
                      num_classes=num_classes, spectral_norm=spectral)
    return EnergyNet.init(cfg, np.random.default_rng(seed))


class TestConfig:
    def test_rejects_empty_widths(self):
        with pytest.raises(ConfigError):
            ModelConfig(widths=())

    def test_rejects_wide_output(self):
        with pytest.raises(ConfigError):
            ModelConfig(widths=(3, 8, 2))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigError):
            ModelConfig(widths=(3, 1), activation="tanh")


class TestEnergyForward:
    def test_single_linear_layer_dot_product(self):
        cfg = ModelConfig(widths=(2, 1), spectral_norm=False)
        net = EnergyNet(cfg, [Layer(w=np.array([[1.0], [2.0]]), b=np.zeros(1))])
        out = net.energy(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [11.0])

    def test_untrained_conditional_equals_unconditional(self):
        # gamma=1, beta=0 modulation is the identity.
        cond = small_net(num_classes=4, seed=3)
        plain = EnergyNet(
            ModelConfig(widths=cond.config.widths, activation="swish",
                        spectral_norm=True),
            [Layer(w=l.w.copy(), b=l.b.copy(),
                   u=None if l.u is None else l.u.copy())
             for l in cond.layers])
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(6, 3))
        labels = rng.integers(0, 4, size=6)
        np.testing.assert_allclose(cond.energy(x, labels), plain.energy(x),
                                   rtol=1e-12)

    def test_energy_finite_on_unit_cube(self):
        net = small_net(widths=(4, 16, 16, 1), seed=5)
        x = np.random.default_rng(5).uniform(size=(10_000, 4))
        e = net.energy(x)
        assert e.shape == (10_000,)
        assert np.all(np.isfinite(e))

    def test_input_dimension_checked(self):
        net = small_net()
        with pytest.raises(DimensionError):
            net.energy(np.ones((2, 5)))

    def test_label_requirements(self):
        cond = small_net(num_classes=3)
        plain = small_net()
        x = np.zeros((2, 3))
        with pytest.raises(LabelError):
            cond.energy(x)  # missing labels
        with pytest.raises(LabelError):
            cond.energy(x, np.array([0, 3]))  # out of range
        with pytest.raises(LabelError):
            plain.energy(x, np.array([0, 1]))  # labels on unconditional model


class TestGradX:
    def test_quadratic_fixture_gradient_is_identity(self):
        # E(x) = 0.5||x||^2 -> grad is x itself.
        quad = QuadraticEnergy(dim=3)
        x = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_allclose(quad.grad_x(x), x)
        np.testing.assert_allclose(quad.energy(x), 0.5 * (x ** 2).sum(axis=1))

    @pytest.mark.parametrize("activation", ["swish", "leaky_relu"])
    @pytest.mark.parametrize("num_classes", [0, 3])
    def test_matches_finite_differences(self, activation, num_classes):
        net = small_net(widths=(3, 8, 8, 1), activation=activation,
                        num_classes=num_classes, seed=11)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.1, 0.9, size=(4, 3))
        labels = rng.integers(0, 3, size=4) if num_classes else None
        g = net.grad_x(x, labels)

        def total(xv):
            return float(net.energy(xv.reshape(4, 3), labels).sum())

        fd = central_diff(total, x.reshape(-1)).reshape(4, 3)
        assert relative_error(g, fd) < 1e-4

    @pytest.mark.parametrize("activation", ["swish", "leaky_relu"])
    @pytest.mark.parametrize("num_classes", [0, 3])
    @pytest.mark.parametrize("spectral", [True, False])
    def test_matches_two_sigmoid_reference_bytes(self, activation, num_classes,
                                                 spectral):
        net = small_net(widths=(3, 16, 16, 1), activation=activation,
                        num_classes=num_classes, spectral=spectral, seed=21)
        rng = np.random.default_rng(22)
        for layer in net.layers[:-1]:
            if layer.gamma is not None:
                layer.gamma = rng.normal(size=layer.gamma.shape)
                layer.beta = rng.normal(size=layer.beta.shape)
        x = rng.normal(scale=4.0, size=(64, 3))
        labels = rng.integers(0, 3, size=64) if num_classes else None
        assert (net.grad_x(x, labels).tobytes()
                == two_sigmoid_grad_x(net, x, labels).tobytes())

    def test_batch_rows_are_independent(self):
        net = small_net(seed=2)
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(3, 3))
        g_before = net.grad_x(x)
        x2 = x.copy()
        x2[0] += 10.0
        g_after = net.grad_x(x2)
        np.testing.assert_array_equal(g_before[1:], g_after[1:])

    def test_conditional_every_class_behaves_unconditionally(self):
        net = small_net(num_classes=3, seed=7)
        # give the class parameters something to do
        rng = np.random.default_rng(8)
        for layer in net.layers[:-1]:
            layer.gamma += rng.normal(scale=0.2, size=layer.gamma.shape)
            layer.beta += rng.normal(scale=0.2, size=layer.beta.shape)
        x = rng.uniform(size=(4, 3))
        for y in range(3):
            labels = np.full(4, y)
            e = net.energy(x, labels)
            assert e.shape == (4,) and np.all(np.isfinite(e))

            def total(xv, labels=labels):
                return float(net.energy(xv.reshape(4, 3), labels).sum())

            fd = central_diff(total, x.reshape(-1)).reshape(4, 3)
            assert relative_error(net.grad_x(x, labels), fd) < 1e-4


class TestSpectralNormalization:
    def test_diagonal_weight_converges_to_top_singular_value(self):
        net = small_net(widths=(2, 2, 1), seed=0)
        net.layers[0].w = np.diag([3.0, 1.0])
        net.spectral_update(iters=50)
        layer = net.layers[0]
        assert np.linalg.norm(layer.w.T @ layer.u) == pytest.approx(3.0, abs=1e-3)
        w_eff = net._effective_weight(net.layers[0])
        top = np.linalg.svd(w_eff, compute_uv=False)[0]
        assert top == pytest.approx(1.0, abs=1e-3)

    def test_unit_spectral_norm_is_a_fixed_point(self):
        net = small_net(widths=(3, 6, 1), seed=1)
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 6))
        net.layers[0].w = w / np.linalg.svd(w, compute_uv=False)[0]
        net.spectral_update(iters=50)
        normalized = net._effective_weight(net.layers[0])
        np.testing.assert_allclose(normalized, net.layers[0].w, atol=1e-6)

    def test_sigma_estimate_monotone_nondecreasing(self):
        net = small_net(widths=(8, 8, 1), seed=9)
        rng = np.random.default_rng(10)
        net.layers[0].w = rng.normal(size=(8, 8))
        u = rng.normal(size=8)
        net.layers[0].u = u / np.linalg.norm(u)
        layer, sigmas = net.layers[0], []
        for _ in range(40):
            sigmas.append(np.linalg.norm(layer.w.T @ layer.u))
            net.spectral_update(iters=1)
        sigmas = np.array(sigmas)
        assert np.all(np.diff(sigmas) >= -1e-12)

    def test_effective_weight_estimate_bounded(self):
        net = small_net(widths=(4, 12, 12, 1), seed=3)
        for i, layer in enumerate(net.layers):
            w_eff = net._effective_weight(layer)
            est = np.linalg.norm(w_eff.T @ layer.u)
            assert est <= 1.0 + 1e-3

    def test_zero_weight_skipped_with_warning(self):
        net = small_net(widths=(2, 2, 1), seed=0)
        net.layers[0].w = np.zeros((2, 2))
        with pytest.warns(UserWarning):
            net.spectral_update(iters=1)
        with pytest.warns(UserWarning):
            w_eff = net._effective_weight(net.layers[0])
        np.testing.assert_array_equal(w_eff, np.zeros((2, 2)))

    def test_disabled_spectral_update_rejected(self):
        net = small_net(spectral=False)
        with pytest.raises(ConfigError):
            net.spectral_update()

    def test_lipschitz_bound_empirical(self):
        """|E(x1)-E(x2)| <= prod(layer sigmas) * slope^hidden * ||x1-x2||."""
        net = small_net(widths=(3, 16, 16, 1), seed=6)
        # sup |d swish / dx| is ~1.0998 (attained near x = 2.4); 1.1 is a
        # safe per-layer slope bound for Lipschitz bookkeeping.
        bound = 1.1 ** 2
        for layer in net.layers:
            w_eff = net._effective_weight(layer)
            bound *= np.linalg.svd(w_eff, compute_uv=False)[0]
        rng = np.random.default_rng(12)
        for _ in range(200):
            x1 = rng.uniform(size=(1, 3))
            x2 = rng.uniform(size=(1, 3))
            lhs = abs(net.energy(x1)[0] - net.energy(x2)[0])
            assert lhs <= bound * np.linalg.norm(x1 - x2) + 1e-12


class TestTapedForward:
    """The recorded-graph forward must agree with the fast numpy path."""

    @pytest.mark.parametrize("num_classes", [0, 3])
    def test_values_match_fast_path(self, num_classes):
        net = small_net(widths=(3, 8, 8, 1), num_classes=num_classes, seed=13)
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(5, 3))
        labels = rng.integers(0, 3, size=5) if num_classes else None
        with ad.Tape() as tape:
            e = net.taped_energy(tape.leaf(x.copy()), labels)
        np.testing.assert_allclose(e.data, net.energy(x, labels), rtol=1e-12)

    def test_gradient_matches_fast_path(self):
        net = small_net(widths=(3, 8, 1), num_classes=2, seed=14)
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(4, 3))
        labels = rng.integers(0, 2, size=4)
        with ad.Tape() as tape:
            xt = tape.leaf(x.copy())
            e = net.taped_energy(xt, labels)
            (g,) = ad.gradient(ad.sum_all(e), [xt])
        np.testing.assert_allclose(g.data, net.grad_x(x, labels), rtol=1e-12,
                                   atol=1e-14)

    def test_lifted_parameters_match_and_differentiate(self):
        net = small_net(widths=(3, 6, 1), seed=15)
        rng = np.random.default_rng(15)
        x = rng.uniform(size=(4, 3))
        with ad.Tape() as tape:
            params = net.lift_parameters(tape)
            e = net.taped_energy(tape.leaf(x.copy()), params=params)
            loss = ad.sum_all(e)
            grads = ad.gradient(loss, [params[0]["w"], params[0]["b"]])
        np.testing.assert_allclose(e.data, net.energy(x), rtol=1e-12)

        w0 = net.layers[0].w.copy()

        def f(wv):
            net.layers[0].w = wv
            out = float(net.energy(x).sum())
            net.layers[0].w = w0
            return out

        assert relative_error(grads[0].data, central_diff(f, w0)) < 1e-4

    def test_clone_is_deep(self):
        net = small_net(num_classes=2)
        copy = net.clone()
        copy.layers[0].w[0, 0] += 1.0
        assert net.layers[0].w[0, 0] != copy.layers[0].w[0, 0]


# -- random small nets ----------------------------------------------------------

CORE_SETTINGS = settings(max_examples=12, deadline=None, database=None)


@CORE_SETTINGS
@given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       activation=st.sampled_from(ACTIVATIONS),
       num_classes=st.sampled_from((0, 3)),
       spectral=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_core_input_gradients_agree(widths, activation, num_classes, spectral,
                                    seed):
    """grad_x, the taped gradient of taped_energy and central differences
    of energy agree on random small conditional and unconditional nets."""
    rng = np.random.default_rng(seed)
    net = small_net(widths=(*widths, 1), activation=activation,
                    num_classes=num_classes, spectral=spectral, seed=seed)
    for layer in net.layers:
        if layer.gamma is not None:
            layer.gamma = rng.normal(size=layer.gamma.shape)
            layer.beta = rng.normal(size=layer.beta.shape)
    x = rng.uniform(-1.0, 2.0, size=(4, widths[0]))
    labels = None if num_classes == 0 else rng.integers(0, num_classes, size=4)
    with ad.Tape() as tape:
        leaf = tape.leaf(x)
        (taped,) = ad.gradient(ad.sum_all(net.taped_energy(leaf, labels)),
                               [leaf])
    fd = central_diff(lambda v: float(net.energy(v, labels).sum()), x)
    analytic = net.grad_x(x, labels)
    assert relative_error(taped.data, analytic) < 1e-9
    assert relative_error(fd, analytic) < 1e-4


@CORE_SETTINGS
@given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       activation=st.sampled_from(ACTIVATIONS),
       spectral=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_head_forward_matches_taped_forward(widths, activation, spectral, seed):
    """The MLP core's plain forward (energy) and its taped forward
    (taped_energy) give the same values on random small nets."""
    rng = np.random.default_rng(seed)
    net = small_net(widths=(*widths, 1), activation=activation,
                    spectral=spectral, seed=seed)
    x = rng.uniform(-1.0, 2.0, size=(5, widths[0]))
    with ad.Tape():
        taped = net.taped_energy(x)
    np.testing.assert_allclose(taped.data, net.energy(x), rtol=1e-10,
                               atol=1e-12)


@CORE_SETTINGS
@given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       activation=st.sampled_from(ACTIVATIONS),
       num_classes=st.sampled_from((0, 3)),
       spectral=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_fused_energy_is_bit_equal(widths, activation, num_classes, spectral,
                                   seed):
    """grad_x(..., with_energy=True) returns energy() and grad_x() bit for
    bit, for one net and for a 2-part SummedEnergy of such nets."""
    rng = np.random.default_rng(seed)
    nets = [small_net(widths=(*widths, 1), activation=activation,
                      num_classes=num_classes, spectral=spectral,
                      seed=seed + k) for k in range(2)]
    for net in nets:
        for layer in net.layers:
            if layer.gamma is not None:
                layer.gamma = rng.normal(size=layer.gamma.shape)
                layer.beta = rng.normal(size=layer.beta.shape)
    x = rng.uniform(-1.0, 2.0, size=(6, widths[0]))
    labels = None if num_classes == 0 else rng.integers(0, num_classes, size=6)
    e, g = nets[0].grad_x(x, labels, with_energy=True)
    assert (e == nets[0].energy(x, labels)).all()
    assert (g == nets[0].grad_x(x, labels)).all()

    parts = [None if num_classes == 0 else int(rng.integers(num_classes))
             for _ in nets]
    summed = SummedEnergy(list(zip(nets, parts)))
    e, g = summed.grad_x(x, with_energy=True)
    assert (e == summed.energy(x)).all()
    assert (g == summed.grad_x(x)).all()


# -- the in-place network pass and frozen views ------------------------------------

KERNEL_SETTINGS = settings(max_examples=40, deadline=None, database=None)

KERNEL_NETS = dict(
    widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    activation=st.sampled_from(ACTIVATIONS),
    num_classes=st.sampled_from((0, 3)),
    spectral=st.booleans(),
    rows=st.integers(0, 13),
    uniform=st.booleans(),
    seed=st.integers(0, 2 ** 16))


def _kernel_case(widths, activation, num_classes, spectral, rows, uniform,
                 seed):
    """A random net with random FiLM parameters, inputs and labels (one
    class for all rows when uniform)."""
    rng = np.random.default_rng(seed)
    net = small_net(widths=(*widths, 1), activation=activation,
                    num_classes=num_classes, spectral=spectral, seed=seed)
    for layer in net.layers:
        if layer.gamma is not None:
            layer.gamma = rng.normal(size=layer.gamma.shape)
            layer.beta = rng.normal(size=layer.beta.shape)
    x = rng.normal(scale=3.0, size=(rows, widths[0]))
    labels = None
    if num_classes:
        labels = (np.full(rows, rng.integers(num_classes)) if uniform
                  else rng.integers(0, num_classes, size=rows))
    return net, x, labels, rng


def _assert_bytes_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@KERNEL_SETTINGS
@given(**KERNEL_NETS)
def test_lean_pass_matches_out_of_place_reference(**case):
    """energy, grad_x and grad_x(..., with_energy=True), on the net and on
    a frozen view, equal the out-of-place pass byte for byte."""
    net, x, labels, _ = _kernel_case(**case)
    e_ref, g_ref = reference_energy_grad(net, x, labels)
    for model in (net, net.frozen()):
        _assert_bytes_equal(model.energy(x, labels), e_ref)
        _assert_bytes_equal(model.grad_x(x, labels), g_ref)
        e, g = model.grad_x(x, labels, with_energy=True)
        _assert_bytes_equal(e, e_ref)
        _assert_bytes_equal(g, g_ref)


@KERNEL_SETTINGS
@given(**KERNEL_NETS)
def test_frozen_view_follows_the_pgd_pattern(**case):
    """A view keeps nothing between calls: called twice for every class
    at one point, then at a new point, then at that point changed in
    place, it answers as the out-of-place pass does."""
    net, x, _, rng = _kernel_case(**case)
    view = net.frozen()
    classes = range(net.config.num_classes) or [None]

    def check(points):
        for c in classes:
            labels = None if c is None else np.full(points.shape[0], c)
            e_ref, g_ref = reference_energy_grad(net, points, labels)
            e, g = view.grad_x(points, labels, with_energy=True)
            _assert_bytes_equal(e, e_ref)
            _assert_bytes_equal(g, g_ref)
            e += 1.0    # what a caller does with its arrays stays its own
            g += 1.0
            _assert_bytes_equal(view.grad_x(points, labels), g_ref)
            _assert_bytes_equal(view.energy(points, labels), e_ref)

    check(x)
    x = x + rng.normal(size=x.shape)
    check(x)
    if x.size:
        x[-1, 0] += 1.0
        check(x)


def test_frozen_view_shares_layers_and_keeps_the_live_net_live():
    net = small_net(widths=(3, 8, 8, 1), num_classes=3, seed=5)
    view = net.frozen()
    assert view.layers is net.layers and view.config is net.config
    assert isinstance(view.frozen(), EnergyNet)
    # the live net takes its effective weights afresh at every call
    x = np.random.default_rng(5).uniform(size=(4, 3))
    labels = np.zeros(4, dtype=np.intp)
    before = net.energy(x, labels)
    net.layers[1].w += 0.5
    assert not np.array_equal(net.energy(x, labels), before)
    net.layers[1].w -= 0.5
    summed = SummedEnergy([(net, 1), (small_net(seed=6), None)])
    frozen_sum = summed.frozen()
    assert [l for _, l in frozen_sum.parts] == [1, None]
    _assert_bytes_equal(frozen_sum.grad_x(x), summed.grad_x(x))


@KERNEL_SETTINGS
@given(**KERNEL_NETS, tangent=st.booleans())
def test_backward_matches_out_of_place_reference(tangent, **case):
    """backward, with c None and with a tangent c, equals the out-of-place
    reverse pass byte for byte."""
    net, x, labels, rng = _kernel_case(**case)
    r = rng.normal(size=x.shape[0])
    c = rng.normal(size=x.shape) if tangent else None
    gx_ref, grads_ref = reference_backward(net, x, labels, r=r, c=c)
    gx, grads = net.backward(x, labels, r=r, c=c)
    _assert_bytes_equal(gx, gx_ref)
    assert list(grads) == [name for name, _ in net.parameters()]
    assert set(grads) == set(grads_ref)
    for name, g in grads.items():
        _assert_bytes_equal(g, grads_ref[name])
