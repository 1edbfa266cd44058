import numpy as np
import pytest

from deeplinlab.data import Dataset, gen_input_gaussian, gen_output_uniform
from deeplinlab.initializers import InitScheme, initialize
from deeplinlab.losses import (
    LossFunction,
    l2,
    layer_gradient,
    lp,
    residual_objective,
    total_loss,
)
from deeplinlab.network import Network, end_to_end
from deeplinlab.oracle import least_norm_solution, optimal_loss


def small_instance(seed=0, dims=(4, 5, 3), m=12):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dims[0], m))
    y = rng.normal(size=(dims[-1], m))
    net = Network(
        [rng.normal(size=(dims[l], dims[l - 1])) * 0.5 for l in range(1, len(dims))]
    )
    return net, Dataset(x=x, y=y)


def realizable_instance(seed=1, dims=(4, 4, 3), m=10):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dims[0], m))
    net = Network(
        [rng.normal(size=(dims[l], dims[l - 1])) for l in range(1, len(dims))]
    )
    y = end_to_end(net) @ x
    return net, Dataset(x=x, y=y)


def finite_difference_gradient(net, data, lf, ell, h=1e-6):
    w = net.layers[ell - 1]
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            orig = w[i, j]
            w[i, j] = orig + h
            up = total_loss(net, data, lf)
            w[i, j] = orig - h
            down = total_loss(net, data, lf)
            w[i, j] = orig
            grad[i, j] = (up - down) / (2 * h)
    return grad


def test_total_loss_zero_at_optimum():
    net, data = realizable_instance()
    scale = float(np.sum(data.y**2))
    assert total_loss(net, data, l2()) < 1e-18 * max(scale, 1.0)


def test_total_loss_single_point():
    net = Network([np.zeros((1, 1))])
    data = Dataset(x=np.eye(1), y=np.array([[2.0]]))
    assert total_loss(net, data, l2()) == pytest.approx(2.0)  # (0-2)^2 / 2


def test_total_loss_matches_brute_force():
    net, data = small_instance(seed=3)
    for lf in (l2(), lp(4)):
        pred = end_to_end(net) @ data.x
        brute = sum(
            float(lf.value(np.float64(pred[j, i]), np.float64(data.y[j, i])))
            for i in range(data.m)
            for j in range(data.d_out)
        )
        assert total_loss(net, data, lf) == pytest.approx(brute, rel=1e-12)


def test_residual_objective_is_power_scaled():
    net, data = small_instance(seed=4)
    assert residual_objective(net, data, l2()) == pytest.approx(
        2.0 * total_loss(net, data, l2()), rel=1e-15
    )
    pred = end_to_end(net) @ data.x
    assert residual_objective(net, data, l2()) == pytest.approx(
        float(np.linalg.norm(pred - data.y, "fro") ** 2), rel=1e-12
    )


def test_layer_gradient_zero_at_optimum():
    net, data = realizable_instance()
    for ell in range(1, net.depth + 1):
        assert np.max(np.abs(layer_gradient(net, data, l2(), ell))) < 1e-10


def test_layer_gradient_single_layer_classical():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(2, 3))
    net = Network([w])
    data = Dataset(x=rng.normal(size=(3, 7)), y=rng.normal(size=(2, 7)))
    expected = (w @ data.x - data.y) @ data.x.T
    assert np.allclose(layer_gradient(net, data, l2(), 1), expected, rtol=1e-12)


@pytest.mark.parametrize("lf_name,lf", [("l2", l2()), ("l4", lp(4))])
def test_layer_gradient_finite_differences(lf_name, lf):
    net, data = small_instance(seed=7, dims=(3, 4, 3, 2), m=6)
    for ell in range(1, net.depth + 1):
        got = layer_gradient(net, data, lf, ell)
        want = finite_difference_gradient(net, data, lf, ell)
        denom = max(np.linalg.norm(want), 1e-12)
        assert np.linalg.norm(got - want) / denom < 1e-5


def test_layer_gradient_range_check():
    net, data = small_instance()
    with pytest.raises(ValueError):
        layer_gradient(net, data, l2(), 0)
    with pytest.raises(ValueError):
        layer_gradient(net, data, l2(), net.depth + 1)


def test_dimension_mismatch_rejected():
    net, _ = small_instance()
    bad = Dataset(x=np.ones((2, 5)), y=np.ones((3, 5)))
    with pytest.raises(ValueError, match="network maps"):
        total_loss(net, bad, l2())


def test_distance_to_optimum_identity():
    net, data = small_instance(seed=8)
    w_star = least_norm_solution(data.x, data.y)
    ref = optimal_loss(data.x, data.y, min(net.dims))
    dist = (residual_objective(net, data, l2()) - ref) / data.m
    direct = np.linalg.norm((end_to_end(net) - w_star) @ data.x, "fro") ** 2 / data.m
    assert dist == pytest.approx(direct, rel=1e-9)


def test_l2_decomposition_identity():
    net, data = small_instance(seed=10)
    w_star = least_norm_solution(data.x, data.y)
    ref = optimal_loss(data.x, data.y, min(net.dims))
    lhs = residual_objective(net, data, l2()) - ref
    rhs = float(np.linalg.norm((end_to_end(net) - w_star) @ data.x, "fro") ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_lp_validation():
    with pytest.raises(ValueError):
        lp(3)
    with pytest.raises(ValueError):
        lp(1)
    assert lp(2).name == "l2"


def test_a_loss_is_its_power():
    assert l2() == lp(2) == LossFunction(2) and hash(l2()) == hash(lp(2))
    assert lp(4) == lp(4) and lp(4) != l2() and lp(4).name == "l4"
    with pytest.raises(ValueError, match="even integer"):
        LossFunction(3)


def test_gradient_orth_identity_init_descends():
    x = gen_input_gaussian(5, 20, seed=2)
    y = gen_output_uniform(2, 20, seed=3)
    data = Dataset(x=x, y=y)
    net = initialize(InitScheme("orth_identity"), (5, 5, 2), seed=1)
    g = layer_gradient(net, data, l2(), 2)
    before = total_loss(net, data, l2())
    net.layers[1] -= 1e-3 * g
    assert total_loss(net, data, l2()) < before
