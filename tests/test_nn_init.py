"""Tests for weight initializers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import init


class TestFans:
    def test_vector(self):
        assert init._fans((7,)) == (7, 7)

    def test_matrix(self):
        assert init._fans((3, 5)) == (3, 5)

    def test_conv_kernel(self):
        # (out, in, k) convention: receptive field multiplies channel fans.
        assert init._fans((8, 4, 3)) == (12, 24)


@given(
    fan_in=st.integers(min_value=1, max_value=64),
    fan_out=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_xavier_uniform_bound(fan_in, fan_out, seed):
    rng = np.random.default_rng(seed)
    w = init.xavier_uniform((fan_in, fan_out), rng)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    assert (np.abs(w) <= bound).all()
    assert w.shape == (fan_in, fan_out)


def test_xavier_normal_std():
    rng = np.random.default_rng(0)
    w = init.xavier_normal((200, 200), rng)
    expected = np.sqrt(2.0 / 400)
    assert w.std() == pytest.approx(expected, rel=0.1)


def test_kaiming_uniform_bound():
    rng = np.random.default_rng(0)
    w = init.kaiming_uniform((50, 10), rng)
    assert (np.abs(w) <= np.sqrt(6.0 / 50)).all()


def test_uniform_and_normal_and_zeros():
    rng = np.random.default_rng(0)
    assert (np.abs(init.uniform((100,), rng, 0.5)) <= 0.5).all()
    assert init.normal((500,), rng, std=2.0).std() == pytest.approx(2.0, rel=0.2)
    np.testing.assert_allclose(init.zeros((3, 3)), 0.0)


def test_gain_scales_xavier():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    base = init.xavier_uniform((10, 10), rng1, gain=1.0)
    scaled = init.xavier_uniform((10, 10), rng2, gain=2.0)
    np.testing.assert_allclose(scaled, 2.0 * base)


def test_initializers_return_float64():
    rng = np.random.default_rng(0)
    assert init.xavier_uniform((3, 4), rng).dtype == np.float64
    assert init.xavier_normal((3, 4), rng).dtype == np.float64
    assert init.kaiming_uniform((3, 4), rng).dtype == np.float64
    assert init.uniform((3,), rng, 0.5).dtype == np.float64
    assert init.normal((3,), rng, std=1.0).dtype == np.float64
    assert init.zeros((3, 4)).dtype == np.float64


def test_float64_end_to_end():
    """Precision contract: params, activations, and grads stay float64
    through a full TGCRN forward/backward (the model probe's SH005 and
    SH006 rules enforce the parameter and output halves of this)."""
    from repro.autodiff import mae_loss, randn
    from repro.core import TGCRN

    rng = np.random.default_rng(0)
    model = TGCRN(num_nodes=4, in_dim=2, out_dim=2, horizon=3, hidden_dim=6,
                  num_layers=2, node_dim=5, time_dim=4, steps_per_day=24, rng=rng)
    for name, param in model.named_parameters():
        assert param.data.dtype == np.float64, name
    x = randn(3, 4, 4, 2, rng=rng)
    t = np.arange(7)[None, :].repeat(3, axis=0)
    out = model(x, t)
    assert out.data.dtype == np.float64
    loss = mae_loss(out, randn(3, 3, 4, 2, rng=rng))
    loss.backward()
    for name, param in model.named_parameters():
        assert param.grad is not None and param.grad.dtype == np.float64, name
