"""Memory kernel families: evaluation, derivatives, config round-trips."""

import numpy as np
import pytest

from memheat import (
    ConfigError,
    ConstantKernel,
    ExpSumKernel,
    PolynomialKernel,
    ZeroKernel,
    kernel_from_config,
)

T = np.linspace(0.0, 2.0, 9)


def test_zero_kernel():
    k = ZeroKernel()
    assert np.all(k(T) == 0.0)
    assert np.all(k.derivative(T) == 0.0)
    assert k.value_at_zero == 0.0
    assert np.all(k.closed_form_resolvent(T) == 0.0)


def test_constant_kernel():
    k = ConstantKernel(2.5)
    assert np.all(k(T) == 2.5)
    assert np.all(k.derivative(T) == 0.0)
    assert k.value_at_zero == 2.5
    # resolvent of a constant c is c e^{-c t} (Laplace: c/(s + c))
    assert np.allclose(k.closed_form_resolvent(T), 2.5 * np.exp(-2.5 * T))


def test_exp_sum_kernel():
    k = ExpSumKernel(((1.5, 2.0),))
    assert np.allclose(k(T), 1.5 * np.exp(-2.0 * T))
    assert np.allclose(k.derivative(T), -3.0 * np.exp(-2.0 * T))
    assert k.value_at_zero == 1.5
    # single term c e^{-bt}: resolvent is c e^{-(b+c)t}
    assert np.allclose(k.closed_form_resolvent(T), 1.5 * np.exp(-3.5 * T))
    two = ExpSumKernel(((1.0, 0.5), (2.0, 1.0)))
    assert two.closed_form_resolvent(T) is None
    assert np.allclose(two(T), np.exp(-0.5 * T) + 2.0 * np.exp(-T))
    with pytest.raises(ValueError):
        ExpSumKernel(((1.0, -0.25),))  # growing exponential is not a kernel here


def test_polynomial_kernel():
    k = PolynomialKernel((1.0, -1.0, 0.5))  # 1 - t + t^2/2
    assert np.allclose(k(T), 1.0 - T + 0.5 * T**2)
    assert np.allclose(k.derivative(T), -1.0 + T)
    assert k.value_at_zero == 1.0
    assert k.closed_form_resolvent(T) is None


@pytest.mark.parametrize(
    "record",
    [
        {"type": "zero"},
        {"type": "constant", "value": 1.0},
        {"type": "exp_sum", "terms": [{"c": 1.0, "b": 1.0}, {"c": 0.5, "b": 2.0}]},
        {"type": "polynomial", "coeffs": [1.0, -1.0]},
    ],
)
def test_config_round_trip(record):
    k = kernel_from_config(record)
    again = kernel_from_config(k.to_config())
    t = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(k(t), again(t))


def test_config_errors_carry_paths():
    with pytest.raises(ConfigError) as err:
        kernel_from_config({"type": "nonsense"})
    assert "kernel" in str(err.value)
    with pytest.raises(ConfigError) as err:
        kernel_from_config({"type": "constant"})
    assert "value" in str(err.value)
    with pytest.raises(ConfigError) as err:
        kernel_from_config({"type": "constant", "value": "big"})
    assert "value" in str(err.value)
    with pytest.raises(ConfigError) as err:
        kernel_from_config({"type": "constant", "value": 1.0, "extra": 1})
    assert "extra" in str(err.value)
    with pytest.raises(ConfigError) as err:
        kernel_from_config({"type": "exp_sum", "terms": []})
    assert "terms" in str(err.value)
    with pytest.raises(ConfigError) as err:
        kernel_from_config({"type": "exp_sum", "terms": [{"c": 1.0}]})
    assert "b" in str(err.value)
    with pytest.raises(ConfigError):
        kernel_from_config({"type": "polynomial", "coeffs": []})
    with pytest.raises(ConfigError):
        kernel_from_config("not a record")
