"""Time grids and sampled functions: construction, immutability, arithmetic."""

import numpy as np
import pytest

from memheat import GridMismatchError, SampledFunction, TimeGrid, require_same_grid


def test_grid_basics():
    grid = TimeGrid(2.0, 8)
    assert grid.dt == 0.25
    assert grid.size == 9
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 2.0
    assert np.allclose(np.diff(grid.nodes), 0.25)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 2.5)


def test_halved_refines_in_place():
    grid = TimeGrid(1.0, 100)
    fine = grid.halved()
    assert fine.steps == 200
    assert fine.horizon == grid.horizon
    # every coarse node is a fine node
    assert np.allclose(fine.nodes[::2], grid.nodes)


def test_nodes_are_read_only():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        grid.nodes[0] = 7.0


def test_sampled_function_defensive_copy():
    grid = TimeGrid(1.0, 3)
    raw = np.array([1.0, 2.0, 3.0, 4.0])
    f = SampledFunction(grid, raw)
    raw[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[1] = 0.0  # stored array is frozen too


def test_sampled_function_validation():
    grid = TimeGrid(1.0, 3)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.zeros(3))  # wrong length
    with pytest.raises(ValueError):
        SampledFunction(grid, [0.0, 1.0, np.nan, 2.0])
    with pytest.raises(ValueError):
        SampledFunction(grid, [0.0, 1.0, np.inf, 2.0])


def test_arithmetic_and_norms():
    grid = TimeGrid(1.0, 4)
    f = SampledFunction.from_callable(grid, lambda t: t)
    g = SampledFunction.from_callable(grid, lambda t: 1.0 - t)
    assert np.allclose((f + g).values, 1.0)
    assert np.allclose((f - g).values, 2.0 * grid.nodes - 1.0)
    assert np.allclose((2.0 * f).values, 2.0 * grid.nodes)
    assert np.allclose((f * 2.0).values, (2.0 * f).values)
    assert np.allclose((-f).values, -grid.nodes)
    assert f.sup_norm() == 1.0
    assert f.at_end() == 1.0
    assert SampledFunction.zeros(grid).sup_norm() == 0.0


def test_grid_mismatch_is_loud():
    f = SampledFunction.zeros(TimeGrid(1.0, 4))
    g = SampledFunction.zeros(TimeGrid(1.0, 5))
    with pytest.raises(GridMismatchError):
        f + g
    with pytest.raises(GridMismatchError):
        require_same_grid(f, g)
    # same parameters, distinct objects: frozen dataclass equality applies
    h = SampledFunction.zeros(TimeGrid(1.0, 4))
    assert require_same_grid(f, h) == TimeGrid(1.0, 4)
