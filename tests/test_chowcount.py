"""Exact extreme-class counting in the truncated class ring."""

import time

import numpy as np
import pytest

from spheremax import (
    DimensionMismatchError,
    MultidegreeProfile,
    count_extreme_classes,
    count_fixed_points,
    gradient_profile,
)

from conftest import CLASS_COUNTS


def test_known_class_counts():
    for dims, expected in CLASS_COUNTS.items():
        assert count_extreme_classes(dims) == expected


def test_class_counts_fast():
    t0 = time.perf_counter()
    assert count_extreme_classes((3, 3, 3)) == 37
    assert time.perf_counter() - t0 < 1.0


def test_bilinear_count_is_min_dim():
    # a generic n x m matrix has min(n, m) singular-pair classes
    for n in range(1, 8):
        for m in range(1, 8):
            assert count_extreme_classes((n, m)) == min(n, m)


def test_diagonal_selfmap_geometric_series():
    # a degree-d self-map of P^r has 1 + d + ... + d^r fixed points
    for r in range(1, 7):
        for d in range(0, 5):
            profile = MultidegreeProfile(
                dims=(r,), degrees=((d,),)
            )
            assert count_fixed_points(profile) == sum(d ** i for i in range(r + 1))


def test_gradient_profile_structure():
    p = gradient_profile((2, 3, 4))
    assert p.dims == (1, 2, 3)
    assert p.degrees == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_count_validates_input():
    with pytest.raises(DimensionMismatchError):
        count_extreme_classes((3,))
    with pytest.raises(DimensionMismatchError):
        count_extreme_classes((0, 2))
    # (3.9, 3) returned 3, the count of (3, 3)
    with pytest.raises(DimensionMismatchError, match="integers"):
        count_extreme_classes((3.9, 3))
    assert count_extreme_classes((3.0, np.int64(3))) == count_extreme_classes((3, 3))


@pytest.mark.parametrize("dims, degrees, expected", [
    ((1, 2), ((1, 2), (3, 0)), 8),
    ((2, 1, 1), ((0, 1, 2), (1, 1, 0), (2, 0, 1)), 22),
    ((2, 2), ((2, 1), (1, 2)), 75),
])
def test_mixed_profile_counts(dims, degrees, expected):
    # degrees that differ from row to row and from slot to slot
    assert count_fixed_points(MultidegreeProfile(dims=dims, degrees=degrees)) == expected


def test_profile_validation():
    with pytest.raises(DimensionMismatchError):
        MultidegreeProfile(dims=(1, 1), degrees=((1,),))
    with pytest.raises(DimensionMismatchError):
        MultidegreeProfile(dims=(1,), degrees=((-1,),))
    with pytest.raises(DimensionMismatchError):
        MultidegreeProfile(dims=(-1,), degrees=((1,),))


@pytest.mark.parametrize("dims, degrees", [
    ((1.5, 1), ((0, 1), (1, 0))),
    ((1, 1), ((0, 1.5), (1, 0))),
    ((np.nan,), ((1,),)),
    ((1,), ((np.inf,),)),
])
def test_profile_refuses_non_integral_entries(dims, degrees):
    # 1.5 was truncated to 1
    with pytest.raises(DimensionMismatchError, match="integers"):
        MultidegreeProfile(dims=dims, degrees=degrees)


@pytest.mark.parametrize("dims", [(2.5, 3), (np.nan, 2), (2, np.inf)])
def test_gradient_profile_refuses_non_integral_dims(dims):
    with pytest.raises(DimensionMismatchError, match="integers"):
        gradient_profile(dims)


@pytest.mark.parametrize("dims", [(np.nan, 2), (2, np.inf), (-np.inf, 3)])
def test_count_refuses_non_finite_dims(dims):
    with pytest.raises(DimensionMismatchError, match="integers"):
        count_extreme_classes(dims)
