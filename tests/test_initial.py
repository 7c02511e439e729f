import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed.errors import BadParameter
from isoembed.initial import InitialData, make_initial


def test_linear_ramp_slopes():
    init = make_initial("linear_ramp", 0.1, 0.1)
    u = np.linspace(-0.5, 0.5, 11)
    assert np.allclose(init.dh(u), 0.1)
    assert np.allclose(init.dk(u), 0.1)
    assert np.allclose(init.h(u), 0.1 * u)
    assert np.allclose(init.k(u), 0.1 * u)


def test_c1_not_c2_slope_value():
    init = make_initial("c1_not_c2", 0.1, 0.1)
    # h' = eps * (1 + |u|): at u = 0.2 this is 0.1 * 1.2
    assert init.dh(0.2) == pytest.approx(0.12, abs=1e-15)
    assert init.dh(-0.2) == pytest.approx(0.12, abs=1e-15)


def test_c1_not_c2_second_difference_jump():
    init = make_initial("c1_not_c2", 0.1, 0.1)
    d = 1e-3
    # symmetric second difference across the kink vanishes...
    center = (init.h(d) - 2 * init.h(0.0) + init.h(-d)) / d**2
    assert center == pytest.approx(0.0, abs=1e-12)
    # ...but the one-sided second differences disagree by exactly 2*eps
    right = (init.h(2 * d) - 2 * init.h(d) + init.h(0.0)) / d**2
    left = (init.h(0.0) - 2 * init.h(-d) + init.h(-2 * d)) / d**2
    assert right - left == pytest.approx(0.2, abs=1e-9)


def test_bad_parameters():
    with pytest.raises(BadParameter):
        make_initial("linear_ramp", 1.5, 0.1)
    with pytest.raises(BadParameter):
        make_initial("linear_ramp", 0.0, 0.1)
    with pytest.raises(BadParameter):
        make_initial("linear_ramp", 0.1, 0.0)
    with pytest.raises(BadParameter):
        make_initial("not_a_family", 0.1, 0.1)
    with pytest.raises(BadParameter):
        make_initial("custom", 0.1, 0.1)  # initial data from callables is built directly


def test_custom_family():
    init = InitialData(
        family="custom", epsilon=0.2, delta=0.3,
        h=lambda u: 0.2 * u, k=lambda u: 0.3 * u,
        dh=lambda u: 0.2 * np.ones_like(np.asarray(u, dtype=float)),
        dk=lambda u: 0.3 * np.ones_like(np.asarray(u, dtype=float)),
    )
    init.check_grid(np.linspace(-1, 1, 5))


def test_check_grid_rejects_slope_reaching_one():
    init = make_initial("c1_not_c2", 0.5, 0.1)
    with pytest.raises(BadParameter):
        init.check_grid(np.linspace(-1.5, 1.5, 7))  # h' = 0.5*(1+1.5) > 1


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.9), st.floats(0.01, 2.0))
def test_slopes_stay_in_branch(eps, dlt):
    init = make_initial("c1_not_c2", eps, dlt)
    half = min(0.5, 0.9 * (1.0 / eps - 1.0))  # h' = eps (1 + |u|) < 1 below this
    u = np.linspace(-half, half, 101)
    dh = init.dh(u)
    assert np.all(dh > 0.0) and np.all(dh < 1.0)
    init.check_grid(u)
