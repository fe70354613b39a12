import dataclasses
import math

import numpy as np
import pytest

import nonlocalmp as nm
from nonlocalmp.errors import TailBoundUnavailable
from nonlocalmp.kernels import KERNEL_NAMES, diagnostics


def test_exponential_at_origin():
    assert nm.Exponential(scale=1.0).gamma(0.0) == pytest.approx(0.5)


def test_gaussian_at_origin():
    assert nm.Gaussian(scale=1.0).gamma(0.0) == pytest.approx(1.0 / math.sqrt(math.pi))


def test_mexican_hat_vanishes_at_origin():
    k = nm.InvertedMexicanHat(a=1.0, b=2.0, A=1.0, B=2.0)
    assert k.gamma(0.0) == pytest.approx(0.0, abs=1e-15)
    # matches the difference of Gaussians with widths 2 and 1
    r = np.linspace(0.0, 6.0, 200)
    expected = (np.exp(-r**2 / 4.0) - np.exp(-r**2)) / math.pi
    np.testing.assert_allclose(k.gamma(r), expected, atol=1e-15)


def test_exponential_mass():
    d = diagnostics(nm.Exponential(), quad_tol=1e-10)
    assert d.total_mass == pytest.approx(1.0, abs=1e-9)


def test_gaussian_second_moment():
    d = diagnostics(nm.Gaussian(), quad_tol=1e-10)
    assert d.second_moment == pytest.approx(0.5, abs=1e-9)
    assert d.total_mass == pytest.approx(1.0, abs=1e-9)


def test_mexican_hat_mass():
    # (2 sqrt(pi) - sqrt(pi)) / pi = 1/sqrt(pi); cross-checked by Riemann sum
    d = diagnostics(nm.InvertedMexicanHat(), quad_tol=1e-10)
    assert d.total_mass == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-9)
    x = np.linspace(-30.0, 30.0, 2_000_001)
    riemann = np.trapezoid(nm.InvertedMexicanHat().gamma(np.abs(x)), x)
    assert d.total_mass == pytest.approx(riemann, abs=1e-8)


@pytest.mark.parametrize("name,kernel", sorted(nm.builtin_kernels().items()))
def test_unit_mass_and_finite_second_moment(name, kernel):
    d = diagnostics(kernel, quad_tol=1e-8)
    assert d.total_mass == pytest.approx(kernel.total_mass, abs=1e-6)
    assert d.total_mass > 0.0
    assert np.isfinite(d.second_moment)


@pytest.mark.parametrize("name,kernel", sorted(nm.builtin_kernels().items()))
def test_quadrature_mass_consistency(name, kernel):
    tol = 1e-6
    da = diagnostics(kernel, quad_tol=tol)
    db = diagnostics(kernel, quad_tol=tol / 10.0)
    assert abs(da.total_mass - db.total_mass) <= 2.0 * tol
    assert abs(da.second_moment - db.second_moment) <= 2.0 * tol


@pytest.mark.parametrize("name,kernel", sorted(nm.builtin_kernels().items()))
def test_monotone_tail(name, kernel):
    r = np.linspace(0.0, 20.0 * kernel.width, 4001)
    vals = np.abs(kernel.gamma(r))
    vals = vals[np.argmax(vals):]   # from the sampled peak outward
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) <= 1e-15)


def test_default_mexican_hat_is_nonnegative():
    d = diagnostics(nm.InvertedMexicanHat(), quad_tol=1e-8)
    assert not d.is_sign_changing
    assert d.min_value_sampled == pytest.approx(0.0, abs=1e-12)


def test_reweighted_mexican_hat_changes_sign():
    d = diagnostics(nm.InvertedMexicanHat(a=1.0, b=2.0, A=1.5, B=2.0),
                    quad_tol=1e-8)
    assert d.is_sign_changing
    assert d.min_value_sampled < 0.0


@pytest.mark.parametrize("bad", [
    lambda: nm.Exponential(scale=-1.0),
    lambda: nm.Gaussian(scale=0.0),
    lambda: nm.PowerLaw(a=1.0, p=3.0),
    lambda: nm.Logistic(a=1.0, b=3.0),
    lambda: nm.InvertedMexicanHat(a=2.0, b=1.0),
    lambda: nm.InvertedMexicanHat(a=1.0, b=2.0, A=5.0, B=1.0),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


NON_FINITE_PARAMS = [(cls, f.name, value)
                     for cls in KERNEL_NAMES.values()
                     for f in dataclasses.fields(cls)
                     for value in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize(
    "cls,name,value", NON_FINITE_PARAMS,
    ids=[f"{c.__name__}.{n}={v}" for c, n, v in NON_FINITE_PARAMS])
def test_non_finite_parameters_rejected(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        cls(**{name: value})


def test_tail_bound_unavailable():
    class Odd:
        def gamma(self, r):
            return np.zeros_like(np.asarray(r))

    with pytest.raises(TailBoundUnavailable):
        diagnostics(Odd(), quad_tol=1e-8)


def test_kernel_from_name():
    k = nm.kernel_from_name("power_law", a=2.0, p=5.0)
    assert isinstance(k, nm.PowerLaw)
    with pytest.raises(ValueError):
        nm.kernel_from_name("triangle")
