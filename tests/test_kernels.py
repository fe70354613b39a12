import dataclasses
import math
import warnings

import numpy as np
import pytest

import nonlocalmp as nm
from nonlocalmp.kernels import KERNEL_NAMES

from oracles import quadrature_moments


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
    k = nm.Exponential()
    assert k.total_mass == 1.0
    assert quadrature_moments(k)[0] == pytest.approx(1.0, abs=1e-9)


def test_gaussian_second_moment():
    k = nm.Gaussian()
    assert k.second_moment == 0.5 and k.total_mass == 1.0
    mass, mom = quadrature_moments(k)
    assert mom == pytest.approx(0.5, abs=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_mexican_hat_mass():
    # (2 sqrt(pi) - sqrt(pi)) / pi = 1/sqrt(pi); cross-checked by Riemann sum
    k = nm.InvertedMexicanHat()
    assert k.total_mass == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    x = np.linspace(-30.0, 30.0, 2_000_001)
    riemann = np.trapezoid(k.gamma(np.abs(x)), x)
    assert k.total_mass == pytest.approx(riemann, abs=1e-8)


@pytest.mark.parametrize("name,kernel", sorted(nm.builtin_kernels().items()))
def test_unit_mass_and_finite_second_moment(name, kernel):
    assert kernel.total_mass > 0.0
    if name != "mexican_hat":
        assert kernel.total_mass == 1.0
    assert math.isfinite(kernel.second_moment) and kernel.second_moment > 0.0


@pytest.mark.parametrize("name,kernel", sorted(nm.builtin_kernels().items()))
def test_quadrature_mass_consistency(name, kernel):
    # the oracle quadrature converges with its tolerance, onto the closed
    # forms: R_cut omits at most tol on each side, plus the quadrature's
    # own error
    tol = 1e-6
    da = quadrature_moments(kernel, quad_tol=tol)
    db = quadrature_moments(kernel, quad_tol=tol / 10.0)
    exact = kernel.total_mass, kernel.second_moment
    for a, b, e in zip(da, db, exact):
        assert abs(a - b) <= 2.0 * tol
        assert max(abs(a - e), abs(b - e)) <= 2.0 * tol + 1e-10


MOMENT_CASES = [
    nm.Exponential(), nm.Exponential(scale=0.3),
    nm.Gaussian(), nm.Gaussian(scale=2.5),
    nm.InvertedMexicanHat(), nm.InvertedMexicanHat(A=1.5),
    nm.InvertedMexicanHat(a=0.5, b=2.0, A=1.0, B=3.0),
    nm.Logistic(), nm.Logistic(a=0.5, b=6.0),
    nm.PowerLaw(), nm.PowerLaw(a=2.0, p=5.5),
]


@pytest.mark.parametrize("kernel", MOMENT_CASES, ids=repr)
def test_closed_form_moments_match_quadrature(kernel):
    mass, mom = quadrature_moments(kernel, quad_tol=1e-10)
    assert kernel.total_mass == pytest.approx(mass, rel=1e-8, abs=0.0)
    assert kernel.second_moment == pytest.approx(mom, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("kernel", MOMENT_CASES, ids=repr)
def test_sign_change_matches_sampled_gamma(kernel):
    sample = kernel.gamma(np.linspace(0.0, kernel.truncation_radius(1e-10),
                                      4001))
    tiny = 1e-14 * float(np.max(np.abs(sample)))
    sampled = bool(np.any(sample < -tiny) and np.any(sample > tiny))
    assert kernel.is_sign_changing is sampled


# 20 characteristic lengths of each default kernel: the scale, the wide
# width b of the Mexican hat, a of the algebraic families
SAMPLING_RANGE = {"exponential": 20.0, "gaussian": 20.0, "mexican_hat": 40.0,
                  "logistic": 20.0, "power_law": 20.0}


@pytest.mark.parametrize("name,kernel", sorted(nm.builtin_kernels().items()))
def test_monotone_tail(name, kernel):
    r = np.linspace(0.0, SAMPLING_RANGE[name], 4001)
    vals = np.abs(kernel.gamma(r))
    vals = vals[np.argmax(vals):]   # from the sampled peak outward
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) <= 1e-15)


def test_default_mexican_hat_is_nonnegative():
    k = nm.InvertedMexicanHat()
    assert not k.is_sign_changing
    sample = k.gamma(np.linspace(0.0, k.truncation_radius(1e-8), 4001))
    assert float(np.min(sample)) == pytest.approx(0.0, abs=1e-12)


def test_reweighted_mexican_hat_changes_sign():
    k = nm.InvertedMexicanHat(a=1.0, b=2.0, A=1.5, B=2.0)
    assert k.is_sign_changing
    assert k.gamma(0.0) < 0.0


@pytest.mark.parametrize("bad", [
    lambda: nm.Exponential(scale=-1.0),
    lambda: nm.Gaussian(scale=0.0),
    lambda: nm.PowerLaw(a=1.0, p=3.0),
    lambda: nm.Logistic(a=1.0, b=3.0),
    lambda: nm.InvertedMexicanHat(a=2.0, b=1.0),
    lambda: nm.InvertedMexicanHat(a=1.0, b=2.0, A=5.0, B=1.0),
    # a**2 would overflow: rejected, not raised from the range checks
    lambda: nm.InvertedMexicanHat(a=1e200, b=1.0),
    lambda: nm.InvertedMexicanHat(a=1e200, b=2e200),
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


@pytest.mark.parametrize("make", [
    lambda: nm.Exponential(scale=1e300),     # scale**2 overflows
    lambda: nm.Gaussian(scale=1e200),
    lambda: nm.Logistic(a=1e150),            # a**3 overflows
    lambda: nm.PowerLaw(a=1e200),
])
def test_overflowing_second_moment_rejected(make):
    with pytest.raises(ValueError, match="second_moment that is not a "
                                         "finite number"):
        make()


def test_steep_logistic_tail_is_zero_without_warnings():
    # (r/a)**b overflows to inf beyond r = 5.9 at b = 400; 1/inf is the
    # right value there, and nothing is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = nm.Logistic(b=400.0).gamma(np.array([0.0, 1.0, 10.0]))
    assert vals[0] > vals[1] > 0.0
    assert vals[2] == 0.0


def test_kernel_from_name():
    k = nm.kernel_from_name("power_law", a=2.0, p=5.0)
    assert isinstance(k, nm.PowerLaw)
    with pytest.raises(ValueError):
        nm.kernel_from_name("triangle")
