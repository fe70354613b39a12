"""Radial convolution kernels and their scalar diagnostics.

Every kernel is an immutable value object exposing a vectorized point
evaluation ``gamma(r)`` for r = |x - y| >= 0, the exact total mass
``total_mass`` of the kernel over the real line, a characteristic
``width`` and a ``truncation_radius(tol)`` beyond which the omitted mass
and second moment stay below tol.  Its dataclass fields are its
parameters, named as the ``kernel.*`` config keys.  Parameters are
validated at construction (each must be a finite number within its
family's range); evaluation never branches on invalid input.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import integrate

from .errors import QuadratureFailure, TailBoundUnavailable, check_finite

__all__ = [
    "Exponential",
    "Gaussian",
    "InvertedMexicanHat",
    "Logistic",
    "PowerLaw",
    "KernelDiagnostics",
    "diagnostics",
    "builtin_kernels",
    "kernel_from_name",
]


def _check_params(kernel):
    """Raise ValueError unless every parameter of kernel is finite."""
    check_finite(((f.name, getattr(kernel, f.name)) for f in fields(kernel)),
                 ValueError)


@dataclass(frozen=True)
class Exponential:
    """gamma(r) = exp(-r/scale) / (2 scale), unit mass."""

    scale: float = 1.0

    def __post_init__(self):
        _check_params(self)
        if self.scale <= 0:
            raise ValueError("Exponential kernel requires scale > 0")

    def gamma(self, r):
        return np.exp(-np.asarray(r) / self.scale) / (2.0 * self.scale)

    @property
    def total_mass(self):
        return 1.0

    def truncation_radius(self, tol):
        ell = max(math.log(1.0 / tol), 1.0)
        # the extra log term keeps the second-moment tail below tol as well
        return self.scale * (ell + 2.0 * math.log1p(ell))

    @property
    def width(self):
        return self.scale


@dataclass(frozen=True)
class Gaussian:
    """gamma(r) = exp(-r^2/scale^2) / (scale sqrt(pi)), unit mass."""

    scale: float = 1.0

    def __post_init__(self):
        _check_params(self)
        if self.scale <= 0:
            raise ValueError("Gaussian kernel requires scale > 0")

    def gamma(self, r):
        z = np.asarray(r) / self.scale
        return np.exp(-z * z) / (self.scale * math.sqrt(math.pi))

    @property
    def total_mass(self):
        return 1.0

    def truncation_radius(self, tol):
        return self.scale * (math.sqrt(max(math.log(1.0 / tol), 1.0)) + 2.0)

    @property
    def width(self):
        return self.scale


@dataclass(frozen=True)
class InvertedMexicanHat:
    """Difference of two Gaussian profiles, the wider one entering positively.

    gamma(r) = (B exp(-r^2/b^2)/b - A exp(-r^2/a^2)/a) / pi

    with widths 0 < a < b and positive weights A, B constrained by
    A a^2 - B b^2 < 0.  The default (a, b, A, B) = (1, 2, 1, 2) gives
    (exp(-r^2/4) - exp(-r^2)) / pi: a nonnegative kernel with a dip to
    zero at the origin and total mass 1/sqrt(pi).  Other weight choices
    make the dip go negative (a genuinely sign-changing kernel).
    """

    a: float = 1.0
    b: float = 2.0
    A: float = 1.0
    B: float = 2.0

    def __post_init__(self):
        _check_params(self)
        if not (0 < self.a < self.b):
            raise ValueError("InvertedMexicanHat requires 0 < a < b")
        if self.A <= 0 or self.B <= 0:
            raise ValueError("InvertedMexicanHat requires A > 0 and B > 0")
        if self.A * self.a**2 - self.B * self.b**2 >= 0:
            raise ValueError("InvertedMexicanHat requires A*a^2 - B*b^2 < 0")

    def gamma(self, r):
        r = np.asarray(r)
        wide = (self.B / self.b) * np.exp(-(r / self.b) ** 2)
        narrow = (self.A / self.a) * np.exp(-(r / self.a) ** 2)
        return (wide - narrow) / math.pi

    @property
    def total_mass(self):
        return (self.B - self.A) / math.sqrt(math.pi)

    def truncation_radius(self, tol):
        amp = (self.A / self.a + self.B / self.b) / math.pi
        ell = max(math.log(amp / tol), 1.0)
        return self.b * (math.sqrt(ell) + 2.0)

    @property
    def width(self):
        return self.b


@dataclass(frozen=True)
class Logistic:
    """gamma(r) = (1 + (r/a)^b)^{-1} / Z, normalized to unit mass.

    b > 3 is required so that the second moment is finite.
    """

    a: float = 1.0
    b: float = 4.0

    def __post_init__(self):
        _check_params(self)
        if self.a <= 0:
            raise ValueError("Logistic kernel requires a > 0")
        if self.b <= 3:
            raise ValueError("Logistic kernel requires b > 3 "
                             "(finite second moment)")

    @property
    def _norm(self):
        # int_R (1 + (|x|/a)^b)^-1 dx = 2 a (pi/b) / sin(pi/b)
        return 2.0 * self.a * (math.pi / self.b) / math.sin(math.pi / self.b)

    def gamma(self, r):
        z = np.asarray(r) / self.a
        return 1.0 / ((1.0 + z**self.b) * self._norm)

    @property
    def total_mass(self):
        return 1.0

    def truncation_radius(self, tol):
        # gamma(r) <= (a/r)^b / Z for r >= a, so the mass tail is bounded by
        # a^b r^(1-b) / ((b-1) Z) and the second-moment tail by
        # a^b r^(3-b) / ((b-3) Z)
        z = self._norm
        r_mass = (self.a**self.b / ((self.b - 1.0) * z * tol)) ** (1.0 / (self.b - 1.0))
        r_mom = (self.a**self.b / ((self.b - 3.0) * z * tol)) ** (1.0 / (self.b - 3.0))
        return max(r_mass, r_mom, 2.0 * self.a)

    @property
    def width(self):
        return self.a


@dataclass(frozen=True)
class PowerLaw:
    """gamma(r) = (1 + r/a)^{-p} / Z, normalized to unit mass.

    p > 3 is required so that the second moment is finite.
    """

    a: float = 1.0
    p: float = 4.0

    def __post_init__(self):
        _check_params(self)
        if self.a <= 0:
            raise ValueError("PowerLaw kernel requires a > 0")
        if self.p <= 3:
            raise ValueError("PowerLaw kernel requires p > 3 "
                             "(finite second moment)")

    @property
    def _norm(self):
        return 2.0 * self.a / (self.p - 1.0)

    def gamma(self, r):
        z = 1.0 + np.asarray(r) / self.a
        return z ** (-self.p) / self._norm

    @property
    def total_mass(self):
        return 1.0

    def truncation_radius(self, tol):
        z = self._norm
        r_mass = self.a * ((1.0 / ((self.p - 1.0) * z * tol)) ** (1.0 / (self.p - 1.0)))
        # x^2 gamma <= a^p x^(2-p)/Z for x >= a
        r_mom = (self.a**self.p / ((self.p - 3.0) * z * tol)) ** (1.0 / (self.p - 3.0))
        return max(r_mass, r_mom, 2.0 * self.a)

    @property
    def width(self):
        return self.a


KERNEL_NAMES = {
    "exponential": Exponential,
    "gaussian": Gaussian,
    "mexican_hat": InvertedMexicanHat,
    "logistic": Logistic,
    "power_law": PowerLaw,
}


def kernel_from_name(name, **params):
    """Build a kernel from its config-file name and parameter dict."""
    try:
        cls = KERNEL_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; expected one of "
                         f"{sorted(KERNEL_NAMES)}") from None
    return cls(**params)


def builtin_kernels():
    """The five built-in kernels at their default parameters."""
    return {name: cls() for name, cls in KERNEL_NAMES.items()}


def _piecewise_quad(f, r_cut, width, eps):
    """Adaptive quadrature on [0, r_cut] split into geometric subintervals.

    Heavy-tailed kernels need truncation radii many orders of magnitude
    beyond their width; a single adaptive pass misses the near-origin
    bump there.
    """
    edges = [0.0, min(width, r_cut)]
    while edges[-1] < r_cut:
        edges.append(min(edges[-1] * 10.0, r_cut))
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, _ = integrate.quad(f, lo, hi, epsabs=eps, epsrel=eps, limit=200)
        total += val
    return total


@dataclass(frozen=True)
class KernelDiagnostics:
    total_mass: float
    second_moment: float
    min_value_sampled: float
    is_sign_changing: bool


def diagnostics(kernel, quad_tol=1e-10):
    """Compute total mass, second moment and sign information of a kernel.

    Both integrals run over the truncated support [0, R_cut], where R_cut
    comes from the kernel's analytic tail bound and guarantees the omitted
    mass (and second-moment tail) is below ``quad_tol``.
    """
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    try:
        r_cut = kernel.truncation_radius(quad_tol)
    except AttributeError:
        raise TailBoundUnavailable(
            f"kernel {type(kernel).__name__} provides no tail bound") from None

    eps = min(quad_tol / 10.0, 1e-12)
    try:
        mass = _piecewise_quad(lambda r: float(kernel.gamma(r)),
                               r_cut, kernel.width, eps)
        mom = _piecewise_quad(lambda r: r * r * float(kernel.gamma(r)),
                              r_cut, kernel.width, eps)
    except Exception as exc:  # pragma: no cover - defensive
        raise QuadratureFailure(str(exc)) from exc

    sample = kernel.gamma(np.linspace(0.0, r_cut, 4001))
    tiny = 1e-14 * float(np.max(np.abs(sample)))
    return KernelDiagnostics(
        total_mass=2.0 * mass,
        second_moment=2.0 * mom,
        min_value_sampled=float(np.min(sample)),
        is_sign_changing=bool(np.any(sample < -tiny) and np.any(sample > tiny)),
    )
