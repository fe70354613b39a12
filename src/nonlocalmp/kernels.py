"""Radial convolution kernels and their closed-form moments.

Every kernel is an immutable value object exposing a vectorized point
evaluation ``gamma(r)`` for r = |x - y| >= 0, the exact ``total_mass``
and ``second_moment`` (int x^2 gamma(|x|) dx) of the kernel over the real
line, ``is_sign_changing`` (whether gamma takes both signs), and a
``truncation_radius(tol)`` beyond which the omitted mass and second
moment stay below tol.  Its dataclass fields are its parameters, named
as the ``kernel.*`` config keys.  Parameters are validated at
construction (each must be a finite number within its family's range,
and the total mass and second moment they give must be finite);
evaluation never branches on invalid input.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import check_finite

__all__ = [
    "Exponential",
    "Gaussian",
    "InvertedMexicanHat",
    "Logistic",
    "PowerLaw",
    "builtin_kernels",
    "kernel_from_name",
]


def _check_params(kernel, *ranges):
    """Raise ValueError unless, in this order, every parameter of kernel
    is finite, each (holds, message) of its family's ``ranges`` holds (the
    moment formulas divide by terms they keep nonzero), and the total
    mass and second moment are finite, a formula that overflows not."""
    check_finite(((f.name, getattr(kernel, f.name)) for f in fields(kernel)),
                 ValueError)
    for holds, message in ranges:
        if not holds:
            raise ValueError(message)
    for name in ("total_mass", "second_moment"):
        try:
            finite = math.isfinite(getattr(kernel, name))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{kernel!r} has a {name} that is not a "
                             f"finite number")


@dataclass(frozen=True)
class Exponential:
    """gamma(r) = exp(-r/scale) / (2 scale), unit mass."""

    scale: float = 1.0
    is_sign_changing = False  # gamma > 0 everywhere

    def __post_init__(self):
        _check_params(self, (self.scale > 0,
                             "Exponential kernel requires scale > 0"))

    def gamma(self, r):
        return np.exp(-np.asarray(r) / self.scale) / (2.0 * self.scale)

    @property
    def total_mass(self):
        return 1.0

    @property
    def second_moment(self):
        return 2.0 * self.scale**2

    def truncation_radius(self, tol):
        ell = max(math.log(1.0 / tol), 1.0)
        # the extra log term keeps the second-moment tail below tol as well
        return self.scale * (ell + 2.0 * math.log1p(ell))


@dataclass(frozen=True)
class Gaussian:
    """gamma(r) = exp(-r^2/scale^2) / (scale sqrt(pi)), unit mass."""

    scale: float = 1.0
    is_sign_changing = False  # gamma > 0 everywhere

    def __post_init__(self):
        _check_params(self, (self.scale > 0,
                             "Gaussian kernel requires scale > 0"))

    def gamma(self, r):
        z = np.asarray(r) / self.scale
        return np.exp(-z * z) / (self.scale * math.sqrt(math.pi))

    @property
    def total_mass(self):
        return 1.0

    @property
    def second_moment(self):
        return 0.5 * self.scale**2

    def truncation_radius(self, tol):
        return self.scale * (math.sqrt(max(math.log(1.0 / tol), 1.0)) + 2.0)


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
        # products, not **, which raises OverflowError on a huge a or b
        _check_params(
            self, (0 < self.a < self.b, "InvertedMexicanHat requires 0 < a < b"),
            (self.A > 0 and self.B > 0,
             "InvertedMexicanHat requires A > 0 and B > 0"),
            (self.A * self.a * self.a < self.B * self.b * self.b,
             "InvertedMexicanHat requires A*a^2 - B*b^2 < 0"))

    def gamma(self, r):
        r = np.asarray(r)
        wide = (self.B / self.b) * np.exp(-(r / self.b) ** 2)
        narrow = (self.A / self.a) * np.exp(-(r / self.a) ** 2)
        return (wide - narrow) / math.pi

    @property
    def total_mass(self):
        return (self.B - self.A) / math.sqrt(math.pi)

    @property
    def second_moment(self):
        return ((self.B * self.b**2 - self.A * self.a**2)
                / (2.0 * math.sqrt(math.pi)))

    @property
    def is_sign_changing(self):
        # the wide profile dominates far out, so gamma changes sign exactly
        # when gamma(0) = (B/b - A/a) / pi is negative
        return self.B / self.b < self.A / self.a

    def truncation_radius(self, tol):
        amp = (self.A / self.a + self.B / self.b) / math.pi
        ell = max(math.log(amp / tol), 1.0)
        return self.b * (math.sqrt(ell) + 2.0)


@dataclass(frozen=True)
class Logistic:
    """gamma(r) = (1 + (r/a)^b)^{-1} / Z, normalized to unit mass.

    b > 3 is required so that the second moment is finite.
    """

    a: float = 1.0
    b: float = 4.0
    is_sign_changing = False  # gamma > 0 everywhere

    def __post_init__(self):
        _check_params(self, (self.a > 0, "Logistic kernel requires a > 0"),
                      (self.b > 3, "Logistic kernel requires b > 3 "
                                   "(finite second moment)"))

    @property
    def _norm(self):
        # int_R (1 + (|x|/a)^b)^-1 dx = 2 a (pi/b) / sin(pi/b)
        return 2.0 * self.a * (math.pi / self.b) / math.sin(math.pi / self.b)

    def gamma(self, r):
        z = np.asarray(r) / self.a
        # z**b overflows to inf far out, where 1/inf = 0 is the right value
        with np.errstate(over="ignore"):
            return 1.0 / ((1.0 + z**self.b) * self._norm)

    @property
    def total_mass(self):
        return 1.0

    @property
    def second_moment(self):
        # int_R x^2 (1 + (|x|/a)^b)^-1 dx = 2 a^3 (pi/b) / sin(3 pi/b)
        return (2.0 * self.a**3 * (math.pi / self.b)
                / math.sin(3.0 * math.pi / self.b) / self._norm)

    def truncation_radius(self, tol):
        # gamma(r) <= (a/r)^b / Z for r >= a, so the mass tail is bounded by
        # a^b r^(1-b) / ((b-1) Z) and the second-moment tail by
        # a^b r^(3-b) / ((b-3) Z)
        z = self._norm
        r_mass = (self.a**self.b / ((self.b - 1.0) * z * tol)) ** (1.0 / (self.b - 1.0))
        r_mom = (self.a**self.b / ((self.b - 3.0) * z * tol)) ** (1.0 / (self.b - 3.0))
        return max(r_mass, r_mom, 2.0 * self.a)


@dataclass(frozen=True)
class PowerLaw:
    """gamma(r) = (1 + r/a)^{-p} / Z, normalized to unit mass.

    p > 3 is required so that the second moment is finite.
    """

    a: float = 1.0
    p: float = 4.0
    is_sign_changing = False  # gamma > 0 everywhere

    def __post_init__(self):
        _check_params(self, (self.a > 0, "PowerLaw kernel requires a > 0"),
                      (self.p > 3, "PowerLaw kernel requires p > 3 "
                                   "(finite second moment)"))

    @property
    def _norm(self):
        return 2.0 * self.a / (self.p - 1.0)

    def gamma(self, r):
        z = 1.0 + np.asarray(r) / self.a
        return z ** (-self.p) / self._norm

    @property
    def total_mass(self):
        return 1.0

    @property
    def second_moment(self):
        # int_R x^2 (1 + |x|/a)^-p dx = 2 a^3 B(3, p - 3)
        p = self.p
        return (4.0 * self.a**3 / ((p - 1.0) * (p - 2.0) * (p - 3.0))
                / self._norm)

    def truncation_radius(self, tol):
        z = self._norm
        r_mass = self.a * ((1.0 / ((self.p - 1.0) * z * tol)) ** (1.0 / (self.p - 1.0)))
        # x^2 gamma <= a^p x^(2-p)/Z for x >= a
        r_mom = (self.a**self.p / ((self.p - 3.0) * z * tol)) ** (1.0 / (self.p - 3.0))
        return max(r_mass, r_mom, 2.0 * self.a)


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

