"""Flat key = value run configuration.

The format is one ``key = value`` pair per line, ``#`` comments, and
dotted keys for grouped parameters (``kernel.scale = 1.0``).  Unknown
keys are rejected with the offending line number.  A key left out takes
the default of its ``RunSpec`` field; the solver settings default to
``SolverConfig`` and the quadrature order to ``assembly.QUAD_ORDER``.
"""

import math
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import assembly, fem
from .energy import NONLINEARITIES, nonlinearity_from_name
from .errors import ConfigError, check_finite
from .kernels import KERNEL_NAMES, kernel_from_name
from .mountain_pass import SolverConfig

__all__ = ["RunSpec", "parse_config_text", "parse_config_file"]

# config key -> (RunSpec field, value type), in echo order; the domain.*,
# kernel.* and output.* keys fill the domain tuple and the
# kernel_params/outputs dicts, and a kernel's parameter keys are the
# fields of its dataclass
_SCALAR_KEYS = {
    "constraint": ("constraint", str),
    "kernel": ("kernel_name", str),
    "nonlinearity": ("nonlinearity_name", str),
    "neumann.extension": ("extension", float),
    "h": ("h", float),
    "h_list": ("h_list", tuple),
    "epsilon": ("epsilon", float),
    "delta": ("delta", float),
    "initial_guess": ("initial_guess", str),
    "quad_order": ("quad_order", int),
    "solver.max_iterations": ("max_iterations", int),
    "solver.grounding_rel": ("grounding_rel", float),
    "solver.direction_reg": ("direction_reg", float),
}
_ALL_KEYS = set(_SCALAR_KEYS) | {
    "domain.left", "domain.right",
    "output.solution", "output.log", "output.matrix", "output.report",
    "output.plot",
} | {f"kernel.{f.name}" for cls in KERNEL_NAMES.values() for f in fields(cls)}
_TYPE_NAMES = {float: "a finite number", int: "an integer",
               tuple: "a list of finite numbers"}
_ECHO = {str: str, int: str, float: repr,
         tuple: lambda hs: " ".join(repr(h) for h in hs)}

_STEP_RE = re.compile(r"^step\(\s*([^\s,]+)\s*,\s*([^\s)]+)\s*\)$")


@dataclass
class RunSpec:
    """Validated settings of one solver run or convergence study."""

    domain: tuple = (-math.pi, math.pi)
    constraint: str = "dirichlet"
    extension: float = 1.5
    kernel_name: str = "exponential"
    kernel_params: dict = field(default_factory=dict)
    nonlinearity_name: str = "cubic"
    h: float = None
    h_list: tuple = None
    epsilon: float = SolverConfig.epsilon
    delta: float = SolverConfig.delta
    initial_guess: str = "sine"
    quad_order: int = assembly.QUAD_ORDER
    max_iterations: int = SolverConfig.max_iterations
    grounding_rel: float = SolverConfig.grounding_rel
    direction_reg: float = SolverConfig.direction_reg
    outputs: dict = field(default_factory=dict)

    def __post_init__(self):
        check_finite(self._numbers())
        assembly.check_constraint(self.constraint)
        if self.kernel_name not in KERNEL_NAMES:
            raise ConfigError(f"unknown kernel {self.kernel_name!r}",
                              key="kernel")
        bad = set(self.kernel_params) - {
            f.name for f in fields(KERNEL_NAMES[self.kernel_name])}
        if bad:
            raise ConfigError(
                f"kernel parameter(s) {sorted(bad)} not valid for "
                f"kernel {self.kernel_name!r}", key="kernel")
        if self.nonlinearity_name not in NONLINEARITIES:
            raise ConfigError(f"unknown nonlinearity "
                              f"{self.nonlinearity_name!r}",
                              key="nonlinearity")
        if self.h is None and not self.h_list:
            raise ConfigError("one of h or h_list is required", key="h")
        if self.h is not None and self.h_list:
            raise ConfigError("h and h_list are mutually exclusive", key="h")
        if self.h_list is not None and len(self.h_list) < 3:
            raise ConfigError("a convergence study needs at least 3 mesh "
                              "sizes in h_list", key="h_list")
        if self.domain[1] <= self.domain[0]:
            raise ConfigError("domain.right must exceed domain.left",
                              key="domain.right")
        key = "h" if self.h is not None else "h_list"
        for name in {"h": ("report", "plot"),
                     "h_list": ("solution", "log", "matrix")}[key]:
            if name in self.outputs:
                raise ConfigError(f"output.{name} is not written when {key} "
                                  f"is set", key=f"output.{name}")
        length = self.domain[1] - self.domain[0]
        # numpy indexes fewer than intp.max elements: h must exceed the
        # mesh's span (with a Neumann run's two extensions) over that
        h_min = (length + 2.0 * self.extension * (self.constraint == "neumann")
                 ) / np.iinfo(np.intp).max
        for h in (self.h,) if self.h is not None else self.h_list:
            if not (h > h_min and 2.0 * h <= length):
                raise ConfigError(f"{key} needs mesh sizes in "
                                  f"({h_min:.3g}, {length / 2:g}] for this "
                                  f"domain, got {h!r}", key=key)
        if not self.extension > 0:
            raise ConfigError(f"neumann.extension must be positive, got "
                              f"{self.extension!r}", key="neumann.extension")
        guess = self._parse_guess()  # validates eagerly
        if guess[0] == "csv" and self.h_list:
            raise ConfigError("an initial_guess .csv fits one mesh, not "
                              "every row of h_list", key="initial_guess")
        if guess[0] == "csv" and not os.path.isfile(guess[1]):
            raise ConfigError(f"initial_guess file {guess[1]!r} not found",
                              key="initial_guess")
        try:
            self.make_kernel()
        except ValueError as exc:
            raise ConfigError(str(exc), key="kernel") from exc
        assembly.check_quad_order(self.quad_order)
        self.solver_config()  # validates the solver settings

    def _numbers(self):
        """(config key, value) of every number set outside the kernel."""
        yield "domain.left", self.domain[0]
        yield "domain.right", self.domain[1]
        for key, (name, kind) in _SCALAR_KEYS.items():
            value = getattr(self, name)
            if kind is str or value is None:
                continue
            for v in value if kind is tuple else (value,):
                yield key, v

    # -- factories ------------------------------------------------------------

    def make_kernel(self):
        return kernel_from_name(self.kernel_name, **self.kernel_params)

    def make_nonlinearity(self):
        return nonlinearity_from_name(self.nonlinearity_name)

    def build_mesh(self, h):
        if self.constraint == "dirichlet":
            return fem.build_mesh(self.domain[0], self.domain[1], h)
        return fem.build_extended_mesh(self.domain, h, self.extension)

    def solver_config(self):
        return SolverConfig(epsilon=self.epsilon, delta=self.delta,
                            max_iterations=self.max_iterations,
                            grounding_rel=self.grounding_rel,
                            direction_reg=self.direction_reg)

    def _parse_guess(self):
        guess = self.initial_guess
        if guess == "sine":
            return ("sine",)
        m = _STEP_RE.match(guess)
        if m:
            try:
                a, b = float(m.group(1)), float(m.group(2))
            except ValueError:
                raise ConfigError(f"malformed step bounds in {guess!r}",
                                  key="initial_guess") from None
            if not a < b:
                # an empty interval is an all-zero start
                raise ConfigError(f"initial_guess step(a,b) needs a < b, "
                                  f"got {guess!r}", key="initial_guess")
            return ("step", a, b)
        if guess.endswith(".csv"):
            return ("csv", guess)
        raise ConfigError(
            f"initial_guess must be sine, step(a,b) or a .csv path, "
            f"got {guess!r}", key="initial_guess")

    def initial_guess_fe(self, mesh):
        kind = self._parse_guess()
        if kind[0] == "sine":
            constraint = "dirichlet" if self.constraint == "dirichlet" else None
            return fem.interpolate(mesh, math.sin, constraint=constraint)
        if kind[0] == "step":
            return fem.step_function(mesh, kind[1], kind[2])
        try:
            return fem.read_function_csv(kind[1], mesh)
        except ValueError as exc:
            raise ConfigError(f"initial_guess {kind[1]!r}: {exc}",
                              key="initial_guess") from exc

    # -- echo -------------------------------------------------------------------

    def echo_items(self):
        """Canonical (key, value) pairs; parsing them back gives an equal RunSpec."""
        items = [("domain.left", repr(self.domain[0])),
                 ("domain.right", repr(self.domain[1]))]
        for key, (name, kind) in _SCALAR_KEYS.items():
            value = getattr(self, name)
            if value is None or (key == "neumann.extension"
                                 and self.constraint != "neumann"):
                continue
            items.append((key, _ECHO[kind](value)))
            if key == "kernel":
                items += [(f"kernel.{k}", repr(v))
                          for k, v in sorted(self.kernel_params.items())]
        items += [(f"output.{k}", v) for k, v in sorted(self.outputs.items())]
        return items


def _parse_lines(text):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' on line {lineno}: "
                              f"{raw.strip()!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r} on line {lineno}",
                              line=lineno, key=key)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r} on line {lineno}",
                              line=lineno, key=key)
        if not value:
            raise ConfigError(f"empty value for {key!r} on line {lineno}",
                              line=lineno, key=key)
        pairs[key] = (value, lineno)
    return pairs


def _convert(key, value, lineno, kind):
    if kind is str:
        return value
    try:
        if kind is tuple:
            out = tuple(float(tok) for tok in value.replace(",", " ").split())
        else:
            out = kind(value)
        finite = all(map(math.isfinite, out if kind is tuple else (out,)))
    except (ValueError, OverflowError):
        # OverflowError: an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}",
                          line=lineno, key=key)
    return out


def parse_config_text(text):
    """Parse a flat key = value configuration into a RunSpec.

    Only the keys present are passed on; every other setting keeps the
    RunSpec default.
    """
    kwargs, domain = {}, {}
    pairs = _parse_lines(text)
    for key, (value, lineno) in pairs.items():
        group, _, name = key.partition(".")
        if group == "domain":
            domain[name] = _convert(key, value, lineno, float)
        elif group == "kernel" and name:
            kwargs.setdefault("kernel_params", {})[name] = \
                _convert(key, value, lineno, float)
        elif group == "output":
            kwargs.setdefault("outputs", {})[name] = value
        else:
            field_name, kind = _SCALAR_KEYS[key]
            kwargs[field_name] = _convert(key, value, lineno, kind)
    if "neumann.extension" in pairs \
            and kwargs.get("constraint", RunSpec.constraint) == "dirichlet":
        raise ConfigError("neumann.extension is not used when constraint is "
                          "dirichlet", line=pairs["neumann.extension"][1],
                          key="neumann.extension")
    if domain:
        left, right = RunSpec.domain
        kwargs["domain"] = (domain.get("left", left),
                            domain.get("right", right))
    return RunSpec(**kwargs)


def parse_config_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
