"""Bundled case presets mirroring the reference convergence tables."""

from importlib import resources

from .errors import ConfigError

__all__ = ["CASE_NAMES", "case_config_text", "list_cases_text"]

CASE_NAMES = ("case1", "case2", "case3", "case4", "case5")

_DESCRIPTIONS = {
    "case1": "Dirichlet on (-pi,pi), exponential kernel, f(u)=u^3, "
             "sine start -- reference results: Table 1",
    "case2": "Dirichlet on (-pi,pi), inverted Mexican hat kernel, f(u)=u^3, "
             "sine start -- reference results: Table 2 "
             "(its finest mesh captured the trivial solution)",
    "case3": "Dirichlet on (-pi,pi), Gaussian kernel, f(u)=u^5, "
             "sine start -- reference results: Table 3",
    "case4": "Dirichlet on (-pi,pi), Gaussian kernel, f(u)=u^3-u, "
             "sine start -- reference results: Table 4",
    "case5": "Neumann, extended domain (-1.5,4.5) around (0,3), exponential "
             "kernel, Allen-Cahn source, step(1,2) start -- reference "
             "results: Table 5",
}


def case_config_text(name):
    if name not in CASE_NAMES:
        raise ConfigError(f"unknown case {name!r}; expected one of "
                          f"{CASE_NAMES}", key="case")
    return resources.files("nonlocalmp").joinpath(f"cases/{name}.cfg").read_text()


def list_cases_text():
    lines = ["Bundled cases (run with --case NAME):"]
    for name in CASE_NAMES:
        lines.append(f"  {name}  {_DESCRIPTIONS[name]}")
    return "\n".join(lines)
