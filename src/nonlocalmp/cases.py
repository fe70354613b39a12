"""Bundled case presets mirroring the reference convergence tables.

Each preset is a configuration file whose first line, a comment,
describes the case.
"""

from importlib import resources

from .errors import ConfigError

__all__ = ["CASE_NAMES", "case_config_text", "list_cases_text"]

CASE_NAMES = ("case1", "case2", "case3", "case4", "case5")


def case_config_text(name):
    if name not in CASE_NAMES:
        raise ConfigError(f"unknown case {name!r}; expected one of "
                          f"{CASE_NAMES}", key="case")
    return resources.files("nonlocalmp").joinpath(f"cases/{name}.cfg").read_text()


def list_cases_text():
    """Each case with the description of its file's first line."""
    lines = ["Bundled cases (run with --case NAME):"]
    for name in CASE_NAMES:
        first = case_config_text(name).split("\n", 1)[0]
        lines.append(f"  {name}  {first.removeprefix('# ')}")
    return "\n".join(lines)
