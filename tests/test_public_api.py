import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import nonlocalmp

MODULES = sorted(m.name for m in pkgutil.iter_modules(nonlocalmp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nonlocalmp.{name}")
    public = getattr(module, "__all__", ())
    assert [n for n in public if not hasattr(module, n)] == []


def test_import_loads_no_heavy_scipy_subpackages():
    # the package needs scipy.linalg only; these would add about 0.35 s
    # and 23 MiB to every run
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.special",
             "scipy.sparse"]
    code = ("import json, sys, nonlocalmp, nonlocalmp.cli; "
            f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nonlocalmp.__file__)))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert json.loads(proc.stdout) == []
