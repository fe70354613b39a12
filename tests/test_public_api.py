import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import nonlocalmp

MODULES = sorted(m.name for m in pkgutil.iter_modules(nonlocalmp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nonlocalmp.{name}")
    public = getattr(module, "__all__", ())
    assert [n for n in public if not hasattr(module, n)] == []


def test_import_and_run_load_no_scipy():
    # the package's linear algebra is numpy's: importing it and running a
    # Dirichlet and a Neumann row load no scipy module (with scipy.linalg
    # the import took about 0.48 s, without it 0.15 s)
    code = textwrap.dedent("""
        import json, math, sys, warnings
        import nonlocalmp, nonlocalmp.cli
        from nonlocalmp import cases, config, verify

        def loaded():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

        seen = {"import": loaded()}
        warnings.simplefilter("ignore")
        for case, h in (("case1", 2 * math.pi / 20), ("case5", 0.3)):
            spec = config.parse_config_text(cases.case_config_text(case))
            assert verify.run_single(spec, h).report.converged
            seen[case] = loaded()
        print(json.dumps(seen))
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nonlocalmp.__file__)))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert json.loads(proc.stdout) == {"import": [], "case1": [],
                                       "case5": []}
