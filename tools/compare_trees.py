#!/usr/bin/env python3
"""Bit-identity check of source trees.

    python3 tools/compare_trees.py parent=OLD/src change=src

Each LABEL=SRC names a source tree holding the ``nonlocalmp`` package.
Every tree runs in a fresh process with BLAS/OpenMP threads pinned to 1
(the thread variables of ``benchmark/run.py``) and hashes, as sha256 of
their bytes:

- for the 15 preset rows of the benchmark studies (cases 1-4 at 20, 40
  and 80 elements, case 5 at h = 0.3, 0.15 and 0.075), each run by
  ``verify.run_single`` from its preset start: the iteration records, the
  solution's nodal values, R, E, the initial energy, the initial L2
  norm, ``l2_ratio`` and the stop reason;
- for the forms of case 1 at 640 elements and case 5 at h = 3/320:
  ``B``, ``h1_gram``, ``exterior_map`` and the outputs of
  ``values_at_omega_quad``, ``load_vector`` and
  ``operator_at_omega_quad`` on fixed random inputs.

Every later tree is compared with the first.  The script prints each
group whose hash differs and exits 1 if any does, 0 otherwise.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
# run by ``python -c`` in each tree's process
CHILD = ("import json, sys; sys.path.insert(0, {tools!r}); "
         "import compare_trees; print(json.dumps(compare_trees.digests()))")


def _benchmark_run():
    """benchmark/run.py as a module (its main runs only as a script)."""
    spec = importlib.util.spec_from_file_location("benchmark_run",
                                                  ROOT / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(*parts):
    """sha256 of the bytes of arrays and the repr of everything else."""
    import numpy as np

    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(repr((part.dtype.str, part.shape)).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _spec(case):
    from nonlocalmp import cases, config

    return config.parse_config_text(cases.case_config_text(case))


def _row_digests(out, label, spec, h):
    from nonlocalmp import verify

    run = verify.run_single(spec, h)
    r, res = run.report, run.result
    if res is None:     # a solver fault: its message stands for the descent
        res = SimpleNamespace(records=[], solution=None, initial_energy=None,
                              initial_l2=r.error)
    out[f"{label} records"] = _sha(
        [tuple(vars(rec).values()) for rec in res.records])
    out[f"{label} solution"] = _sha(getattr(res.solution, "values", None))
    out[f"{label} R"] = _sha(r.R_L1, r.R_L2)
    out[f"{label} E"] = _sha(r.E_L1, r.E_L2)
    out[f"{label} initial_energy"] = _sha(res.initial_energy)
    out[f"{label} initial_l2"] = _sha(res.initial_l2)
    out[f"{label} l2_ratio"] = _sha(r.l2_ratio)
    out[f"{label} stop_reason"] = _sha(r.stop_reason)


def _form_digests(out, label, spec, h):
    import numpy as np

    import nonlocalmp as nm

    assemble = nm.assemble_dirichlet if spec.constraint == "dirichlet" \
        else nm.assemble_neumann
    form = assemble(spec.build_mesh(h), spec.make_kernel(), spec.quad_order)
    rng = np.random.default_rng(0)
    u = form.full_values(rng.standard_normal(form.n_unknowns))
    f = rng.standard_normal(form.omega_quad_weights().size)
    out[f"{label} B"] = _sha(form.B)
    out[f"{label} h1_gram"] = _sha(form.h1_gram)
    out[f"{label} exterior_map"] = _sha(form.exterior_map)
    out[f"{label} values_at_omega_quad"] = _sha(form.values_at_omega_quad(u))
    out[f"{label} load_vector"] = _sha(form.load_vector(f))
    out[f"{label} operator_at_omega_quad"] = _sha(
        form.operator_at_omega_quad(u))


def digests():
    """{group: sha256} of the importable package."""
    import warnings

    from nonlocalmp.errors import ExtensionMarginWarning

    warnings.simplefilter("ignore", ExtensionMarginWarning)
    out = {}
    for case in ("case1", "case2", "case3", "case4"):
        for n in (20, 40, 80):
            _row_digests(out, f"{case}/{n}", _spec(case), 2 * math.pi / n)
    for h in (0.3, 0.15, 0.075):
        _row_digests(out, f"case5/h={h:g}", _spec("case5"), h)
    _form_digests(out, "form case1/640", _spec("case1"), 2 * math.pi / 640)
    _form_digests(out, "form case5/h=3/320", _spec("case5"), 3 / 320)
    return out


def run_tree(src, thread_vars):
    """The digests of the package under ``src``, from a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.update({var: "1" for var in thread_vars})
    code = CHILD.format(tools=str(Path(__file__).resolve().parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    trees = [t.split("=", 1) for t in argv]
    if len(trees) < 2 or any(len(t) != 2 or not all(t) for t in trees):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("give at least two trees as LABEL=SRC", file=sys.stderr)
        return 2
    thread_vars = _benchmark_run().THREAD_VARS
    results = [(label, run_tree(src, thread_vars)) for label, src in trees]
    (first, base), differ = results[0], 0
    for label, other in results[1:]:
        for group in sorted(base.keys() | other.keys()):
            if base.get(group) != other.get(group):
                differ += 1
                print(f"differs: {group} ({first} vs {label})")
    print(f"{len(base)} groups compared over {len(results)} trees, "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
