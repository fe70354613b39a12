#!/usr/bin/env python3
"""Bit-identity check of source trees.

    python3 tools/compare_trees.py parent=OLD/src change=src

Each LABEL=SRC names a source tree holding the ``nonlocalmp`` package.
Every tree runs in a fresh process with BLAS/OpenMP threads pinned to 1
(``bench_descent.run_tree``) and hashes, as sha256 of their bytes:

- for the 15 preset rows of the benchmark studies (cases 1-4 at 20, 40
  and 80 elements, case 5 at h = 0.3, 0.15 and 0.075), each run by
  ``verify.run_single`` from its preset start: the iteration records, the
  solution's nodal values, R, E, the initial energy, the initial L2
  norm, ``l2_ratio`` and the stop reason;
- for the forms of case 1 at 640 elements and case 5 at h = 3/320:
  ``B``, the H1 Gram matrix as its (diagonal, off-diagonal) pair ``H``,
  ``B_tilde`` (None on the Dirichlet form), ``exterior_map`` and the
  outputs of ``values_at_omega_quad``, ``load_vector`` and
  ``operator_at_omega_quad`` on fixed random inputs.

Every later tree is compared with the first.  The script prints each
group whose hash differs and exits 1 if any does, 0 otherwise.  The
digests of one tree, by hand:

    PYTHONPATH=src:tools python3 -c \\
        'import json, compare_trees as c; print(json.dumps(c.digests()))'
"""

import hashlib
import sys
import warnings
from types import SimpleNamespace

import bench_descent as bench


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


def _form_digests(out, label, spec, mesh, assemble):
    import numpy as np

    form = assemble(mesh, spec.make_kernel(), spec.quad_order)
    rng = np.random.default_rng(0)
    u = form.full_values(rng.standard_normal(form.n_unknowns))
    f = rng.standard_normal(form.omega_quad_weights().size)
    out[f"{label} B"] = _sha(form.B)
    out[f"{label} H"] = _sha(*form.H)
    out[f"{label} B_tilde"] = _sha(form.B_tilde)
    out[f"{label} exterior_map"] = _sha(form.exterior_map)
    out[f"{label} values_at_omega_quad"] = _sha(form.values_at_omega_quad(u))
    out[f"{label} load_vector"] = _sha(form.load_vector(f))
    out[f"{label} operator_at_omega_quad"] = _sha(
        form.operator_at_omega_quad(u))


def digests():
    """{group: sha256} of the importable package."""
    from nonlocalmp.errors import ExtensionMarginWarning

    warnings.simplefilter("ignore", ExtensionMarginWarning)
    out = {}
    for label, case, size in bench.PRESET_ROWS:
        _row_digests(out, label, *bench.row_spec(case, size))
    for label, case, size in (("case1/640", "case1", 640),
                              ("case5/h=3/320", "case5", 3 / 320)):
        _form_digests(out, f"form {label}", *bench._row_setup(case, size))
    return out


def main(argv=None):
    trees = bench.parse_trees(sys.argv[1:] if argv is None else argv)
    if not trees or len(trees) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("give at least two trees as LABEL=SRC", file=sys.stderr)
        return 2
    code = bench.child("digests", "compare_trees")
    results = [(label, bench.run_tree(src, code)) for label, src in trees]
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
