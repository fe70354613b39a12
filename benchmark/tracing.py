"""In-memory span tracing of the package, installed from outside it.

Every traced function is an attribute that its caller looks up at call
time: a module global (``mountain_pass.moments``), a module attribute
(``verify.residual_norms``) or a class attribute (``Exponential.gamma``).
``Tracer.install`` swaps each for a wrapper that records one span per call
and ``Tracer.uninstall`` puts the originals back, so no source file of the
package changes.  A target that no longer exists is listed in
``not_traced`` instead of failing the run.

A span is (name, start, end, parent, row, work): ``parent`` is the index of
the enclosing span, ``row`` the workload row being run and ``work`` an
optional per-call amount (kernel points, bytes written, computed MiB).
Spans live in flat arrays for the length of one pass and are aggregated
into per-layer metrics when the pass ends.
"""

import functools
import importlib
import os
import time
from array import array

import numpy as np

_perf = time.perf_counter
_MIB = 1024.0 * 1024.0


def _points(args, kwargs, result):
    return float(np.size(args[1]))       # args[0] is the kernel instance


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _form_mib(args, kwargs, result):
    """Computed size of the dense arrays a form owns (views excluded)."""
    arrays = list(vars(result).values()) + list(vars(result._quad).values())
    return sum(a.nbytes for a in arrays
               if isinstance(a, np.ndarray) and a.base is None) / _MIB


# (owner, attribute, span name, work measure).  Owners are "module" or
# "module:Class"; the attribute is the name the caller looks up.
TARGETS = (
    ("nonlocalmp.fem", "build_mesh", "fem.build_mesh", None),
    ("nonlocalmp.fem", "build_extended_mesh", "fem.build_extended_mesh", None),
    ("nonlocalmp.fem", "omega_norm_matrices", "fem.omega_norm_matrices", None),
    ("nonlocalmp.fem", "interpolate", "fem.interpolate", None),
    ("nonlocalmp.fem", "step_function", "fem.step_function", None),
    ("nonlocalmp.fem", "read_function_csv", "fem.read_function_csv", None),
    ("nonlocalmp.fem", "write_function_csv", "fem.write_function_csv",
     _file_bytes),
    ("nonlocalmp.assembly", "assemble_dirichlet", "assembly.assemble",
     _form_mib),
    ("nonlocalmp.assembly", "assemble_neumann", "assembly.assemble",
     _form_mib),
    ("nonlocalmp.assembly", "dump_matrix", "assembly.dump_matrix",
     _file_bytes),
    ("nonlocalmp.assembly:NonlocalForm", "operator_at_omega_quad",
     "assembly.operator_at_omega_quad", None),
    ("nonlocalmp.assembly:NonlocalForm", "values_at_omega_quad",
     "assembly.values_at_omega_quad", None),
    ("nonlocalmp.assembly:NonlocalForm", "load_vector",
     "assembly.load_vector", None),
    ("nonlocalmp.assembly:NonlocalForm", "full_values",
     "assembly.full_values", None),
    ("nonlocalmp.assembly:NonlocalForm", "solve_spd", "assembly.solve_spd",
     None),
    ("scipy.linalg", "cho_factor", "linalg.cho_factor", None),
    ("scipy.linalg", "cho_solve", "linalg.cho_solve", None),
    ("nonlocalmp.mountain_pass", "moments", "energy.moments", None),
    ("nonlocalmp.energy", "moments", "energy.moments", None),
    ("nonlocalmp.mountain_pass", "energy_gradient", "energy.gradient", None),
    ("nonlocalmp.mountain_pass", "_t_star_from_coeffs", "energy.t_star",
     None),
    ("nonlocalmp.mountain_pass", "ray_energy", "energy.ray_energy", None),
    ("nonlocalmp.mountain_pass", "solve", "mountain_pass.solve", None),
    ("nonlocalmp.mountain_pass", "_ray_data", "mountain_pass.ray_data", None),
    ("nonlocalmp.verify", "run_single", "verify.run_single", None),
    ("nonlocalmp.verify", "residual_norms", "verify.residual_norms", None),
    ("nonlocalmp.verify", "reference_errors", "verify.reference_errors",
     None),
    ("nonlocalmp.verify", "fit_orders", "verify.fit_orders", None),
    ("nonlocalmp.verify", "write_report_csv", "verify.write_report", None),
    ("nonlocalmp.verify", "write_plot_data", "verify.write_report", None),
    ("nonlocalmp.config", "parse_config_text", "config.parse_config_text",
     None),
    ("nonlocalmp.cases", "case_config_text", "cases.case_config_text", None),
)


def _kernel_targets():
    """``gamma`` of every kernel family, as ``self.kernel.gamma`` finds it."""
    kernels = importlib.import_module("nonlocalmp.kernels")
    return [(cls, "gamma", "kernels.gamma", _points)
            for cls in getattr(kernels, "KERNEL_NAMES", {}).values()]


def _resolve(owner):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
        return getattr(obj, cls) if cls else obj
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Records spans around the targets while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.row = -1
        self.not_traced = []
        self._saved = []
        self.clear()

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.rowid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, measure):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            stack = self._stack
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.rowid.append(self.row)
            self.work.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(_perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = _perf()
                stack.pop()
            if measure is not None:
                self.work[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            return
        self.not_traced = []
        for owner, attr, name, measure in TARGETS:
            obj = _resolve(owner)
            if obj is None or not hasattr(obj, attr):
                self.not_traced.append(f"{owner}.{attr}")
                continue
            self._patch(obj, attr, name, measure)
        for obj, attr, name, measure in _kernel_targets():
            self._patch(obj, attr, name, measure)

    def _patch(self, obj, attr, name, measure):
        own = attr in vars(obj)
        original = vars(obj)[attr] if own else getattr(obj, attr)
        self._saved.append((obj, attr, original, own))
        setattr(obj, attr, self._wrap(original, name, measure))

    def uninstall(self):
        for obj, attr, original, own in reversed(self._saved):
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._saved = []

    def arrays(self):
        """The recorded spans as numpy arrays."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "row": np.frombuffer(self.rowid, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write the current spans (and the name table) as an .npz file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


class SpanSummary:
    """Per-name totals of one pass: calls, inclusive and self seconds, work.

    A span's self time is its duration minus the durations of its direct
    children.  A span's layer is the part of its name before the dot,
    except that a ``linalg`` span called from a traced function counts in
    its caller's layer.
    """

    def __init__(self, tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        layers = sorted({n.split(".")[0] for n in self.names})
        self._layers = layers
        layer_of_name = np.array([layers.index(n.split(".")[0])
                                  for n in self.names], dtype=np.int32)
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        k = len(self.names)
        self.calls = np.bincount(name, minlength=k)
        self.incl = np.bincount(name, weights=dur, minlength=k)
        self.work_sum = np.bincount(name, weights=a["work"], minlength=k)
        self.work_max = np.zeros(k)
        np.maximum.at(self.work_max, name, a["work"])
        self._name, self._dur, self._self = name, dur, dur - child
        self._layer = layer_of_name[name] if k else name
        # scipy's Cholesky spans count in the layer of their caller
        lib = nested & (self._layer == self._layer_id("linalg"))
        self._layer[lib] = self._layer[parent[lib]]
        safe = np.where(nested, parent, 0)
        self._parent_name = np.where(nested, name[safe] if name.size else 0,
                                     -1)
        self._parent_layer = np.where(
            nested, self._layer[safe] if name.size else 0, -1)

    def _id(self, name):
        return self.names.index(name) if name in self.names else None

    def _layer_id(self, layer):
        return self._layers.index(layer) if layer in self._layers else -2

    def count(self, name):
        i = self._id(name)
        return int(self.calls[i]) if i is not None else 0

    def seconds(self, name):
        i = self._id(name)
        return float(self.incl[i]) if i is not None else 0.0

    def work(self, name, how="sum"):
        i = self._id(name)
        if i is None:
            return 0.0
        return float((self.work_sum if how == "sum" else self.work_max)[i])

    def layer_self(self, layer):
        """Self seconds of every span of ``layer``."""
        return float(self._self[self._layer == self._layer_id(layer)].sum())

    def under(self, name, parent):
        """Seconds of ``name`` spans whose direct parent is ``parent``."""
        i, p = self._id(name), self._id(parent)
        if i is None or p is None:
            return 0.0
        return float(self._dur[(self._name == i)
                               & (self._parent_name == p)].sum())

    def outside(self, names, callers):
        """Seconds of ``names`` spans whose parent is in none of the
        ``callers`` layers."""
        ids = [self._id(n) for n in names if n in self.names]
        callers = [self._layer_id(c) for c in callers]
        sel = np.isin(self._name, ids) & ~np.isin(self._parent_layer, callers)
        return float(self._dur[sel].sum())
