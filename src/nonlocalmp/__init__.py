"""Mountain-pass descent solver for nonlocal equations -Lu = f(x,u).

The operator L is a convolution with a radial kernel; Dirichlet and
Neumann volume constraints are supported on 1D intervals.  The package
provides P1 finite-element assembly of the nonlocal bilinear form, the
descent algorithm on the mountain-pass energy landscape, and a
verification harness that reproduces residual/error convergence tables.
"""

from .assembly import NonlocalForm, assemble_dirichlet, assemble_neumann
from .energy import (NONLINEARITIES, Nonlinearity, gradient,
                     nonlinearity_from_name, t_star)
from .fem import (FeFunction, Mesh, build_extended_mesh, build_mesh,
                  interpolate, omega_norm_matrices, step_function)
from .kernels import (Exponential, Gaussian, InvertedMexicanHat, Logistic,
                      PowerLaw, builtin_kernels, kernel_from_name)
from .mountain_pass import IterationRecord, SolveResult, SolverConfig, solve
from .verify import (CaseReport, convergence_study, fit_orders,
                     reference_errors, residual_norms)

# submodule access; keeps nonlocalmp.energy pointing at the module rather
# than the energy functional (use nonlocalmp.energy.energy for that)
from . import assembly, cases, config, energy, fem, kernels  # noqa: E402,F401
from . import mountain_pass, verify  # noqa: E402,F401

__version__ = "0.1.0"
