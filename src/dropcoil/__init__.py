"""Numerical toolkit for coiled Delaunay equilibria of the liquid drop model.

Modules
-------
profile      unduloid profile and conformal chart in closed form, stability integral I_a
geometry     straight/coiled surface patches, curvature, OBJ export
coulomb      block-decomposed Newton potentials and energies of the coil
fields       symmetric scalar fields on one Delaunay period
jacobi       projected solves for the Jacobi operator
reduction    the Lyapunov-Schmidt fixed point and the mass map
asymptotics  small-neck expansion machinery and the I_a ~ 2a slope
cli          batch subcommands with deterministic file outputs
"""

__version__ = "0.1.0"

import ctypes

# glibc gives the free top of the heap back to the system once it exceeds
# M_TRIM_THRESHOLD, and the next pass over the same arrays faults those pages
# in again.  Setting that threshold also freezes glibc's dynamic mmap threshold
# at 128 KiB, so every larger array would be mapped and faulted afresh; both are
# set to the values glibc's own dynamic rule reaches at its cap (mmap 32 MiB,
# trim twice that).  Minor faults a benchmark pass (getrusage ru_minflt), glibc's
# defaults -> these: reduce_fast about 5800 -> 0-4, reduce_desk 389 -> 0-1, tables
# about 8500 -> 3-40 (the trim threshold alone: about 750), at the same peak
# memory.  Without mallopt (not glibc) nothing is set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 64 << 20)

from . import errors  # noqa: F401
from .asymptotics import ia_slope_check, phi_correction, sech_moments, theta_apply  # noqa: F401
from .coulomb import (BlockQuadrature, CoulombResult, coulomb_energy,  # noqa: F401
                      critical_mass, potential_coil, potential_perturbed)
from .fields import SymmetricField  # noqa: F401
from .geometry import (FundamentalForms, SurfacePatch, build_coil,  # noqa: F401
                       build_cylinder, build_sphere, build_straight,
                       curvature_expansion_check, evaluate_forms, export_mesh)
from .jacobi import JacobiSolver, KernelFields  # noqa: F401
from .profile import (ConformalChart, DelaunayProfile, build_chart,  # noqa: F401
                      compute_Ia, compute_Ia_conformal, profile_scan,
                      solve_profile)
from .reduction import (MassMap, ReductionSettings, ReductionState,  # noqa: F401
                        evaluate_equation, find_neck_for_mass,
                        fixed_point_solve, gamma_leading, mass_map,
                        select_block_count, solve_gamma)
