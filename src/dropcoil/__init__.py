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
