"""Affine finite-dimensional realizations of HJM-type SPDEs.

Decide whether a model admits an affine realization with an affine and
admissible state process, construct maximal initial-curve sets, and
simulate forward curves both through the realization r = psi + X and by a
direct method-of-lines discretization used as a verification oracle.
"""

__version__ = "0.1.0"

from .admissibility import (AffineDrift, AffineSquareVol, VolMatrix, embed_sigma_square,
                            fit_affine_square, is_inward_pointing, is_parallel,
                            sigma_square, symmetric_kernel_equivalences)
from .cones import (ConeBasis, SplitSpace, StateBasis, cone_minus, coordinates,
                    edges, inner_v, membership, normalize_basis,
                    orthogonal_split)
from .curves import Grid, PointCombo, ShortEnd, Weight, derivative, hw_norm, primitive
from .errors import AffineFdrError
from .hjmm import SquareRootModel, build_s_operator, hjm_drift, ker_ell_split
from .realization import (RealizabilityReport, check_const_mod_k, check_damir,
                          check_thm_main2, compute_k, initial_set_coords,
                          maximal_initial_membership, quasi_exp_subspace)
from .simulate import (DirectSummary, Foliation, SimConfig, StatePaths, evolve_psi,
                       simulate_state, summarize_direct, verify_invariance)

__all__ = [name for name in dir() if not name.startswith("_")]
