"""biharmlab: numerical laboratory for A = Delta^2 - c|x|^{-4} on R^N, N >= 5.

Discretizes the operator on radial sector and box grids, evaluates its
semigroup and Riesz transform through the weighted spectral calculus, and
measures the quantitative estimates attached to it: the Rellich constant,
the twisted-form inequality, L^p -> L^q decay rates, off-diagonal decay
exponents, Davies distances, and Riesz-transform norm brackets.
"""

from .grids import (BoxGrid, PhiFamily, RadialGrid, Region, build_box_grid,
                    build_radial_grid, euclidean_distance, make_phi,
                    probe_functions, sphere_area)
from .operators import (BoxOperator, SectorOperator, TwistedOperator,
                        assemble_box, assemble_sector, forme_inequality_check,
                        paper_rellich_constant, twist, twisted_form_terms)
from .spectral import (KernelMatrix, SemigroupEvaluator, SpectralDecomposition,
                       eigendecompose, inv_sqrt_apply, riesz_apply,
                       riesz_kernel)
from .norms import (NormEstimate, boyd_lower, corner_norm, interpolation_upper,
                    opnorms)
from .estimates import (DistanceEstimate, FitResult, davies_distance, decay_fit,
                        discrete_rellich, eta_h, extrapolation_check, gamma_pq,
                        lambda_optimizer_check, laplacian_decay_fit,
                        offdiag_fit, reliable_window,
                        rellich_constant, remark_ball_inequality,
                        riesz_pnorm_sweep, solve_parabolic, twisted_decay_suite)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
