"""Low-density-limit Markovian generators for scattering-coupled open systems."""

from .bath import (BathSpec, DensityProfile, EnergyGrid, GammaTable,
                   k_inner_product, mu_inv, validate_bath)
from .dynamics import (DensityTrajectory, JumpEnsemble, evolve_master,
                       unravel_jump, vacuum_decay)
from .errors import NumericError, ValidationError
from .generator import (GKSLGenerator, apply_generator, build_generator,
                        choi_matrix, drift, drift_from_t_operator,
                        dual_generator_matrix, theta_map)
from .model import (ModelSpec, SpectralData, block_transfer, load_model,
                    model_from_dict, spectral_decompose)
from .tmatrix import (BlockColumn, TMatrix, dyson_oracle,
                      dyson_reference, richardson_extrapolate)
from .verification import (GaussianPacket, LimitCheckReport,
                           check_causal_delta_limit, check_delta_limit,
                           run_identity_suite)

__version__ = "0.1.0"

__all__ = [
    "BathSpec", "DensityProfile", "EnergyGrid", "GammaTable",
    "k_inner_product", "mu_inv", "validate_bath",
    "DensityTrajectory", "JumpEnsemble", "evolve_master", "unravel_jump",
    "vacuum_decay",
    "NumericError", "ValidationError",
    "GKSLGenerator", "apply_generator", "build_generator", "choi_matrix",
    "drift", "drift_from_t_operator", "dual_generator_matrix", "theta_map",
    "ModelSpec", "SpectralData", "block_transfer", "load_model",
    "model_from_dict", "spectral_decompose",
    "BlockColumn", "TMatrix", "dyson_oracle", "dyson_reference",
    "richardson_extrapolate",
    "GaussianPacket", "LimitCheckReport", "check_causal_delta_limit",
    "check_delta_limit", "run_identity_suite",
]
