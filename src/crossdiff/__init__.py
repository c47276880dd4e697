"""Numerical laboratory for cross-diffusion systems on rectangles.

Models are polynomial diffusion potentials P with Jacobian A(u) plus
optional reactions; the package certifies structural hypotheses by
seeded sampling, integrates the dynamics with finite volumes, and fits
the differential inequalities that govern energy decay and absorbing
balls along the computed trajectories.
"""

from .errors import (InputError, ManifestError, ModelDefinitionError,
                     NewtonConvergenceError, NumericalStateError)
from .model import (GeneralReaction, LambdaSpec, MatrixPolynomial, ModelSpec,
                    PolynomialMap, ReactionSpec, Region, StructuralReport,
                    classic_skt, compute_lambda_l, eval_A, eval_lambda,
                    eval_P, eval_reaction, load_model, model_from_dict,
                    model_to_dict, reaction_zero_order, save_model,
                    verify_structure, with_sigma)
from .grid import (Field, Grid2D, build_grid, cell_gradient, div_A_grad,
                   face_coefficients, laplacian_of_P, load_snapshot,
                   save_snapshot, stable_dt)
from .solver import RunStats, SolverConfig, Trajectory, run, step
from .diagnostics import (BmoReport, DiagnosticsConfig, InequalityReport,
                          NormRecord, bmo_profile, decay_bound_check,
                          energy_inequality_check, interpolation_check,
                          morrey_profile, norms, record_headers, record_row,
                          stability_ratio)
from .attractor import (AbsorbingBallReport, EnsembleSpec,
                        ensemble_absorbing_ball, initial_field,
                        ystar_dominance)

__version__ = "0.1.0"

__all__ = [
    "InputError", "ManifestError", "ModelDefinitionError",
    "NewtonConvergenceError", "NumericalStateError",
    "PolynomialMap", "MatrixPolynomial", "LambdaSpec", "ReactionSpec",
    "GeneralReaction", "ModelSpec", "Region", "StructuralReport",
    "eval_P", "eval_A", "eval_lambda", "eval_reaction",
    "reaction_zero_order",
    "verify_structure", "compute_lambda_l", "classic_skt", "with_sigma",
    "model_to_dict", "model_from_dict", "load_model", "save_model",
    "Grid2D", "Field", "build_grid", "cell_gradient", "laplacian_of_P",
    "div_A_grad", "face_coefficients", "stable_dt", "save_snapshot",
    "load_snapshot",
    "SolverConfig", "RunStats", "Trajectory", "step", "run",
    "NormRecord", "BmoReport", "InequalityReport", "DiagnosticsConfig",
    "norms", "bmo_profile", "energy_inequality_check", "decay_bound_check",
    "interpolation_check", "morrey_profile", "stability_ratio",
    "record_headers", "record_row",
    "EnsembleSpec", "AbsorbingBallReport", "initial_field",
    "ensemble_absorbing_ball", "ystar_dominance",
]
