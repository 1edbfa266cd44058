"""Layer-wise training laboratory for deep linear networks.

Block coordinate gradient descent with closed-form learning rates, the
structured initialization schemes, least-squares optimum oracles,
convergence-rate verifiers, and the importance-sampled stochastic
variant with its error-floor brackets.
"""

from .data import Dataset, gen_input_gaussian, gen_output_uniform, load_normalize_csv, reshape_spectrum
from .initializers import InitScheme, initialize, random_orthogonal
from .losses import LossFunction, l2, layer_gradient, lp, residual_objective, total_loss
from .network import Network, end_to_end, pad_equiv, partial_product, width_ok
from .optim import LrPolicy, StepRecord, SweepState, Trajectory, bcgd_step, compute_lr, gd_step, run_bcgd, run_gd
from .oracle import OracleSolution, general_solution, least_norm_solution, optimal_loss, rank_constrained_solution
from .sgd import FloorBracket, bcsgd_lr, bcsgd_step, floor_brackets, run_bcsgd, sampling_distribution
from .theory import AuditReport, BasinConstants, basin_constants, gamma_factor, min_depth_one_sweep, verify_trajectory

__version__ = "0.1.0"
