"""Quantum Fisher information of multi-qubit probes in correlated Pauli channels.

The package provides two independent routes to the QFI of a probe state
pushed through a classically correlated Pauli channel: a numeric route
(channel application and a Jacobi eigensystem of the output) and an
analytic route for every probe (chain sums over the Markov chain and
closed-form 2x2 block eigensystems).  Both end in the same symmetric-
logarithmic-derivative sum.  Around them sit a Monte-Carlo Cramer-Rao compliance check
and a sweep/figure CLI.
"""

from .channels import (
    ChannelKind,
    ChannelSpec,
    JointDistribution,
    apply_channel,
    joint_distribution,
    single_use_distribution,
)
from .closed_form import closed_form_qfi, output_density
from .linalg import JacobiConvergenceError, eigh
from .metrology import (
    EstimationConfig,
    EstimationReport,
    cramer_rao_report,
    mle_estimate,
    outcome_probabilities,
)
from .probes import (
    Param,
    ProbeFamily,
    ProbeSpec,
    density,
    density_derivative,
)
from .qfi import (
    cramer_rao_bound,
    qfi_numeric,
    qfi_numeric_fd,
    qfi_sld,
)
from .sweep import (
    CheckReport,
    Method,
    SweepConfig,
    SweepRecord,
    cross_check,
    evaluate_point,
    figure,
    render_heatmap,
    run_point,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelKind",
    "ChannelSpec",
    "JointDistribution",
    "apply_channel",
    "joint_distribution",
    "single_use_distribution",
    "closed_form_qfi",
    "output_density",
    "JacobiConvergenceError",
    "eigh",
    "EstimationConfig",
    "EstimationReport",
    "cramer_rao_report",
    "mle_estimate",
    "outcome_probabilities",
    "Param",
    "ProbeFamily",
    "ProbeSpec",
    "density",
    "density_derivative",
    "cramer_rao_bound",
    "qfi_numeric",
    "qfi_numeric_fd",
    "qfi_sld",
    "CheckReport",
    "Method",
    "SweepConfig",
    "SweepRecord",
    "cross_check",
    "evaluate_point",
    "figure",
    "render_heatmap",
    "run_point",
    "run_sweep",
    "__version__",
]
