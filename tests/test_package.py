import os
from pathlib import Path
import subprocess
import sys

import corrqfi


def test_public_names():
    assert corrqfi.__all__ == [
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
    assert all(hasattr(corrqfi, name) for name in corrqfi.__all__)


def test_cli_import_loads_no_process_pool():
    # a fresh interpreter, so no other test's imports count
    src = str(Path(corrqfi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, corrqfi.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "False"
