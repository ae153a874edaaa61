"""Simulator and verification toolkit for a quantum-refereed steering game.

The referee hands one player a classical setting and the other a trusted
qubit; a payoff built from the reported correlations is positive only if
the shared resource can steer. This package evaluates that payoff exactly
for honest and for no-steering strategies, samples it at finite
statistics, and calibrates the penalty rate that makes the game sound.
"""

from .game import (
    BinaryPovm,
    CustomLocal,
    GameSpec,
    HonestQuantum,
    LhsDeterministic,
    LocalComponent,
    PayoffEstimate,
    Strategy,
    TallyTable,
    canonical_game,
    estimate_payoff,
    exact_payoff,
    joint_probabilities,
    lhs_best_deterministic,
    partial_bsm_povm,
    simulate_runs,
)
from .states import (
    RefereeEnsemble,
    referee_ideal,
    referee_state,
    werner_state,
)
from .witness import (
    BootstrapResult,
    CalibrationError,
    CalibrationReport,
    CountRecord,
    bootstrap_calibration,
    calibrate,
    chsh_werner,
    ensemble_from_counts,
    lhs_bound,
    regime_at,
    rstar_oracle,
    rstar_printed,
    t_operator,
    werner_threshold,
)

__all__ = [
    "BinaryPovm",
    "BootstrapResult",
    "CalibrationError",
    "CalibrationReport",
    "CountRecord",
    "CustomLocal",
    "GameSpec",
    "HonestQuantum",
    "LhsDeterministic",
    "LocalComponent",
    "PayoffEstimate",
    "RefereeEnsemble",
    "Strategy",
    "TallyTable",
    "bootstrap_calibration",
    "calibrate",
    "canonical_game",
    "chsh_werner",
    "ensemble_from_counts",
    "estimate_payoff",
    "exact_payoff",
    "joint_probabilities",
    "lhs_best_deterministic",
    "lhs_bound",
    "partial_bsm_povm",
    "referee_ideal",
    "referee_state",
    "regime_at",
    "rstar_oracle",
    "rstar_printed",
    "simulate_runs",
    "t_operator",
    "werner_state",
    "werner_threshold",
]
