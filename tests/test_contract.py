"""The input contract: a public call given the wrong kind of value raises
ValueError naming the parameter, never an AttributeError from inside."""

import numpy as np
import pytest

from qrsgame import game, states, witness
from qrsgame.game import canonical_game, partial_bsm_povm, random_lhs_strategy
from qrsgame.states import referee_ideal

ENSEMBLE = referee_ideal()
SPEC = canonical_game(1.0)
STRATEGY = random_lhs_strategy(np.random.default_rng(2804))
TALLY = game.simulate_runs(SPEC, STRATEGY, ENSEMBLE, 10, 0)
ANALYZER = partial_bsm_povm(1.0)

KINDS = {"ensemble": "RefereeEnsemble", "spec": "GameSpec",
         "counts": "CountRecord", "record": "CountRecord"}

# (name, parameter, call): the call takes the bad value in that parameter's place.
CONTRACT = [
    ("rstar_oracle", "ensemble", lambda x: witness.rstar_oracle(x)),
    ("rstar_printed", "ensemble", lambda x: witness.rstar_printed(x)),
    ("lhs_bound", "ensemble", lambda x: witness.lhs_bound(x, 1.0)),
    ("worst_assignment", "ensemble", lambda x: witness.worst_assignment(x, 1.0)),
    ("t_operator", "ensemble", lambda x: witness.t_operator(x, (1, 1, 1), 1.0)),
    ("lhs_best_deterministic", "spec", lambda x: game.lhs_best_deterministic(x, ENSEMBLE)),
    ("lhs_best_deterministic", "ensemble", lambda x: game.lhs_best_deterministic(SPEC, x)),
    ("realize_lhs_best", "spec", lambda x: game.realize_lhs_best(x, ENSEMBLE)),
    ("realize_lhs_best", "ensemble", lambda x: game.realize_lhs_best(SPEC, x)),
    ("exact_payoff", "spec", lambda x: game.exact_payoff(x, STRATEGY, ENSEMBLE)),
    ("exact_payoff", "ensemble", lambda x: game.exact_payoff(SPEC, STRATEGY, x)),
    ("simulate_runs", "spec", lambda x: game.simulate_runs(x, STRATEGY, ENSEMBLE, 10, 0)),
    ("simulate_runs", "ensemble", lambda x: game.simulate_runs(SPEC, STRATEGY, x, 10, 0)),
    ("joint_probabilities", "ensemble", lambda x: game.joint_probabilities(STRATEGY, x, 1, 1)),
    ("estimate_payoff", "spec", lambda x: game.estimate_payoff(x, TALLY)),
    ("referee_state", "ensemble", lambda x: states.referee_state(x, 1, 1)),
    ("calibrate", "ensemble", lambda x: witness.calibrate(ensemble=x)),
    ("calibrate", "counts", lambda x: witness.calibrate(counts=x)),
    ("ensemble_from_counts", "record", lambda x: witness.ensemble_from_counts(x)),
    ("bootstrap_calibration", "record", lambda x: witness.bootstrap_calibration(x)),
    ("werner_threshold", "spec", lambda x: witness.werner_threshold(x, ANALYZER, ENSEMBLE)),
    ("werner_threshold", "ensemble", lambda x: witness.werner_threshold(SPEC, ANALYZER, x)),
    ("channel_covariance_check", "ensemble",
     lambda x: witness.channel_covariance_check(x, (np.eye(2),), STRATEGY)),
]

# A string, a number, and a value of the package of another kind.
BAD_VALUES = ("x", 0.5, TALLY)


@pytest.mark.parametrize("parameter, call", [row[1:] for row in CONTRACT],
                         ids=[f"{name}-{parameter}" for name, parameter, _ in CONTRACT])
@pytest.mark.parametrize("bad", BAD_VALUES, ids=("str", "float", "tally"))
def test_wrong_kind_raises_value_error_naming_the_parameter(parameter, call, bad):
    """Each public call that reads an ensemble, a game spec or a count record
    raises ValueError naming the parameter, the kind it must be and the type
    it got."""
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == f"{parameter} must be a {KINDS[parameter]}, got {type(bad).__name__}"
