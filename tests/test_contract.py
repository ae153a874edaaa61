"""The input contract: a public call given the wrong kind of value raises
ValueError naming the parameter, never an AttributeError from inside."""

import numpy as np
import pytest

from qrsgame import game, qmath, states, witness
from qrsgame.game import canonical_game, partial_bsm_povm
from qrsgame.states import referee_ideal

from helpers import random_lhs_strategy

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


# (id, call, message): a public constructor given the wrong kind of container
# raises ValueError, not the TypeError or AttributeError that set(), tuple(),
# dict() or .items() would raise on it.
CONTAINERS = [
    ("RefereeEnsemble-None", lambda: states.RefereeEnsemble(None),
     "vectors must be a Mapping, got NoneType"),
    ("RefereeEnsemble-int", lambda: states.RefereeEnsemble(5),
     "vectors must be a Mapping, got int"),
    ("RefereeEnsemble-pairs", lambda: states.RefereeEnsemble([((1, 1), [0, 0, 1])]),
     "vectors must be a Mapping, got list"),
    ("CustomLocal-int", lambda: game.CustomLocal(5),
     "CustomLocal components must be an iterable of LocalComponents, got int"),
    ("CustomLocal-None", lambda: game.CustomLocal(None),
     "CustomLocal components must be an iterable of LocalComponents, got NoneType"),
    ("TallyTable-None", lambda: game.TallyTable(None), "counts must be a Mapping, got NoneType"),
    ("CountRecord-int", lambda: witness.CountRecord(5), "counts must be a Mapping, got int"),
    ("CountRecord-pairs", lambda: witness.CountRecord([((1, 1, 1, 1), 3)]),
     "counts must be a Mapping, got list"),
    ("PayoffEstimate-None", lambda: game.PayoffEstimate(0.0, 0.0, None),
     "n_per_setting must be a Mapping, got NoneType"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in CONTAINERS],
                         ids=[row[0] for row in CONTAINERS])
def test_wrong_container_raises_value_error_naming_the_argument(call, message):
    """A constructor given the wrong kind of container raises ValueError
    naming the argument and the type it got."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_custom_local_takes_a_generator_of_components():
    components = STRATEGY.components
    built = game.CustomLocal(c for c in components)
    assert built.components == components
    assert built.effect_table == game.CustomLocal(components).effect_table


IDEAL = ENSEMBLE.vectors
POVM = game.singlet_projector_bc()
PLUS = {1: 0.5, 2: 0.5, 3: 0.5}
RAGGED = [[1.0, 0.0], [0.0]]
# Numbers written as strings, which numpy converts without complaint.
PURE_STATE = np.diag(["1", "0", "0", "0"])
EYE4 = np.eye(4).astype(str)


def _ensemble_with(key, value):
    return lambda: states.RefereeEnsemble({**IDEAL, key: value})


def _numbers(name, real=False):
    kind = "real numbers" if real else "numbers"
    return lambda dtype: f"{name} must be an array of {kind}, got dtype {dtype}"


BLOCH_11 = _numbers("Bloch vector for (1, 1)", real=True)
HIDDEN = _numbers("Bloch vector", real=True)
STATE, B0, B1, EFFECT = (_numbers(n) for n in ("shared_state", "POVM element b0",
                                               "POVM element b1", "component effect"))

# (id, call, message): an ensemble key that is not a pair of integers, or an
# array argument that is not all numbers (bools, strings, a ragged nesting
# and, for a Bloch vector, complex numbers), raises ValueError naming the
# argument, as a scalar argument does; never a TypeError from sorting the
# keys, numpy's conversion message or a silent conversion.
NUMBER_RULE = [
    ("RefereeEnsemble-mixed-keys", lambda: states.RefereeEnsemble({"a": 1, (1, 1): 2}),
     "ensemble key 'a' is not a pair of integers"),
    ("RefereeEnsemble-int-key", _ensemble_with(5, [0.0, 0.0, 1.0]),
     "ensemble key 5 is not a pair of integers"),
    ("Bloch-str", _ensemble_with((1, 1), ["1", "0", "0"]), BLOCH_11("<U1")),
    ("Bloch-bool", _ensemble_with((1, 1), [True, False, False]), BLOCH_11("bool")),
    ("Bloch-complex", _ensemble_with((1, 1), [1j, 0, 0]), BLOCH_11("complex128")),
    ("Bloch-ragged", _ensemble_with((1, 1), [1.0, [0.0, 0.0]]), BLOCH_11("object")),
    ("check_bloch-complex", lambda: qmath.check_bloch([1j, 0, 0]), HIDDEN("complex128")),
    ("check_hermitian-str", lambda: qmath.check_hermitian(np.full((2, 2), "0"), 2, "m"),
     "m must be an array of numbers, got dtype <U1"),
    ("check_hermitian-bool", lambda: qmath.check_hermitian(np.eye(2, dtype=bool), 2, "m"),
     "m must be an array of numbers, got dtype bool"),
    ("shared_state-str", lambda: game.HonestQuantum(PURE_STATE, POVM), STATE("<U1")),
    ("shared_state-bool", lambda: game.HonestQuantum(PURE_STATE == "1", POVM), STATE("bool")),
    ("shared_state-ragged", lambda: game.HonestQuantum(RAGGED, POVM), STATE("object")),
    ("b0-str", lambda: game.BinaryPovm(EYE4, np.zeros((4, 4))), B0("<U32")),
    ("b0-bool", lambda: game.BinaryPovm(np.eye(4, dtype=bool), np.zeros((4, 4))), B0("bool")),
    ("b0-ragged", lambda: game.BinaryPovm(RAGGED, np.zeros((4, 4))), B0("object")),
    ("b1-str", lambda: game.BinaryPovm(np.zeros((4, 4)), EYE4), B1("<U32")),
    ("b1-bool", lambda: game.BinaryPovm(np.zeros((4, 4)), np.eye(4, dtype=bool)), B1("bool")),
    ("b1-ragged", lambda: game.BinaryPovm(np.zeros((4, 4)), RAGGED), B1("object")),
    ("effect-str", lambda: game.LocalComponent(1.0, PLUS, np.full((2, 2), "0")), EFFECT("<U1")),
    ("effect-bool", lambda: game.LocalComponent(1.0, PLUS, np.eye(2, dtype=bool)),
     EFFECT("bool")),
    ("effect-ragged", lambda: game.LocalComponent(1.0, PLUS, RAGGED), EFFECT("object")),
    ("hidden_state-str", lambda: game.LhsDeterministic((1, 1, 1), ["0", "0", "1"], POVM),
     HIDDEN("<U1")),
    ("hidden_state-bool", lambda: game.LhsDeterministic((1, 1, 1), [False, False, True], POVM),
     HIDDEN("bool")),
    ("hidden_state-complex", lambda: game.LhsDeterministic((1, 1, 1), [0, 0, 1j], POVM),
     HIDDEN("complex128")),
    ("hidden_state-ragged", lambda: game.LhsDeterministic((1, 1, 1), [0.0, [0.0, 1.0]], POVM),
     HIDDEN("object")),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in NUMBER_RULE],
                         ids=[row[0] for row in NUMBER_RULE])
def test_keys_and_arrays_follow_the_number_rule(call, message):
    """A bad ensemble key or a non-numeric array raises ValueError with a
    message that names the argument."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
