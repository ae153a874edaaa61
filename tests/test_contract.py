"""The input contract: a public call given the wrong kind of value raises
ValueError naming the parameter, never an AttributeError from inside."""

import dataclasses
import inspect
import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

import qrsgame
from qrsgame import game, qmath, states, witness
from qrsgame.game import canonical_game, partial_bsm_povm
from qrsgame.states import referee_ideal

import helpers
from helpers import random_lhs_strategy

ENSEMBLE = referee_ideal()
SPEC = canonical_game(1.0)
STRATEGY = random_lhs_strategy(np.random.default_rng(2804))
TALLY = game.simulate_runs(SPEC, STRATEGY, ENSEMBLE, 10, 0)
ANALYZER = partial_bsm_povm(1.0)

KINDS = {"ensemble": "RefereeEnsemble", "spec": "GameSpec", "counts": "CountRecord",
         "record": "CountRecord", "strategy": "HonestQuantum or CustomLocal",
         "bob_povm": "BinaryPovm", "analyzer": "BinaryPovm"}

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
     lambda x: helpers.channel_covariance_check(x, (np.eye(2),), STRATEGY)),
    ("exact_payoff", "strategy", lambda x: game.exact_payoff(SPEC, x, ENSEMBLE)),
    ("simulate_runs", "strategy", lambda x: game.simulate_runs(SPEC, x, ENSEMBLE, 10, 0)),
    ("joint_probabilities", "strategy", lambda x: game.joint_probabilities(x, ENSEMBLE, 1, 1)),
    ("channel_covariance_check", "strategy",
     lambda x: helpers.channel_covariance_check(ENSEMBLE, (np.eye(2),), x)),
    ("HonestQuantum", "bob_povm", lambda x: game.HonestQuantum(np.diag([1.0, 0, 0, 0]), x)),
    ("LhsDeterministic", "bob_povm", lambda x: game.LhsDeterministic((1, 1, 1), [0, 0, 1], x)),
    ("werner_threshold", "analyzer", lambda x: witness.werner_threshold(SPEC, x, ENSEMBLE)),
]

# A string, a number, and a value of the package of another kind.
BAD_VALUES = ("x", 0.5, TALLY)


@pytest.mark.parametrize("parameter, call", [row[1:] for row in CONTRACT],
                         ids=[f"{name}-{parameter}" for name, parameter, _ in CONTRACT])
@pytest.mark.parametrize("bad", BAD_VALUES, ids=("str", "float", "tally"))
def test_wrong_kind_raises_value_error_naming_the_parameter(parameter, call, bad):
    """Each public call that reads an ensemble, a game spec, a count record,
    a strategy or an analyzer raises ValueError naming the parameter, the
    kind it must be and the type it got."""
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
POVM = helpers.singlet_projector_bc()
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
STATE, B0, B1, EFFECT, KRAUS = (_numbers(n) for n in (
    "shared_state", "POVM element b0", "POVM element b1", "component effect", "Kraus operator"))

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
    ("tensor-bool", lambda: qmath.tensor(np.eye(2, dtype=bool), np.eye(2)),
     "a must be an array of numbers, got dtype bool"),
    ("tensor-str", lambda: qmath.tensor(np.eye(2), np.eye(2).astype(str)),
     "b must be an array of numbers, got dtype <U32"),
    ("partial_trace-ragged", lambda: qmath.partial_trace(RAGGED),
     "m must be an array of numbers, got dtype object"),
    ("real_trace_product-bool",
     lambda: qmath.real_trace_product(np.eye(2, dtype=bool), np.eye(2, dtype=bool)),
     "a must be an array of numbers, got dtype bool"),
    ("real_trace_product-str", lambda: qmath.real_trace_product(np.eye(2), np.eye(2).astype(str)),
     "b must be an array of numbers, got dtype <U32"),
    ("real_trace_product-ragged", lambda: qmath.real_trace_product(RAGGED, np.eye(2)),
     "a must be an array of numbers, got dtype object"),
    ("psd_within-bool", lambda: qmath.psd_within(np.eye(2, dtype=bool)),
     "m must be an array of numbers, got dtype bool"),
    ("is_density_matrix-bool", lambda: qmath.is_density_matrix(np.diag([True, False])),
     "m must be an array of numbers, got dtype bool"),
    ("eig_hermitian-str", lambda: qmath.eig_hermitian("x"),
     "matrix must be an array of numbers, got dtype <U1"),
    ("kraus-bool", lambda: helpers.channel_covariance_check(
        ENSEMBLE, (np.eye(2, dtype=bool),), STRATEGY), KRAUS("bool")),
    ("kraus-str", lambda: helpers.channel_covariance_check(
        ENSEMBLE, (np.eye(2).astype(str),), STRATEGY), KRAUS("<U32")),
    ("kraus-ragged", lambda: helpers.channel_covariance_check(ENSEMBLE, (RAGGED,), STRATEGY),
     KRAUS("object")),
    ("kraus-None", lambda: helpers.channel_covariance_check(ENSEMBLE, None, STRATEGY),
     "channel must be given as finite 2x2 Kraus operators"),
    ("n_per_setting-key-range", lambda: game.PayoffEstimate(0.0, 0.0, {(9, 9): 1}),
     "n_per_setting key (9, 9) is not a setting (j, s)"),
    ("n_per_setting-float-key", lambda: game.PayoffEstimate(0.0, 0.0, {(1.0, 1): 3}),
     "n_per_setting key (1.0, 1) is not a setting (j, s)"),
    ("n_per_setting-str-count", lambda: game.PayoffEstimate(0.0, 0.0, {(1, 1): "x"}),
     "n_per_setting[(1, 1)] must be an integer >= 0, got 'x'"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in NUMBER_RULE],
                         ids=[row[0] for row in NUMBER_RULE])
def test_keys_and_arrays_follow_the_number_rule(call, message):
    """A bad ensemble key or a non-numeric array raises ValueError with a
    message that names the argument."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# One row per parameter of every public callable: qrsgame.__all__ read with
# inspect.signature. Each kind lists the bad values of that kind of argument,
# every one of which must raise ValueError with a message that names the
# parameter, and its exotic valid values, every one of which must give the
# bits of the same call with the plain value.

# Calls that left the package for tests/helpers.py with their input checks:
# their rows stay, read from the helper copies.
MOVED = {name: getattr(helpers, name)
         for name in ("channel_covariance_check", "regime_classify", "singlet_projector_bc")}

# Public names that take no caller's argument of their own, each with its reason.
EXEMPT = {
    "BootstrapResult": "a result that calibrate and bootstrap_calibration build",
    "CalibrationReport": "a result that calibrate builds",
    "CalibrationError": "an exception the package raises",
    "Strategy": "a type union, not a callable",
}
# Result fields the package fills itself; they get no check.
EXEMPT_PARAMETERS = {("PayoffEstimate", "value"), ("PayoffEstimate", "stderr")}

PLUS_TABLE = {1: 0.5, 2: 0.5, 3: 0.5}
PURE_STATE4 = np.diag([1.0, 0.0, 0.0, 0.0])
ELEMENT_B0, ELEMENT_B1 = np.diag([1.0, 1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0])
COMPONENTS = STRATEGY.components
RECORD = witness.CountRecord({(j, s, axis, o): (9 if o == s else 1) if axis == j else 5
                              for j, s in game.SETTING_KEYS for axis in (1, 2, 3) for o in (1, -1)})

# The keyword arguments of one valid call of each public callable. Every
# number and array here is a plain int, float or float array with integer
# entries, so each exotic form below is the same value exactly.
CALLS = {
    "BinaryPovm": dict(b0=ELEMENT_B0, b1=ELEMENT_B1),
    "CountRecord": dict(counts=dict(RECORD.counts)),
    "CustomLocal": dict(components=COMPONENTS),
    "GameSpec": dict(r=1.0),
    "HonestQuantum": dict(shared_state=PURE_STATE4, bob_povm=ANALYZER),
    "LhsDeterministic": dict(alice_signs=(1, -1, 1), hidden_state=[0.0, 0.0, 1.0], bob_povm=POVM),
    "LocalComponent": dict(weight=1.0, alice_plus=PLUS_TABLE, effect=np.diag([1.0, 0.0])),
    "PayoffEstimate": dict(value=0.0, stderr=0.0, n_per_setting=dict.fromkeys(game.SETTING_KEYS, 3)),
    "RefereeEnsemble": dict(vectors=dict(IDEAL)),
    "TallyTable": dict(counts=dict(TALLY.counts)),
    "bootstrap_calibration": dict(record=RECORD, trials=3, seed=3),
    "calibrate": dict(counts=RECORD, trials=3, seed=3),
    "canonical_game": dict(r=1.0),
    "channel_covariance_check": dict(ensemble=ENSEMBLE, kraus=(np.eye(2),), strategy=STRATEGY),
    "chsh_werner": dict(w=1.0),
    "ensemble_from_counts": dict(record=RECORD),
    "estimate_payoff": dict(spec=SPEC, tally=TALLY),
    "exact_payoff": dict(spec=SPEC, strategy=STRATEGY, ensemble=ENSEMBLE),
    "joint_probabilities": dict(strategy=STRATEGY, ensemble=ENSEMBLE, j=1, s=1),
    "lhs_best_deterministic": dict(spec=SPEC, ensemble=ENSEMBLE),
    "lhs_bound": dict(ensemble=ENSEMBLE, r=1.0),
    "partial_bsm_povm": dict(visibility=1.0),
    "referee_ideal": {},
    "referee_state": dict(ensemble=ENSEMBLE, j=1, s=1),
    "regime_at": dict(w=1.0, w_game=0.0),
    "regime_classify": dict(w=1.0, r=1.0),
    "rstar_oracle": dict(ensemble=ENSEMBLE),
    "rstar_printed": dict(ensemble=ENSEMBLE),
    "simulate_runs": dict(spec=SPEC, strategy=STRATEGY, ensemble=ENSEMBLE, n_per_setting=3, seed=3),
    "singlet_projector_bc": {},
    "t_operator": dict(ensemble=ENSEMBLE, assignment=(1, -1, 1), r=1.0),
    "werner_state": dict(w=1.0),
    "werner_threshold": dict(spec=SPEC, analyzer=ANALYZER, ensemble=ENSEMBLE),
}
# Rows whose call differs from CALLS: calibrate reads an ensemble on its own.
ROW_CALLS = {("calibrate", "ensemble"): dict(ensemble=ENSEMBLE)}
# Rows where None is valid: it means "not given".
NONE_VALID = {("calibrate", "trials"), ("calibrate", "seed")}

RATE, WEIGHT, BLOCH = "penalty rate r", "Werner weight", "Bloch vector"
# (callable, parameter): (kind, the name its messages use when that is not the parameter's).
PARAMETERS = {
    ("BinaryPovm", "b0"): ("4x4 operator", "POVM element b0"),
    ("BinaryPovm", "b1"): ("4x4 operator", "POVM element b1"),
    ("CountRecord", "counts"): ("mapping", None),
    ("CustomLocal", "components"): ("components", None),
    ("GameSpec", "r"): ("rate", RATE),
    ("HonestQuantum", "shared_state"): ("4x4 operator", None),
    ("HonestQuantum", "bob_povm"): ("POVM", None),
    ("LhsDeterministic", "alice_signs"): ("sign triple", None),
    ("LhsDeterministic", "hidden_state"): ("Bloch vector", BLOCH),
    ("LhsDeterministic", "bob_povm"): ("POVM", None),
    ("LocalComponent", "weight"): ("rate", "component weight"),
    ("LocalComponent", "alice_plus"): ("mapping", None),
    ("LocalComponent", "effect"): ("2x2 operator", "component effect"),
    ("PayoffEstimate", "n_per_setting"): ("setting counts", None),
    ("RefereeEnsemble", "vectors"): ("mapping", None),
    ("TallyTable", "counts"): ("mapping", None),
    ("bootstrap_calibration", "record"): ("count table", None),
    ("bootstrap_calibration", "trials"): ("count", None),
    ("bootstrap_calibration", "seed"): ("seed", None),
    ("calibrate", "ensemble"): ("ensemble", None),
    ("calibrate", "counts"): ("count table", None),
    ("calibrate", "trials"): ("count", None),
    ("calibrate", "seed"): ("seed", None),
    ("canonical_game", "r"): ("rate", RATE),
    ("channel_covariance_check", "ensemble"): ("ensemble", None),
    ("channel_covariance_check", "kraus"): ("Kraus operators", "Kraus"),
    ("channel_covariance_check", "strategy"): ("strategy", None),
    ("chsh_werner", "w"): ("fraction", WEIGHT),
    ("ensemble_from_counts", "record"): ("count table", None),
    ("estimate_payoff", "spec"): ("spec", None),
    ("estimate_payoff", "tally"): ("count table", None),
    ("exact_payoff", "spec"): ("spec", None),
    ("exact_payoff", "strategy"): ("strategy", None),
    ("exact_payoff", "ensemble"): ("ensemble", None),
    ("joint_probabilities", "strategy"): ("strategy", None),
    ("joint_probabilities", "ensemble"): ("ensemble", None),
    ("joint_probabilities", "j"): ("key", "j="),
    ("joint_probabilities", "s"): ("key", "s="),
    ("lhs_best_deterministic", "spec"): ("spec", None),
    ("lhs_best_deterministic", "ensemble"): ("ensemble", None),
    ("lhs_bound", "ensemble"): ("ensemble", None),
    ("lhs_bound", "r"): ("rate", RATE),
    ("partial_bsm_povm", "visibility"): ("fraction", None),
    ("referee_state", "ensemble"): ("ensemble", None),
    ("referee_state", "j"): ("key", "j="),
    ("referee_state", "s"): ("key", "s="),
    ("regime_at", "w"): ("fraction", WEIGHT),
    ("regime_at", "w_game"): ("real", None),
    ("regime_classify", "w"): ("fraction", WEIGHT),
    ("regime_classify", "r"): ("rate", RATE),
    ("rstar_oracle", "ensemble"): ("ensemble", None),
    ("rstar_printed", "ensemble"): ("ensemble", None),
    ("simulate_runs", "spec"): ("spec", None),
    ("simulate_runs", "strategy"): ("strategy", None),
    ("simulate_runs", "ensemble"): ("ensemble", None),
    ("simulate_runs", "n_per_setting"): ("count", None),
    ("simulate_runs", "seed"): ("seed", None),
    ("t_operator", "ensemble"): ("ensemble", None),
    ("t_operator", "assignment"): ("sign triple", None),
    ("t_operator", "r"): ("rate", RATE),
    ("werner_state", "w"): ("fraction", WEIGHT),
    ("werner_threshold", "spec"): ("spec", None),
    ("werner_threshold", "analyzer"): ("POVM", None),
    ("werner_threshold", "ensemble"): ("ensemble", None),
}

SCALARS = (("True", True), ("np.True_", np.True_), ("str", "0.5"), ("None", None),
           ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("complex", 0.5 + 0.5j))


def _entry(valid, value, dtype=float):
    # valid as an array of dtype with its first entry replaced by value.
    a = np.array(valid, dtype=dtype)
    a.flat[0] = value
    return a


def _array_bad(valid, shape):
    # An array argument: NaN, inf, -inf, a bool, a Fraction entry and a ragged nesting.
    flat = np.ravel(valid).tolist()
    return [("nan-entry", _entry(valid, math.nan)), ("inf-entry", _entry(valid, math.inf)),
            ("-inf-entry", _entry(valid, -math.inf)), ("shape", shape),
            ("bool", np.array(valid, dtype=bool)),
            ("Fraction-entry", _entry(valid, Fraction(1, 2), object)),
            ("ragged", [flat[:1], flat[1:]])]


_REAL_EXOTIC = (("float32", np.float32), ("float16", np.float16), ("int64", np.int64),
                ("Fraction", Fraction))
_INT_EXOTIC = (("int64", np.int64), ("int32", np.int32), ("uint16", np.uint16))
_ARRAY_EXOTIC = tuple((name, lambda v, t=t: np.asarray(v, dtype=t))
                      for name, t in (("float32", np.float32), ("float16", np.float16),
                                      ("int64", np.int64)))


def _package(raw):
    # A package value: its raw contents as the wrong shape, and the wrong package type.
    return (lambda v: [("shape", raw(v)), ("package", SPEC if isinstance(v, states.RefereeEnsemble)
                                           else ENSEMBLE)], ())


# kind: (its extra bad values for a valid value v, its exotic forms of v).
KIND_TABLE = {
    "fraction": (lambda v: [("shape", [v]), ("package", ENSEMBLE), ("range", 1.5)], _REAL_EXOTIC),
    "rate": (lambda v: [("shape", [v]), ("package", ENSEMBLE), ("range", -0.5)], _REAL_EXOTIC),
    "real": (lambda v: [("shape", [v]), ("package", ENSEMBLE)], _REAL_EXOTIC),
    "count": (lambda v: [("shape", [v]), ("package", ENSEMBLE), ("float", float(v)), ("range", 0)],
              _INT_EXOTIC),
    "seed": (lambda v: [("shape", [v]), ("package", ENSEMBLE), ("float", float(v)), ("range", -1)],
             _INT_EXOTIC),
    "key": (lambda v: [("shape", [v]), ("package", ENSEMBLE), ("float", float(v)), ("range", 0)],
            _INT_EXOTIC),
    "Bloch vector": (lambda v: _array_bad(v, [0.0, 0.0, 0.0, 1.0]) + [
        ("package", ENSEMBLE), ("complex-entry", _entry(v, 0.5j, complex))], _ARRAY_EXOTIC),
    "2x2 operator": (lambda v: _array_bad(v, np.eye(3)) + [("package", ENSEMBLE)], _ARRAY_EXOTIC),
    "4x4 operator": (lambda v: _array_bad(v, np.eye(2)) + [("package", ENSEMBLE)], _ARRAY_EXOTIC),
    "Kraus operators": (
        lambda v: [(name, (bad,)) for name, bad in _array_bad(v[0], np.eye(3))]
        + [("package", ENSEMBLE)],
        tuple((name, lambda v, f=f: tuple(f(k) for k in v)) for name, f in _ARRAY_EXOTIC)),
    "sign triple": (lambda v: [("shape", (*v, 1)), ("package", ENSEMBLE), ("range", (1, 0, 1)),
                               ("float", tuple(map(float, v)))],
                    (("int64", lambda v: tuple(map(np.int64, v))), ("array", np.array),
                     ("list", list))),
    "mapping": (lambda v: [("shape", list(v.items())), ("package", ENSEMBLE)],
                (("MappingProxyType", MappingProxyType),)),
    "setting counts": (
        lambda v: [("shape", list(v.items())), ("package", ENSEMBLE), ("str-count", {(1, 1): "x"}),
                   ("float-count", {(1, 1): 1.5}), ("bool-count", {(1, 1): True}),
                   ("range", {(1, 1): -1}), ("key-range", {(9, 9): 1}), ("float-key", {(1.0, 1): 3}),
                   ("bool-key", {(True, 1): 3}), ("key-shape", {(1, 1, 1): 3}), ("str-key", {"ab": 3})],
        (("MappingProxyType", MappingProxyType),
         ("int64", lambda v: {(np.int64(j), np.int64(s)): np.int64(n) for (j, s), n in v.items()}))),
    "components": (lambda v: [("shape", [v]), ("package", ENSEMBLE)],
                   (("list", list), ("generator", lambda v: (c for c in v)))),
    "ensemble": _package(lambda v: dict(v.vectors)),
    "spec": _package(lambda v: v.r),
    "strategy": _package(lambda v: v.components),
    "POVM": _package(lambda v: (v.b0, v.b1)),
    "count table": _package(lambda v: dict(v.counts)),
}


def _call(name, parameter, value):
    kwargs = dict(ROW_CALLS.get((name, parameter), CALLS[name]), **{parameter: value})
    return _callable(name)(**kwargs)


def _callable(name):
    return MOVED[name] if name in MOVED else getattr(qrsgame, name)


def _valid(name, parameter):
    return ROW_CALLS.get((name, parameter), CALLS[name])[parameter]


def _bad_rows():
    for (name, parameter), (kind, label) in PARAMETERS.items():
        bad_values, _ = KIND_TABLE[kind]
        for bad_id, bad in (*SCALARS, *bad_values(_valid(name, parameter))):
            if bad is None and (name, parameter) in NONE_VALID:
                continue
            if kind == "real" and bad_id in ("inf", "-inf"):  # w_game may be infinite
                continue
            yield pytest.param(name, parameter, bad, label or parameter,
                               id=f"{name}-{parameter}-{bad_id}")


def _exotic_rows():
    for (name, parameter), (kind, _) in PARAMETERS.items():
        for exotic_id, exotic in KIND_TABLE[kind][1]:
            yield pytest.param(name, parameter, exotic, id=f"{name}-{parameter}-{exotic_id}")


def test_every_public_parameter_has_a_row():
    """A public callable or parameter without a row fails here, so each new
    one must declare its kind (or its exemption, with the reason). A moved
    call keeps its rows and is no longer public."""
    assert sorted(set(MOVED) & set(qrsgame.__all__)) == []
    found = set()
    for name in (*qrsgame.__all__, *MOVED):
        if name in EXEMPT:
            continue
        assert name in CALLS, name
        found |= {(name, p) for p in inspect.signature(_callable(name)).parameters}
    assert sorted(found - EXEMPT_PARAMETERS - set(PARAMETERS)) == []
    assert sorted(set(PARAMETERS) - found) == []
    assert sorted(set(CALLS) - set(qrsgame.__all__) - set(MOVED)) == []
    assert sorted(set(EXEMPT) - set(qrsgame.__all__)) == []


@pytest.mark.parametrize("name, parameter, bad, label", _bad_rows())
def test_bad_value_raises_value_error_naming_the_parameter(name, parameter, bad, label):
    """Every bad value of a parameter's kind raises ValueError from the check
    of that kind, whose message names the parameter, never a TypeError or
    numpy's own message, and never passes."""
    with pytest.raises(ValueError) as err:
        _call(name, parameter, bad)
    assert label in str(err.value)


def _bits(x):
    # A value as nested tuples of type names and exact bits: floats as hex,
    # arrays as dtype, shape, bytes and writability, records field by field.
    if isinstance(x, (float, np.floating)):
        return type(x).__name__, float(x).hex()
    if isinstance(x, (bool, int, str, np.generic)) or x is None:
        return type(x).__name__, repr(x)
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.shape, x.tobytes(), x.flags.writeable
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(map(_bits, x))
    if isinstance(x, Mapping):
        return type(x).__name__, tuple((_bits(k), _bits(v)) for k, v in x.items())
    assert dataclasses.is_dataclass(x), type(x)
    return type(x).__name__, tuple((f.name, _bits(getattr(x, f.name)))
                                   for f in dataclasses.fields(x) if not f.name.startswith("_"))


@pytest.mark.parametrize("name, parameter, exotic", _exotic_rows())
def test_exotic_valid_value_gives_the_plain_bits(name, parameter, exotic):
    """np.float32, np.float16, np.int64 and Fraction numbers, numpy arrays
    of those dtypes, numpy integer signs and keys, a read-only mapping and a
    generator of components are the plain value to the package: the call
    gives the bits it gives with the plain value. (Fraction entries in an
    array are a bad value: the number rule never converts an object array.)"""
    plain = _valid(name, parameter)
    assert _bits(_call(name, parameter, exotic(plain))) == _bits(_call(name, parameter, plain))
