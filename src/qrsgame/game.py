"""Payoff evaluation for the steering game, exact and sampled.

One round: the referee draws a key (j, s) uniformly from the six settings,
announces j to Alice and sends Bob the referee state for (j, s). Alice
replies with a sign a, Bob with a bit b. The payoff averages, per setting,

    2 * sum_(j,s) [ s <a b> - (r / sqrt(3)) <b> ]

so a click whose sign a matches the referee's s is rewarded and every
click is taxed in proportion to the penalty rate r. Only per-setting
conditional averages enter, so the evaluation is independent of the
referee's (uniform) key distribution. This is the only game the package
plays: a frozen GameSpec holds nothing but the checked rate r.

Strategies come in two forms. HonestQuantum shares a two-qubit state and lets
Bob project his half together with the referee qubit onto a partial Bell-state
analyzer. Alice's measurement does not involve the referee, so the states it
leaves on Bob's qubit, cond_(j,a), and their traces p(a|j) are computed once at
construction, as one stack. One stacked pass per strategy and ensemble pairs
each cond_(j,a) x omega_(j,s), the omegas read from the ensemble's cached
density stack, with the analyzer: the payoff reads its twelve
clicks; the sampler, joint_probabilities and witness's covariance check read
the one joint table, six rows of four cells (_cell_rows). Every no-steering
adversary is a mixture of local components: Alice answers from a response table
and Bob clicks according to an effect E_c on the referee qubit alone, whose
four entries are read and checked once. CustomLocal is the general mixture and
the form every local adversary takes; LhsDeterministic is the
CustomLocal with one component, fixed Alice signs and the effect of a local
hidden qubit. A CustomLocal compiles at construction into one effect table: for
each input j and sign a, Alice's marginal p(a|j) and the Bloch form of the
referee effect F_(j,a) = sum_c w_c p_c(a|j) E_c, so a click probability is
affine in the referee Bloch vector, and the exact payoff of a local strategy is
the witness pairing of that table with the pairing sums D_j and S_j of the
ensemble's witness form, which the ensemble builds once and every local payoff,
sign table and best adversary of it reads, and whose top eigenvalues states
computes. Every argument passes the one check of its kind in qmath or
states, which owns the message; a POVM, a shared state or an effect may
first pass on Python scalars (psd_clear), but only those checks reject.
Strategies are frozen (each checks and stores each field once, in its own
__init__) and keep read-only copies of the arrays they are given, so a
compiled form cannot go stale; pickling or copying one rebuilds it through
its constructor, and == is identity. All functions are pure and every random draw comes from
_substream, the one rule that keys a stream by the caller's seed and the
setting or trial, so results never depend on scheduling or threads.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .qmath import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    _as_numbers,
    _density_entries,
    _frozen,
    _rebuilt_from,
    bloch_to_density,
    check_bloch,
    check_fraction,
    check_hermitian,
    check_integer,
    check_nonnegative,
    check_seed,
    check_type,
    identity,
    is_density_matrix,
    is_integer,
    partial_trace,
    pauli,
    psd_clear,
    psd_within,
    real_trace_product,
    tensor,
)
from .states import _SINGLET, SETTING_KEYS, SIGN_TRIPLES, SQRT3, RefereeEnsemble
from .states import TWO_SQRT3, _first_max, _witness_norms, check_signs

_CELLS = ((1, 1), (1, 0), (-1, 1), (-1, 0))
_INPUTS = frozenset((1, 2, 3))
_SETTINGS = frozenset(SETTING_KEYS)

_IDENTITY4 = _frozen(identity(4))
_HALF_IDENTITY4 = _frozen(identity(4) / 2.0)

# Alice's projector (1 + a sigma_j)/2 lifted to the pair, at [j - 1, 0 if a > 0 else 1].
_LIFTS = _frozen(np.array([[tensor(0.5 * (identity(2) + a * pauli(j)), identity(2))
                            for a in (1, -1)] for j in (1, 2, 3)]))


# Python moduli can miss numpy's by an ulp or two, so a scalar defect passes
# on its own only at half the tolerance; between that and the tolerance, the
# numpy check that owns the message decides.
_CLEAR_DEFECT = 0.5 * HERMITIAN_TOL


def _clear_povm(e0: list, e1: list) -> bool:
    # True only when the per-element checks surely pass b0 and b1, given as
    # rows of Python complex numbers: each Hermitian and their sum the
    # identity within half the tolerance (a diagonal entry's Hermiticity
    # defect is twice its imaginary part), and each clearly positive.
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = e0
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = e1
    return (max(abs(a00.imag), abs(a11.imag), abs(a22.imag), abs(a33.imag), abs(b00.imag),
                abs(b11.imag), abs(b22.imag), abs(b33.imag)) <= 0.5 * _CLEAR_DEFECT
            and max(abs(a01 - a10.conjugate()), abs(a02 - a20.conjugate()),
                    abs(a03 - a30.conjugate()), abs(a12 - a21.conjugate()),
                    abs(a13 - a31.conjugate()), abs(a23 - a32.conjugate()),
                    abs(b01 - b10.conjugate()), abs(b02 - b20.conjugate()),
                    abs(b03 - b30.conjugate()), abs(b12 - b21.conjugate()),
                    abs(b13 - b31.conjugate()), abs(b23 - b32.conjugate()),
                    abs(a00 + b00 - 1.0), abs(a11 + b11 - 1.0), abs(a22 + b22 - 1.0),
                    abs(a33 + b33 - 1.0), abs(a01 + b01), abs(a02 + b02), abs(a03 + b03),
                    abs(a12 + b12), abs(a13 + b13), abs(a23 + b23), abs(a10 + b10),
                    abs(a20 + b20), abs(a30 + b30), abs(a21 + b21), abs(a31 + b31),
                    abs(a32 + b32)) <= _CLEAR_DEFECT
            and psd_clear(e0) and psd_clear(e1))


def _clear_state(rows: list) -> bool:
    # True only when check_hermitian, the trace test and psd_within surely
    # pass the 4x4 state given as rows of Python complex numbers: Hermitian
    # and of unit trace within half of HERMITIAN_TOL and TRACE_TOL, as
    # _clear_povm judges each element, and clearly positive.
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    return (max(abs(a00.imag), abs(a11.imag), abs(a22.imag), abs(a33.imag)) <= 0.5 * _CLEAR_DEFECT
            and max(abs(a01 - a10.conjugate()), abs(a02 - a20.conjugate()),
                    abs(a03 - a30.conjugate()), abs(a12 - a21.conjugate()),
                    abs(a13 - a31.conjugate()), abs(a23 - a32.conjugate())) <= _CLEAR_DEFECT
            and abs(a00 + a11 + a22 + a33 - 1.0) <= 0.5 * TRACE_TOL
            and psd_clear(rows))


@dataclass(frozen=True, eq=False, init=False)
class BinaryPovm:
    """Two-outcome POVM {b0, b1} on the Bob + referee pair.

    Each element must be a finite, Hermitian 4x4 array of numbers, and the
    two must sum to the identity. An element is positive when el + PSD_TOL*1 is
    positive definite, as ``psd_within`` decides from Cholesky pivots, with
    no eigenvalue computed; the exact boundary lambda_min = -PSD_TOL fails.
    The common case is passed on Python scalars, from one copy of the pair:
    a finite sum of squared moduli, Hermiticity and sum defects within half
    of HERMITIAN_TOL, and ``psd_clear`` on each element. Every other pair is
    judged by the per-element checks, ``check_hermitian`` on b0 then b1,
    ``psd_within`` on each and the sum rule, which alone reject and name
    the fault. The POVM keeps read-only copies of the two elements.
    """

    b0: np.ndarray
    b1: np.ndarray
    __reduce__ = _rebuilt_from("b0", "b1")

    def __init__(self, b0: np.ndarray, b1: np.ndarray) -> None:
        # Each element on its own: stacked with a float, a bool element would be promoted.
        b0 = _as_numbers(b0, complex, "POVM element b0")
        b1 = _as_numbers(b1, complex, "POVM element b1")
        try:
            pair = np.array((b0, b1))
            clear = (pair.shape == (2, 4, 4) and math.isfinite(np.vdot(pair, pair).real)
                     and _clear_povm(*pair.tolist()))
        except (TypeError, ValueError, OverflowError):
            clear = False
        if not clear:
            pair = np.array((check_hermitian(b0, 4, "POVM element b0"),
                             check_hermitian(b1, 4, "POVM element b1")))
            for name, el in zip(("b0", "b1"), pair):
                if not psd_within(el):
                    raise ValueError(f"POVM element {name} is not positive semidefinite")
            if np.abs(pair[0] + pair[1] - _IDENTITY4).max() > HERMITIAN_TOL:
                raise ValueError("POVM elements must sum to the identity")
        pair.setflags(write=False)
        object.__setattr__(self, "b0", pair[0])
        object.__setattr__(self, "b1", pair[1])


def singlet_projector_bc() -> BinaryPovm:
    """Ideal analyzer: b1 projects the Bob + referee pair onto |Psi->."""
    return BinaryPovm(_IDENTITY4 - _SINGLET, _SINGLET)


def partial_bsm_povm(visibility: float) -> BinaryPovm:
    """Analyzer with interference visibility v: b1 = v |Psi-><Psi-| + (1-v)/2.

    At v = 1 this is the ideal projector; at v = 0 the photons are fully
    distinguishable and every input clicks with probability 1/2.
    """
    visibility = check_fraction(visibility, "visibility")
    b1 = visibility * _SINGLET + (1.0 - visibility) * _HALF_IDENTITY4
    return BinaryPovm(_IDENTITY4 - b1, b1)


@dataclass(frozen=True, eq=False, init=False)
class HonestQuantum:
    """Shared two-qubit state; Alice measures sigma_j, Bob runs the analyzer.

    Alice's side does not depend on the referee, so it is compiled once
    here, as one stack: ``cond_stack[j - 1, 0 for a = +1, 1 for a = -1]`` is
    cond_(j,a) = tr_A[(P_(j,a) x 1) rho], the unnormalized state Alice's
    outcome leaves on Bob's qubit. ``marginals[j - 1]`` holds Alice's p(a|j),
    the trace of cond_(j,a), for a = +1 then a = -1, summed on Python
    floats as numpy sums a complex 2x2 trace, 0.0 + (c00 + c11). Each entry
    is bitwise the one an evaluation that rebuilds it for every setting
    gives; the tests keep that evaluation as oracle. The strategy checks the
    analyzer, then the shared state. The common state passes on Python
    scalars, from one ``tolist()``: 4x4 with a finite sum of squared moduli,
    Hermitian within half of HERMITIAN_TOL, unit trace within half of
    TRACE_TOL and ``psd_clear``. Every other state goes to
    ``check_hermitian``, the trace test and ``psd_within``, which alone
    reject and name the fault. The strategy keeps a read-only copy of the
    state, a read-only stack and its last ensemble's click table.
    """

    shared_state: np.ndarray
    bob_povm: BinaryPovm
    cond_stack: np.ndarray = field(init=False, repr=False)
    marginals: tuple = field(init=False, repr=False)
    _clicks: tuple = field(default=(None, None), init=False, repr=False)  # (ensemble, table)
    __reduce__ = _rebuilt_from("shared_state", "bob_povm")

    def __init__(self, shared_state: np.ndarray, bob_povm: BinaryPovm) -> None:
        check_type(bob_povm, BinaryPovm, "bob_povm")
        rho = _as_numbers(shared_state, complex, "shared_state")
        if not (rho.shape == (4, 4) and math.isfinite(np.vdot(rho, rho).real)
                and _clear_state(rho.tolist())):
            rho = check_hermitian(rho, 4, "shared_state")
            if abs(np.trace(rho) - 1.0) > TRACE_TOL or not psd_within(rho):
                defects = is_density_matrix(rho).describe()  # measured only for the message
                raise ValueError(f"shared_state is not a density matrix ({defects})")
        rho = _frozen(rho)
        cond = partial_trace(_LIFTS @ rho)
        cond.setflags(write=False)
        # Each trace summed as numpy sums a complex 2x2 trace, from +0.0.
        marginals = tuple((0.0 + (p00.real + p11.real), 0.0 + (m00.real + m11.real))
                          for ((p00, _), (_, p11)), ((m00, _), (_, m11)) in cond.tolist())
        object.__setattr__(self, "shared_state", rho)
        object.__setattr__(self, "bob_povm", bob_povm)
        object.__setattr__(self, "cond_stack", cond)
        object.__setattr__(self, "marginals", marginals)


def _effect_bloch(effect: np.ndarray) -> tuple[float, float, float, float]:
    # The Bloch form (e0, e1, e2, e3), E = e0*1 + e.sigma, of a complex array
    # that must be a Hermitian 2x2 effect with 0 <= E <= 1, read once.
    (e00, e01), (e10, e11) = effect.tolist() if effect.shape == (2, 2) else [[math.nan] * 2] * 2
    # |E - E^dag| summed over the entries: NaN or inf unless all are finite, and
    # math.hypot, unlike complex abs, gives inf on overflow. Python's moduli can miss
    # numpy's by an ulp or two, so check_hermitian decides all but a clear pass.
    defect = (abs(e00 - e00.conjugate()) + abs(e11 - e11.conjugate())
              + math.hypot(e01.real - e10.real, e01.imag + e10.imag))
    if not defect <= _CLEAR_DEFECT:
        check_hermitian(effect, 2, "component effect")
    e0, e3 = 0.5 * (e00.real + e11.real), 0.5 * (e00.real - e11.real)
    radius = math.hypot(e3, abs(e01))
    if e0 - radius < -PSD_TOL or e0 + radius > 1.0 + PSD_TOL:
        raise ValueError("component effect must satisfy 0 <= E <= 1")
    return e0, e01.real, -e01.imag, e3


@dataclass(frozen=True, eq=False, init=False)
class LocalComponent:
    """One hidden variable: Alice's response table plus Bob's referee effect.

    ``bloch`` is the effect's Bloch form (e0, e1, e2, e3), E = e0*1 + e.sigma,
    read once from the matrix; 0 <= E <= 1 is checked on it as e0 +/- |e|.
    The component keeps what it checked: the weight and each p(+|j) as
    Python floats, the keys j as Python ints, in a read-only response table,
    and a read-only copy of the effect.
    """

    weight: float
    alice_plus: Mapping[int, float]
    effect: np.ndarray
    bloch: tuple[float, float, float, float] = field(init=False, repr=False)
    __reduce__ = _rebuilt_from("weight", "alice_plus", "effect")

    def __init__(self, weight: float, alice_plus: Mapping[int, float], effect: np.ndarray) -> None:
        weight = check_nonnegative(weight, "component weight")
        if (not (type(alice_plus) is dict or isinstance(alice_plus, Mapping))
                or set(alice_plus) != _INPUTS):
            raise ValueError("alice_plus must map each input j in {1, 2, 3}")
        checked = {}
        for j, p in alice_plus.items():
            if type(j) is not int:  # the integer rule: 1.0 and True only compare equal to 1
                if not is_integer(j):
                    raise ValueError(f"alice_plus key {j!r} is not an integer")
                j = int(j)
            if not (type(p) is float and 0.0 <= p <= 1.0):
                p = check_fraction(p, f"alice_plus[{j}]")
            checked[j] = p
        effect = _as_numbers(effect, complex, "component effect")
        bloch = _effect_bloch(effect)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "alice_plus", MappingProxyType(checked))
        object.__setattr__(self, "effect", _frozen(effect))
        object.__setattr__(self, "bloch", bloch)


def _effect_table(components: tuple[LocalComponent, ...]) -> tuple:
    # Row [j - 1][0 for a = +1, 1 for a = -1] is (p(a|j), f0, f1, f2, f3):
    # Alice's marginal and F_(j,a) = sum_c w_c p_c(a|j) E_c as
    # f0 = tr F / 2, f_i = tr(sigma_i F) / 2, so that for the referee state
    # (1 + n.sigma)/2 the click probability is tr(omega F) = f0 + n.f.
    # Each sum runs over the components in order, on scalars.
    table = []
    for j in (1, 2, 3):
        p0 = p1 = p2 = p3 = p4 = m0 = m1 = m2 = m3 = m4 = 0.0
        for c in components:
            w, p = c.weight, c.alice_plus[j]
            wp, wm = w * p, w * (1.0 - p)
            e0, e1, e2, e3 = c.bloch
            p0, p1, p2, p3, p4 = p0 + wp, p1 + wp * e0, p2 + wp * e1, p3 + wp * e2, p4 + wp * e3
            m0, m1, m2, m3, m4 = m0 + wm, m1 + wm * e0, m2 + wm * e1, m3 + wm * e2, m4 + wm * e3
        table.append(((p0, p1, p2, p3, p4), (m0, m1, m2, m3, m4)))
    return tuple(table)


@dataclass(frozen=True, eq=False, init=False)
class CustomLocal:
    """Mixture of local response tables; the general no-steering adversary."""

    components: tuple[LocalComponent, ...]
    effect_table: tuple = field(init=False, repr=False)
    __reduce__ = _rebuilt_from("components")

    def __init__(self, components: tuple[LocalComponent, ...]) -> None:
        if not np.iterable(components):
            raise ValueError("CustomLocal components must be an iterable of LocalComponents,"
                             f" got {type(components).__name__}")
        components = tuple(components)
        if not components:
            raise ValueError("CustomLocal needs at least one component")
        if not all(isinstance(c, LocalComponent) for c in components):
            raise ValueError("CustomLocal components must be LocalComponents")
        total = sum([c.weight for c in components])
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {total}")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "effect_table", _effect_table(components))


# Flat positions of b1[(m, j), (i, l)] at row (i, m), column (j, l): the
# reordered copy of b1 that LhsDeterministic pairs with its hidden state.
_HIDDEN_FIRST = np.arange(16).reshape(2, 2, 2, 2).transpose(2, 0, 1, 3).reshape(4, 4)

# Alice's read-only p(+|j) table for each assignment of three Python-int signs.
_ALICE_PLUS = {signs: MappingProxyType({j: 1.0 if a == 1 else 0.0
                                         for j, a in zip((1, 2, 3), signs)})
               for signs in SIGN_TRIPLES}


@dataclass(frozen=True, eq=False, init=False)
class LhsDeterministic(CustomLocal):
    """Fixed Alice signs plus a local hidden qubit on Bob's side.

    Bob measures ``bob_povm`` on his hidden qubit (Bloch vector
    ``hidden_state``) and the referee qubit, so he clicks by the induced
    ``effect`` on the referee qubit alone, computed once here. This is the
    one-component CustomLocal whose Alice answers ``alice_signs`` for sure.
    The signs pass states.check_signs and the hidden state is checked once;
    the strategy keeps a read-only copy of the checked array. The component
    is compiled here, in the pass that checks the inputs: its effect is
    checked once, by LocalComponent's rule, and its effect table comes from
    CustomLocal's routine, so each field is what
    ``CustomLocal((LocalComponent(1.0, plus, effect),))`` builds.
    """

    alice_signs: tuple[int, int, int]
    hidden_state: np.ndarray
    bob_povm: BinaryPovm
    effect: np.ndarray = field(repr=False)
    __reduce__ = _rebuilt_from("alice_signs", "hidden_state", "bob_povm")

    def __init__(self, alice_signs: tuple, hidden_state: np.ndarray, bob_povm: BinaryPovm) -> None:
        check_type(bob_povm, BinaryPovm, "bob_povm")
        signs = check_signs(alice_signs, "alice_signs")
        hidden = check_bloch(hidden_state)
        (r00, r01), (r10, r11) = _density_entries(*hidden.tolist())  # bloch_to_density's
        # E_jl = sum_(i,m) rho_im b1[(m, j), (i, l)] = tr_hidden[(rho x 1) b1],
        # as one product of rho, flattened over (i, m), with b1 reordered
        # to rows (i, m) and columns (j, l).
        rho = np.array((r00, r01, r10, r11), dtype=complex)
        effect = np.dot(rho, bob_povm.b1.take(_HIDDEN_FIRST))
        effect.setflags(write=False)  # before the reshape, so its base is read-only too
        effect = effect.reshape(2, 2)
        bloch = _effect_bloch(effect)
        # LocalComponent(1.0, _ALICE_PLUS[signs], effect), field for field,
        # without checking again the weight, table and effect checked here.
        component = LocalComponent.__new__(LocalComponent)
        object.__setattr__(component, "weight", 1.0)
        object.__setattr__(component, "alice_plus", _ALICE_PLUS[signs])
        object.__setattr__(component, "effect", effect)
        object.__setattr__(component, "bloch", bloch)
        object.__setattr__(self, "alice_signs", signs)
        object.__setattr__(self, "hidden_state", _frozen(hidden))
        object.__setattr__(self, "bob_povm", bob_povm)
        object.__setattr__(self, "effect", effect)
        object.__setattr__(self, "components", (component,))
        object.__setattr__(self, "effect_table", _effect_table((component,)))


Strategy = HonestQuantum | CustomLocal


@dataclass(frozen=True)
class GameSpec:
    """The steering game at one penalty rate r >= 0."""

    r: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", check_nonnegative(self.r, "penalty rate r"))


def canonical_game(r: float) -> GameSpec:
    """The game at rate r: reward s <a b>, tax r/sqrt(3) per click, scale 2."""
    return GameSpec(r)


def _honest_clicks(strategy: HonestQuantum, ensemble: RefereeEnsemble) -> list:
    # (p(+, 1), p(-, 1)) = Re tr[(cond_(j,a) x omega_(j,s)) b1] per setting, bitwise the 2-D
    # evaluation, from one stacked pass kept with its frozen ensemble, matched by identity.
    # Every strategy that is not a CustomLocal comes here: one of neither kind is refused.
    last, clicks = check_type(strategy, Strategy, "strategy")._clicks
    if last is not ensemble:
        pairs = tensor(strategy.cond_stack[:, None], ensemble.density_stack[:, :, None])
        clicks = real_trace_product(pairs, strategy.bob_povm.b1).reshape(6, 2).tolist()
        object.__setattr__(strategy, "_clicks", (ensemble, clicks))
    return clicks


def _cell_rows(strategy: Strategy, ensemble: RefereeEnsemble) -> list:
    # [p(+, 1), p(+, 0), p(-, 1), p(-, 0)] for the six settings in SETTING_KEYS
    # order, from the click probability p(a, 1) and Alice's marginal p(a|j).
    # A local strategy clicks with f0 + n.f from its effect table row.
    if isinstance(strategy, CustomLocal):
        clicks = []
        for (j, _), (x, y, z) in zip(SETTING_KEYS, ensemble.stack.tolist()):
            rows = strategy.effect_table[j - 1]
            clicks.append([f0 + x * f1 + y * f2 + z * f3 for _, f0, f1, f2, f3 in rows])
        marginals = [[row[0] for row in rows] for rows in strategy.effect_table]
    else:
        clicks = _honest_clicks(strategy, ensemble)
        marginals = strategy.marginals
    return [[plus, marginals[j - 1][0] - plus, minus, marginals[j - 1][1] - minus]
            for (j, _), (plus, minus) in zip(SETTING_KEYS, clicks)]


def joint_probabilities(
    strategy: Strategy, ensemble: RefereeEnsemble, j: int, s: int
) -> dict[tuple[int, int], float]:
    """p(a, b) for one setting, as a dict over the four (a, b) cells."""
    # Raises on a key the ensemble does not have.
    check_type(ensemble, RefereeEnsemble, "ensemble").vector(j, s)
    return dict(zip(_CELLS, _cell_rows(strategy, ensemble)[SETTING_KEYS.index((j, s))]))


def exact_payoff(spec: GameSpec, strategy: Strategy, ensemble: RefereeEnsemble) -> float:
    """Expected payoff of a strategy, from exact joint probabilities.

    A local strategy is scored by the witness pairing of its effect table
    with the ensemble; an honest one by its click probabilities, summed over
    the settings in order. Both share the tax t = r/sqrt(3) and the scale 2.
    """
    t = check_type(spec, GameSpec, "spec").r / SQRT3
    check_type(ensemble, RefereeEnsemble, "ensemble")
    value = 0.0
    if isinstance(strategy, CustomLocal):
        # Summing the per-setting payoff over s in closed form: with
        # D_j = n_(j,+) - n_(j,-) and S_j = n_(j,+) + n_(j,-),
        #   payoff = 2 sum_(j,a) [-2t f0_(j,a) + (a D_j - t S_j).f_(j,a)],
        # tr(E T_a(r)) for a deterministic Alice; a = +1, then a = -1. D_j and
        # S_j come from the ensemble's witness form. The tests keep the
        # per-setting sum as oracle.
        two_t = 2.0 * t
        for ((_, f0, fx, fy, fz), (_, g0, gx, gy, gz)), (dx, dy, dz, sx, sy, sz) in zip(
            strategy.effect_table, ensemble.witness_form.pairs
        ):
            value += (dx - t * sx) * fx + (dy - t * sy) * fy + (dz - t * sz) * fz - two_t * f0
            value += (-dx - t * sx) * gx + (-dy - t * sy) * gy + (-dz - t * sz) * gz - two_t * g0
    else:
        for (_, s), (plus, minus) in zip(SETTING_KEYS, _honest_clicks(strategy, ensemble)):
            value += s * (plus - minus)
            value -= t * (plus + minus)
    return 2.0 * value


@dataclass(frozen=True)
class CountTable:
    """Integer counts per (j, s, x, y) cell, with its own CSV format.

    A subclass fixes the allowed (x, y) pairs in file order (CELLS), the
    CSV header (HEADER), the row format (ROW) and the name used in error
    messages (NAME). Zero cells are dropped, so they never reach a file.
    The table is frozen and keeps its checked counts as a read-only mapping.
    """

    counts: Mapping[tuple[int, int, int, int], int]
    __reduce__ = _rebuilt_from("counts")

    CELLS: ClassVar[tuple[tuple[int, int], ...]] = ()
    MAX_COUNT: ClassVar[int] = 2**52
    HEADER: ClassVar[str] = ""
    ROW: ClassVar[str] = ""
    NAME: ClassVar[str] = ""

    def __post_init__(self) -> None:
        counts = check_type(self.counts, Mapping, "counts")
        checked = [self.check_cell(cell, n) for cell, n in counts.items()]
        object.__setattr__(self, "counts", MappingProxyType({cell: n for cell, n in checked if n}))

    @classmethod
    def _of_checked(cls, counts: dict) -> CountTable:
        # Cells that check_cell passed or numpy's multinomial drew, not checked again.
        table = cls.__new__(cls)
        object.__setattr__(table, "counts", MappingProxyType({c: n for c, n in counts.items() if n}))
        return table

    @classmethod
    def check_cell(cls, cell: tuple[int, int, int, int], n: int) -> tuple[tuple, int]:
        """The cell and its count as Python ints; raises if either is out of range.

        The cell's parts and the count must pass ``is_integer``: floats and
        bools are rejected, not truncated. A count may not exceed 2^52, so
        that two counts and their sum are exact floats and a ratio of counts
        is the same in array arithmetic as in Python's integer division. A
        cell that is not a tuple of four parts is malformed.
        """
        # None, for a part that is missing or not an integer, fails below.
        j, s, x, y = cell if isinstance(cell, tuple) and len(cell) == 4 else (None,) * 4
        if not (type(j) is type(s) is type(x) is type(y) is int):
            j, s, x, y = (int(v) if is_integer(v) else None for v in (j, s, x, y))
        if (j, s) not in SETTING_KEYS or (x, y) not in cls.CELLS:
            raise ValueError(f"malformed {cls.NAME} cell {cell}")
        if not (type(n) is int and 0 <= n <= cls.MAX_COUNT):  # else the message is built
            n = check_integer(n, 0, cls.MAX_COUNT,
                              f"count for cell {cell} must be an integer from 0 to 2^52")
        return (j, s, x, y), n

    def cell(self, j: int, s: int, x: int, y: int) -> int:
        return self.counts.get((j, s, x, y), 0)

    @classmethod
    def load(cls, path: str) -> CountTable:
        """Read a CSV written by ``save``.

        Blank rows are skipped. A row that does not parse, whose cell or
        count ``check_cell`` rejects, or that repeats a cell raises with its
        line number.
        """
        counts: dict[tuple[int, int, int, int], int] = {}
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != cls.HEADER.split(","):
                raise ValueError(f"{cls.NAME} header must be {cls.HEADER}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    j, s, x, y, n = (int(v) for v in row)
                    cell, n = cls.check_cell((j, s, x, y), n)
                except ValueError as exc:
                    raise ValueError(
                        f"malformed {cls.NAME} row at line {lineno}: {row} ({exc})"
                    ) from exc
                if cell in counts:
                    raise ValueError(f"duplicate {cls.NAME} cell {cell} at line {lineno}")
                counts[cell] = n
        return cls._of_checked(counts)

    def format(self) -> str:
        """CSV text, rows in SETTING_KEYS x CELLS order, zero cells omitted."""
        lines = [self.HEADER]
        for j, s in SETTING_KEYS:
            for x, y in self.CELLS:
                n = self.cell(j, s, x, y)
                if n:
                    lines.append(self.ROW.format(j, s, x, y, n))
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.format())


class TallyTable(CountTable):
    """Game rounds counted per (j, s, a, b) cell; the s and a columns are signed."""

    CELLS = _CELLS
    HEADER = "j,s,a,b,count"
    ROW = "{},{:+d},{:+d},{},{}"
    NAME = "tally"


def _substream(seed: int, *key: int) -> np.random.Generator:
    # default_rng(SeedSequence([seed, *key])) for a checked seed >= 0. numpy splits each
    # word of the list into uint32 words, one per word below 2^32; when all are, one
    # uint32 array is the same entropy without that conversion. int(w) keeps a numpy
    # integer that the cast would wrap on the list.
    words = (seed, *key)
    if max(map(int, words)) < 2**32:
        words = np.array(words, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


def simulate_runs(
    spec: GameSpec,
    strategy: Strategy,
    ensemble: RefereeEnsemble,
    n_per_setting: int,
    seed: int,
) -> TallyTable:
    """Sample n_per_setting rounds of every setting into a tally.

    Each setting draws from its own substream, keyed (seed, j, 0 if s > 0
    else 1), so the tally is reproducible no matter how the settings are
    scheduled.
    The draws do not depend on the rate in ``spec``.
    """
    check_type(spec, GameSpec, "spec")
    check_type(ensemble, RefereeEnsemble, "ensemble")
    n_per_setting = check_integer(n_per_setting, 1, TallyTable.MAX_COUNT, "n_per_setting must"
                                  " be an integer from 1 to 2^52, a tally count's cap")
    seed = check_seed(seed)
    p = np.maximum(_cell_rows(strategy, ensemble), 0.0)
    p /= p.sum(axis=1, keepdims=True)
    counts: dict[tuple[int, int, int, int], int] = {}
    for (j, s), row in zip(SETTING_KEYS, p):
        rng = _substream(seed, j, 0 if s > 0 else 1)
        for cell, n in zip(_CELLS, rng.multinomial(n_per_setting, row).tolist()):
            counts[(j, s) + cell] = n
    return TallyTable._of_checked(counts)


def _setting_count(entry: tuple) -> tuple[tuple[int, int], int]:
    # One n_per_setting entry as ((j, s), n) of Python ints, by the integer rule.
    key, n = entry
    j, s = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
    if not (is_integer(j) and is_integer(s) and (j, s) in _SETTINGS):
        raise ValueError(f"n_per_setting key {key!r} is not a setting (j, s)")
    key = (int(j), int(s))
    return key, check_integer(n, 0, math.inf, f"n_per_setting[{key}] must be an integer >= 0")


@dataclass(frozen=True)
class PayoffEstimate:
    """Empirical payoff with a first-order multinomial standard error.

    ``n_per_setting`` maps settings (j, s) of SETTING_KEYS to run counts.
    Keys follow the integer rule and counts pass ``check_integer``, so
    (1.0, 1), (9, 9) and a count of "x" or 1.5 raise ValueError naming
    n_per_setting. The estimate keeps a read-only copy with Python ints.
    """

    value: float
    stderr: float
    n_per_setting: Mapping[tuple[int, int], int]
    __reduce__ = _rebuilt_from("value", "stderr", "n_per_setting")

    def __post_init__(self) -> None:
        counts = dict(check_type(self.n_per_setting, Mapping, "n_per_setting"))
        for key, n in counts.items():
            if not (type(key) is tuple and key in _SETTINGS
                    and type(key[0]) is type(key[1]) is type(n) is int and n >= 0):
                counts = dict(map(_setting_count, counts.items()))  # checks and converts each
                break
        object.__setattr__(self, "n_per_setting", MappingProxyType(counts))

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "n_per_setting": [
                {"j": j, "s": s, "n": self.n_per_setting[(j, s)]}
                for j, s in sorted(self.n_per_setting, key=SETTING_KEYS.index)
            ],
        }


def estimate_payoff(spec: GameSpec, tally: TallyTable) -> PayoffEstimate:
    """Plug-in payoff estimate from a tally, with propagated standard error.

    Every setting contributes a linear form in its click frequencies, so
    the variance is the exact multinomial covariance evaluated at the
    observed frequencies, and settings add independently.
    """
    check_type(tally, TallyTable, "tally")
    tax = check_type(spec, GameSpec, "spec").r / SQRT3
    value = 0.0
    variance = 0.0
    totals = {}
    for j, s in SETTING_KEYS:
        plus, minus = tally.counts.get((j, s, 1, 1), 0), tally.counts.get((j, s, -1, 1), 0)
        n = plus + tally.counts.get((j, s, 1, 0), 0) + minus + tally.counts.get((j, s, -1, 0), 0)
        if n == 0:
            raise ValueError(f"tally has no runs for setting (j={j}, s={s})")
        totals[(j, s)] = n
        w_plus, w_minus = s - tax, -s - tax
        f_plus, f_minus = plus / n, minus / n
        value += w_plus * f_plus + w_minus * f_minus
        variance += (
            w_plus ** 2 * f_plus * (1.0 - f_plus)
            + w_minus ** 2 * f_minus * (1.0 - f_minus)
            - 2.0 * w_plus * w_minus * f_plus * f_minus
        ) / n
    return PayoffEstimate(2.0 * value, 2.0 * math.sqrt(variance), totals)


def lhs_best_deterministic(
    spec: GameSpec, ensemble: RefereeEnsemble
) -> tuple[tuple[int, int, int], np.ndarray, float]:
    """Best deterministic no-steering strategy at the game's rate.

    Returns (alice signs, optimal referee-side Bloch direction, payoff).
    The payoff is the top witness eigenvalue |A - r B| - 2 sqrt(3) r, i.e.
    the value reached when Bob projects onto the optimal direction at full
    strength, so it is lhs_bound at the game's rate. Ties pick the
    lexicographically smallest sign assignment. The signs, the payoff and
    the direction's norm come from one evaluation of the eight A - r B.
    """
    r = check_type(spec, GameSpec, "spec").r
    t, norms = _witness_norms(*check_type(ensemble, RefereeEnsemble, "ensemble").witness_form[:2],
                              np.asarray(r))
    top = norms - TWO_SQRT3 * r  # the values _top_eigenvalues gives
    signs = _first_max(top)
    best = SIGN_TRIPLES.index(signs)
    norm = float(norms[best])
    direction = t[best] / norm if norm > 1e-15 else np.zeros(3)
    return signs, direction, float(top[best])


def realize_lhs_best(spec: GameSpec, ensemble: RefereeEnsemble) -> LhsDeterministic:
    """Build the explicit strategy that attains lhs_best_deterministic.

    The optimal analyzer is a rank-one projector aimed at the optimal
    referee-side direction, carried by a matching pure hidden qubit so the
    induced effect has full strength. When the witness is direction-free
    any unit vector realizes the optimum.
    """
    signs, direction, _ = lhs_best_deterministic(spec, ensemble)
    if not direction.any():  # the zero vector: no unit direction binds
        direction = np.array([0.0, 0.0, 1.0])
    projector = bloch_to_density(direction)
    b1 = tensor(projector, projector)
    return LhsDeterministic(signs, direction, BinaryPovm(_IDENTITY4 - b1, b1))
