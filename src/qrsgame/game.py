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

Strategies come in two forms. HonestQuantum shares a two-qubit state and
lets Bob project his half together with the referee qubit onto a partial
Bell-state analyzer. Alice's measurement does not involve the referee, so
the states it leaves on Bob's qubit, cond_(j,a), and their traces p(a|j)
are computed once at construction, as one stack. An evaluation pairs every
cond_(j,a) x omega_(j,s) with the analyzer in one stacked pass, and the
exact payoff, the sampler and joint_probabilities all read that table of
twelve click probabilities. Every no-steering adversary is a mixture of
local components: Alice answers from a response table and Bob clicks
according to an effect E_c on the referee qubit alone, whose Bloch form is
read and checked once. CustomLocal is the general mixture and the fuzzing
family of the adversarial tests; LhsDeterministic is the CustomLocal with
one component, fixed Alice signs and the effect of a local hidden qubit. A
CustomLocal compiles at construction into one effect table: for each input
j and sign a, Alice's marginal p(a|j) and the Bloch form of the referee
effect F_(j,a) = sum_c w_c p_c(a|j) E_c, so a click probability is affine
in the referee Bloch vector, and the exact payoff of a local strategy is
the witness pairing of that table with the rows of the ensemble's one
Bloch stack. Strategies are frozen and keep read-only copies of the arrays
they are given, so a compiled form cannot go stale; pickling or copying
one rebuilds it through its constructor. All functions are pure and every
random draw is made from an explicit per-setting substream of the caller's
seed, so results never depend on scheduling or thread count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Mapping

import numpy as np

from .qmath import (
    HERMITIAN_TOL,
    PSD_TOL,
    _frozen,
    _rebuilt_from,
    bloch_to_density,
    check_hermitian,
    eig_hermitian,
    identity,
    is_density_matrix,
    is_integer,
    partial_trace,
    pauli,
    psd_within,
    real_trace_product,
    tensor,
)
from .states import SETTING_KEYS, BellIndex, RefereeEnsemble, bell_state, referee_states

SQRT3 = math.sqrt(3.0)

_CELLS = ((1, 1), (1, 0), (-1, 1), (-1, 0))

_IDENTITY4 = _frozen(identity(4))

# Alice's projector (1 + a sigma_j)/2 lifted to the pair, at [j - 1, 0 if a > 0 else 1].
_LIFTS = _frozen(np.array([[tensor(0.5 * (identity(2) + a * pauli(j)), identity(2))
                            for a in (1, -1)] for j in (1, 2, 3)]))


@dataclass(frozen=True)
class BinaryPovm:
    """Two-outcome POVM {b0, b1} on the Bob + referee pair.

    Each element must be a finite, Hermitian 4x4 operator, and the two must
    sum to the identity. An element is positive when el + PSD_TOL*1 is
    positive definite, decided by ``psd_within`` from Cholesky pivots with no
    eigenvalue computed; the exact boundary lambda_min = -PSD_TOL fails. Both
    elements are decided by one call on the stacked pair, and each alone
    only when that fails, to name the one at fault. The POVM keeps read-only
    copies of the two elements.
    """

    b0: np.ndarray
    b1: np.ndarray
    __reduce__ = _rebuilt_from("b0", "b1")

    def __post_init__(self) -> None:
        b0 = check_hermitian(self.b0, 4, "POVM element b0")
        b1 = check_hermitian(self.b1, 4, "POVM element b1")
        pair = np.array((b0, b1))
        pair.setflags(write=False)
        if not psd_within(pair):
            for name, el in (("b0", b0), ("b1", b1)):
                if not psd_within(el):
                    raise ValueError(f"POVM element {name} is not positive semidefinite")
        if np.abs(pair[0] + pair[1] - _IDENTITY4).max() > HERMITIAN_TOL:
            raise ValueError("POVM elements must sum to the identity")
        object.__setattr__(self, "b0", pair[0])
        object.__setattr__(self, "b1", pair[1])


def singlet_projector_bc() -> BinaryPovm:
    """Ideal analyzer: b1 projects the Bob + referee pair onto |Psi->."""
    b1 = bell_state(BellIndex.PSI_MINUS)
    return BinaryPovm(identity(4) - b1, b1)


def partial_bsm_povm(visibility: float) -> BinaryPovm:
    """Analyzer with interference visibility v: b1 = v |Psi-><Psi-| + (1-v)/2.

    At v = 1 this is the ideal projector; at v = 0 the photons are fully
    distinguishable and every input clicks with probability 1/2.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    b1 = visibility * bell_state(BellIndex.PSI_MINUS) + (1.0 - visibility) * identity(4) / 2.0
    return BinaryPovm(identity(4) - b1, b1)


@dataclass(frozen=True)
class HonestQuantum:
    """Shared two-qubit state; Alice measures sigma_j, Bob runs the analyzer.

    Alice's side does not depend on the referee, so it is compiled once
    here, as one stack: ``cond_stack[j - 1, 0 for a = +1, 1 for a = -1]`` is
    cond_(j,a) = tr_A[(P_(j,a) x 1) rho], the unnormalized state Alice's
    outcome leaves on Bob's qubit. ``marginals[j - 1]`` holds Alice's p(a|j),
    the trace of cond_(j,a), for a = +1 then a = -1. Each entry is bitwise
    the one an evaluation that rebuilds it for every setting gives; the
    tests keep that evaluation as oracle. The strategy keeps a read-only
    copy of the shared state, and the compiled stack is read-only too.
    """

    shared_state: np.ndarray
    bob_povm: BinaryPovm
    cond_stack: np.ndarray = field(init=False, repr=False, compare=False)
    marginals: tuple = field(init=False, repr=False, compare=False)
    __reduce__ = _rebuilt_from("shared_state", "bob_povm")

    def __post_init__(self) -> None:
        if not isinstance(self.bob_povm, BinaryPovm):
            raise ValueError("bob_povm must be a BinaryPovm")
        rho = check_hermitian(self.shared_state, 4, "shared_state")
        check = is_density_matrix(rho)
        if not check:
            raise ValueError(f"shared_state is not a density matrix ({check.describe()})")
        rho = _frozen(rho)
        object.__setattr__(self, "shared_state", rho)
        cond = partial_trace(_LIFTS @ rho, "first")
        cond.setflags(write=False)
        object.__setattr__(self, "cond_stack", cond)
        traces = cond.trace(axis1=-2, axis2=-1).real.tolist()
        object.__setattr__(self, "marginals", tuple(map(tuple, traces)))


@dataclass(frozen=True)
class LocalComponent:
    """One hidden variable: Alice's response table plus Bob's referee effect.

    ``bloch`` is the effect's Bloch form (e0, e1, e2, e3), E = e0*1 + e.sigma,
    read once from the matrix; 0 <= E <= 1 is checked on it as e0 +/- |e|.
    The component keeps read-only copies of the response table and the
    effect.
    """

    weight: float
    alice_plus: Mapping[int, float]
    effect: np.ndarray
    bloch: tuple[float, float, float, float] = field(init=False, repr=False)
    __reduce__ = _rebuilt_from("weight", "alice_plus", "effect")

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(f"component weight must be finite and nonnegative, got {self.weight}")
        if set(self.alice_plus) != {1, 2, 3}:
            raise ValueError("alice_plus must map each input j in {1, 2, 3}")
        for j, p in self.alice_plus.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"alice_plus[{j}] = {p} is not a probability")
        object.__setattr__(self, "alice_plus", MappingProxyType(dict(self.alice_plus)))
        object.__setattr__(
            self, "effect", _frozen(check_hermitian(self.effect, 2, "component effect"))
        )
        (e00, e01), (_, e11) = self.effect.tolist()
        e0, e3 = 0.5 * (e00.real + e11.real), 0.5 * (e00.real - e11.real)
        radius = math.hypot(e3, abs(e01))
        if e0 - radius < -PSD_TOL or e0 + radius > 1.0 + PSD_TOL:
            raise ValueError("component effect must satisfy 0 <= E <= 1")
        object.__setattr__(self, "bloch", (e0, e01.real, -e01.imag, e3))


@dataclass(frozen=True)
class CustomLocal:
    """Mixture of local response tables; the general no-steering adversary."""

    components: tuple[LocalComponent, ...]
    effect_table: tuple = field(init=False, repr=False, compare=False)
    __reduce__ = _rebuilt_from("components")

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("CustomLocal needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {total}")
        # Row [j - 1][0 for a = +1, 1 for a = -1] is (p(a|j), f0, f1, f2, f3):
        # Alice's marginal and F_(j,a) = sum_c w_c p_c(a|j) E_c as
        # f0 = tr F / 2, f_i = tr(sigma_i F) / 2, so that for the referee state
        # (1 + n.sigma)/2 the click probability is tr(omega F) = f0 + n.f.
        # Each sum runs over the components in order, on scalars.
        table = []
        for j in (1, 2, 3):
            p0 = p1 = p2 = p3 = p4 = m0 = m1 = m2 = m3 = m4 = 0.0
            for c in self.components:
                wp, wm = c.weight * c.alice_plus[j], c.weight * (1.0 - c.alice_plus[j])
                e0, e1, e2, e3 = c.bloch
                p0, p1, p2, p3, p4 = p0 + wp, p1 + wp * e0, p2 + wp * e1, p3 + wp * e2, p4 + wp * e3
                m0, m1, m2, m3, m4 = m0 + wm, m1 + wm * e0, m2 + wm * e1, m3 + wm * e2, m4 + wm * e3
            table.append(((p0, p1, p2, p3, p4), (m0, m1, m2, m3, m4)))
        object.__setattr__(self, "effect_table", tuple(table))


@dataclass(frozen=True, init=False)
class LhsDeterministic(CustomLocal):
    """Fixed Alice signs plus a local hidden qubit on Bob's side.

    Bob measures ``bob_povm`` on his hidden qubit (Bloch vector
    ``hidden_state``) and the referee qubit, so he clicks by the induced
    ``effect`` on the referee qubit alone, computed once here. This is the
    one-component CustomLocal whose Alice answers ``alice_signs`` for sure.
    It keeps a read-only copy of the hidden state.
    """

    alice_signs: tuple[int, int, int]
    hidden_state: np.ndarray
    bob_povm: BinaryPovm
    effect: np.ndarray = field(repr=False)
    __reduce__ = _rebuilt_from("alice_signs", "hidden_state", "bob_povm")

    def __init__(self, alice_signs: tuple, hidden_state: np.ndarray, bob_povm: BinaryPovm) -> None:
        if not isinstance(bob_povm, BinaryPovm):
            raise ValueError("bob_povm must be a BinaryPovm")
        signs = tuple(alice_signs)
        if len(signs) != 3 or any(not is_integer(a) or a not in (-1, 1) for a in signs):
            raise ValueError(f"alice_signs must be three integers +/-1, got {signs}")
        object.__setattr__(self, "alice_signs", tuple(int(a) for a in signs))
        rho = bloch_to_density(hidden_state)
        object.__setattr__(self, "hidden_state", _frozen(np.asarray(hidden_state, dtype=float)))
        object.__setattr__(self, "bob_povm", bob_povm)
        # E_jl = sum_(i,m) rho_im b1[(m, j), (i, l)] = tr_hidden[(rho x 1) b1],
        # as one product of rho, flattened over (i, m), with b1 reordered
        # to rows (i, m) and columns (j, l).
        b1 = bob_povm.b1.reshape(2, 2, 2, 2).transpose(2, 0, 1, 3).reshape(4, 4)
        effect = np.dot(rho.reshape(4), b1).reshape(2, 2)
        alice_plus = {j: 1.0 if a == 1 else 0.0 for j, a in zip((1, 2, 3), self.alice_signs)}
        super().__init__((LocalComponent(1.0, alice_plus, effect),))
        object.__setattr__(self, "effect", self.components[0].effect)


Strategy = HonestQuantum | CustomLocal


def check_rate(r: float) -> float:
    """The penalty rate as a float; raises unless it is finite and >= 0."""
    r = float(r)
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"penalty rate r must be finite and nonnegative, got {r}")
    return r


@dataclass(frozen=True)
class GameSpec:
    """The steering game at one penalty rate r >= 0."""

    r: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", check_rate(self.r))


def canonical_game(r: float) -> GameSpec:
    """The game at rate r: reward s <a b>, tax r/sqrt(3) per click, scale 2."""
    return GameSpec(r)


def _honest_clicks(strategy: HonestQuantum, ensemble: RefereeEnsemble) -> np.ndarray:
    # p(a, 1 | j, s) = Re tr[(cond_(j,a) x omega_(j,s)) b1] for every setting
    # in one stacked pass, indexed [j - 1, 0 if s > 0 else 1, 0 if a > 0 else 1];
    # each entry is bitwise the 2-D evaluation of that one setting and sign.
    if not isinstance(strategy, HonestQuantum):
        raise ValueError(f"unknown strategy type {type(strategy).__name__}")
    pairs = tensor(strategy.cond_stack[:, None], referee_states(ensemble)[:, :, None])
    return real_trace_product(pairs, strategy.bob_povm.b1)


def _joint_table(strategy: Strategy, ensemble: RefereeEnsemble) -> dict:
    # p(a, b) for the six settings, keyed by (j, s) in SETTING_KEYS order, from
    # the click probability p(a, 1) and Alice's marginal p(a|j) of a = +1, -1.
    # A local strategy clicks with f0 + n.f from its effect table row.
    if isinstance(strategy, CustomLocal):
        clicks = []
        for (j, _), (x, y, z) in zip(SETTING_KEYS, ensemble.stack.tolist()):
            rows = strategy.effect_table[j - 1]
            clicks.append([f0 + x * f1 + y * f2 + z * f3 for _, f0, f1, f2, f3 in rows])
        marginals = [[row[0] for row in rows] for rows in strategy.effect_table]
    else:
        clicks = _honest_clicks(strategy, ensemble).reshape(6, 2).tolist()
        marginals = strategy.marginals
    return {
        (j, s): {(1, 1): plus, (1, 0): marginals[j - 1][0] - plus,
                 (-1, 1): minus, (-1, 0): marginals[j - 1][1] - minus}
        for (j, s), (plus, minus) in zip(SETTING_KEYS, clicks)
    }


def joint_probabilities(
    strategy: Strategy, ensemble: RefereeEnsemble, j: int, s: int
) -> dict[tuple[int, int], float]:
    """p(a, b) for one setting, as a dict over the four (a, b) cells."""
    ensemble.vector(j, s)  # raises on a key the ensemble does not have
    return _joint_table(strategy, ensemble)[(j, s)]


def _witness_pairing(r: float, strategy: CustomLocal, ensemble: RefereeEnsemble) -> float:
    # Summing the per-setting payoff over s in closed form: with t = r/sqrt(3),
    # D_j = n_(j,+) - n_(j,-) and S_j = n_(j,+) + n_(j,-),
    #   payoff = 2 sum_(j,a) [-2t f0_(j,a) + (a D_j - t S_j).f_(j,a)],
    # tr(E T_a(r)) for a deterministic Alice. The tests keep the per-setting
    # sum as oracle.
    t = r / SQRT3
    value = 0.0
    n = ensemble.stack.tolist()  # n_(j,+) and n_(j,-) are rows 2j - 2 and 2j - 1
    for rows, (px, py, pz), (mx, my, mz) in zip(strategy.effect_table, n[0::2], n[1::2]):
        dx, dy, dz = px - mx, py - my, pz - mz
        sx, sy, sz = px + mx, py + my, pz + mz
        for a, (_, f0, fx, fy, fz) in zip((1, -1), rows):
            value += (
                (a * dx - t * sx) * fx
                + (a * dy - t * sy) * fy
                + (a * dz - t * sz) * fz
                - 2.0 * t * f0
            )
    return 2.0 * value


def exact_payoff(spec: GameSpec, strategy: Strategy, ensemble: RefereeEnsemble) -> float:
    """Expected payoff of a strategy, from exact joint probabilities.

    A local strategy is scored by the witness pairing of its effect table
    with the ensemble; an honest one by its click probabilities, summed over
    the settings in order.
    """
    if isinstance(strategy, CustomLocal):
        return _witness_pairing(spec.r, strategy, ensemble)
    tax = spec.r / SQRT3
    value = 0.0
    clicks = _honest_clicks(strategy, ensemble).reshape(6, 2).tolist()
    for (_, s), (plus, minus) in zip(SETTING_KEYS, clicks):
        value += s * (plus - minus)
        value -= tax * (plus + minus)
    return 2.0 * value


@dataclass
class CountTable:
    """Integer counts per (j, s, x, y) cell, with its own CSV format.

    A subclass fixes the allowed (x, y) pairs in file order (CELLS), the
    CSV header (HEADER), the row format (ROW) and the name used in error
    messages (NAME). Zero cells are dropped, so they never reach a file.
    """

    counts: dict[tuple[int, int, int, int], int]

    CELLS: ClassVar[tuple[tuple[int, int], ...]] = ()
    HEADER: ClassVar[str] = ""
    ROW: ClassVar[str] = ""
    NAME: ClassVar[str] = ""

    def __post_init__(self) -> None:
        clean = {}
        for cell, n in self.counts.items():
            n = self.check_cell(cell, n)
            if n:
                clean[tuple(cell)] = n
        self.counts = clean

    @classmethod
    def check_cell(cls, cell: tuple[int, int, int, int], n: int) -> int:
        """The count of one cell as an int; raises if either is out of range.

        A count must pass ``is_integer``: floats and bools are rejected, not
        truncated. It may not exceed 2^52, so that two counts and their sum
        are exact floats and a ratio of counts is the same in array
        arithmetic as in Python's integer division.
        """
        j, s, x, y = cell
        if (j, s) not in SETTING_KEYS or (x, y) not in cls.CELLS:
            raise ValueError(f"malformed {cls.NAME} cell {cell}")
        if not is_integer(n):
            raise ValueError(f"count {n!r} for cell {cell} is not an integer")
        n = int(n)
        if n < 0:
            raise ValueError(f"negative count {n} for cell {cell}")
        if n > 2**52:
            raise ValueError(f"count {n} for cell {cell} exceeds 2^52")
        return n

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
                    cell = (j, s, x, y)
                    n = cls.check_cell(cell, n)
                except ValueError as exc:
                    raise ValueError(
                        f"malformed {cls.NAME} row at line {lineno}: {row} ({exc})"
                    ) from exc
                if cell in counts:
                    raise ValueError(f"duplicate {cls.NAME} cell {cell} at line {lineno}")
                counts[cell] = n
        return cls(counts)

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

    def total(self, j: int, s: int) -> int:
        return sum(self.cell(j, s, a, b) for a, b in _CELLS)


def simulate_runs(
    spec: GameSpec,
    strategy: Strategy,
    ensemble: RefereeEnsemble,
    n_per_setting: int,
    seed: int,
) -> TallyTable:
    """Sample n_per_setting rounds of every setting into a tally.

    Each setting draws from its own substream seeded by (seed, j, s), so
    the tally is reproducible no matter how the settings are scheduled.
    The draws do not depend on the rate in ``spec``.
    """
    if not is_integer(n_per_setting) or n_per_setting < 1:
        raise ValueError(f"n_per_setting must be an integer >= 1, got {n_per_setting!r}")
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    counts: dict[tuple[int, int, int, int], int] = {}
    for (j, s), probs in _joint_table(strategy, ensemble).items():
        p = np.array([max(probs[cell], 0.0) for cell in _CELLS])
        p /= p.sum()
        rng = np.random.default_rng(np.random.SeedSequence([seed, j, 0 if s > 0 else 1]))
        draw = rng.multinomial(n_per_setting, p)
        for cell, n in zip(_CELLS, draw):
            if n:
                counts[(j, s) + cell] = int(n)
    return TallyTable(counts)


@dataclass
class PayoffEstimate:
    """Empirical payoff with a first-order multinomial standard error."""

    value: float
    stderr: float
    n_per_setting: dict[tuple[int, int], int]

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
    tax = spec.r / SQRT3
    value = 0.0
    variance = 0.0
    totals = {}
    for j, s in SETTING_KEYS:
        n = tally.total(j, s)
        if n == 0:
            raise ValueError(f"tally has no runs for setting (j={j}, s={s})")
        totals[(j, s)] = n
        w = {a: s * a - tax for a in (1, -1)}
        f = {a: tally.cell(j, s, a, 1) / n for a in (1, -1)}
        value += w[1] * f[1] + w[-1] * f[-1]
        variance += (
            w[1] ** 2 * f[1] * (1.0 - f[1])
            + w[-1] ** 2 * f[-1] * (1.0 - f[-1])
            - 2.0 * w[1] * w[-1] * f[1] * f[-1]
        ) / n
    return PayoffEstimate(2.0 * value, 2.0 * math.sqrt(variance), totals)


def lhs_best_deterministic(
    spec: GameSpec, ensemble: RefereeEnsemble
) -> tuple[tuple[int, int, int], np.ndarray, float]:
    """Best deterministic no-steering strategy at the game's rate.

    Returns (alice signs, optimal referee-side Bloch direction, payoff).
    The payoff is the top witness eigenvalue |A - r B| - 2 sqrt(3) r, i.e.
    the value reached when Bob projects onto the optimal direction at full
    strength. Ties pick the lexicographically smallest sign assignment.
    """
    from .witness import SIGN_TRIPLES, _first_max, _sign_table, _top_eigenvalues

    rows, vec_b = _sign_table(ensemble)
    signs = _first_max(_top_eigenvalues(rows, vec_b, check_rate(spec.r)))
    t = rows[SIGN_TRIPLES.index(signs)] - spec.r * vec_b
    norm = float(np.linalg.norm(t))
    direction = t / norm if norm > 1e-15 else np.zeros(3)
    return signs, direction, norm - 2.0 * SQRT3 * spec.r


def realize_lhs_best(spec: GameSpec, ensemble: RefereeEnsemble) -> LhsDeterministic:
    """Build the explicit strategy that attains lhs_best_deterministic.

    The optimal analyzer is a rank-one projector aimed at the optimal
    referee-side direction, carried by a matching pure hidden qubit so the
    induced effect has full strength. When the witness is direction-free
    any unit vector realizes the optimum.
    """
    signs, direction, _ = lhs_best_deterministic(spec, ensemble)
    if np.linalg.norm(direction) < 0.5:
        direction = np.array([0.0, 0.0, 1.0])
    b1 = tensor(bloch_to_density(direction), bloch_to_density(direction))
    povm = BinaryPovm(identity(4) - b1, b1)
    return LhsDeterministic(signs, direction, povm)


def random_lhs_strategy(rng: np.random.Generator) -> LhsDeterministic:
    """Random deterministic adversary: signs, hidden qubit and analyzer."""
    signs = tuple(int(x) for x in rng.integers(0, 2, size=3) * 2 - 1)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    hidden = direction * rng.random() ** (1.0 / 3.0)
    if rng.random() < 0.5:
        # Rank-one analyzer aimed at a random referee-side direction.
        target = rng.normal(size=3)
        target /= np.linalg.norm(target)
        b1 = tensor(bloch_to_density(direction), bloch_to_density(target))
    else:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = g.conj().T @ g
        b1 = rng.random() * s / eig_hermitian(s)[0]
    return LhsDeterministic(signs, hidden, BinaryPovm(identity(4) - b1, b1))


def random_local_strategy(rng: np.random.Generator, n_components: int = 3) -> CustomLocal:
    """Random mixture of local response tables (adversarial fuzzing family)."""
    weights = rng.random(n_components)
    weights /= weights.sum()
    components = []
    for w in weights:
        alice = {j: float(rng.random()) for j in (1, 2, 3)}
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = g.conj().T @ g
        effect = rng.random() * s / eig_hermitian(s)[0]
        components.append(LocalComponent(float(w), alice, effect))
    return CustomLocal(tuple(components))
