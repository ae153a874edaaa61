"""Payoff evaluation for the steering game, exact and sampled.

One round: the referee draws a key (j, s) uniformly from the six settings,
announces j to Alice and sends Bob the referee state for (j, s). Alice
replies with a sign a, Bob with a bit b. The payoff averages, per setting,

    2 * sum_(j,s) [ s <a b> - (r / sqrt(3)) <b> ]

so a click whose sign a matches the referee's s is rewarded and every
click is taxed in proportion to the penalty rate r. Only per-setting
conditional averages enter, so the evaluation is independent of the
referee's (uniform) key distribution. This is the only game the package
plays: a GameSpec holds nothing but the rate r.

Strategies come in two forms. HonestQuantum shares a two-qubit state and
lets Bob project his half together with the referee qubit onto a partial
Bell-state analyzer. Every no-steering adversary is a mixture of local
components: Alice answers from a response table and Bob clicks according
to an effect E_c on the referee qubit alone, whose Bloch form is read and
checked once. CustomLocal is the general mixture and the fuzzing family
of the adversarial tests; LhsDeterministic is its one-component case, with
fixed Alice signs and the effect induced by a local hidden qubit. Both
compile at construction into one effect table: for each input j and sign
a, Alice's marginal p(a|j) and the Bloch form of the referee effect
F_(j,a) = sum_c w_c p_c(a|j) E_c, a weighted sum of the stored forms, so a
click probability is affine in the referee Bloch vector. All functions are
pure and every random draw is made from an explicit per-setting substream
of the caller's seed, so results never depend on scheduling or thread count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .qmath import (
    HERMITIAN_TOL,
    PSD_TOL,
    bloch_to_density,
    eig_hermitian,
    hermiticity_defect,
    identity,
    is_density_matrix,
    partial_trace,
    pauli,
    psd_within,
    real_trace_product,
    tensor,
)
from .states import SETTING_KEYS, BellIndex, RefereeEnsemble, bell_state, referee_state

SQRT3 = math.sqrt(3.0)

_CELLS = ((1, 1), (1, 0), (-1, 1), (-1, 0))


@dataclass
class BinaryPovm:
    """Two-outcome POVM {b0, b1} on the Bob + referee pair.

    Each element must be a finite, Hermitian 4x4 operator, and the two must
    sum to the identity. An element is positive when el + PSD_TOL*1 is
    positive definite, decided by ``psd_within`` from Cholesky pivots with no
    eigenvalue computed; the exact boundary lambda_min = -PSD_TOL fails.
    """

    b0: np.ndarray
    b1: np.ndarray

    def __post_init__(self) -> None:
        self.b0 = np.asarray(self.b0, dtype=complex)
        self.b1 = np.asarray(self.b1, dtype=complex)
        for name, el in (("b0", self.b0), ("b1", self.b1)):
            if el.shape != (4, 4):
                raise ValueError(f"POVM element {name} must be 4x4, got {el.shape}")
            if not np.isfinite(el).all():
                raise ValueError(f"POVM element {name} is not finite")
            if hermiticity_defect(el) > HERMITIAN_TOL:
                raise ValueError(f"POVM element {name} is not Hermitian")
            if not psd_within(el):
                raise ValueError(f"POVM element {name} is not positive semidefinite")
        if np.abs(self.b0 + self.b1 - identity(4)).max() > HERMITIAN_TOL:
            raise ValueError("POVM elements must sum to the identity")


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


@dataclass
class HonestQuantum:
    """Shared two-qubit state; Alice measures sigma_j, Bob runs the analyzer."""

    shared_state: np.ndarray
    bob_povm: BinaryPovm

    def __post_init__(self) -> None:
        self.shared_state = np.asarray(self.shared_state, dtype=complex)
        check = is_density_matrix(self.shared_state)
        if not check:
            raise ValueError(f"shared_state is not a density matrix ({check.describe()})")


@dataclass
class LhsDeterministic:
    """Fixed Alice signs plus a local hidden qubit on Bob's side.

    Bob holds ``hidden_state`` (a Bloch vector) instead of half of an
    entangled pair and measures ``bob_povm`` on hidden qubit + referee
    qubit. His response to any referee state is therefore governed by the
    induced effect on the referee qubit alone, computed once here. The
    strategy is the one-component local mixture whose Alice table answers
    alice_signs with certainty; ``components`` holds that component and
    ``effect_table`` its compiled form.
    """

    alice_signs: tuple[int, int, int]
    hidden_state: np.ndarray
    bob_povm: BinaryPovm
    effect: np.ndarray = field(init=False, repr=False)
    components: tuple[LocalComponent, ...] = field(init=False, repr=False)
    effect_table: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.alice_signs = tuple(int(a) for a in self.alice_signs)
        if len(self.alice_signs) != 3 or any(a not in (-1, 1) for a in self.alice_signs):
            raise ValueError(f"alice_signs must be three values of +/-1, got {self.alice_signs}")
        rho = bloch_to_density(self.hidden_state)
        self.hidden_state = np.asarray(self.hidden_state, dtype=float)
        # E = tr_hidden[(rho x 1) b1], contracted in one step.
        self.effect = np.einsum("im,mjil->jl", rho, self.bob_povm.b1.reshape(2, 2, 2, 2))
        alice_plus = {j: 1.0 if a == 1 else 0.0 for j, a in zip((1, 2, 3), self.alice_signs)}
        self.components = (LocalComponent(1.0, alice_plus, self.effect),)
        self.effect_table = _effect_table(self.components)


@dataclass
class LocalComponent:
    """One hidden variable: Alice's response table plus Bob's referee effect.

    ``bloch`` is the effect's Bloch form (e0, e1, e2, e3), E = e0*1 + e.sigma,
    read once from the matrix; 0 <= E <= 1 is checked on it as e0 +/- |e|.
    """

    weight: float
    alice_plus: dict[int, float]
    effect: np.ndarray
    bloch: tuple[float, float, float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(f"component weight must be finite and nonnegative, got {self.weight}")
        if set(self.alice_plus) != {1, 2, 3}:
            raise ValueError("alice_plus must map each input j in {1, 2, 3}")
        for j, p in self.alice_plus.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"alice_plus[{j}] = {p} is not a probability")
        self.effect = np.asarray(self.effect, dtype=complex)
        if self.effect.shape != (2, 2):
            raise ValueError("component effect must be a 2x2 operator")
        if not np.isfinite(self.effect).all():
            raise ValueError("component effect is not finite")
        if hermiticity_defect(self.effect) > HERMITIAN_TOL:
            raise ValueError("component effect is not Hermitian")
        (e00, e01), (_, e11) = self.effect.tolist()
        e0, e3 = 0.5 * (e00.real + e11.real), 0.5 * (e00.real - e11.real)
        radius = math.hypot(e3, abs(e01))
        if e0 - radius < -PSD_TOL or e0 + radius > 1.0 + PSD_TOL:
            raise ValueError("component effect must satisfy 0 <= E <= 1")
        self.bloch = (e0, e01.real, -e01.imag, e3)


@dataclass
class CustomLocal:
    """Mixture of local response tables; the general no-steering adversary."""

    components: tuple[LocalComponent, ...]
    effect_table: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.components = tuple(self.components)
        if not self.components:
            raise ValueError("CustomLocal needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {total}")
        self.effect_table = _effect_table(self.components)


def _effect_table(components: tuple[LocalComponent, ...]) -> list:
    # Row [j - 1][0 for a = +1, 1 for a = -1] is (p(a|j), f0, f1, f2, f3):
    # Alice's marginal and F_(j,a) = sum_c w_c p_c(a|j) E_c as
    # f0 = tr F / 2, f_i = tr(sigma_i F) / 2, so that for the referee state
    # (1 + n.sigma)/2 the click probability is tr(omega F) = f0 + n.f.
    table = [[[0.0] * 5, [0.0] * 5] for _ in (1, 2, 3)]
    for c in components:
        for j, rows in zip((1, 2, 3), table):
            for row, p in zip(rows, (c.alice_plus[j], 1.0 - c.alice_plus[j])):
                for k, f in enumerate((1.0, *c.bloch)):
                    row[k] += c.weight * p * f
    return table


Strategy = HonestQuantum | LhsDeterministic | CustomLocal


def check_rate(r: float) -> float:
    """The penalty rate as a float; raises unless it is finite and >= 0."""
    r = float(r)
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"penalty rate r must be finite and nonnegative, got {r}")
    return r


@dataclass
class GameSpec:
    """The steering game at one penalty rate r >= 0."""

    r: float

    def __post_init__(self) -> None:
        self.r = check_rate(self.r)


def canonical_game(r: float) -> GameSpec:
    """The game at rate r: reward s <a b>, tax r/sqrt(3) per click, scale 2."""
    return GameSpec(r)


def _joint_honest(strategy: HonestQuantum, omega: np.ndarray, j: int) -> dict:
    probs = {}
    for a in (1, -1):
        proj = 0.5 * (identity(2) + a * pauli(j))
        # Unnormalized Bob state after Alice's outcome a; its trace is p(a).
        cond = partial_trace(tensor(proj, identity(2)) @ strategy.shared_state, "first")
        p_a = float(np.trace(cond).real)
        p_click = real_trace_product(tensor(cond, omega), strategy.bob_povm.b1)
        probs[(a, 1)] = p_click
        probs[(a, 0)] = p_a - p_click
    return probs


def _joint_local(strategy: LhsDeterministic | CustomLocal, n: list[float], j: int) -> dict:
    x, y, z = n
    probs = {}
    for a, (marginal, f0, f1, f2, f3) in zip((1, -1), strategy.effect_table[j - 1]):
        click = f0 + x * f1 + y * f2 + z * f3
        probs[(a, 1)] = click
        probs[(a, 0)] = marginal - click
    return probs


def joint_probabilities(
    strategy: Strategy, ensemble: RefereeEnsemble, j: int, s: int
) -> dict[tuple[int, int], float]:
    """p(a, b) for one setting, as a dict over the four (a, b) cells."""
    if isinstance(strategy, HonestQuantum):
        return _joint_honest(strategy, referee_state(ensemble, j, s), j)
    if isinstance(strategy, (LhsDeterministic, CustomLocal)):
        return _joint_local(strategy, ensemble.vector(j, s).tolist(), j)
    raise ValueError(f"unknown strategy type {type(strategy).__name__}")


def exact_payoff(spec: GameSpec, strategy: Strategy, ensemble: RefereeEnsemble) -> float:
    """Expected payoff of a strategy, from exact joint probabilities."""
    tax = spec.r / SQRT3
    value = 0.0
    for j, s in SETTING_KEYS:
        probs = joint_probabilities(strategy, ensemble, j, s)
        value += s * (probs[(1, 1)] - probs[(-1, 1)])
        value -= tax * (probs[(1, 1)] + probs[(-1, 1)])
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

        A count must be an integer (Python or numpy); floats and bools are
        rejected rather than truncated.
        """
        j, s, x, y = cell
        if (j, s) not in SETTING_KEYS or (x, y) not in cls.CELLS:
            raise ValueError(f"malformed {cls.NAME} cell {cell}")
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"count {n!r} for cell {cell} is not an integer")
        n = int(n)
        if n < 0:
            raise ValueError(f"negative count {n} for cell {cell}")
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
    if n_per_setting < 1:
        raise ValueError(f"n_per_setting must be at least 1, got {n_per_setting}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    counts: dict[tuple[int, int, int, int], int] = {}
    for j, s in SETTING_KEYS:
        probs = joint_probabilities(strategy, ensemble, j, s)
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
    from .witness import assignment_vectors, worst_assignment

    signs = worst_assignment(ensemble, spec.r)
    vec_a, vec_b = assignment_vectors(ensemble, signs)
    t = vec_a - spec.r * vec_b
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
