"""Soundness analysis: witness operators, calibration and regime labels.

A no-steering adversary with fixed Alice signs a and an arbitrary response
effect E on the referee qubit collects payoff tr(E T_a(r)), where T_a(r)
is the witness operator assembled from the referee Bloch vectors. The
best such adversary therefore earns the top eigenvalue of T_a(r), and the
game is sound at rate r exactly when that eigenvalue is nonpositive for
all eight sign assignments. The calibration oracle locates the least such
r by bisection.

Two closed-form readouts of that boundary circulate with different
normalizations; ``rstar_printed`` evaluates the commonly quoted one, which
returns 2 instead of 1 on the ideal ensemble because the sign-sum vector
enters unhalved. Calibration reports carry both values side by side; the
bisection oracle is the operational one.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .game import SQRT3, CustomLocal, HonestQuantum, LhsDeterministic, LocalComponent, Strategy
from .game import BinaryPovm, joint_probabilities, read_count_csv
from .qmath import (
    bloch_to_density,
    density_to_bloch,
    eig_hermitian,
    identity,
    pauli,
    real_trace_product,
    tensor,
)
from .states import SETTING_KEYS, RefereeEnsemble, fidelity_pure, referee_ideal, referee_state
from .states import werner_state

TWO_SQRT3 = 2.0 * SQRT3

# Werner-weight landmarks: below W_NO_BELL no Bell inequality can be
# violated, above W_KNOWN_BELL a (non-CHSH) violation is known, above
# W_CHSH the CHSH inequality itself is violated.
W_NO_BELL = 0.6595
W_KNOWN_BELL = 0.7056
W_CHSH = 1.0 / math.sqrt(2.0)

REGIME_UNSTEERABLE = "unsteerable-by-this-game"
REGIME_STEERABLE_NO_BELL = "steerable-no-known-Bell"
REGIME_OPEN_WINDOW = "steerable-open-Bell-window"
REGIME_BELL = "Bell-violating"

SIGN_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.product((-1, 1), repeat=3)
)


class CalibrationError(RuntimeError):
    """Raised when no sound penalty rate can be certified."""


def assignment_vectors(
    ensemble: RefereeEnsemble, assignment: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The pair (A, B): signed difference sum and scaled total sum.

    A = sum_j a_j (n_(j,+) - n_(j,-)) depends on the sign assignment,
    B = sum_j (n_(j,+) + n_(j,-)) / sqrt(3) does not.
    """
    if len(assignment) != 3 or any(a not in (-1, 1) for a in assignment):
        raise ValueError(f"assignment must be three values of +/-1, got {assignment}")
    vec_a = np.zeros(3)
    vec_b = np.zeros(3)
    for j in (1, 2, 3):
        plus = ensemble.vector(j, 1)
        minus = ensemble.vector(j, -1)
        vec_a += assignment[j - 1] * (plus - minus)
        vec_b += (plus + minus) / SQRT3
    return vec_a, vec_b


def t_operator(
    ensemble: RefereeEnsemble, assignment: tuple[int, int, int], r: float
) -> np.ndarray:
    """Witness operator T_a(r) = (A - r B) . sigma - 2 sqrt(3) r."""
    if r < 0.0:
        raise ValueError(f"penalty rate r must be nonnegative, got {r}")
    vec_a, vec_b = assignment_vectors(ensemble, assignment)
    t = vec_a - r * vec_b
    out = -TWO_SQRT3 * r * identity(2)
    for i in (1, 2, 3):
        out += t[i - 1] * pauli(i)
    return out


def lhs_bound(ensemble: RefereeEnsemble, r: float) -> float:
    """Best no-steering payoff at rate r: max over signs of the top
    witness eigenvalue."""
    return max(
        float(eig_hermitian(t_operator(ensemble, a, r))[0]) for a in SIGN_TRIPLES
    )


def worst_assignment(ensemble: RefereeEnsemble, r: float) -> tuple[int, int, int]:
    """Sign assignment attaining lhs_bound; lexicographically smallest on ties."""
    best = None
    best_val = -math.inf
    for a in SIGN_TRIPLES:
        val = float(eig_hermitian(t_operator(ensemble, a, r))[0])
        if val > best_val + 1e-15:
            best, best_val = a, val
    assert best is not None
    return best


_RSTAR_TOL = 1e-10


def rstar_oracle(ensemble: RefereeEnsemble) -> float:
    """Least r >= 0 with lhs_bound <= 0, by bisection on [0, 4].

    The returned value is the upper end of the final bracket, so the bound
    at the result is guaranteed nonpositive.
    """
    if lhs_bound(ensemble, 0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 4.0
    if lhs_bound(ensemble, hi) > 0.0:
        raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")
    while hi - lo > _RSTAR_TOL:
        mid = 0.5 * (lo + hi)
        if lhs_bound(ensemble, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def rstar_printed(ensemble: RefereeEnsemble) -> float:
    """Closed-form calibration readout with the conventional normalization.

    Evaluates max over signs of (sqrt((A.B)^2 + A.A (3 - B.B)) - A.B) over
    (3 - B.B). On the ideal ensemble this yields 2, twice the operational
    boundary found by rstar_oracle; both are reported so the discrepancy
    stays visible.
    """
    _, vec_b = assignment_vectors(ensemble, (1, 1, 1))
    bb = float(vec_b @ vec_b)
    denom = 3.0 - bb
    if denom <= 0.0:
        raise ValueError(f"printed closed form undefined: B.B = {bb:.6f} >= 3")
    best = -math.inf
    for a in SIGN_TRIPLES:
        vec_a, _ = assignment_vectors(ensemble, a)
        ab = float(vec_a @ vec_b)
        aa = float(vec_a @ vec_a)
        best = max(best, (math.sqrt(ab * ab + aa * denom) - ab) / denom)
    return best


@dataclass
class CountRecord:
    """Tomography counts per (j, s, axis, outcome) cell."""

    counts: dict[tuple[int, int, int, int], int]

    def __post_init__(self) -> None:
        self.counts = {cell: self.check_cell(cell, n) for cell, n in self.counts.items()}

    @staticmethod
    def check_cell(cell: tuple[int, int, int, int], n: int) -> int:
        """The count of one cell as an int; raises if either is out of range."""
        j, s, axis, outcome = cell
        if (j, s) not in SETTING_KEYS or axis not in (1, 2, 3) or outcome not in (-1, 1):
            raise ValueError(f"malformed count cell {cell}")
        n = int(n)
        if n < 0:
            raise ValueError(f"negative count {n} for cell {cell}")
        return n

    def cell(self, j: int, s: int, axis: int, outcome: int) -> int:
        return self.counts.get((j, s, axis, outcome), 0)


def bloch_from_counts(record: CountRecord, key: tuple[int, int]) -> np.ndarray:
    """Direct-inversion Bloch vector for one referee key.

    Component i is (N+ - N-)/(N+ + N-) on axis i; vectors that land outside
    the unit ball from counting noise are clipped radially back onto it.
    """
    return _invert_counts(record, key)[0]


def _invert_counts(record: CountRecord, key: tuple[int, int]) -> tuple[np.ndarray, bool]:
    # The inverted vector and whether it had to be clipped onto the sphere.
    j, s = key
    vec = np.zeros(3)
    for axis in (1, 2, 3):
        plus = record.cell(j, s, axis, 1)
        minus = record.cell(j, s, axis, -1)
        total = plus + minus
        if total == 0:
            raise ValueError(f"no counts for key (j={j}, s={s}) on axis {axis}")
        vec[axis - 1] = (plus - minus) / total
    norm = float(np.linalg.norm(vec))
    if norm > 1.0:
        vec /= norm
    return vec, norm > 1.0


def ensemble_from_counts(
    record: CountRecord,
) -> tuple[RefereeEnsemble, tuple[tuple[int, int], ...]]:
    """Reconstruct all six referee states; also report which got clipped."""
    vectors = {}
    clipped = []
    for key in SETTING_KEYS:
        vectors[key], was_clipped = _invert_counts(record, key)
        if was_clipped:
            clipped.append(key)
    return RefereeEnsemble(vectors), tuple(clipped)


def average_fidelity(ensemble: RefereeEnsemble) -> float:
    """Mean fidelity of the six referee states with their ideal directions."""
    ideal = referee_ideal()
    total = 0.0
    for j, s in SETTING_KEYS:
        total += fidelity_pure(referee_state(ensemble, j, s), ideal.vector(j, s))
    return total / len(SETTING_KEYS)


@dataclass
class BootstrapResult:
    """Spread of the calibration boundary under Poisson count resampling."""

    mean: float
    std: float
    failures: int


def bootstrap_calibration(
    record: CountRecord, trials: int = 200, seed: int = 0
) -> BootstrapResult:
    """Poisson-resample the counts and recalibrate, trial by trial.

    Every trial draws from its own substream of ``seed``; trials whose
    resampled counts cannot be calibrated are excluded and counted.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    values = []
    failures = 0
    cells = sorted(record.counts)
    base = np.array([record.counts[c] for c in cells], dtype=np.int64)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        resampled = rng.poisson(base)
        counts = {cell: int(n) for cell, n in zip(cells, resampled)}
        try:
            ensemble, _ = ensemble_from_counts(CountRecord(counts))
            values.append(rstar_oracle(ensemble))
        except (ValueError, CalibrationError):
            failures += 1
    if not values:
        raise CalibrationError("every bootstrap trial failed to calibrate")
    spread = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return BootstrapResult(float(np.mean(values)), spread, failures)


def _zx_direction(theta: float) -> np.ndarray:
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


def _spin(direction: np.ndarray) -> np.ndarray:
    out = np.zeros((2, 2), dtype=complex)
    for i in (1, 2, 3):
        out += direction[i - 1] * pauli(i)
    return out


def chsh_werner(w: float) -> float:
    """CHSH value of werner_state(w) at the standard optimal angles.

    Alice measures along 0 and pi/2 in the z-x plane, Bob along +/- pi/4.
    The four correlators are computed from the density matrix and checked
    against the closed form 2 sqrt(2) w before returning.
    """
    rho = werner_state(w)
    alice = (_zx_direction(0.0), _zx_direction(math.pi / 2.0))
    bob = (_zx_direction(math.pi / 4.0), _zx_direction(-math.pi / 4.0))

    def correlator(na: np.ndarray, nb: np.ndarray) -> float:
        return real_trace_product(rho, tensor(_spin(na), _spin(nb)))

    s_val = (
        correlator(alice[0], bob[0])
        + correlator(alice[0], bob[1])
        + correlator(alice[1], bob[0])
        - correlator(alice[1], bob[1])
    )
    closed = 2.0 * math.sqrt(2.0) * w
    if abs(abs(s_val) - closed) > 1e-10:
        raise RuntimeError(
            f"CHSH self-check failed: |S| = {abs(s_val)!r} vs closed form {closed!r}"
        )
    return abs(s_val)


def regime_classify(w: float, r: float) -> str:
    """Place a Werner weight on the steering/Bell map for a game at rate r."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner weight must lie in [0, 1], got {w}")
    if r < 0.0:
        raise ValueError(f"penalty rate r must be nonnegative, got {r}")
    if w <= r / SQRT3:
        return REGIME_UNSTEERABLE
    if w > W_KNOWN_BELL:
        return REGIME_BELL
    if w > W_NO_BELL:
        return REGIME_OPEN_WINDOW
    return REGIME_STEERABLE_NO_BELL


def _check_kraus(kraus: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not ops or any(k.shape != (2, 2) for k in ops):
        raise ValueError("channel must be given as 2x2 Kraus operators")
    total = sum(k.conj().T @ k for k in ops)
    if np.max(np.abs(total - identity(2))) > 1e-9:
        raise ValueError("Kraus operators violate completeness beyond 1e-9")
    return ops


def channel_apply(kraus: tuple[np.ndarray, ...], rho: np.ndarray) -> np.ndarray:
    """Apply the channel sum_i K_i rho K_i^dag to a qubit state."""
    ops = _check_kraus(kraus)
    return sum(k @ np.asarray(rho, dtype=complex) @ k.conj().T for k in ops)


def channel_dual(kraus: tuple[np.ndarray, ...], effect: np.ndarray) -> np.ndarray:
    """Apply the dual map sum_i K_i^dag E K_i to a qubit effect."""
    ops = _check_kraus(kraus)
    return sum(k.conj().T @ np.asarray(effect, dtype=complex) @ k for k in ops)


def channel_ensemble(
    kraus: tuple[np.ndarray, ...], ensemble: RefereeEnsemble
) -> RefereeEnsemble:
    """Send every referee state through the channel."""
    vectors = {}
    for key in SETTING_KEYS:
        rho = channel_apply(kraus, bloch_to_density(ensemble.vector(*key)))
        vectors[key] = density_to_bloch(rho)
    return RefereeEnsemble(vectors)


def _dual_povm(kraus: tuple[np.ndarray, ...], povm: BinaryPovm) -> BinaryPovm:
    # Dual map acting on the referee factor only; b0 follows from b1
    # because the dual of a trace-preserving channel is unital.
    b1 = sum(
        tensor(identity(2), k.conj().T) @ povm.b1 @ tensor(identity(2), k)
        for k in kraus
    )
    return BinaryPovm(identity(4) - b1, b1)


def _dual_strategy(kraus: tuple[np.ndarray, ...], strategy: Strategy) -> Strategy:
    if isinstance(strategy, HonestQuantum):
        return HonestQuantum(strategy.shared_state, _dual_povm(kraus, strategy.bob_povm))
    if isinstance(strategy, (LhsDeterministic, CustomLocal)):
        components = tuple(
            LocalComponent(c.weight, dict(c.alice_plus), channel_dual(kraus, c.effect))
            for c in strategy.components
        )
        return CustomLocal(components)
    raise ValueError(f"unknown strategy type {type(strategy).__name__}")


def channel_covariance_check(
    ensemble: RefereeEnsemble,
    kraus: tuple[np.ndarray, ...],
    strategy: Strategy,
    tol: float = 1e-9,
) -> bool:
    """Verify that a channel on the referee states only relabels Bob's POVM.

    Sending every referee state through the channel while Bob keeps his
    measurement gives the same joint probabilities as keeping the states
    and handing Bob the dual-transformed measurement. Since soundness
    quantifies over all of Bob's measurements, such a channel can never
    open a loophole.
    """
    ops = _check_kraus(kraus)
    moved_states = channel_ensemble(ops, ensemble)
    moved_povm = _dual_strategy(ops, strategy)
    for key in SETTING_KEYS:
        p_state_route = joint_probabilities(strategy, moved_states, *key)
        p_povm_route = joint_probabilities(moved_povm, ensemble, *key)
        for cell in p_state_route:
            if abs(p_state_route[cell] - p_povm_route[cell]) > tol:
                return False
    return True


@dataclass
class CalibrationReport:
    """Everything the referee needs to pick a defensible penalty rate."""

    r_star_oracle: float
    r_star_printed: float
    r_star_legal: float
    worst_assignment: tuple[int, int, int]
    avg_fidelity: float
    bound_at_r: dict[float, float]
    clipped_keys: tuple[tuple[int, int], ...]
    bootstrap: BootstrapResult | None

    def __post_init__(self) -> None:
        if self.r_star_oracle < 0.0:
            raise ValueError("calibrated rate cannot be negative")
        at_oracle = self.bound_at_r.get(self.r_star_oracle)
        if at_oracle is None or at_oracle > 1e-9:
            raise ValueError("report bound curve is inconsistent with the calibrated rate")


_BOUND_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)


def calibrate(
    ensemble: RefereeEnsemble | None = None,
    counts: CountRecord | None = None,
    *,
    trials: int = 200,
    seed: int = 0,
) -> CalibrationReport:
    """Full calibration from either a known ensemble or tomography counts.

    With counts, the ensemble is reconstructed by direct inversion and the
    boundary's spread is bootstrapped; with a known ensemble only the
    deterministic readouts are produced. The printed closed form is set to
    NaN when its domain condition fails, never silently substituted.
    """
    if (ensemble is None) == (counts is None):
        raise ValueError("provide exactly one of ensemble or counts")
    clipped: tuple[tuple[int, int], ...] = ()
    boot = None
    if counts is not None:
        ensemble, clipped = ensemble_from_counts(counts)
        boot = bootstrap_calibration(counts, trials=trials, seed=seed)
    assert ensemble is not None
    oracle = rstar_oracle(ensemble)
    try:
        printed = rstar_printed(ensemble)
    except ValueError:
        printed = float("nan")
    bound_at = {r: lhs_bound(ensemble, r) for r in _BOUND_GRID}
    bound_at[oracle] = lhs_bound(ensemble, oracle)
    return CalibrationReport(
        r_star_oracle=oracle,
        r_star_printed=printed,
        r_star_legal=max(oracle, 1.0),
        worst_assignment=worst_assignment(ensemble, oracle),
        avg_fidelity=average_fidelity(ensemble),
        bound_at_r=bound_at,
        clipped_keys=clipped,
        bootstrap=boot,
    )


def report_to_dict(report: CalibrationReport) -> dict:
    """JSON-ready form of a calibration report."""
    boot = report.bootstrap
    return {
        "r_star_oracle": report.r_star_oracle,
        "r_star_printed": report.r_star_printed,
        "r_star_legal": report.r_star_legal,
        "worst_assignment": list(report.worst_assignment),
        "avg_fidelity": report.avg_fidelity,
        "clipped_keys": [list(k) for k in report.clipped_keys],
        "bootstrap": None
        if boot is None
        else {"mean": boot.mean, "std": boot.std, "failures": boot.failures},
    }


def save_report(report: CalibrationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


_COUNTS_HEADER = ["j", "s", "axis", "outcome", "count"]


def save_counts(record: CountRecord, path: str) -> None:
    """Write tomography counts as CSV, one row per recorded cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COUNTS_HEADER)
        for cell in sorted(record.counts, key=lambda c: (SETTING_KEYS.index(c[:2]), c[2], -c[3])):
            j, s, axis, outcome = cell
            writer.writerow([j, f"{s:+d}", axis, f"{outcome:+d}", record.counts[cell]])


def load_counts(path: str) -> CountRecord:
    """Read a tomography-count CSV; malformed rows raise with line numbers."""
    return CountRecord(read_count_csv(path, _COUNTS_HEADER, "counts", CountRecord.check_cell))
