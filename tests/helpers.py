"""Random ensembles, ensemble transforms, Bell-state oracles, the two
fuzz families of no-steering strategies, the ideal analyzer, the ideal-game
regime map and the channel covariance check shared by the test modules."""

import numpy as np

from qrsgame.game import _IDENTITY4, BinaryPovm, CustomLocal, HonestQuantum, LhsDeterministic
from qrsgame.game import LocalComponent, Strategy, _cell_rows
from qrsgame.qmath import _as_numbers, bloch_to_density, check_fraction, check_hermitian
from qrsgame.qmath import check_nonnegative, check_type, eig_hermitian, identity, pauli
from qrsgame.qmath import real_trace_product, tensor
from qrsgame.states import _SINGLET, SETTING_KEYS, SQRT3, RefereeEnsemble, referee_ideal
from qrsgame.witness import regime_at

# The four Bell kets, |Psi-+> = (|01> -+ |10>)/sqrt(2) and
# |Phi-+> = (|00> -+ |11>)/sqrt(2), with entries 1/sqrt(2), and their projectors.
_H = 1.0 / np.sqrt(2.0)
BELL_KETS = {
    "PsiMinus": np.array([0.0, _H, -_H, 0.0], dtype=complex),
    "PsiPlus": np.array([0.0, _H, _H, 0.0], dtype=complex),
    "PhiMinus": np.array([_H, 0.0, 0.0, -_H], dtype=complex),
    "PhiPlus": np.array([_H, 0.0, 0.0, _H], dtype=complex),
}
BELL_PROJECTORS = {name: np.outer(ket, ket.conj()) for name, ket in BELL_KETS.items()}


def werner_from_bell_weights(p):
    """Oracle for werner_state: |Psi-> at weight p, the other three Bell
    states at (1 - p)/3 each, which is werner_state(w) with w = (4 p - 1)/3.
    Returns the state and w."""
    rest = (1.0 - p) / 3.0
    state = p * BELL_PROJECTORS["PsiMinus"] + rest * (
        BELL_PROJECTORS["PsiPlus"] + BELL_PROJECTORS["PhiMinus"] + BELL_PROJECTORS["PhiPlus"]
    )
    return state, (4.0 * p - 1.0) / 3.0


def fidelity_pure(rho, m):
    """Oracle for avg_fidelity: the fidelity tr(rho P) of a qubit state with
    the pure state P = (1 + m.sigma)/2 of unit Bloch vector m."""
    return real_trace_product(rho, bloch_to_density(m))


def depolarize_ensemble(ensemble, eta):
    """Every Bloch vector shrunk by eta."""
    return RefereeEnsemble({k: eta * v for k, v in ensemble.vectors.items()})


def rotate_ensemble(ensemble, rot):
    """One rotation matrix applied to every Bloch vector."""
    return RefereeEnsemble({k: rot @ v for k, v in ensemble.vectors.items()})


def random_rotation(rng):
    g = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def perturbed_ensemble(rng):
    base = rotate_ensemble(referee_ideal(), random_rotation(rng))
    vectors = {}
    for key in SETTING_KEYS:
        v = rng.uniform(0.3, 1.0) * base.vector(*key) + 0.05 * rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1.0:
            v = v / norm
        vectors[key] = v
    return RefereeEnsemble(vectors)


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


def singlet_projector_bc() -> BinaryPovm:
    """Ideal analyzer: b1 projects the Bob + referee pair onto |Psi->. It is
    partial_bsm_povm(1.0) in value; b1 differs from it in bits only in the
    sign of three zero imaginary parts."""
    return BinaryPovm(_IDENTITY4 - _SINGLET, _SINGLET)


def regime_classify(w: float, r: float) -> str:
    """Place a Werner weight on the steering/Bell map for a game at rate r
    played with the ideal analyzer and ensemble, where W_game = r/sqrt(3)."""
    check_fraction(w, "Werner weight")  # before the rate, so a bad weight is the error reported
    return regime_at(w, check_nonnegative(r, "penalty rate r") / SQRT3)


def density_to_bloch(m: np.ndarray) -> np.ndarray:
    """Bloch vector of a Hermitian qubit operator, component i = Re tr(m sigma_i)."""
    m = check_hermitian(m, 2, "density_to_bloch operator")
    return np.array([np.trace(m @ pauli(i)).real for i in (1, 2, 3)])


def check_kraus(kraus: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The Kraus operators of a qubit channel as complex arrays: finite,
    2x2 and complete within 1e-9."""
    kraus = kraus if np.iterable(kraus) else ()
    ops = tuple(_as_numbers(k, complex, "Kraus operator") for k in kraus)
    if not ops or any(k.shape != (2, 2) or not np.isfinite(k).all() for k in ops):
        raise ValueError("channel must be given as finite 2x2 Kraus operators")
    total = sum(k.conj().T @ k for k in ops)
    if np.max(np.abs(total - identity(2))) > 1e-9:
        raise ValueError("Kraus operators violate completeness beyond 1e-9")
    return ops


def apply_channel(ops: tuple[np.ndarray, ...], rho: np.ndarray) -> np.ndarray:
    """The channel sum_i K_i rho K_i^dag."""
    return sum(k @ rho @ k.conj().T for k in ops)


def dual_channel(ops: tuple[np.ndarray, ...], effect: np.ndarray) -> np.ndarray:
    """The dual map sum_i K_i^dag E K_i."""
    return sum(k.conj().T @ effect @ k for k in ops)


def channel_ensemble(ops: tuple[np.ndarray, ...], ensemble: RefereeEnsemble) -> RefereeEnsemble:
    """Every referee state sent through the channel."""
    states = ensemble.density_stack.reshape(6, 2, 2)
    vectors = (density_to_bloch(apply_channel(ops, rho)) for rho in states)
    return RefereeEnsemble(dict(zip(SETTING_KEYS, vectors)))


def dual_strategy(ops: tuple[np.ndarray, ...], strategy: Strategy) -> Strategy:
    """Bob's side of the strategy through the dual map."""
    if isinstance(strategy, HonestQuantum):
        # The dual map acts on the referee factor only; b0 follows from b1
        # because the dual of a trace-preserving channel is unital.
        b1 = dual_channel(tuple(tensor(identity(2), k) for k in ops), strategy.bob_povm.b1)
        return HonestQuantum(strategy.shared_state, BinaryPovm(identity(4) - b1, b1))
    return CustomLocal(LocalComponent(c.weight, c.alice_plus, dual_channel(ops, c.effect))
                       for c in strategy.components)


def channel_covariance_check(
    ensemble: RefereeEnsemble,
    kraus: tuple[np.ndarray, ...],
    strategy: Strategy,
) -> bool:
    """Verify that a channel on the referee states only relabels Bob's POVM.

    Sending every referee state through the channel while Bob keeps his
    measurement gives the same joint probabilities, within 1e-9 on every
    cell, as keeping the states and handing Bob the dual-transformed
    measurement. Since soundness quantifies over all of Bob's measurements,
    such a channel can never open a loophole.
    """
    check_type(ensemble, RefereeEnsemble, "ensemble")
    ops = check_kraus(kraus)
    state_route = _cell_rows(strategy, channel_ensemble(ops, ensemble))
    povm_route = _cell_rows(dual_strategy(ops, strategy), ensemble)
    return all(abs(p - q) <= 1e-9 for row, other in zip(state_route, povm_route)
               for p, q in zip(row, other))
