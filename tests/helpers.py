"""Random ensembles, ensemble transforms, Bell-state oracles and the two
fuzz families of no-steering strategies shared by the test modules."""

import numpy as np

from qrsgame.game import BinaryPovm, CustomLocal, LhsDeterministic, LocalComponent
from qrsgame.qmath import bloch_to_density, eig_hermitian, identity, real_trace_product, tensor
from qrsgame.states import SETTING_KEYS, RefereeEnsemble, referee_ideal

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
