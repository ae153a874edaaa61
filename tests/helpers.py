"""Random ensembles, ensemble transforms and Bell-state oracles shared by the test modules."""

import numpy as np

from qrsgame.qmath import bloch_to_density, real_trace_product
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
