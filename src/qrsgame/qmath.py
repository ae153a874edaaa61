"""Dense complex linear algebra for one- and two-qubit operators.

Every operator in this package is a plain numpy array of dimension 2 or 4;
nothing here allocates anything larger. Eigenvalues come from a closed form
in dimension 2 and a cyclic complex Jacobi sweep in dimension 4, so the
numeric path does not depend on an external eigensolver. The sweep runs on
a 4x4 list of Python complex scalars: each rotation is applied in place to
the two columns and then the two rows it mixes, p and q, which is all that
U^dag A U changes. Eigenvalues are computed only where a value is needed;
a yes/no positivity question is answered by ``psd_within``, which reads the
pivots of a Cholesky factorization instead. Input checks: ``check_hermitian``
for operators, ``check_bloch`` for Bloch vectors. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

# Global numeric policy. Hermiticity is judged by the largest entry of
# M - M^dag. Positivity means no eigenvalue of the Hermitian part H at or
# below -PSD_TOL: psd_within decides it, as H + PSD_TOL*1 positive definite,
# without computing an eigenvalue.
HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9
BLOCH_NORM_TOL = 1e-9

_JACOBI_OFF_TOL = 1e-12
_MAX_JACOBI_SWEEPS = 60

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def identity(dim: int) -> np.ndarray:
    """Identity operator of dimension 2 or 4."""
    if dim not in (2, 4):
        raise ValueError(f"unsupported dimension {dim}, expected 2 or 4")
    return np.eye(dim, dtype=complex)


def pauli(j: int) -> np.ndarray:
    """Pauli operator sigma_j for j in {1, 2, 3}."""
    if j not in (1, 2, 3):
        raise ValueError(f"pauli index must be 1, 2 or 3, got {j}")
    return _PAULI[j - 1].copy()


def _as_operators(m: np.ndarray) -> np.ndarray:
    # A stack (..., d, d) of operators; one operator is the stack with no
    # leading axes.
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in (2, 4):
        raise ValueError(f"unsupported dimension {a.shape[-1]}, expected 2 or 4")
    return a


def _as_operator(m: np.ndarray) -> np.ndarray:
    a = _as_operators(m)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in (first x second) order, result capped at dim 4.

    Stacks (..., d, d) broadcast against each other over their leading axes;
    each pair gets the bits a call on that pair alone gives.
    """
    a = _as_operators(a)
    b = _as_operators(b)
    if a.shape[-1] * b.shape[-1] > 4:
        raise ValueError(
            f"unsupported dimension {a.shape[-1] * b.shape[-1]}: "
            "stored operators are capped at dimension 4"
        )
    # np.kron's own elementwise product of the broadcast factors, without
    # its generic set-up; the result is bitwise the same.
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def partial_trace(m: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator, or of each in a stack (..., 4, 4).

    ``subsystem`` names the factor that is removed: ``"first"`` keeps the
    second qubit, ``"second"`` keeps the first.
    """
    m = _as_operators(m)
    if m.shape[-1] != 4:
        raise ValueError("partial_trace expects a dimension-4 operator")
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    if subsystem == "first":
        return np.einsum("...ijil->...jl", r)
    if subsystem == "second":
        return np.einsum("...ijkj->...ik", r)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of |M - M^dag|."""
    m = np.asarray(m, dtype=complex)
    return float(np.abs(m - m.conj().T).max())


def _jacobi_eigenvalues(m: np.ndarray) -> np.ndarray:
    # Cyclic Jacobi for complex Hermitian matrices: each rotation is a phase
    # that makes the (p, q) entry real followed by the standard real rotation
    # that zeroes it. Quadratic convergence; the sweep cap is defensive.
    a = m.tolist()
    n = len(a)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(_MAX_JACOBI_SWEEPS):
        off = math.sqrt(sum(abs(a[p][q]) ** 2 for p, q in pairs))
        if off <= _JACOBI_OFF_TOL:
            return np.array(sorted((a[k][k].real for k in range(n)), reverse=True))
        for p, q in pairs:
            mag = abs(a[p][q])
            if mag == 0.0:
                continue
            phase = a[p][q] / mag
            theta = 0.5 * math.atan2(2.0 * mag, (a[p][p] - a[q][q]).real)
            c, s = math.cos(theta), math.sin(theta)
            # U is the identity outside the (p, q) block
            # [[c, -s], [s e^(-i phi), c e^(-i phi)]], with phase = e^(i phi).
            s_conj, c_conj = s * phase.conjugate(), c * phase.conjugate()
            for row in a:
                x, y = row[p], row[q]
                row[p] = c * x + s_conj * y
                row[q] = c_conj * y - s * x
            row_p, row_q = a[p], a[q]
            s_phase, c_phase = s * phase, c * phase
            for k in range(n):
                x, y = row_p[k], row_q[k]
                row_p[k] = c * x + s_phase * y
                row_q[k] = c_phase * y - s * x
    raise RuntimeError("Jacobi eigenvalue iteration did not converge")


def check_hermitian(m: np.ndarray, dim: int, name: str) -> np.ndarray:
    """m as a complex dim x dim array; raises unless finite and Hermitian to HERMITIAN_TOL."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} is not finite")
    if hermiticity_defect(m) > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m


def is_integer(x: object) -> bool:
    """True for a Python or numpy integer; bools, floats and strings are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def eig_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, sorted descending."""
    m = check_hermitian(m, _as_operator(m).shape[0], "matrix")
    if m.shape[0] == 2:
        # Closed form for m = c*1 + v.sigma: the eigenvalues are c +/- |v|.
        center = 0.5 * (m[0, 0] + m[1, 1]).real
        radius = math.hypot(0.5 * (m[0, 0] - m[1, 1]).real, abs(m[0, 1]))
        return np.array([center + radius, center - radius])
    return _jacobi_eigenvalues(0.5 * (m + m.conj().T))


# 2*PSD_TOL*1 per dimension, built once: psd_within factors
# m + m^dag + _PSD_SHIFT = 2(H + PSD_TOL*1), and the factor 2 is exact.
_PSD_SHIFT = {dim: 2.0 * PSD_TOL * np.eye(dim) for dim in (2, 4)}


def psd_within(m: np.ndarray) -> bool:
    """True when no eigenvalue of the Hermitian part of m lies below -PSD_TOL.

    H + PSD_TOL*1, with H = (m + m^dag)/2, must be positive definite, which
    numpy's Cholesky factorization decides from its pivots without computing
    an eigenvalue. The exact boundary lambda_min = -PSD_TOL gives a zero
    pivot and is rejected. Non-finite input is rejected. A stack (..., d, d)
    is one decision, true when every operator in it passes: numpy factors
    each matrix of the stack as it would factor that matrix alone.
    """
    m = _as_operators(m)
    if not np.isfinite(m).all():
        return False
    try:
        np.linalg.cholesky(m + m.conj().swapaxes(-1, -2) + _PSD_SHIFT[m.shape[-1]])
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass
class DensityCheck:
    """Outcome of a density-matrix test with the measured defects.

    ``min_eigenvalue`` is measured only when the check fails; it is NaN on
    a passing check.
    """

    ok: bool
    hermiticity: float
    trace_error: float
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        h, t, e = self.hermiticity, self.trace_error, self.min_eigenvalue
        return f"hermiticity {h:.2e}, trace error {t:.2e}, min eigenvalue {e:.2e}"


def is_density_matrix(m: np.ndarray) -> DensityCheck:
    """Check Hermiticity, unit trace and positivity under the global policy.

    Positivity is decided by ``psd_within``. The lowest eigenvalue of the
    Hermitian part is computed only for a failing check, for its message;
    a passing check carries NaN as ``min_eigenvalue``.
    """
    m = _as_operator(m)
    if not np.isfinite(m).all():
        return DensityCheck(False, math.nan, math.nan, math.nan)
    herm = hermiticity_defect(m)
    trace_error = float(abs(np.trace(m) - 1.0))
    if herm <= HERMITIAN_TOL and trace_error <= 1e-9 and psd_within(m):
        return DensityCheck(True, herm, trace_error, math.nan)
    min_eig = float(eig_hermitian(0.5 * (m + m.conj().T))[-1])
    return DensityCheck(False, herm, trace_error, min_eig)


def check_bloch(n: np.ndarray, name: str = "Bloch vector") -> np.ndarray:
    """n as a float array; raises unless it has shape (3,), is finite and |n| <= 1."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {n.shape}")
    norm = math.hypot(*n.tolist())  # inf or nan when a component is
    if not math.isfinite(norm):
        raise ValueError(f"{name} is not finite: {n}")
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise ValueError(f"{name} norm {norm:.6f} exceeds 1")
    return n


def _frozen(a: np.ndarray) -> np.ndarray:
    # A read-only copy: the caller keeps its array writable, and no write
    # to it can reach what was checked or compiled from the copy.
    a = a.copy()
    a.setflags(write=False)
    return a


def _rebuilt_from(*names: str):
    # __reduce__ for pickle and deepcopy: rebuild through the constructor, which checks
    # the fields again and stores read-only copies; a read-only mapping goes as a dict.
    return lambda self: (type(self), tuple(
        dict(v) if isinstance(v, MappingProxyType) else v
        for v in (getattr(self, name) for name in names)))


def _density_entries(x: float, y: float, z: float) -> tuple:
    # The closed-form entries of (1 + n.sigma)/2 for n = (x, y, z), nested
    # as the rows of the 2x2 matrix.
    x, y, z = 0.5 * x, 0.5 * y, 0.5 * z
    return ((0.5 + z, complex(x, -y)), (complex(x, y), 0.5 - z))


def bloch_to_density(n: np.ndarray) -> np.ndarray:
    """Qubit state (1 + n.sigma)/2 for a Bloch vector checked by check_bloch.

    Built entry by entry in closed form; every entry has the value the sum
    1/2 + sum_i (n_i / 2) sigma_i gives, which the tests keep as oracle.
    """
    return np.array(_density_entries(*check_bloch(n).tolist()), dtype=complex)


def density_to_bloch(m: np.ndarray) -> np.ndarray:
    """Bloch vector of a Hermitian qubit operator, component i = Re tr(m sigma_i)."""
    m = check_hermitian(m, 2, "density_to_bloch operator")
    return np.array([np.trace(m @ _PAULI[i]).real for i in range(3)])


def real_trace_product(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Re tr(a b), the Born-rule pairing of a state with an effect.

    Stacks (..., d, d) are multiplied as matmul broadcasts them and give an
    array of the pairings, each bitwise the float of a 2-D call.
    """
    pairing = np.trace(np.asarray(a) @ np.asarray(b), axis1=-2, axis2=-1).real
    return float(pairing) if pairing.ndim == 0 else pairing
