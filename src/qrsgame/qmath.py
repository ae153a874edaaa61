"""Dense complex linear algebra for one- and two-qubit operators.

Every operator in this package is a plain numpy array of dimension 2 or 4;
nothing here allocates anything larger. A yes/no positivity question about
one operator is answered by ``psd_within``, which reads the pivots of numpy's
Cholesky factorization. ``psd_clear`` is its scalar clear pass for a 4x4
operator held as Python numbers: an unrolled LDL^dag that says yes only when
the lowest eigenvalue lies half way from psd_within's bound, a margin that
dwarfs the rounding of either factorization, so a yes is one psd_within
gives; a no is no verdict, and the caller asks psd_within. Eigenvalues come
from numpy's ``eigvalsh`` through ``eig_hermitian`` alone, and only where a
value is needed: the message of a failing density check. One input check
per kind of argument, each raising ValueError that names it: ``_as_numbers``
for arrays, ``check_hermitian`` for operators, ``check_bloch`` for Bloch
vectors, ``check_real``, ``check_fraction`` and ``check_nonnegative`` for
reals, ``check_integer`` and ``check_seed`` for integers in a range,
``check_type`` for the package's own values. All functions are pure.
"""

from __future__ import annotations

import math
import typing
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
TRACE_TOL = 1e-9

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


def _as_numbers(x: object, dtype: type, name: str) -> np.ndarray:
    # x as a float or complex array by the scalars' number rule: bools, strings,
    # objects and, for float, complex numbers raise, as does a nesting numpy
    # cannot make one array of, which older numpy made an object array.
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):
        a = np.asarray(None)
    if a.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        kind = "numbers" if dtype is complex else "real numbers"
        raise ValueError(f"{name} must be an array of {kind}, got dtype {a.dtype}")
    return a.astype(dtype, copy=False)


def _as_operators(m: np.ndarray, name: str) -> np.ndarray:
    # A stack (..., d, d) of operators by the number rule; one operator is the
    # stack with no leading axes.
    a = _as_numbers(m, complex, name)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in (2, 4):
        raise ValueError(f"unsupported dimension {a.shape[-1]}, expected 2 or 4")
    return a


def _as_operator(m: np.ndarray, name: str) -> np.ndarray:
    a = _as_operators(m, name)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in (first x second) order, result capped at dim 4.

    Stacks (..., d, d) broadcast against each other over their leading axes;
    each pair gets the bits a call on that pair alone gives.
    """
    a = _as_operators(a, "a")
    b = _as_operators(b, "b")
    if a.shape[-1] * b.shape[-1] > 4:
        raise ValueError(
            f"unsupported dimension {a.shape[-1] * b.shape[-1]}: "
            "stored operators are capped at dimension 4"
        )
    # np.kron's own elementwise product of the broadcast factors, without
    # its generic set-up; the result is bitwise the same.
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def partial_trace(m: np.ndarray) -> np.ndarray:
    """Trace out the first qubit of a two-qubit operator, or of each in a stack (..., 4, 4).

    Each entry is numpy's own complex trace over the first qubit's index
    pair, summed (0.0 + m_(0j,0l)) + m_(1j,1l), the order of
    ``np.einsum("...ijil->...jl", ...)``, so the result has einsum's bits,
    signed zeros included.
    """
    m = _as_operators(m, "m")
    if m.shape[-1] != 4:
        raise ValueError("partial_trace expects a dimension-4 operator")
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2)).trace(0, -4, -2)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of |M - M^dag|."""
    m = _as_numbers(m, complex, "m")
    return float(np.abs(m - m.conj().T).max())


def check_hermitian(m: np.ndarray, dim: int, name: str) -> np.ndarray:
    """m as a complex dim x dim array; raises unless numeric, finite and Hermitian to tolerance."""
    m = _as_numbers(m, complex, name)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} is not finite")
    if hermiticity_defect(m) > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m


def is_integer(x: object) -> bool:
    """True for a Python or numpy integer or an int subclass; bools, floats and strings are not."""
    return type(x) is int or (isinstance(x, (int, np.integer)) and not isinstance(x, bool))


def check_integer(x: object, low: int, high: float, rule: str) -> int:
    """x as a Python int if is_integer(x) and low <= x <= high; else ValueError "<rule>, got x"."""
    if not (is_integer(x) and low <= x <= high):
        raise ValueError(f"{rule}, got {x!r}")
    return int(x)


def check_seed(seed: object) -> int:
    """check_integer's rule for a random seed, an integer >= 0."""
    return check_integer(seed, 0, math.inf, "seed must be a nonnegative integer")


def check_real(x: object, name: str) -> float:
    """x as a float; bools, strings and what float() refuses raise ValueError."""
    if not isinstance(x, (bool, np.bool_, str, bytes)):
        try:
            return float(x)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a real number, got {x!r}")


def check_type(x: object, kind: type, name: str):
    """x itself when it is a ``kind`` (a class or a union of them); else ValueError naming it."""
    if not isinstance(x, kind):
        kinds = " or ".join(k.__name__ for k in typing.get_args(kind) or (kind,))
        raise ValueError(f"{name} must be a {kinds}, got {type(x).__name__}")
    return x


def check_fraction(x: object, name: str) -> float:
    """x as a float in [0, 1] by check_real's rule; a float passes on one type
    test, and the range message shows x as given."""
    value = x if type(x) is float else check_real(x, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return value


def check_nonnegative(x: object, name: str) -> float:
    """x as a finite float >= 0 by check_real's rule; a float passes on one type test."""
    value = x if type(x) is float else check_real(x, name)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def eig_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, sorted descending."""
    m = check_hermitian(m, _as_operator(m, "matrix").shape[0], "matrix")
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))[::-1]


# 2*PSD_TOL*1 per dimension, built once: psd_within factors
# m + m^dag + _PSD_SHIFT = 2(H + PSD_TOL*1), and the factor 2 is exact.
_PSD_SHIFT = {dim: 2.0 * PSD_TOL * np.eye(dim) for dim in (2, 4)}


def psd_within(m: np.ndarray) -> bool:
    """True when no eigenvalue of the Hermitian part of m lies below -PSD_TOL.

    H + PSD_TOL*1, with H = (m + m^dag)/2, must be positive definite, which
    numpy's Cholesky factorization decides from its pivots without computing
    an eigenvalue. The exact boundary lambda_min = -PSD_TOL gives a zero
    pivot and is rejected. Non-finite input is rejected. m must be one
    operator; a stack raises ValueError.
    """
    m = _as_operator(m, "m")
    if not np.isfinite(m).all():
        return False
    try:
        np.linalg.cholesky(m + m.conj().T + _PSD_SHIFT[m.shape[0]])
    except np.linalg.LinAlgError:
        return False
    return True


# Why a yes from psd_clear is one psd_within gives. psd_clear factors
# H - PSD_TOL*1 = m + m^dag + PSD_TOL*1, where H is the matrix psd_within
# factors, and says yes when every pivot is positive. A factorization that
# completes is exact for the matrix plus some E with |E| <= 5u |L||D||L^dag|
# entrywise (u = 2^-53; a little more for complex arithmetic), and each entry
# of |L||D||L^dag| is at most the largest diagonal entry, below 5 once m's
# diagonal is at most 2. So a yes proves lambda_min(H) > PSD_TOL - 1e-13,
# and numpy's Cholesky, which completes whenever 20 n^1.5 u kappa_2(H) < 1
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10), here
# at most 3e-4, passes H. A margin on the pivots of H alone would not do:
# pivots bound lambda_min only from above, and on ill-conditioned leading
# blocks the pivots of two factorizations of one matrix differ by 1e-7.
def psd_clear(rows: list) -> bool:
    """True only when psd_within surely passes the 4x4 operator m given as rows.

    ``rows`` holds m as four rows of four finite Python complex numbers. An
    unrolled LDL^dag factorization on scalars: true when m's diagonal is at
    most 2 and every pivot of m + m^dag + PSD_TOL*1 is positive, so that the
    Hermitian part's lowest eigenvalue lies above -PSD_TOL/2, half way from
    psd_within's bound. False is no verdict; psd_within decides.
    """
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = rows
    h00, h11, h22, h33 = m00.real, m11.real, m22.real, m33.real
    if not max(h00, h11, h22, h33) <= 2.0:
        return False
    d = h00 + h00 + PSD_TOL
    if not d > 0.0:
        return False
    # Column 0 below the pivot, then the Schur complement, one column at a
    # time; c_k = conj(x_k) / pivot, so x_k c_k is |x_k|^2 / pivot.
    x1, x2, x3 = m10 + m01.conjugate(), m20 + m02.conjugate(), m30 + m03.conjugate()
    c1, c2, c3 = x1.conjugate() / d, x2.conjugate() / d, x3.conjugate() / d
    h11 = h11 + h11 + PSD_TOL - (x1 * c1).real
    if not h11 > 0.0:
        return False
    h21 = m21 + m12.conjugate() - x2 * c1
    h31 = m31 + m13.conjugate() - x3 * c1
    h22 = h22 + h22 + PSD_TOL - (x2 * c2).real
    h32 = m32 + m23.conjugate() - x3 * c2
    h33 = h33 + h33 + PSD_TOL - (x3 * c3).real
    c2, c3 = h21.conjugate() / h11, h31.conjugate() / h11
    h22 -= (h21 * c2).real
    if not h22 > 0.0:
        return False
    h32 -= h31 * c2
    h33 -= (h31 * c3).real
    return h33 - (h32 * h32.conjugate()).real / h22 > 0.0


@dataclass(frozen=True)
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
    m = _as_operator(m, "m")
    if not np.isfinite(m).all():
        return DensityCheck(False, math.nan, math.nan, math.nan)
    herm = hermiticity_defect(m)
    trace_error = float(abs(np.trace(m) - 1.0))
    if herm <= HERMITIAN_TOL and trace_error <= TRACE_TOL and psd_within(m):
        return DensityCheck(True, herm, trace_error, math.nan)
    min_eig = float(eig_hermitian(0.5 * (m + m.conj().T))[-1])
    return DensityCheck(False, herm, trace_error, min_eig)


def check_bloch(n: np.ndarray, name: str = "Bloch vector") -> np.ndarray:
    """n as a float array; raises unless real numbers of shape (3,), finite and |n| <= 1."""
    n = _as_numbers(n, float, name)
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
    array of the pairings, each bitwise the float of a 2-D call. Each pairing
    is the real part of numpy's own complex trace of the product, which sums
    the diagonal 0.0 + ((d0 + d1) + (d2 + d3)) for d = 4 and 0.0 + (d0 + d1)
    for d = 2, the bits of ``np.trace(a @ b).real``.
    """
    pairing = (_as_operators(a, "a") @ _as_operators(b, "b")).trace(0, -2, -1).real
    return float(pairing) if pairing.ndim == 0 else pairing
