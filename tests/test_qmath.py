"""Linear-algebra layer: frozen identities plus oracle checks against numpy.

The package ships its own eigensolver (closed form for qubits, cyclic
Jacobi for two-qubit operators) and a Cholesky positivity predicate;
numpy's eigvalsh is used here only as an independent oracle for both.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import qrsgame
from qrsgame.game import partial_bsm_povm
from qrsgame.qmath import (
    DensityCheck,
    bloch_to_density,
    density_to_bloch,
    eig_hermitian,
    hermiticity_defect,
    identity,
    is_density_matrix,
    PSD_TOL,
    partial_trace,
    pauli,
    psd_within,
    real_trace_product,
    tensor,
)
from qrsgame.states import BellIndex, bell_state, werner_state


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestPauliAlgebra:
    def test_squares_to_identity(self):
        for j in (1, 2, 3):
            assert np.allclose(pauli(j) @ pauli(j), identity(2))

    def test_traceless(self):
        for j in (1, 2, 3):
            assert abs(np.trace(pauli(j))) < 1e-15

    def test_cyclic_product(self):
        assert np.allclose(pauli(1) @ pauli(2), 1j * pauli(3))
        assert np.allclose(pauli(2) @ pauli(3), 1j * pauli(1))
        assert np.allclose(pauli(3) @ pauli(1), 1j * pauli(2))

    def test_anticommute(self):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if j != k:
                    anti = pauli(j) @ pauli(k) + pauli(k) @ pauli(j)
                    assert np.max(np.abs(anti)) < 1e-15

    def test_returns_copy(self):
        # Mutating the returned array must not corrupt the shared table.
        m = pauli(1)
        m[0, 0] = 99.0
        assert pauli(1)[0, 0] == 0.0

    def test_bad_index(self):
        with pytest.raises(ValueError, match="pauli index"):
            pauli(0)
        with pytest.raises(ValueError):
            pauli(4)


class TestTensorAndTrace:
    def test_tensor_matches_kron(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            assert np.allclose(tensor(a, b), np.kron(a, b))

    def test_tensor_rejects_large_result(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            tensor(identity(4), identity(2))

    def test_identity_dims(self):
        assert identity(2).shape == (2, 2)
        assert identity(4).shape == (4, 4)
        with pytest.raises(ValueError):
            identity(3)

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_density(rng, 2)
            b = random_hermitian(rng, 2)
            m = tensor(a, b)
            # Tracing out one factor leaves the other, scaled by its trace.
            assert np.allclose(partial_trace(m, "first"), b * np.trace(a))
            assert np.allclose(partial_trace(m, "second"), a * np.trace(b))

    def test_partial_trace_identity(self):
        assert np.allclose(partial_trace(identity(4), "first"), 2.0 * identity(2))
        assert np.allclose(partial_trace(identity(4), "second"), 2.0 * identity(2))

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = random_hermitian(rng, 4)
            for which in ("first", "second"):
                assert np.isclose(np.trace(partial_trace(m, which)), np.trace(m))

    def test_partial_trace_rejects_qubit(self):
        with pytest.raises(ValueError, match="dimension-4"):
            partial_trace(identity(2), "first")

    def test_partial_trace_bad_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            partial_trace(identity(4), "third")


class TestEigHermitian:
    def test_qubit_closed_form_vs_numpy(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = random_hermitian(rng, 2)
            got = eig_hermitian(m)
            want = np.linalg.eigvalsh(m)[::-1]
            assert np.allclose(got, want, atol=1e-12)

    def test_jacobi_vs_numpy(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = random_hermitian(rng, 4)
            got = eig_hermitian(m)
            want = np.linalg.eigvalsh(m)[::-1]
            assert np.allclose(got, want, atol=1e-10)

    def test_descending_and_trace(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = random_hermitian(rng, 4)
            eigs = eig_hermitian(m)
            assert all(eigs[i] >= eigs[i + 1] - 1e-12 for i in range(3))
            assert np.isclose(eigs.sum(), np.trace(m).real)

    def test_degenerate_spectrum(self):
        assert np.allclose(eig_hermitian(identity(4)), np.ones(4))
        assert np.allclose(eig_hermitian(np.zeros((2, 2))), np.zeros(2))

    def test_werner_spectrum(self):
        """Werner eigenvalues are (1+3W)/4 once and (1-W)/4 three times."""
        w = 0.698
        eigs = eig_hermitian(werner_state(w))
        assert np.allclose(eigs, [0.7735, 0.0755, 0.0755, 0.0755], atol=1e-12)
        for w in (0.0, 0.3, 1.0):
            eigs = eig_hermitian(werner_state(w))
            want = [(1 + 3 * w) / 4] + [(1 - w) / 4] * 3
            assert np.allclose(eigs, want, atol=1e-12)

    def test_structured_two_qubit_operators_vs_numpy(self):
        """The operators the package validates: Werner states, partial-BSM
        elements, rank-one product projectors, the identity, and diagonal
        matrices whose off-diagonal zeros carry a sign or phase."""
        rng = np.random.default_rng(24)
        shapes = [werner_state(w) for w in np.linspace(0.0, 1.0, 11)]
        for v in np.linspace(0.0, 1.0, 11):
            povm = partial_bsm_povm(float(v))
            shapes += [povm.b0, povm.b1]
        for _ in range(20):
            m, n = rng.normal(size=3), rng.normal(size=3)
            shapes.append(tensor(bloch_to_density(m / np.linalg.norm(m)),
                                 bloch_to_density(n / np.linalg.norm(n))))
        shapes.append(identity(4))
        diag = np.diag([0.7, -0.2, 0.7, 1e-3]).astype(complex)
        diag[0, 1], diag[1, 0] = complex(-0.0, 0.0), complex(-0.0, -0.0)
        diag[2, 3], diag[3, 2] = complex(0.0, -0.0), complex(-0.0, 0.0)
        shapes.append(diag)
        for m in shapes:
            got = eig_hermitian(m)
            want = np.linalg.eigvalsh(m)[::-1]
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(m)

    def test_rejects_non_finite(self):
        """NaN and +/-inf anywhere fail at once, as a ValueError, instead of
        slipping past the Hermiticity test into the solver."""
        bad_values = (np.nan, np.inf, -np.inf, complex(0.0, np.nan))
        for dim in (2, 4):
            for bad in bad_values:
                for i, j in ((0, 0), (0, 1), (dim - 1, 0), (dim - 1, dim - 1)):
                    m = identity(dim) / dim
                    m[i, j] = bad
                    with pytest.raises(ValueError, match="matrix is not finite"):
                        eig_hermitian(m)

    def test_hermiticity_defect(self):
        assert hermiticity_defect(pauli(2)) == 0.0
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_defect(m) > 0.4


def eigvalsh_decision(m):
    return bool(np.linalg.eigvalsh(m)[0] >= -PSD_TOL)


class TestPsdWithin:
    def test_matches_eigvalsh_near_boundaries(self):
        """Random Hermitian matrices shifted so the lowest eigenvalue sits
        1e-8 either side of 0 or 1e-11 either side of -PSD_TOL: the Cholesky
        decision equals numpy's every time."""
        rng = np.random.default_rng(51)
        targets = (1e-8, -1e-8, -PSD_TOL + 1e-11, -PSD_TOL - 1e-11)
        for dim in (2, 4):
            decisions = []
            for _ in range(2000):
                h = random_hermitian(rng, dim)
                lowest = np.linalg.eigvalsh(h)[0]
                for target in targets:
                    m = h + (target - lowest) * identity(dim)
                    got = psd_within(m)
                    assert got == eigvalsh_decision(m)
                    decisions.append(got)
            assert decisions.count(True) == decisions.count(False) == 4000

    def test_reads_only_the_hermitian_part(self):
        rng = np.random.default_rng(52)
        for dim in (2, 4):
            for _ in range(200):
                h = random_hermitian(rng, dim)
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                for target in (1e-8, -1e-8):
                    m = h + (target - np.linalg.eigvalsh(h)[0]) * identity(dim)
                    assert psd_within(m + (g - g.conj().T)) == (target > 0)

    def test_singular_and_degenerate(self):
        """Cases where an unshifted pivot would be exactly zero."""
        rng = np.random.default_rng(53)
        zero_lead_psd = np.diag([0.0, 1.0, 0.5, 0.25]).astype(complex)
        zero_lead_indefinite = zero_lead_psd.copy()
        zero_lead_indefinite[0, 2], zero_lead_indefinite[2, 0] = 0.5j, -0.5j
        accepted = [np.zeros((2, 2)), np.zeros((4, 4)), identity(2), identity(4), zero_lead_psd,
                    np.array([[0.0, 0.0], [0.0, 1.0]])]
        for v in (0.0, 1.0):
            povm = partial_bsm_povm(v)
            accepted += [povm.b0, povm.b1]
        for _ in range(20):
            m, n = rng.normal(size=3), rng.normal(size=3)
            proj = tensor(bloch_to_density(m / np.linalg.norm(m)),
                          bloch_to_density(n / np.linalg.norm(n)))
            accepted += [proj, identity(4) - proj]
        rejected = [zero_lead_indefinite, np.array([[0.0, 1.0], [1.0, 0.0]]),
                    -bell_state(BellIndex.PSI_MINUS), np.diag([1.0, 1.0, 1.0, -1e-8])]
        for m in accepted:
            assert psd_within(m) and eigvalsh_decision(m)
        for m in rejected:
            assert not psd_within(m) and not eigvalsh_decision(m)

    def test_rejects_the_exact_boundary(self):
        """lambda_min = -PSD_TOL exactly gives a zero pivot: the strict pivot
        test rejects it where the eigenvalue test would accept."""
        for m in (-PSD_TOL * identity(4), np.diag([1.0, -PSD_TOL, 0.5, 1.0]),
                  -PSD_TOL * identity(2)):
            assert eigvalsh_decision(m)
            assert not psd_within(m)

    def test_non_finite_never_accepted(self):
        for dim in (2, 4):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)):
                for i in range(dim):
                    for j in range(dim):
                        m = identity(dim)
                        m[i, j] = bad
                        assert not psd_within(m)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="dimension 3"):
            psd_within(np.eye(3))


class TestDensityChecks:
    def test_accepts_states(self):
        rng = np.random.default_rng(31)
        assert is_density_matrix(identity(2) / 2.0)
        assert is_density_matrix(bell_state(BellIndex.PHI_PLUS))
        for _ in range(20):
            assert is_density_matrix(random_density(rng, 4))

    def test_rejects_wrong_trace(self):
        check = is_density_matrix(identity(2))
        assert not check
        assert check.trace_error > 0.9

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        check = is_density_matrix(m)
        assert not check
        assert check.min_eigenvalue < -0.4

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        assert not is_density_matrix(m)

    def test_rejects_non_finite(self):
        """NaN or +/-inf gives a failing check with NaN defects, not an
        exception."""
        for dim in (2, 4):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
                for i, j in ((0, 0), (0, 1), (dim - 1, dim - 1)):
                    m = identity(dim) / dim
                    m[i, j] = bad
                    check = is_density_matrix(m)
                    assert not check
                    assert np.isnan([check.hermiticity, check.trace_error,
                                     check.min_eigenvalue]).all()

    def test_bool_protocol(self):
        assert bool(DensityCheck(True, 0.0, 0.0, 0.0))
        assert not bool(DensityCheck(False, 0.0, 0.0, 0.0))


class TestBlochMaps:
    def test_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = rng.normal(size=3)
            n *= rng.random() / np.linalg.norm(n)
            rho = bloch_to_density(n)
            assert is_density_matrix(rho)
            assert np.allclose(density_to_bloch(rho), n, atol=1e-12)

    def test_poles(self):
        assert np.allclose(bloch_to_density(np.array([0.0, 0.0, 1.0])), np.diag([1.0, 0.0]))
        assert np.allclose(bloch_to_density(np.zeros(3)), identity(2) / 2.0)

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            bloch_to_density(np.array([0.8, 0.8, 0.0]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            bloch_to_density(np.zeros(2))

    def test_rejects_non_finite(self):
        for i in range(3):
            for bad in (np.nan, np.inf, -np.inf):
                n = np.zeros(3)
                n[i] = bad
                with pytest.raises(ValueError, match="Bloch vector is not finite"):
                    bloch_to_density(n)
        with pytest.raises(ValueError):
            density_to_bloch(identity(4))


def test_real_trace_product_matches_numpy():
    rng = np.random.default_rng(51)
    for dim in (2, 4):
        for _ in range(20):
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            assert np.isclose(real_trace_product(a, b), np.trace(a @ b).real)


_NUMPY_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def test_package_never_calls_numpy_eigensolver():
    """numpy's eigensolver is a test oracle only; the package's numeric
    path uses the closed forms and the Jacobi sweep in qmath."""
    offenders = []
    for path in sorted(Path(qrsgame.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _NUMPY_EIGENSOLVERS:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module and "linalg" in node.module:
                for alias in node.names:
                    if alias.name in _NUMPY_EIGENSOLVERS:
                        offenders.append(f"{path.name}:{node.lineno} import {alias.name}")
    assert not offenders, f"numpy eigensolver used in the package: {offenders}"
