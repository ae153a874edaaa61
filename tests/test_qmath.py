"""Linear-algebra layer: frozen identities plus oracle checks against numpy.

The package decides positivity by a Cholesky predicate, which numpy's
eigvalsh checks here as an independent oracle. Its one eigenvalue routine,
eig_hermitian, is eigvalsh itself, so its tests use closed-form spectra
instead.
"""

import ast
import enum
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qrsgame
from qrsgame.game import HonestQuantum, partial_bsm_povm
from qrsgame.qmath import (
    DensityCheck,
    bloch_to_density,
    check_hermitian,
    eig_hermitian,
    hermiticity_defect,
    identity,
    is_density_matrix,
    is_integer,
    PSD_TOL,
    partial_trace,
    pauli,
    psd_within,
    real_trace_product,
    tensor,
)
from qrsgame.states import werner_state

from helpers import BELL_PROJECTORS, density_to_bloch


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
        """np.kron is the oracle, byte for byte: on Hermitian pairs, on
        general complex pairs and on Paulis with the identity."""
        rng = np.random.default_rng(11)
        pairs = [(random_hermitian(rng, 2), random_hermitian(rng, 2)) for _ in range(20)]
        for _ in range(2000):
            a, b = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
            pairs.append((a, b))
        ops = [identity(2), *(pauli(j) for j in (1, 2, 3))]
        pairs += [(a, b) for a in ops for b in ops]
        for a, b in pairs:
            got, want = tensor(a, b), np.kron(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

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
            assert np.allclose(partial_trace(m), b * np.trace(a))

    def test_partial_trace_identity(self):
        assert np.allclose(partial_trace(identity(4)), 2.0 * identity(2))

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = random_hermitian(rng, 4)
            assert np.isclose(np.trace(partial_trace(m)), np.trace(m))

    def test_partial_trace_rejects_qubit(self):
        with pytest.raises(ValueError, match="dimension-4"):
            partial_trace(identity(2))


class TestStackedPrimitives:
    """On a stack (..., d, d), tensor, partial_trace and real_trace_product
    give, entry by entry, the bits of a loop of 2-D calls."""

    @staticmethod
    def complex_stack(rng, shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def test_tensor_stack_is_a_loop_of_pairs(self):
        rng = np.random.default_rng(61)
        a = self.complex_stack(rng, (3, 1, 2, 2, 2))
        b = self.complex_stack(rng, (3, 2, 1, 2, 2))
        got = tensor(a, b)
        assert got.shape == (3, 2, 2, 4, 4)
        for idx in np.ndindex(3, 2, 2):
            want = tensor(a[idx[0], 0, idx[2]], b[idx[0], idx[1], 0])
            assert got[idx].tobytes() == want.tobytes()
        one = tensor(a[0, 0], b[0, 0, 0])
        assert one.shape == (2, 4, 4)
        assert all(one[k].tobytes() == tensor(a[0, 0, k], b[0, 0, 0]).tobytes() for k in (0, 1))

    def test_partial_trace_stack_is_a_loop(self):
        rng = np.random.default_rng(62)
        m = self.complex_stack(rng, (3, 2, 4, 4))
        got = partial_trace(m)
        assert got.shape == (3, 2, 2, 2)
        for idx in np.ndindex(3, 2):
            assert got[idx].tobytes() == partial_trace(m[idx]).tobytes()

    def test_real_trace_product_stack_is_a_loop(self):
        rng = np.random.default_rng(63)
        for dim in (2, 4):
            a = self.complex_stack(rng, (3, 2, 2, dim, dim))
            b = self.complex_stack(rng, (dim, dim))
            got = real_trace_product(a, b)
            assert got.shape == (3, 2, 2) and got.dtype == np.float64
            for idx in np.ndindex(3, 2, 2):
                assert got[idx] == real_trace_product(a[idx], b)
            assert type(real_trace_product(a[0, 0, 0], b)) is float

    def test_stacks_keep_the_shape_and_dimension_errors(self):
        with pytest.raises(ValueError, match="unsupported dimension 8"):
            tensor(np.zeros((3, 4, 4)), np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="square matrix"):
            tensor(np.zeros((3, 2, 3)), identity(2))
        with pytest.raises(ValueError, match="square matrix"):
            tensor(np.zeros(2), identity(2))
        with pytest.raises(ValueError, match="unsupported dimension 3"):
            partial_trace(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError, match="dimension-4"):
            partial_trace(np.zeros((5, 2, 2)))
        with pytest.raises(ValueError):
            real_trace_product(np.zeros((3, 2, 2)), identity(4))


def signed_zero_stack(rng, shape):
    # Seeded complex entries, about two in five of whose real and imaginary
    # parts are +0.0 or -0.0, so a sum started anywhere but +0.0 shows in the bits.
    m = np.empty(shape, dtype=complex)
    for part in ("real", "imag"):
        values = rng.normal(size=shape)
        draw = rng.random(shape)
        values[draw < 0.2] = 0.0
        values[draw > 0.8] = -0.0
        setattr(m, part, values)
    return m


class TestSummationOrder:
    """The trace kernels sum in numpy's own order, bit for bit, signed zeros
    included: a numpy build that reduces in another order fails here
    rather than moving a payoff or a marginal by an ulp."""

    def test_partial_trace_is_einsum_bitwise(self):
        rng = np.random.default_rng(64)
        for shape in ((4, 4), (3, 2, 4, 4), (50000, 4, 4)):
            m = signed_zero_stack(rng, shape)
            want = np.einsum("...ijil->...jl", m.reshape(shape[:-2] + (2, 2, 2, 2)))
            got = partial_trace(m)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_real_trace_product_is_numpy_trace_bitwise(self):
        rng = np.random.default_rng(65)
        for dim in (2, 4):
            for shape in ((dim, dim), (3, 2, 2, dim, dim), (20000, dim, dim)):
                a, b = signed_zero_stack(rng, shape), signed_zero_stack(rng, (dim, dim))
                want = np.trace(a @ b, axis1=-2, axis2=-1).real
                got = np.asarray(real_trace_product(a, b))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_numpy_sums_a_complex_trace_as_documented(self):
        """numpy sums a complex trace's diagonal 0.0 + ((d0 + d1) + (d2 + d3))
        for d = 4 and 0.0 + (d0 + d1) for d = 2: the orders the docstrings
        state and HonestQuantum's marginals repeat on Python floats."""
        rng = np.random.default_rng(66)
        for dim in (2, 4):
            m = signed_zero_stack(rng, (50000, dim, dim))
            diagonals = m.diagonal(axis1=-2, axis2=-1).real.tolist()
            if dim == 4:
                got = [0.0 + ((d0 + d1) + (d2 + d3)) for d0, d1, d2, d3 in diagonals]
            else:
                got = [0.0 + (d0 + d1) for d0, d1 in diagonals]
            assert np.array(got).tobytes() == m.trace(axis1=-2, axis2=-1).real.tobytes()

    def test_marginals_are_numpy_traces_bitwise(self):
        """HonestQuantum sums each marginal on Python floats; each is the bits
        of numpy's trace of its conditional state: on the Werner grid, on
        random states and on diagonal and product states with signed zeros."""
        rng = np.random.default_rng(67)
        states = [werner_state(float(w)) for w in np.linspace(0.0, 1.0, 21)]
        states += [random_density(rng, 4) for _ in range(200)]
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            p[rng.random(4) < 0.3] = rng.choice((0.0, -0.0))
            states.append(np.diag(p / p.sum()).astype(complex))
            bloch = [rng.choice((0.0, -0.0, rng.uniform(-0.5, 0.5))) for _ in range(6)]
            states.append(tensor(bloch_to_density(bloch[:3]), bloch_to_density(bloch[3:])))
        analyzer = partial_bsm_povm(0.9)
        for rho in states:
            strategy = HonestQuantum(rho, analyzer)
            want = strategy.cond_stack.trace(axis1=-2, axis2=-1).real
            assert np.array(strategy.marginals).tobytes() == want.tobytes()


class TestEigHermitian:
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
                    -BELL_PROJECTORS["PsiMinus"], np.diag([1.0, 1.0, 1.0, -1e-8])]
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
        with pytest.raises(ValueError, match="dimension 3"):
            psd_within(np.zeros((2, 3, 3)))
        for bad in (np.zeros(4), np.zeros((2, 4, 2))):
            with pytest.raises(ValueError, match="square matrix"):
                psd_within(bad)

    def test_takes_one_operator(self):
        """A stack of operators is refused, not decided."""
        for shape in ((1, 2, 2), (3, 4, 4), (2, 2, 4, 4)):
            with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
                psd_within(np.broadcast_to(identity(shape[-1]), shape))


class TestDensityChecks:
    def test_accepts_states(self):
        rng = np.random.default_rng(31)
        assert is_density_matrix(identity(2) / 2.0)
        assert is_density_matrix(BELL_PROJECTORS["PhiPlus"])
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


class TestDensityPositivityRule:
    def test_decided_by_psd_within(self):
        """Positivity of a state is the POVM rule: the exact boundary
        lambda_min = -PSD_TOL is rejected, and the failing check still
        reports that eigenvalue."""
        for dim in (2, 4):
            diag = np.full(dim, 1.0 / (dim - 1))
            diag[0] += PSD_TOL
            diag[-1] = -PSD_TOL
            boundary = np.diag(diag).astype(complex)
            check = is_density_matrix(boundary)
            assert check.hermiticity == 0.0 and check.trace_error <= 1e-15
            assert not psd_within(boundary) and not check
            assert check.min_eigenvalue == pytest.approx(-PSD_TOL, abs=1e-15)
        rng = np.random.default_rng(37)
        for _ in range(50):
            m = random_hermitian(rng, 4)
            m = m - (np.trace(m).real - 1.0) / 4.0 * identity(4)
            assert bool(is_density_matrix(m)) == psd_within(m)

    def test_passing_check_runs_no_eigensolver(self, monkeypatch):
        """A passing check carries NaN as its minimum eigenvalue; only a
        failing check computes eigenvalues, to fill in the message."""
        def refuse(m):
            raise AssertionError("eigenvalues computed for a passing check")

        monkeypatch.setattr(qrsgame.qmath, "eig_hermitian", refuse)
        check = is_density_matrix(werner_state(0.6))
        assert check and np.isnan(check.min_eigenvalue)

    def test_failure_message_bytes(self):
        check = is_density_matrix(np.diag([1.5, -0.5]).astype(complex))
        assert check.describe() == (
            "hermiticity 0.00e+00, trace error 0.00e+00, min eigenvalue -5.00e-01"
        )
        check = is_density_matrix(identity(2))
        assert check.describe() == (
            "hermiticity 0.00e+00, trace error 1.00e+00, min eigenvalue 1.00e+00"
        )


class TestBlochMaps:
    def test_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = rng.normal(size=3)
            n *= rng.random() / np.linalg.norm(n)
            rho = bloch_to_density(n)
            assert is_density_matrix(rho)
            assert np.allclose(density_to_bloch(rho), n, atol=1e-12)

    def test_closed_form_equals_pauli_sum(self):
        """Every entry has the value of the sum 1/2 + sum_i (n_i / 2) sigma_i,
        on random vectors inside and on the sphere and on signed axis
        vectors, zeros of either sign included."""
        def pauli_sum(n):
            out = 0.5 * identity(2)
            for i in (1, 2, 3):
                out += 0.5 * n[i - 1] * pauli(i)
            return out

        rng = np.random.default_rng(42)
        vectors = [np.zeros(3), -np.zeros(3)]
        for i in range(3):
            for value in (1.0, -1.0, 0.5, -0.0, 1e-300):
                n = np.zeros(3)
                n[i] = value
                vectors.append(n)
        for _ in range(2000):
            n = rng.normal(size=3)
            vectors += [n / np.linalg.norm(n), n * rng.random() / np.linalg.norm(n)]
        for n in vectors:
            got = bloch_to_density(n)
            assert got.dtype == complex and got.shape == (2, 2)
            assert np.array_equal(got, pauli_sum(n))

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


def test_only_qmath_measures_hermiticity():
    """check_hermitian is the one operator check: no module outside qmath
    calls hermiticity_defect to judge an operator on its own."""
    offenders = []
    for path in sorted(Path(qrsgame.__file__).parent.glob("*.py")):
        if path.name == "qmath.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "hermiticity_defect":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"hermiticity_defect called outside qmath: {offenders}"


class TestCheckHermitian:
    def test_returns_complex_array(self):
        m = check_hermitian([[1, 0], [0, 0]], 2, "probe")
        assert m.dtype == complex
        assert np.array_equal(m, np.diag([1.0, 0.0]))

    def test_messages_name_the_operator(self):
        with pytest.raises(ValueError, match=r"probe must be 4x4, got \(2, 2\)"):
            check_hermitian(identity(2), 4, "probe")
        with pytest.raises(ValueError, match=r"probe must be 2x2, got \(3,\)"):
            check_hermitian(np.zeros(3), 2, "probe")
        with pytest.raises(ValueError, match="probe is not finite"):
            check_hermitian(np.diag([np.nan, 1.0]), 2, "probe")
        with pytest.raises(ValueError, match="probe is not Hermitian"):
            check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 2, "probe")

    def test_density_to_bloch_needs_hermitian_qubit_operator(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            density_to_bloch(np.array([[0.5, 1.0], [0.0, 0.5]]))


class _Axis(enum.IntEnum):
    X = 1


# The integer rule, value by value: Python ints (which take a one-type-test
# fast path), numpy ints of every width and int subclasses pass; bools and
# every other number or value fail, even where it compares equal to 1.
INTEGER_RULE = (
    [(x, True) for x in (0, -3, 1, 2**70)]
    + [(t(1), True) for t in (np.int8, np.int16, np.int32, np.int64,
                              np.uint8, np.uint16, np.uint32, np.uint64)]
    + [(_Axis.X, True)]
    + [(x, False) for x in (True, False, np.True_, 1.0, 2.5, np.float64(1.0), Fraction(1),
                            Decimal(1), 1 + 0j, "1", None)]
)


def test_is_integer():
    for x, want in INTEGER_RULE:
        assert is_integer(x) is want, x
