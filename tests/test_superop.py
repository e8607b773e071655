import numpy as np
import pytest

from comdyn import oracle
from comdyn.errors import DefectiveMapError, DimensionMismatchError
from comdyn.superop import (SuperOperator, compose, devec, diagonalize, dual,
                            e_coefficients, e_reconstruct, f_coefficients,
                            f_reconstruct, hs_inner, matrix_units,
                            spectral_function, superop_inner, validate_channel,
                            vec)

from conftest import (multiset_residual, random_matrix, random_superoperator,
                      random_unitary)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def independent_choi(op: SuperOperator) -> np.ndarray:
    """Choi matrix by applying the map to matrix units and kron-assembly;
    deliberately avoids the coefficient-matrix code path."""
    d = op.dim
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, op.apply(unit))
    return choi


# ---------------------------------------------------------------------------
# inner product and vectorization
# ---------------------------------------------------------------------------

def test_hs_inner_basics():
    assert hs_inner(np.eye(2), np.eye(2)) == 2
    assert hs_inner(SIGMA_X, SIGMA_Z) == 0
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert hs_inner(e01, e01) == 1


def test_hs_inner_conjugate_linear_in_first_slot(rng):
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    lam = 0.7 - 1.2j
    assert abs(hs_inner(lam * a, b) - np.conj(lam) * hs_inner(a, b)) < 1e-12


def test_hs_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hs_inner(np.eye(2), np.eye(3))


def test_vec_devec_roundtrip(rng):
    x = random_matrix(rng, 4)
    assert np.array_equal(devec(vec(x)), x)
    # column stacking: vec of e01 (row 0, col 1) sits at index 1*2 + 0
    e01 = np.array([[0, 1], [0, 0]])
    assert np.array_equal(vec(e01), np.array([0, 0, 1, 0]))


def test_left_right_multiplication(rng):
    a, b, x = (random_matrix(rng, 3) for _ in range(3))
    op = SuperOperator.from_left_right(a, b)
    assert np.max(np.abs(op.apply(x) - a @ x @ b)) < 1e-12


def test_sandwich_and_rank_one_bases_are_orthonormal():
    units = matrix_units(2)
    sandwich = [SuperOperator.from_left_right(units[a], units[b].conj().T)
                for a in range(4) for b in range(4)]
    rank_one = [SuperOperator(2, np.outer(vec(units[a]), vec(units[b]).conj()))
                for a in range(4) for b in range(4)]
    for family in (sandwich, rank_one):
        gram = np.array([[superop_inner(p, q) for q in family] for p in family])
        assert np.max(np.abs(gram - np.eye(16))) < 1e-13


def test_sandwich_and_rank_one_completeness(rng):
    units = matrix_units(3)
    x = random_matrix(rng, 3)
    # sum_a F_aa x = tr(x) I, sum_a E_aa x = x
    sandwich_total = sum(units[a] @ x @ units[a].conj().T for a in range(9))
    assert np.max(np.abs(sandwich_total - np.trace(x) * np.eye(3))) < 1e-12
    rank_one_total = sum(units[a] * hs_inner(units[a], x) for a in range(9))
    assert np.max(np.abs(rank_one_total - x)) < 1e-12


# ---------------------------------------------------------------------------
# dual maps
# ---------------------------------------------------------------------------

def test_dual_of_identity():
    ident = SuperOperator.identity(3)
    assert np.array_equal(dual(ident).matrix, ident.matrix)


def test_dual_of_unitary_conjugation(rng):
    u = random_unitary(rng, 3)
    conj = SuperOperator.from_conjugation(u)
    inverse = SuperOperator.from_conjugation(u.conj().T)
    for _ in range(20):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = hs_inner(dual(conj).apply(a), b)
        rhs = hs_inner(a, conj.apply(b))
        assert abs(lhs - rhs) < 1e-11
    assert np.max(np.abs(dual(conj).matrix - inverse.matrix)) < 1e-12


def test_dual_is_involution(rng):
    op = random_superoperator(rng, 3)
    assert np.max(np.abs(dual(dual(op)).matrix - op.matrix)) < 1e-14


def test_duality_identity_random(rng):
    for _ in range(20):
        op = random_superoperator(rng, 3)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert abs(hs_inner(dual(op).apply(a), b)
                   - hs_inner(a, op.apply(b))) < 1e-11


# ---------------------------------------------------------------------------
# F representation (Choi coefficients)
# ---------------------------------------------------------------------------

def test_f_identity_reconstruction():
    ident = SuperOperator.identity(2)
    rebuilt = f_reconstruct(f_coefficients(ident))
    assert np.max(np.abs(rebuilt.matrix - ident.matrix)) < 1e-12


def test_f_roundtrip_random(rng):
    op = random_superoperator(rng, 3)
    rebuilt = f_reconstruct(f_coefficients(op))
    assert np.max(np.abs(rebuilt.matrix - op.matrix)) < 1e-12


def test_transpose_map_coefficient_eigenvalue():
    transpose = SuperOperator.from_action(lambda x: x.T, 2)
    coeffs = f_coefficients(transpose)
    eigs = np.linalg.eigvalsh(coeffs)
    assert abs(eigs.min() + 1.0) < 1e-12


def test_unitary_conjugation_rank_one_positive(rng):
    u = random_unitary(rng, 3)
    coeffs = f_coefficients(SuperOperator.from_conjugation(u))
    eigs = np.linalg.eigvalsh(coeffs)
    assert eigs.min() > -1e-12
    assert np.sum(eigs > 1e-9) == 1


def test_f_rejects_non_orthonormal_basis(rng):
    op = random_superoperator(rng, 2)
    basis = matrix_units(2)
    basis[0] *= 2.0
    with pytest.raises(ValueError, match="orthonormal"):
        f_coefficients(op, basis)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_choi_reshuffle_equals_the_matrix_unit_einsum(rng, dim):
    # without a basis f_coefficients reshuffles indices; an explicit basis
    # goes through the einsum, which must give the same entries exactly
    op = random_superoperator(rng, dim)
    assert np.array_equal(f_coefficients(op), f_coefficients(op, matrix_units(dim)))


def test_cp_criterion_basis_independent(rng):
    op = random_superoperator(rng, 2)
    w = random_unitary(rng, 4)
    rotated = np.stack([devec(w[:, k], 2) for k in range(4)])
    eigs_units = np.linalg.eigvals(f_coefficients(op))
    eigs_rotated = np.linalg.eigvals(f_coefficients(op, rotated))
    assert multiset_residual(eigs_units, eigs_rotated) < 1e-10


def test_cp_agrees_with_independent_choi(rng):
    for _ in range(50):
        op = random_superoperator(rng, 2)
        # hermiticity-preserving projection so cp is a real question
        coeffs = f_coefficients(op)
        op = f_reconstruct((coeffs + coeffs.conj().T) / 2)
        choi_eigs = np.linalg.eigvalsh(independent_choi(op))
        assert validate_channel(op).cp == bool(choi_eigs.min() >= -1e-10)


# ---------------------------------------------------------------------------
# E representation
# ---------------------------------------------------------------------------

def test_e_of_identity_is_identity_matrix():
    ident = SuperOperator.identity(3)
    assert np.max(np.abs(e_coefficients(ident) - np.eye(9))) < 1e-13


def test_e_roundtrip_random(rng):
    op = random_superoperator(rng, 3)
    rebuilt = e_reconstruct(e_coefficients(op))
    assert np.max(np.abs(rebuilt.matrix - op.matrix)) < 1e-12


def test_e_composition_homomorphism(rng):
    for _ in range(10):
        a = random_superoperator(rng, 3)
        b = random_superoperator(rng, 3)
        product = e_coefficients(a) @ e_coefficients(b)
        assert np.max(np.abs(e_coefficients(compose(a, b)) - product)) < 1e-11


# ---------------------------------------------------------------------------
# channel validation
# ---------------------------------------------------------------------------

def test_validate_identity():
    report = validate_channel(SuperOperator.identity(3))
    assert report.cp and report.tp and report.unital
    assert report.hermiticity_preserving


def test_validate_transpose():
    report = validate_channel(SuperOperator.from_action(lambda x: x.T, 2))
    assert not report.cp
    assert report.tp
    assert abs(report.choi_min_eigenvalue + 1.0) < 1e-12


def test_validate_completely_depolarizing():
    dim = 3
    op = SuperOperator.from_action(lambda x: np.trace(x) * np.eye(dim) / dim, dim)
    report = validate_channel(op)
    assert report.cp and report.tp and report.unital
    coeffs = f_coefficients(op)
    assert np.max(np.abs(coeffs - np.eye(dim * dim) / dim)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_validate_channel_matches_out_of_place_arithmetic(rng, dim):
    # the in-place Hermitian part must give the report of the plain
    # expressions to the bit, on maps that do and do not preserve hermiticity
    kraus = [random_matrix(rng, dim) for _ in range(3)]
    cp_map = SuperOperator.from_action(lambda x: sum(k @ x @ k.conj().T for k in kraus), dim)
    for op in (cp_map, random_superoperator(rng, dim)):
        coeffs = f_coefficients(op)
        herm_residual = float(np.max(np.abs(coeffs - coeffs.conj().T)))
        report = validate_channel(op)
        assert report.hermiticity_residual == herm_residual
        if report.hermiticity_preserving:
            min_eig = float(np.min(np.linalg.eigvalsh((coeffs + coeffs.conj().T) / 2.0)))
        else:
            min_eig = float(np.min(np.linalg.eigvals(coeffs).real))
        assert report.choi_min_eigenvalue == min_eig
    assert validate_channel(cp_map).hermiticity_preserving


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------

def test_diagonalize_identity():
    dec = diagonalize(SuperOperator.identity(2))
    assert np.max(np.abs(dec.eigenvalues - 1.0)) < 1e-12
    assert np.max(np.abs(dec.assemble().matrix - np.eye(4))) < 1e-12


def test_diagonalize_diagonal_unitary_conjugation():
    u = np.diag([1.0, 1.0j])
    dec = diagonalize(SuperOperator.from_conjugation(u))
    expected = np.array([-1j, 1j, 1.0, 1.0])
    assert multiset_residual(dec.eigenvalues, expected) < 1e-12


def test_diagonalize_biorthogonality_and_completeness(rng):
    op = random_superoperator(rng, 3)
    dec = diagonalize(op)
    g = dec.right_vectors
    h = dec.left_vectors
    gram = np.einsum("aji,bji->ab", g.conj(), h)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-9
    for _ in range(20):
        x = random_matrix(rng, 3)
        coeffs = dec.coefficients(x)
        resum = np.einsum("a,aij->ij", coeffs, g)
        assert np.max(np.abs(resum - x)) < 1e-9
    assert np.max(np.abs(dec.assemble().matrix - op.matrix)) < 1e-9


def test_diagonalize_normal_map_self_dual_basis(rng):
    u = random_unitary(rng, 2)
    conj = SuperOperator.from_conjugation(u)
    dec = diagonalize(conj)
    assert np.max(np.abs(dec.right_vectors - dec.left_vectors)) < 1e-9


def test_diagonalize_defective_map_raises():
    jordan = np.eye(4, dtype=complex)
    jordan[0, 1] = 1.0
    with pytest.raises(DefectiveMapError):
        diagonalize(SuperOperator(2, jordan))


def test_spectral_function_constant_one_is_identity(rng):
    dec = diagonalize(random_superoperator(rng, 2))
    out = spectral_function(dec, lambda z: np.ones_like(z))
    assert np.max(np.abs(out.matrix - np.eye(4))) < 1e-10


def test_spectral_function_exp_matches_oracle(rng):
    op = random_superoperator(rng, 2)
    op = SuperOperator(2, op.matrix - 0.5 * np.eye(4))
    dec = diagonalize(op)
    closed = spectral_function(dec, np.exp)
    reference = oracle.expm(op.matrix)
    assert np.max(np.abs(closed.matrix - reference)) < 1e-9


def test_spectral_function_square_matches_composition(rng):
    op = random_superoperator(rng, 2)
    dec = diagonalize(op)
    squared = spectral_function(dec, lambda z: z ** 2)
    assert np.max(np.abs(squared.matrix - (op @ op).matrix)) < 1e-9


def test_spectral_function_rejects_undefined_values():
    dec = diagonalize(SuperOperator.zero(2))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="undefined"):
            spectral_function(dec, lambda z: 1.0 / z)
