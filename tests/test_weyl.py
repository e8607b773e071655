import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comdyn import oracle
from comdyn.classical import (CirculantGenerator, LatticeField, convolve, dft,
                              propagate, relaxation)
from comdyn.errors import NormalizationError, PreconditionFailedError
from comdyn.superop import compose, diagonalize, validate_channel
from comdyn.timefn import Constant, DampedTrig
from comdyn.weyl import (WeylCoefficientField, WeylFamily, WeylSpectrum,
                         diagonal_action, embed_stochastic_matrix, evolve,
                         lindblad_decomposition, map_from_coeffs,
                         map_from_values, map_spectrum, relations_check,
                         spectrum_convention_residual, weyl_unitary)

from conftest import (assemble_reference, multiset_residual, random_matrix,
                      random_probability_values)


def generator_rates(rng, d, nparties):
    """Random zero-sum rate field with nonnegative off-origin entries."""
    size = d ** (2 * nparties)
    values = rng.uniform(0.05, 0.8, size=size)
    values[0] = 0.0
    values[0] = -values.sum()
    return values


# ---------------------------------------------------------------------------
# the unitary family
# ---------------------------------------------------------------------------

def test_shift_and_phase_qubit():
    shift = weyl_unitary(2, 0, 1)
    assert np.array_equal(shift.real, np.array([[0, 1], [1, 0]]))
    phase = weyl_unitary(2, 1, 0)
    assert np.allclose(phase, np.diag([1.0, -1.0]))


def test_orthogonality_traces_qutrit():
    u12 = weyl_unitary(3, 1, 2)
    u21 = weyl_unitary(3, 2, 1)
    assert abs(np.trace(u12.conj().T @ u12) - 3.0) < 1e-13
    assert abs(np.trace(u12.conj().T @ u21)) < 1e-13


def test_square_of_u11_is_minus_identity():
    u11 = weyl_unitary(2, 1, 1)
    assert np.max(np.abs(u11 @ u11 + np.eye(2))) < 1e-14


def test_unitarity():
    for d in (2, 3, 4):
        for m in range(d):
            for n in range(d):
                u = weyl_unitary(d, m, n)
                assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-13


@pytest.mark.parametrize("d,nparties", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
def test_relations_exhaustive(d, nparties):
    report = relations_check(WeylFamily(d, nparties))
    assert report.max_residual < 1e-12


def _scalar_relation_residuals(family):
    """Reference: the product and adjoint rules checked pair by pair."""
    d = family.d
    lam = 2j * np.pi / d
    product = adjoint = 0.0
    for a in range(family.count):
        ma, na = family.index_pair(a)
        ua = family.unitary_flat(a)
        for b in range(family.count):
            mb, nb = family.index_pair(b)
            phase = np.exp(lam * (sum(x * y for x, y in zip(ma, nb)) % d))
            target = family.flat_index(tuple((x + y) % d for x, y in zip(ma, mb)),
                                       tuple((x + y) % d for x, y in zip(na, nb)))
            product = max(product, float(np.max(np.abs(
                ua @ family.unitary_flat(b) - phase * family.unitary_flat(target)))))
        phase = np.exp(lam * (sum(x * y for x, y in zip(ma, na)) % d))
        target = family.flat_index(tuple(-x % d for x in ma), tuple(-x % d for x in na))
        adjoint = max(adjoint, float(np.max(np.abs(
            ua.conj().T - phase * family.unitary_flat(target)))))
    return product, adjoint


@pytest.mark.parametrize("d,nparties", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1)])
def test_relations_check_matches_pairwise_loop(d, nparties):
    family = WeylFamily(d, nparties)
    report = relations_check(family)
    product, adjoint = _scalar_relation_residuals(family)
    assert (report.product_residual, report.adjoint_residual) == (product, adjoint)


def _dense_relations_check(family):
    """Reference: the exhaustive check with dense (count, D, D) products,
    one batched product u_a @ stack per a."""
    d, npar = family.d, family.nparties
    count = family.count
    stack = np.stack([family.unitary_flat(k) for k in range(count)])
    digits = np.indices((d,) * (2 * npar)).reshape(2 * npar, count).T
    place = d ** np.arange(2 * npar - 1, -1, -1)
    ms, ns = digits[:, :npar], digits[:, npar:]

    lam = 2j * np.pi / d
    product_residual = 0.0
    for a in range(count):
        phases = np.exp(lam * ((ns @ ms[a]) % d))
        targets = ((digits[a] + digits) % d) @ place
        res = float(np.max(np.abs(stack[a] @ stack
                                  - phases[:, None, None] * stack[targets])))
        product_residual = max(product_residual, res)

    phases = np.exp(lam * (np.sum(ms * ns, axis=1) % d))
    targets = ((-digits) % d) @ place
    adjoint_residual = float(np.max(np.abs(
        stack.conj().swapaxes(1, 2) - phases[:, None, None] * stack[targets])))

    cols = family.vec_columns()
    gram = cols.conj().T @ cols
    orthogonality_residual = float(np.max(np.abs(
        gram - family.dim * np.eye(count))))
    return (product_residual, adjoint_residual, orthogonality_residual)


@pytest.mark.parametrize("d,nparties", [(2, 4), (4, 2)])
def test_relations_check_matches_dense_products(d, nparties):
    family = WeylFamily(d, nparties)
    report = relations_check(family)
    assert (report.product_residual, report.adjoint_residual,
            report.orthogonality_residual) == _dense_relations_check(family)


def _corruptible_family(d, nparties):
    """A family whose stack is its own copy, so corrupting it leaves the
    cached unitaries of other families alone."""
    family = WeylFamily(d, nparties)
    family._stack = family._stack.copy()
    return family


def _support(family):
    return np.argmax(np.abs(family._stack), axis=1)


def _flip_support_phase(family):
    family._stack[5, _support(family)[5, 3], 3] *= -1.0


def _swap_unitaries(family):
    # two shifts u_{0,n}: equal entries on different rows
    family._stack[[1, 2]] = family._stack[[2, 1]]


def _raise_an_exact_zero(family):
    row = (_support(family)[7, 2] + 1) % family.dim
    assert family._stack[7, row, 2] == 0.0
    family._stack[7, row, 2] = 1e-13


def _replace_by_a_dense_unitary(family):
    # the normalized DFT matrix: unitary, with no zero entry
    k = np.arange(family.dim)
    family._stack[11] = np.exp(2j * np.pi * np.outer(k, k) / family.dim) / np.sqrt(family.dim)


@pytest.mark.parametrize("corrupt,off_support", [
    (_flip_support_phase, False), (_swap_unitaries, False),
    (_replace_by_a_dense_unitary, True), (_raise_an_exact_zero, True)])
@pytest.mark.parametrize("d,nparties", [(2, 3), (3, 2)])
def test_relations_check_never_falls_below_the_dense_check_on_a_corrupt_stack(
        d, nparties, corrupt, off_support):
    family = _corruptible_family(d, nparties)
    corrupt(family)
    report = relations_check(family)
    product, _, _ = _dense_relations_check(family)
    assert report.product_residual >= product
    if not off_support:
        # the column form holds every nonzero entry the dense products see
        assert report.product_residual == product
    if corrupt is _raise_an_exact_zero:
        # the dense residual stays near 1e-13 and passes, while the bound
        # adds (2 D s + 1) 1e-13 and fails
        assert product < 1e-12 <= report.product_residual
    else:
        assert not report.passed() and product >= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (3, 1), (2, 3)]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          st.integers(0, 10 ** 6), st.floats(-16.0, -1.0),
                          st.floats(0.0, 2 * np.pi)), min_size=1, max_size=4))
def test_relations_check_bounds_the_dense_check_under_sparse_perturbations(
        shape, perturbations):
    family = _corruptible_family(*shape)
    support = _support(family)
    off_support = False
    for k, i, j, exponent, angle in perturbations:
        k, i, j = k % family.count, i % family.dim, j % family.dim
        family._stack[k, i, j] += 10.0 ** exponent * np.exp(1j * angle)
        off_support |= bool(i != support[k, j])
    report = relations_check(family)
    product, _, _ = _dense_relations_check(family)
    if off_support:
        assert report.product_residual >= product
    else:
        # on the support alone the two checks take the maximum over the same
        # entries, but BLAS rounds each complex product with a fused
        # multiply-add where numpy rounds twice: one ulp of the largest
        # product apart, in either direction
        scale = float(np.max(np.abs(family._stack))) ** 2
        assert abs(report.product_residual - product) <= 4 * np.finfo(float).eps * scale


def test_relations_check_memory_peak_stays_below_the_dense_check():
    family = WeylFamily(2, 4)
    tracemalloc.start()
    try:
        relations_check(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense check peaked at 4.88 MB on a fresh D = 16 family
    assert peak <= 4_875_000


@pytest.mark.parametrize("d,nparties", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_spectrum_phase_kernel_convention(d, nparties):
    assert spectrum_convention_residual(d, nparties) < 1e-10


def test_family_index_roundtrip():
    family = WeylFamily(3, 2)
    for flat in range(family.count):
        m, n = family.index_pair(flat)
        assert family.flat_index(m, n) == flat


@pytest.mark.parametrize("d,nparties", [(2, 1), (2, 3), (2, 4), (3, 2), (4, 2),
                                        (5, 2), (3, 3), (2, 5)])
def test_family_stack_is_bit_identical_to_per_unitary_kron(d, nparties):
    # the batched build must reproduce reduce(np.kron, ...) to the bit,
    # signed zeros included
    family = WeylFamily(d, nparties)
    assert family._stack.shape == (family.count, family.dim, family.dim)
    for flat in range(family.count):
        assert (family._stack[flat].tobytes()
                == weyl_unitary(d, *family.index_pair(flat)).tobytes()), flat


@pytest.mark.parametrize("d,nparties", [(2, 1), (3, 2), (2, 4), (4, 2)])
def test_vec_columns_copy_the_stack_column_by_column(d, nparties):
    family = WeylFamily(d, nparties)
    cols = family.vec_columns()
    reference = np.stack([family.unitary_flat(k).reshape(-1, order="F")
                          for k in range(family.count)], axis=1)
    assert cols.flags.c_contiguous and cols.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# maps from coefficient fields
# ---------------------------------------------------------------------------

def test_unit_field_gives_identity_map():
    values = np.zeros(4)
    values[0] = 1.0
    field = WeylCoefficientField.constant(2, 1, values)
    assert np.max(np.abs(map_from_coeffs(field).matrix - np.eye(4))) < 1e-13


def test_uniform_field_is_completely_depolarizing(rng):
    field = WeylCoefficientField.constant(2, 1, np.full(4, 0.25))
    op = map_from_coeffs(field)
    x = random_matrix(rng, 2)
    expected = np.trace(x) * np.eye(2) / 2.0
    assert np.max(np.abs(op.apply(x) - expected)) < 1e-13


def test_probability_field_gives_cptp_unital(rng):
    field = WeylCoefficientField.constant(3, 1, random_probability_values(rng, 9))
    report = validate_channel(map_from_coeffs(field))
    assert report.cp and report.tp and report.unital


def test_real_field_preserves_hermiticity(rng):
    field = WeylCoefficientField.constant(2, 1, rng.normal(size=4))
    op = map_from_coeffs(field)
    for _ in range(20):
        x = random_matrix(rng, 2)
        assert np.max(np.abs(op.apply(x.conj().T) - op.apply(x).conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# spectrum and projectors
# ---------------------------------------------------------------------------

def test_spectrum_of_unit_field_is_ones():
    values = np.zeros(4)
    values[0] = 1.0
    field = WeylCoefficientField.constant(2, 1, values)
    assert np.max(np.abs(map_spectrum(field).eigenvalues.values - 1.0)) < 1e-13


def test_weyl_matrices_are_eigenvectors(rng):
    field = WeylCoefficientField.constant(2, 1, rng.normal(size=4))
    op = map_from_coeffs(field)
    spectrum = map_spectrum(field)
    family = WeylFamily(2, 1)
    for flat in range(family.count):
        u = family.unitary_flat(flat)
        value = spectrum.eigenvalues.values[flat]
        assert np.max(np.abs(op.apply(u) - value * u)) < 1e-11


def test_projector_algebra(rng):
    field = WeylCoefficientField.constant(2, 1, rng.normal(size=4))
    spectrum = map_spectrum(field)
    family = WeylFamily(2, 1)
    projectors = [spectrum.projector(*family.index_pair(k))
                  for k in range(family.count)]
    total = sum(p.matrix for p in projectors)
    assert np.max(np.abs(total - np.eye(4))) < 1e-11
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            product = (p @ q).matrix
            expected = p.matrix if i == j else 0.0
            assert np.max(np.abs(product - expected)) < 1e-11


def test_spectrum_matches_generic_diagonalization(rng):
    field = WeylCoefficientField.constant(3, 1, rng.normal(size=9))
    op = map_from_coeffs(field)
    dec = diagonalize(op)
    assert multiset_residual(dec.eigenvalues,
                             map_spectrum(field).eigenvalues.values) < 1e-9


# ---------------------------------------------------------------------------
# commutativity and convolution of coefficient fields
# ---------------------------------------------------------------------------

def test_maps_commute_and_compose_by_convolution(rng):
    a_vals = rng.normal(size=16) + 1j * rng.normal(size=16)
    b_vals = rng.normal(size=16) + 1j * rng.normal(size=16)
    field_a = WeylCoefficientField.constant(4, 1, a_vals)
    field_b = WeylCoefficientField.constant(4, 1, b_vals)
    op_a, op_b = map_from_coeffs(field_a), map_from_coeffs(field_b)
    assert np.max(np.abs((op_a @ op_b).matrix - (op_b @ op_a).matrix)) < 1e-11
    conv = convolve(LatticeField(4, 2, a_vals), LatticeField(4, 2, b_vals))
    op_conv = map_from_coeffs(WeylCoefficientField.constant(4, 1, conv.values))
    assert np.max(np.abs(compose(op_a, op_b).matrix - op_conv.matrix)) < 1e-11


# ---------------------------------------------------------------------------
# Lindblad structure
# ---------------------------------------------------------------------------

def test_lindblad_zero_field():
    field = WeylCoefficientField.constant(2, 1, np.zeros(4))
    dec = lindblad_decomposition(field)
    assert np.max(np.abs(dec.assemble().matrix)) < 1e-14


def test_lindblad_dephasing_single_jump():
    gamma = 0.7
    # a(0,1) = gamma pairs with the jump unitary u_{1,0} (phase operator)
    values = np.array([-gamma, gamma, 0.0, 0.0])
    field = WeylCoefficientField.constant(2, 1, values)
    dec = lindblad_decomposition(field)
    active = [(pos, r) for pos, r in enumerate(dec.rates) if abs(r) > 0]
    assert len(active) == 1
    pos, rate = active[0]
    assert abs(rate - gamma) < 1e-14
    assert np.allclose(dec.jump_operator(pos), np.diag([1.0, -1.0]))
    assert np.max(np.abs(dec.assemble().matrix
                         - map_from_coeffs(field).matrix)) < 1e-13
    assert dec.markovian


def test_lindblad_reconstruction_and_trace_annihilation(rng):
    field = WeylCoefficientField.constant(3, 1, generator_rates(rng, 3, 1))
    gen = map_from_coeffs(field)
    dec = lindblad_decomposition(field)
    assert np.max(np.abs(dec.assemble().matrix - gen.matrix)) < 1e-12
    ident = np.eye(3)
    assert np.max(np.abs(gen.apply(ident))) < 1e-12
    from comdyn.superop import dual
    assert np.max(np.abs(dual(gen).apply(ident))) < 1e-12


def test_lindblad_requires_zero_sum():
    field = WeylCoefficientField.constant(2, 1, [0.1, 0.5, 0.0, 0.0])
    with pytest.raises(NormalizationError):
        lindblad_decomposition(field)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_evolve_initial_condition(rng):
    field = WeylCoefficientField.constant(2, 1, generator_rates(rng, 2, 1))
    out = evolve(field, 0.5, 0.5)
    assert np.max(np.abs(out.matrix - np.eye(4))) < 1e-13


def test_evolve_constant_matches_exponential(rng):
    field = WeylCoefficientField.constant(3, 1, generator_rates(rng, 3, 1))
    tau = 1.4
    closed = evolve(field, 0.2, 0.2 + tau)
    reference = oracle.expm(tau * map_from_coeffs(field).matrix)
    assert np.max(np.abs(closed.matrix - reference)) < 1e-9


def test_evolve_time_dependent_matches_ordered_product():
    base = np.array([0.0, 0.6, 0.3, 0.8])
    field = WeylCoefficientField(2, 1, tuple(
        Constant(0.0) if k == 0 else
        DampedTrig.sin(amplitude=0.3 * base[k], offset=base[k])
        for k in range(4)))
    # close the zero-sum constraint: a(0,0) = -(sum of the others)
    others = [field.coefficients[k] for k in range(1, 4)]
    total = others[0] + others[1] + others[2]
    field = WeylCoefficientField(2, 1, (-1.0 * total,) + tuple(others))
    closed = evolve(field, 0.0, 2.0, "markov")
    reference = oracle.ordered_exp(
        lambda u: map_from_coeffs(field, u).matrix, 0.0, 2.0, 4096)
    assert np.max(np.abs(closed.matrix - reference)) < 1e-7


def test_evolve_produces_cptp_unital(rng):
    field = WeylCoefficientField.constant(2, 2, generator_rates(rng, 2, 2))
    out = evolve(field, 0.0, 0.9)
    report = validate_channel(out)
    assert report.cp and report.tp and report.unital
    assert report.unital_residual < 1e-12


def test_evolve_rejects_invalid_rates():
    field = WeylCoefficientField.constant(2, 1, [0.5, -0.5, 0.0, 0.0])
    with pytest.raises(PreconditionFailedError):
        evolve(field, 0.0, 1.0)


def test_evolve_nonmarkov_homogeneous(rng):
    values = generator_rates(rng, 2, 1)
    field = WeylCoefficientField(2, 1, tuple(
        DampedTrig.exp(amplitude=v, decay=-0.7) for v in values))
    a = evolve(field, 0.25, 1.0, "nonmarkov")
    b = evolve(field, 1.25, 2.0, "nonmarkov")
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# diagonal (population) dynamics
# ---------------------------------------------------------------------------

def test_diagonal_action_of_unit_field():
    values = np.zeros(4)
    values[0] = 1.0
    field = WeylCoefficientField.constant(2, 1, values)
    gen = diagonal_action(field)
    assert np.allclose(gen.rates(0.0).values, [1.0, 0.0])


def test_diagonal_action_reflects_row_sums():
    # mass at (m, n) = (1, 0) shifts populations down by one site
    values = np.zeros(9)
    values[3] = 1.0   # flat index of (m, n) = (1, 0) for d = 3
    field = WeylCoefficientField.constant(3, 1, values)
    gen = diagonal_action(field)
    assert np.allclose(gen.rates(0.0).values.real, [0.0, 0.0, 1.0])


def test_diagonal_states_evolve_classically(rng):
    d = 3
    field = WeylCoefficientField.constant(d, 1, generator_rates(rng, d, 1))
    tau = 0.9
    quantum = evolve(field, 0.0, tau)
    p0 = random_probability_values(rng, d)
    rho0 = np.diag(p0).astype(complex)
    diag_quantum = np.real(np.diag(quantum.apply(rho0)))
    pop_gen = diagonal_action(field)
    pop_kernel = propagate(pop_gen, 0.0, tau)
    classical_result = convolve(pop_kernel, LatticeField(d, 1, p0)).values.real
    assert np.max(np.abs(diag_quantum - classical_result)) < 1e-10


def test_diagonal_states_evolve_classically_time_dependent(rng):
    d = 2
    base = generator_rates(rng, d, 1)
    field = WeylCoefficientField(d, 1, tuple(
        DampedTrig.sin(amplitude=0.4 * v, offset=v) for v in base))
    tau = 1.3
    quantum = evolve(field, 0.0, tau)
    p0 = random_probability_values(rng, d)
    rho0 = np.diag(p0).astype(complex)
    diag_quantum = np.real(np.diag(quantum.apply(rho0)))
    pop_kernel = propagate(diagonal_action(field), 0.0, tau)
    classical_result = convolve(pop_kernel, LatticeField(d, 1, p0)).values.real
    assert np.max(np.abs(diag_quantum - classical_result)) < 1e-10


def test_literal_row_sum_disagrees_on_asymmetric_fields(rng):
    # documents why the reflected sum is the population generator
    d = 3
    values = generator_rates(rng, d, 1)
    field = WeylCoefficientField.constant(d, 1, values)
    tau = 0.8
    quantum = evolve(field, 0.0, tau)
    p0 = random_probability_values(rng, d)
    diag_quantum = np.real(np.diag(quantum.apply(np.diag(p0).astype(complex))))
    literal = values.reshape(d, d).sum(axis=1)
    literal_kernel = propagate(CirculantGenerator.constant(d, 1, literal), 0.0, tau)
    literal_result = convolve(literal_kernel, LatticeField(d, 1, p0)).values.real
    assert np.max(np.abs(diag_quantum - literal_result)) > 1e-4


def test_embedded_stochastic_matrix_acts_on_diagonal(rng):
    d = 3
    gen = CirculantGenerator.constant(d, 1, [-1.1, 0.7, 0.4])
    tau = 0.6
    kernel = propagate(gen, 0.0, tau)
    from comdyn.classical import circulant_from_field
    transition = circulant_from_field(kernel).real
    embedded = embed_stochastic_matrix(transition)
    p0 = random_probability_values(rng, d)
    rho_t = embedded.apply(np.diag(p0).astype(complex))
    assert np.max(np.abs(np.diag(rho_t).real - transition @ p0)) < 1e-12
    assert np.max(np.abs(rho_t - np.diag(np.diag(rho_t)))) < 1e-14


# ---------------------------------------------------------------------------
# map_from_values as one matrix product
# ---------------------------------------------------------------------------

def map_from_values_reference(family, values):
    """sum a(m, n) conj(u) (x) u over u = u_{n,-m}, one Kronecker product
    per nonzero coefficient."""
    dim = family.dim
    matrix = np.zeros((dim * dim, dim * dim), dtype=complex)
    for flat in range(family.count):
        coeff = values.values[flat]
        if coeff == 0:
            continue
        m, n = family.index_pair(flat)
        u = family.unitary(n, tuple((-x) % family.d for x in m))
        matrix += coeff * np.kron(u.conj(), u)
    return matrix


@pytest.mark.parametrize("kind", ["complex", "physical"])
@pytest.mark.parametrize("d,nparties", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                        (4, 2), (2, 4), (2, 5)])
def test_assemble_matches_the_dense_reference_on_its_support(d, nparties, kind):
    # complex coefficients give a non-Hermitian eigenvalue field with no
    # symmetry under (m, n) -> (-m, -n); a probability field gives a channel
    rng = np.random.default_rng(100 * d + nparties)
    count = d ** (2 * nparties)
    values = (rng.standard_normal(count) + 1j * rng.standard_normal(count)
              if kind == "complex" else random_probability_values(rng, count))
    spectrum = WeylSpectrum(dft(LatticeField(d, 2 * nparties, values)))
    got = spectrum.assemble().matrix
    reference = assemble_reference(spectrum)
    assert np.max(np.abs(got - reference)) <= spectrum.rounding_bound()
    # D^3 nonzero entries, D per row, where the reference has them; every
    # other entry is +0.0
    dim = spectrum.dim
    assert np.count_nonzero(got) == dim ** 3
    assert np.array_equal(got != 0, reference != 0)
    assert not np.signbit(got.view(float)[(got == 0).repeat(2, axis=1)]).any()


@pytest.mark.parametrize("d,nparties", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_map_from_values_matches_kronecker_sum(rng, d, nparties):
    family = WeylFamily(d, nparties)
    for _ in range(3):
        # complex coefficients of unit l1 norm, about a third of them zero
        values = rng.normal(size=family.count) + 1j * rng.normal(size=family.count)
        values[rng.uniform(size=family.count) < 0.3] = 0.0
        values /= np.sum(np.abs(values))
        field = LatticeField(d, 2 * nparties, values)
        got = map_from_values(family, field).matrix
        assert np.max(np.abs(got - map_from_values_reference(family, field))) <= 1e-15


def test_conjugation_index_pairs_each_coefficient_with_u_n_minus_m():
    family = WeylFamily(3, 2)
    index = family.conjugation_index()
    for flat in range(family.count):
        m, n = family.index_pair(flat)
        assert index[flat] == family.flat_index(n, tuple((-x) % 3 for x in m))
    assert family.conjugation_index() is index


# ---------------------------------------------------------------------------
# the channel report from the spectrum
# ---------------------------------------------------------------------------

REPORT_FLAGS = ("cp", "tp", "unital", "hermiticity_preserving")
REPORT_FIGURES = ("choi_min_eigenvalue", "tp_residual", "unital_residual",
                  "hermiticity_residual")


def _coefficient_field(rng, kind, count):
    """A coefficient field p whose channel the report classifies as ``kind``."""
    if kind == "complex":          # neither CP, TP nor Hermiticity preserving
        return rng.standard_normal(count) + 1j * rng.standard_normal(count)
    if kind == "real-non-cp":      # TP and Hermiticity preserving, not CP
        values = rng.uniform(-0.3, 1.0, count)
        values[1] = -0.5
        return values / values.sum()
    probability = random_probability_values(rng, count)
    if kind == "scaled":           # CP, not TP
        return 0.5 * probability
    return probability             # a unital channel


@pytest.mark.parametrize("kind,expected", [
    ("complex", (False, False, False, False)),
    ("real-non-cp", (False, True, True, True)),
    ("scaled", (True, False, False, True)),
    ("physical", (True, True, True, True))])
@pytest.mark.parametrize("d,nparties", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1),
                                        (2, 4), (2, 5)])
def test_channel_report_agrees_with_the_dense_report(d, nparties, kind, expected):
    rng = np.random.default_rng(1000 * d + 10 * nparties + len(kind))
    family = WeylFamily(d, nparties)
    values = _coefficient_field(rng, kind, family.count)
    spectrum = WeylSpectrum(dft(LatticeField(d, 2 * nparties, values)))
    report = spectrum.channel_report()
    dense = validate_channel(spectrum.assemble())
    assert tuple(getattr(report, f) for f in REPORT_FLAGS) == expected
    assert tuple(getattr(dense, f) for f in REPORT_FLAGS) == expected
    atol = spectrum.rounding_bound()
    for name in REPORT_FIGURES:
        assert abs(getattr(report, name) - getattr(dense, name)) <= atol, name
    assert report.tol == dense.tol
    assert report.agrees_with(dense, atol)


@pytest.mark.parametrize("d,nparties,mode", [(2, 2, "markov"), (3, 1, "nonmarkov"),
                                             (2, 4, "markov")])
def test_channel_report_of_an_evolved_channel(d, nparties, mode):
    rng = np.random.default_rng(7)
    field = WeylCoefficientField.constant(d, nparties, generator_rates(rng, d, nparties))
    relax = relaxation(field.as_circulant(), 0.5, 1.5, mode)
    spectrum = WeylSpectrum(relax)
    report = spectrum.channel_report()
    dense = validate_channel(spectrum.assemble())
    assert report.cp and report.tp and report.unital and report.hermiticity_preserving
    assert report.agrees_with(dense, spectrum.rounding_bound())
    # the map is Hermiticity preserving in exact arithmetic; the dense report
    # reads its rounding, the spectral one the transform of Im p
    assert report.hermiticity_residual <= 1e-15


def test_channel_report_applies_its_tolerance():
    values = np.array([1.0 + 2e-9, -1e-9, 0.0, 0.0])
    spectrum = WeylSpectrum(dft(LatticeField(2, 2, values)))
    loose, tight = spectrum.channel_report(1e-8), spectrum.channel_report(1e-10)
    assert loose.cp and loose.tp and loose.unital
    assert not (tight.cp or tight.tp or tight.unital)
    assert (loose.tol, tight.tol) == (1e-8, 1e-10)
    for tol in (1e-8, 1e-10):
        dense = validate_channel(spectrum.assemble(), tol)
        assert spectrum.channel_report(tol).agrees_with(dense, spectrum.rounding_bound())


def test_agreement_needs_equal_flags_and_close_figures():
    spectrum = WeylSpectrum(dft(LatticeField(2, 2, [0.7, 0.1, 0.1, 0.1])))
    report = spectrum.channel_report()
    atol = spectrum.rounding_bound()
    assert report.agrees_with(report, 0.0)
    fields = report.as_dict()
    for name in REPORT_FLAGS:
        flipped = type(report)(**dict(fields, **{name: not fields[name]}))
        assert not report.agrees_with(flipped, atol)
    for name in REPORT_FIGURES:
        moved = type(report)(**dict(fields, **{name: fields[name] + 2 * atol}))
        assert not report.agrees_with(moved, atol)
        assert report.agrees_with(moved, 2 * atol)
    assert not report.agrees_with(type(report)(**dict(fields, tol=1e-8)), atol)
