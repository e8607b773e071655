"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts, so the suite is green exactly when every criterion holds.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.integrate import quad

from comdyn import oracle, qubit, weyl
from comdyn.classical import (CirculantGenerator, LatticeField,
                              circulant_matrix, composition_check, convolve,
                              propagate)
from comdyn.generators import (CommutingGeneratorSet, MixtureSpec,
                               mixture_generator_eigenvalues, mixture_map,
                               resolvent_channel, resolvent_generator)
from comdyn.kernel import (ExponentialMixtureSignal, kernel_hat, laplace,
                           memory_kernel, mode_signal, volterra_check)
from comdyn.qubit import (QubitGeneratorSpec, build_generator, classify,
                          damping_basis, gamma_eigenvalue, spectral_projector,
                          v_conjugation)
from comdyn.superop import SuperOperator, validate_channel
from comdyn.timefn import Constant, DampedTrig
from comdyn.weyl import (WeylCoefficientField, diagonal_action, evolve,
                         map_from_coeffs, relations_check)

from conftest import (multiset_residual, random_kolmogorov_rates,
                      random_probability_values, random_unital_tp_generator)

SEED = 987654321


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_1_weyl_algebra_identities():
    worst = 0.0
    for d, npar in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)):
        rep = relations_check(weyl.WeylFamily(d, npar))
        worst = max(worst, rep.max_residual)
    report(1, "Weyl product/adjoint/orthogonality identities, exhaustive "
              "over d^N <= 9", worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_2_cp_criterion_and_probability_channels():
    rng = np.random.default_rng(SEED)
    worst_choi = 0.0
    worst_tp = 0.0
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        values = random_probability_values(rng, d * d)
        op = map_from_coeffs(WeylCoefficientField.constant(d, 1, values))
        rep = validate_channel(op)
        worst_choi = min(worst_choi, rep.choi_min_eigenvalue)
        worst_tp = max(worst_tp, rep.tp_residual)
    transpose = SuperOperator.from_action(lambda x: x.T, 2)
    transpose_rep = validate_channel(transpose)
    witness_ok = (not transpose_rep.cp
                  and abs(transpose_rep.choi_min_eigenvalue + 1.0) < 1e-12)
    passed = worst_choi >= -1e-10 and worst_tp < 1e-12 and witness_ok
    report(2, "50 random probability fields are CP with unital duals; the "
              "transpose map is rejected with witness -1",
           passed, f"min Choi eig {worst_choi:.2e}, max tp residual "
                   f"{worst_tp:.2e}, transpose witness "
                   f"{transpose_rep.choi_min_eigenvalue:.12f}")


def test_criterion_3_classical_closed_form_vs_exponential():
    rng = np.random.default_rng(SEED + 1)
    shapes = [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (5, 2)]
    worst = 0.0
    for trial in range(20):
        d, npar = shapes[trial % len(shapes)]
        gen = CirculantGenerator.constant(d, npar,
                                          random_kolmogorov_rates(rng, d, npar))
        t0, t = 0.3, 0.3 + rng.uniform(0.5, 2.0)
        closed = propagate(gen, t0, t).values
        dense = oracle.expm((t - t0) * circulant_matrix(gen))
        reference = dense @ LatticeField.unit(d, npar).values
        worst = max(worst, float(np.max(np.abs(closed - reference))))
    gamma, t = 0.7, 1.9
    two_site = propagate(CirculantGenerator.constant(2, 1, [-gamma, gamma]),
                         0.0, t).values
    law = np.array([(1 + np.exp(-2 * gamma * t)) / 2,
                    (1 - np.exp(-2 * gamma * t)) / 2])
    analytic = float(np.max(np.abs(two_site - law)))
    passed = worst < 1e-9 and analytic < 1e-12
    report(3, "closed-form stochastic propagation matches the dense "
              "exponential (20 random generators, d^N <= 25)",
           passed, f"max oracle residual {worst:.2e}, two-site law "
                   f"{analytic:.2e}")


def test_criterion_4_composition_laws():
    rng = np.random.default_rng(SEED + 2)
    gen = CirculantGenerator(3, 1, (
        DampedTrig.sin(amplitude=-0.5, offset=-1.5),
        DampedTrig.sin(amplitude=0.3, offset=0.9),
        DampedTrig.sin(amplitude=0.2, offset=0.6)))
    worst_markov = 0.0
    for _ in range(10):
        u, s, t = np.sort(rng.uniform(0.0, 3.0, size=3))
        rep = composition_check(gen, t, s, u, "markov")
        worst_markov = max(worst_markov, rep.composition_residual)

    homogeneous = CirculantGenerator(2, 1, (
        DampedTrig.exp(amplitude=-1.0, decay=-1.0),
        DampedTrig.exp(amplitude=1.0, decay=-1.0)))
    crafted = composition_check(homogeneous, 2.0, 1.0, 0.0, "nonmarkov")
    passed = (worst_markov < 1e-10
              and crafted.homogeneity_residual < 1e-12
              and crafted.composition_residual > 1e-2)
    report(4, "Markov composition law holds; homogeneous dynamics is "
              "shift-invariant yet violates composition on a crafted case",
           passed, f"markov residual {worst_markov:.2e}, homogeneity "
                   f"{crafted.homogeneity_residual:.2e}, violation "
                   f"{crafted.composition_residual:.2e}")


def test_criterion_5_commutative_families_vs_time_ordered_product():
    steps = 4096
    horizon = 2.0

    classical_gen = CirculantGenerator(3, 1, (
        DampedTrig.sin(amplitude=-0.4, offset=-1.3),
        DampedTrig.sin(amplitude=0.3, offset=0.8),
        DampedTrig.sin(amplitude=0.1, offset=0.5)))
    closed_c = propagate(classical_gen, 0.0, horizon).values
    ordered = oracle.ordered_exp(
        lambda u: circulant_matrix(classical_gen, u), 0.0, horizon, steps)
    res_classical = float(np.max(np.abs(
        closed_c - ordered @ LatticeField.unit(3, 1).values)))

    others = (DampedTrig.sin(amplitude=0.2, offset=0.6),
              DampedTrig.sin(amplitude=0.1, offset=0.4),
              DampedTrig.sin(amplitude=0.25, offset=0.9))
    total = others[0] + others[1] + others[2]
    field = WeylCoefficientField(2, 1, (-1.0 * total,) + others)
    closed_w = evolve(field, 0.0, horizon, "markov")
    ordered_w = oracle.ordered_exp(
        lambda u: map_from_coeffs(field, u).matrix, 0.0, horizon, steps)
    res_weyl = float(np.max(np.abs(closed_w.matrix - ordered_w)))

    spec = QubitGeneratorSpec(
        epsilon=Constant(0.2), gamma=DampedTrig.sin(offset=1.0),
        c=((Constant(0.1), Constant(0.0)), (Constant(0.0), Constant(0.3))),
        mu=0.4)
    closed_q = qubit.propagate(spec, 0.0, horizon)
    ordered_q = oracle.ordered_exp(
        lambda u: build_generator(spec, u).matrix, 0.0, horizon, steps)
    res_qubit = float(np.max(np.abs(closed_q.matrix - ordered_q)))

    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)

    def noncommuting(t):
        h = np.cos(t) * sx + np.sin(t) * sz
        return -1j * (np.kron(np.eye(2), h) - np.kron(h.T, np.eye(2)))

    ordered_nc = oracle.ordered_exp(noncommuting, 0.0, horizon, steps)
    nodes = np.linspace(0.0, horizon, 4001)
    integrated = np.trapezoid(np.stack([noncommuting(t) for t in nodes]),
                              nodes, axis=0)
    res_control = float(np.max(np.abs(ordered_nc - oracle.expm(integrated))))

    passed = (max(res_classical, res_weyl, res_qubit) < 1e-7
              and res_control > 1e-3)
    report(5, "time-ordered product at 4096 steps matches the closed "
              "spectral forms; the noncommuting control disagrees",
           passed, f"classical {res_classical:.2e}, weyl {res_weyl:.2e}, "
                   f"qubit {res_qubit:.2e}, control {res_control:.2e}")


def test_criterion_6_resolvents_and_mixtures():
    rng = np.random.default_rng(SEED + 3)
    worst_choi = 0.0
    cptp_ok = True
    for _ in range(5):
        gen = random_unital_tp_generator(rng, 2)
        for k in (0, 1, 2, 3):
            for s in (0.5, 1.0, 10.0):
                rep = validate_channel(resolvent_channel(gen, s, k))
                cptp_ok = cptp_ok and rep.cp and rep.tp and rep.unital
                worst_choi = min(worst_choi, rep.choi_min_eigenvalue)

    gen = random_unital_tp_generator(rng, 2)
    worst_comm = 0.0
    derived = [resolvent_generator(gen, 1.0, k) for k in (0, 1, 2, 3)]
    for i, a in enumerate(derived):
        for b in derived[i + 1:]:
            comm = a.matrix @ b.matrix - b.matrix @ a.matrix
            worst_comm = max(worst_comm, float(np.linalg.norm(comm, 2)))

    v1 = np.array([-0.8, 0.5, 0.3, 0.0])
    v2 = np.array([-1.1, 0.2, 0.0, 0.9])
    pair = [map_from_coeffs(WeylCoefficientField.constant(2, 1, v)) for v in (v1, v2)]
    cset = CommutingGeneratorSet.from_generators(pair)
    spec = MixtureSpec((DampedTrig.exp(amplitude=1.0, decay=-1.0),
                        DampedTrig.exp(amplitude=-1.0, decay=-1.0, offset=1.0)),
                       cset)
    tau = 1.3
    direct = mixture_map(spec, 0.0, tau)
    exponents = np.empty(4, dtype=complex)
    for alpha in range(4):
        re = quad(lambda u: mixture_generator_eigenvalues(spec, u)[alpha].real,
                  0.0, tau, limit=200)[0]
        im = quad(lambda u: mixture_generator_eigenvalues(spec, u)[alpha].imag,
                  0.0, tau, limit=200)[0]
        exponents[alpha] = re + 1j * im
    spectral = cset.basis.assemble(np.exp(exponents))
    res_mixture = float(np.max(np.abs(direct.matrix - spectral.matrix)))

    const_spec = MixtureSpec((Constant(0.3), Constant(0.7)), cset)
    res_literal = max(
        float(np.max(np.abs(
            mixture_generator_eigenvalues(const_spec, t)
            - mixture_generator_eigenvalues(const_spec, t, literal=True))))
        for t in (0.4, 1.1, 2.6))

    passed = (cptp_ok and worst_choi >= -1e-10 and worst_comm < 1e-11
              and res_mixture < 1e-8 and res_literal < 1e-12)
    report(6, "resolvent channels are CPTP unital with commuting derived "
              "generators; mixtures match their local-generator integrals",
           passed, f"min Choi {worst_choi:.2e}, commutator {worst_comm:.2e}, "
                   f"mixture {res_mixture:.2e}, literal {res_literal:.2e}")


def test_criterion_7_memory_kernel_correspondence():
    sig = ExponentialMixtureSignal([0.35, 0.65], [-0.6, -1.7])
    worst_alg = 0.0
    worst_quad = 0.0
    for s in np.linspace(0.4, 4.0, 10):
        fh = laplace(sig, float(s))
        kh = kernel_hat(fh, float(s))
        chat = (1.0 + fh) / s
        worst_alg = max(worst_alg, abs(s * chat - 1.0 - kh * chat))
        re = quad(lambda t: np.real(np.exp(-s * t) * sig.c(t)), 0.0, 80.0,
                  limit=400)[0]
        worst_quad = max(worst_quad, abs(chat - re))

    lam = -0.8
    flat = mode_signal(Constant(lam))
    worst_flat = max(abs(kernel_hat(laplace(flat, float(s)), float(s)) - lam)
                     for s in (0.3, 1.0, 5.0, 20.0))

    volterra = volterra_check(sig, memory_kernel(sig), horizon=2.0, step=1e-3)

    passed = (worst_alg < 1e-12 and worst_quad < 1e-7
              and worst_flat < 1e-12
              and volterra.max_rel_residual < 1e-5)
    report(7, "Laplace-domain kernel identity holds and the time-domain "
              "Volterra integration reproduces the closed relaxation",
           passed, f"identity {worst_alg:.2e}, vs quadrature {worst_quad:.2e}, "
                   f"flat kernel {worst_flat:.2e}, volterra "
                   f"{volterra.max_rel_residual:.2e}")


def test_criterion_8_two_level_dynamics():
    exact_ok = True
    for mu in (Fraction(0), Fraction(1, 3), Fraction(4, 7), Fraction(1)):
        g, h = damping_basis(mu)
        for a in range(4):
            for b in range(4):
                value = sum(g[a][j, i] * h[b][j, i]
                            for i in range(2) for j in range(2))
                exact_ok = exact_ok and value == (1 if a == b else 0)

    spec = QubitGeneratorSpec.constant(epsilon=0.7, gamma=0.9,
                                       c=((0.4, 0.15), (0.15, 0.6)), mu=0.3)
    gen = build_generator(spec)
    big_gamma = gamma_eigenvalue(spec)
    res_spectrum = multiset_residual(
        np.linalg.eigvals(gen.matrix),
        [0.0, big_gamma, np.conj(big_gamma), -0.9])

    vc = v_conjugation(spec.mu)
    modes = [0.0, big_gamma, np.conj(big_gamma), -0.9]
    assembled = sum(lam * (vc.v @ spectral_projector(i) @ vc.v_inverse).matrix
                    for i, lam in enumerate(modes))
    res_v = float(np.max(np.abs(assembled - gen.matrix)))

    driven = QubitGeneratorSpec(
        epsilon=Constant(0.0), gamma=DampedTrig.sin(offset=1.0),
        c=((Constant(0.0), Constant(0.0)), (Constant(0.0), Constant(0.0))),
        mu=0.4)
    closed = qubit.propagate(driven, 0.0, 2.0)
    ordered = oracle.ordered_exp(
        lambda u: build_generator(driven, u).matrix, 0.0, 2.0, 4096)
    res_oracle = float(np.max(np.abs(closed.matrix - ordered)))

    cosine = QubitGeneratorSpec(
        epsilon=Constant(0.0), gamma=DampedTrig.cos(),
        c=((Constant(0.0), Constant(0.0)), (Constant(0.0), Constant(0.0))),
        mu=0.5)
    horizon = np.pi - 1e-9
    classification = classify(cosine, 0.0, horizon)
    time, _ = classification.first_markov_violation
    classify_ok = (not classification.markovian
                   and classification.nonmarkovian_valid
                   and abs(time - np.pi / 2) < horizon / 200 + 1e-12)

    passed = (exact_ok and res_spectrum < 1e-10 and res_v < 1e-10
              and res_oracle < 1e-7 and classify_ok)
    report(8, "two-level family: exact rational bi-orthogonality, spectrum "
              "{0, Gamma, conj Gamma, -gamma}, V-diagonalization, driven "
              "propagation vs the ordered product, cosine classification",
           passed, f"spectrum {res_spectrum:.2e}, V {res_v:.2e}, oracle "
                   f"{res_oracle:.2e}")


def test_criterion_9_diagonal_states_evolve_classically():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for d, npar in ((2, 1), (3, 1), (2, 2)):
        size = d ** (2 * npar)
        values = rng.uniform(0.05, 0.7, size=size)
        values[0] = 0.0
        values[0] = -values.sum()
        field = WeylCoefficientField.constant(d, npar, values)
        tau = rng.uniform(0.4, 1.2)
        quantum = evolve(field, 0.0, tau)
        p0 = random_probability_values(rng, d ** npar)
        rho0 = np.diag(p0).astype(complex)
        diag_quantum = np.real(np.diag(quantum.apply(rho0)))
        pop_kernel = propagate(diagonal_action(field), 0.0, tau)
        expected = convolve(pop_kernel,
                            LatticeField(d, npar, p0)).values.real
        worst = max(worst, float(np.max(np.abs(diag_quantum - expected))))
    report(9, "quantum evolution of diagonal states equals classical "
              "propagation under the induced population rates",
           worst < 1e-10, f"max residual {worst:.2e}")
