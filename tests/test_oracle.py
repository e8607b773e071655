import numpy as np
import pytest
import scipy.linalg

from comdyn import classical, oracle, qubit, timefn, weyl
from comdyn.errors import OverflowInExponentialError
from comdyn.timefn import Constant, DampedTrig

from conftest import mixed_realness_generator, random_matrix, stacked


def noncommuting_rotation(t):
    """Unitary generator -i [H(t), .] with H(t) rotating in the x-z plane;
    generators at different times genuinely fail to commute."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    h = np.cos(t) * sx + np.sin(t) * sz
    eye = np.eye(2)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

def test_expm_of_zero_is_identity():
    assert np.array_equal(oracle.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_nilpotent_truncates():
    nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.max(np.abs(oracle.expm(nilpotent) - (np.eye(2) + nilpotent))) < 1e-15


def test_expm_inverse(rng):
    m = random_matrix(rng, 4)
    product = oracle.expm(m) @ oracle.expm(-m)
    assert np.max(np.abs(product - np.eye(4))) < 1e-11


def test_expm_reports_overflow():
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowInExponentialError):
            oracle.expm(2000.0 * np.eye(2))


def _stack_of_norms(rng, n, dtype, norms):
    """Random n x n matrices of the given 1-norms; above 20 skew-Hermitian,
    so that the exponential stays of order one."""
    a = rng.standard_normal((len(norms), n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((len(norms), n, n))
    big = np.asarray(norms) > 20
    a[big] -= np.swapaxes(a[big], 1, 2).conj()
    return a * (np.asarray(norms) / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]


# from 0 through every Pade degree to norms needing 10 and 12 squarings
NORMS = [0.0, 1e-3, 0.01, 0.2, 0.9, 2.0, 5.0, 20.0, 80.0, 700.0, 3000.0, 5500.0, 20000.0]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
def test_stacked_expm_agrees_with_scipy(rng, n, dtype):
    # one stack mixes every norm, so its slices take different degrees and
    # squaring counts; scipy's own real path strays up to ~150 eps |A| from a
    # 40-digit reference on such matrices, its complex path ~5, so real
    # stacks are compared with scipy on the same stack made complex
    assert np.ceil(np.log2(max(NORMS) / oracle.PADE_THETA[-1][1])) >= 10
    for order in (NORMS, NORMS[::-1]):
        a = _stack_of_norms(rng, n, dtype, order)
        got = oracle.stacked_expm(a)
        assert got.dtype == a.dtype
        reference = scipy.linalg.expm(a.astype(complex))
        error = np.abs(got - reference).sum(axis=1).max(axis=1)
        scale = np.abs(reference).sum(axis=1).max(axis=1)
        eps = np.finfo(float).eps
        assert np.all(error <= 16 * eps * np.maximum(1.0, order) * scale)
        assert np.array_equal(got[order.index(0.0)], np.eye(n))


def test_stacked_expm_of_non_finite_slices_is_non_finite():
    stack = np.stack([np.eye(2), np.full((2, 2), np.nan), np.diag([np.inf, 0.0]),
                      1e3 * np.eye(2)])
    with np.errstate(over="ignore"):
        out = oracle.stacked_expm(stack)
    finite = np.isfinite(out).all(axis=(1, 2))
    assert finite.tolist() == [True, False, False, False]
    assert np.max(np.abs(out[0] - np.e * np.eye(2))) <= 4 * np.finfo(float).eps * np.e


# ---------------------------------------------------------------------------
# ordered exponential
# ---------------------------------------------------------------------------

def test_ordered_exp_exact_for_constant(rng):
    m = random_matrix(rng, 3)
    for steps in (1, 7):
        out = oracle.ordered_exp(stacked(lambda u: m), 0.0, 1.3, steps)
        assert np.max(np.abs(out - oracle.expm(1.3 * m))) < 1e-12


def test_ordered_exp_matches_commuting_closed_form():
    spec = qubit.QubitGeneratorSpec(
        epsilon=Constant(0.3), gamma=DampedTrig.sin(offset=1.0),
        c=((Constant(0.1), Constant(0.0)), (Constant(0.0), Constant(0.2))),
        mu=0.45)
    closed = qubit.propagate(spec, 0.0, 2.0)
    product = oracle.ordered_exp(
        lambda u: qubit.build_generator(spec, u), 0.0, 2.0, 4096)
    assert np.max(np.abs(closed.matrix - product)) < 1e-7


def test_ordered_exp_detects_ordering_effects():
    t1 = 2.0
    product = oracle.ordered_exp(stacked(noncommuting_rotation), 0.0, t1, 4096)
    # naive exp of the integrated generator ignores time ordering
    nodes = np.linspace(0.0, t1, 20001)
    samples = np.stack([noncommuting_rotation(t) for t in nodes])
    integrated = np.trapezoid(samples, nodes, axis=0)
    naive = oracle.expm(integrated)
    assert np.max(np.abs(product - naive)) > 1e-3


def test_richardson_order_two():
    spec = qubit.QubitGeneratorSpec(
        epsilon=Constant(0.0), gamma=DampedTrig.sin(offset=1.5),
        c=((Constant(0.0), Constant(0.0)), (Constant(0.0), Constant(0.0))),
        mu=0.5)
    closed = qubit.propagate(spec, 0.0, 2.0).matrix

    def run(steps):
        return oracle.ordered_exp(
            lambda u: qubit.build_generator(spec, u), 0.0, 2.0, steps)

    err_n = np.linalg.norm(run(64) - closed)
    err_2n = np.linalg.norm(run(128) - closed)
    assert 3.0 < err_n / err_2n < 5.5


def test_ordered_exp_of_a_real_generator_is_real():
    a = np.array([[-1.0, 0.5, 0.2], [0.7, -0.9, 0.1], [0.3, 0.4, -0.3]])
    b = np.array([[0.2, -0.1, 0.0], [0.0, 0.3, -0.4], [0.1, 0.0, 0.2]])

    def generator(u):
        return a + np.sin(u) * b

    steps, t0, t1 = 300, 0.2, 1.7
    product = oracle.ordered_exp(stacked(generator), t0, t1, steps)
    assert product.dtype == np.float64
    h = (t1 - t0) / steps
    reference = np.eye(3, dtype=complex)
    for j in range(steps):
        reference = scipy.linalg.expm(h * generator(t0 + (j + 0.5) * h)) @ reference
    assert np.max(np.abs(product - reference)) <= 1e-14


@pytest.mark.parametrize("chunk_bytes", [None, 200])
def test_ordered_exp_calls_lfun_once_per_midpoint_in_order(monkeypatch, chunk_bytes):
    if chunk_bytes is not None:  # six 2x2 steps per chunk
        monkeypatch.setattr(oracle, "CHUNK_BYTES", chunk_bytes)
    chunk = oracle.CHUNK_BYTES // 32
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for steps in (1, 7, 300):
        calls = []

        def lfun(u):
            calls.append(u.tolist())
            return np.broadcast_to(m, (len(u), 2, 2))

        oracle.ordered_exp(lfun, 0.5, 2.0, steps)
        h = 1.5 / steps
        # every midpoint once, in order, as the per-step product formed them
        assert sum(calls, []) == [0.5 + (j + 0.5) * h for j in range(steps)]
        # the first midpoint alone sizes the chunks; then one call per chunk
        # (the first chunk's call holds the rest of its midpoints)
        sizes = [min(chunk, steps - start) for start in range(0, steps, chunk)]
        sizes[0] -= 1
        assert [len(c) for c in calls] == [1] + [n for n in sizes if n]


def test_ordered_exp_takes_one_stacked_expm_per_chunk(monkeypatch):
    spec = qubit.QubitGeneratorSpec.constant(epsilon=0.3, gamma=1.0, mu=0.25)
    calls = []
    expm = oracle.stacked_expm

    def counting(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(oracle, "stacked_expm", counting)
    steps = 1024
    oracle.ordered_exp(lambda u: qubit.build_generator(spec, u), 0.0, 1.0, steps)
    chunk = oracle.CHUNK_BYTES // (16 * 4 * 4)
    assert len(calls) == -(-steps // chunk) <= 4
    assert sum(shape[0] for shape in calls) == steps


def test_ordered_exp_overflow_names_the_first_bad_step(monkeypatch):
    # two 2x2 steps per chunk; the generator blows up from t = 0.6 on, so
    # steps 5, 6 and 7 of 8 (midpoints 0.6875, 0.8125, 0.9375) overflow
    # and the witness is step 5, the second of its chunk
    monkeypatch.setattr(oracle, "CHUNK_BYTES", 64)

    def lfun(u):
        return np.where(u > 0.6, 1e4, 1.0)[:, None, None] * np.eye(2)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowInExponentialError) as caught:
            oracle.ordered_exp(lfun, 0.0, 1.0, 8)
    assert str(caught.value) == ("matrix exponential overflowed at step 5 of 8 "
                                 "(midpoint t=0.6875, step norm 1.768e+03)")
    assert caught.value.exit_code == 2


def _per_step_product(matrix_at, t0, t, steps):
    """The ordered product formed one step at a time: each step generator
    from a one-time call, stacked a chunk at a time (the first step's
    bytes fix the chunk), one stacked expm per chunk. Returns the product
    and each stack's (length, dtype)."""
    h = (t - t0) / steps
    generators = [h * np.asarray(matrix_at(t0 + (j + 0.5) * h)) for j in range(steps)]
    chunk = max(1, oracle.CHUNK_BYTES // generators[0].nbytes)
    total = np.eye(generators[0].shape[0], dtype=generators[0].dtype)
    stacks = []
    for start in range(0, steps, chunk):
        stack = np.stack(generators[start:start + chunk])
        stacks.append((len(stack), stack.dtype))
        for factor in oracle.stacked_expm(stack):
            total = factor @ total
    return total, stacks


def _weyl_field():
    others = (DampedTrig.sin(amplitude=0.2, offset=0.6),
              DampedTrig.sin(amplitude=0.1, offset=0.4),
              DampedTrig.sin(amplitude=0.25, offset=0.9))
    return weyl.WeylCoefficientField(2, 1, (-1.0 * (others[0] + others[1] + others[2]),)
                                     + others)


def _kinds():
    """Name -> (block function, one-time function, steps) on [0, 2]."""
    mixed = mixed_realness_generator()
    late = mixed_realness_generator(complex_first=True)
    spec = qubit.QubitGeneratorSpec(
        epsilon=Constant(0.2), gamma=DampedTrig.sin(offset=1.0),
        c=((Constant(0.1), Constant(0.05 + 0.02j)), (Constant(0.05 - 0.02j), Constant(0.3))),
        mu=0.4)
    field = _weyl_field()
    family = field.family()
    return {
        "classical, real first": (lambda u: classical.circulant_matrix(mixed, u),
                                  lambda u: classical.circulant_matrix(mixed, u), 2000),
        "classical, complex first": (lambda u: classical.circulant_matrix(late, u),
                                     lambda u: classical.circulant_matrix(late, u), 1000),
        "qubit": (lambda u: qubit.build_generator(spec, u),
                  lambda u: qubit.build_generator(spec, u).matrix, 1024),
        "weyl": (lambda u: weyl.map_from_coeffs(field, u, family),
                 lambda u: weyl.map_from_coeffs(field, u, family).matrix, 512),
    }


@pytest.mark.parametrize("kind", ["classical, real first", "classical, complex first",
                                  "qubit", "weyl"])
def test_ordered_exp_of_block_builders_equals_the_per_step_product(monkeypatch, kind):
    block, one_time, steps = _kinds()[kind]
    reference, reference_stacks = _per_step_product(one_time, 0.0, 2.0, steps)
    stacks = []
    expm = oracle.stacked_expm

    def recording(m):
        stacks.append((len(m), m.dtype))
        return expm(m)

    monkeypatch.setattr(oracle, "stacked_expm", recording)
    product = oracle.ordered_exp(block, 0.0, 2.0, steps)
    # the same chunk boundaries, each stack in the dtype its steps share
    assert stacks == reference_stacks
    assert product.dtype == reference.dtype and np.array_equal(product, reference)
    if kind.startswith("classical"):
        # real steps then complex ones (or the reverse): a real chunk, a
        # mixed one and a complex one
        dtypes = [dtype for _, dtype in stacks]
        assert len(set(dtypes)) == 2 and len(stacks) > 2


@pytest.mark.parametrize("kind", ["classical, real first", "qubit", "weyl"])
def test_ordered_exp_takes_one_bank_block_per_chunk(monkeypatch, kind):
    block, one_time, steps = _kinds()[kind]
    calls = {"values": 0, "map_from_values": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(timefn.CoefficientBank, "values")
    counted(weyl, "map_from_values")
    lengths = []
    expm = oracle.stacked_expm
    monkeypatch.setattr(oracle, "stacked_expm",
                        lambda m: lengths.append(len(m)) or expm(m))
    oracle.ordered_exp(block, 0.0, 2.0, steps)
    assert sum(lengths) == steps and len(lengths) > 1
    # the first midpoint alone sizes the chunks; then one block per chunk
    assert calls["values"] == len(lengths) + 1
    assert calls["map_from_values"] == (len(lengths) + 1 if kind == "weyl" else 0)
