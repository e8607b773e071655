import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comdyn import classical, cli, generators, oracle, qubit, superop, weyl
from comdyn.cli import _fmt, main, write_channel

from conftest import assemble_reference


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    return header, np.array(rows)


QUBIT_CONFIG = {
    "kind": "qubit",
    "gamma": 1.0,
    "mu": 0.3,
    "initial_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "time": {"t0": 0.0, "t": 8.0, "samples": 17},
    "mode": "markov",
}

CLASSICAL_CONFIG = {
    "kind": "classical",
    "dims": {"d": 2, "N": 1},
    "rates": [-0.7, 0.7],
    "time": {"t0": 0.0, "t": 2.0, "samples": 9},
    "mode": "markov",
}

WEYL_CONFIG = {
    "kind": "weyl",
    "dims": {"d": 2, "N": 1},
    "rates": [-1.1, 0.5, 0.3, 0.3],
    "time": {"t0": 0.0, "t": 1.0, "samples": 5},
    "mode": "markov",
}


def test_qubit_population_approaches_mixing_parameter(tmp_path):
    config = write_config(tmp_path, "qubit.json", QUBIT_CONFIG)
    out = tmp_path / "qubit.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:3] == ["t", "rho00", "rho11"]
    assert abs(rows[-1, 2] - 0.3) < 1e-3
    sidecar = json.loads((tmp_path / "qubit.csv.meta.json").read_text())
    assert sidecar["config"]["mu"] == 0.3
    assert sidecar["reports"]["classification"]["markovian"]


def test_classical_two_site_law(tmp_path):
    config = write_config(tmp_path, "classical.json", CLASSICAL_CONFIG)
    out = tmp_path / "classical.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "P0", "P1", "oracle_residual"]
    ts = rows[:, 0]
    expected = (1.0 + np.exp(-2 * 0.7 * ts)) / 2.0
    assert np.max(np.abs(rows[:, 1] - expected)) < 1e-12
    assert rows[:, 3].max() < 1e-7


def test_run_is_deterministic(tmp_path):
    config = write_config(tmp_path, "classical.json", CLASSICAL_CONFIG)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", config, "--out", str(out_a)]) == 0
    assert main(["run", config, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sidecar_config_echo_reruns_identically(tmp_path):
    config = write_config(tmp_path, "classical.json", CLASSICAL_CONFIG)
    out = tmp_path / "first.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    echo = json.loads((tmp_path / "first.csv.meta.json").read_text())["config"]
    rerun_config = write_config(tmp_path, "echo.json", echo)
    rerun_out = tmp_path / "second.csv"
    assert main(["run", rerun_config, "--out", str(rerun_out)]) == 0
    assert out.read_bytes() == rerun_out.read_bytes()


def test_inverted_time_window_is_an_input_error(tmp_path, capsys):
    payload = dict(CLASSICAL_CONFIG)
    payload["time"] = {"t0": 2.0, "t": 1.0, "samples": 3}
    config = write_config(tmp_path, "backwards.json", payload)
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 1


def test_json_format(tmp_path):
    config = write_config(tmp_path, "classical.json", CLASSICAL_CONFIG)
    out = tmp_path / "classical.json.out"
    assert main(["run", config, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "t"
    assert len(payload["rows"]) == 9


def test_weyl_run_emits_spectrum_and_channel(tmp_path):
    config = write_config(tmp_path, "weyl.json", WEYL_CONFIG)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    header, rows = read_csv(out)
    assert header[0] == "t"
    assert any(name.startswith("re_relax_") for name in header)
    channel = (tmp_path / "weyl.csv.channel.csv").read_text().splitlines()
    assert channel[0] == "row,col,re,im"
    assert len(channel) == 1 + 16
    sidecar = json.loads((tmp_path / "weyl.csv.meta.json").read_text())
    assert sidecar["reports"]["final_channel"]["cp"]
    assert sidecar["reports"]["oracle"]["passed"]


def channel_reference(matrix) -> bytes:
    """The channel CSV formatted one entry at a time with ``_fmt``."""
    rows, cols = matrix.shape
    lines = ["row,col,re,im"] + [
        f"{i},{j},{_fmt(matrix[i, j].real)},{_fmt(matrix[i, j].imag)}"
        for i in range(rows) for j in range(cols)]
    return ("\n".join(lines) + "\n").encode()


def test_channel_csv_bytes(tmp_path):
    field = weyl.WeylCoefficientField.constant(2, 1, WEYL_CONFIG["rates"])
    matrix = weyl.evolve(field, 0.0, 1.0).matrix.copy()
    matrix[0, 1] = complex(-0.0, -0.0)
    matrix[1, 0] = complex(0.1, -0.0)
    path = tmp_path / "channel.csv"
    write_channel(str(path), matrix)
    assert path.read_bytes() == channel_reference(matrix)
    lines = path.read_text().splitlines()
    assert lines[2] == "0,1,-0,-0"
    assert lines[5] == "1,0,0.10000000000000001,-0"


NAN = float("nan")
# values whose bit patterns differ although some compare equal (the zeros)
# or unequal to themselves (the NaNs)
SPECIAL = [NAN, -NAN, float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
           1e16, 0.1, -0.1, 1.0, 2.5e-17]


def _special_matrix():
    pool = np.array(SPECIAL)
    matrix = np.empty((6, len(SPECIAL)), dtype=complex)
    matrix.real[0], matrix.imag[0] = pool, pool[::-1]
    matrix.real[1], matrix.imag[1] = pool[::-1], pool          # repeats row 0
    matrix[2] = complex(-0.0, NAN)                             # all entries equal
    matrix.real[3], matrix.imag[3] = np.repeat(pool[:7], 2)[:13], -0.0
    matrix[4] = matrix[0]                                      # a repeated row
    matrix.real[5], matrix.imag[5] = np.roll(pool, 3), np.roll(pool, 5)
    return matrix


def _dense_matrix():
    rng = np.random.default_rng(5)
    return rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))


# the values a mostly +0.0 matrix must still format one by one
SPARSE_SPECIAL = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                  complex(NAN, 0.0), complex(0.0, -NAN), complex(5e-324, 0.0),
                  complex(0.0, 5e-324), complex(-5e-324, NAN)]


def _sparse_matrix(matrix, seed):
    """``matrix`` with each of SPARSE_SPECIAL put at three random spots."""
    matrix = np.array(matrix, dtype=complex)
    rng = np.random.default_rng(seed)
    flat = matrix.reshape(-1)
    spots = rng.choice(flat.size, 3 * len(SPARSE_SPECIAL), replace=False)
    flat[spots] = np.resize(SPARSE_SPECIAL, spots.size)
    return matrix


def _weyl_shaped_matrix():
    # the D^3 support of a d = 3 Weyl channel, 27 of 81 entries nonzero
    field = weyl.WeylCoefficientField.constant(3, 1, [-0.8] + [0.1] * 8)
    return _sparse_matrix(weyl.evolve(field, 0.0, 1.0).matrix, 3)


@pytest.mark.parametrize("make", [
    _special_matrix, _dense_matrix,
    lambda: np.array([[complex(-NAN, 1e16)]]),
    lambda: np.array([[complex(0.0, -0.0)]]),
    lambda: _special_matrix().T,
    lambda: _special_matrix().real,
    _weyl_shaped_matrix,
    lambda: _sparse_matrix(np.zeros((16, 16)), 4),
    lambda: _sparse_matrix(np.zeros((5, 7)), 5).real,
], ids=["special", "dense-64", "1x1-nan", "1x1-zeros", "transposed", "real",
        "weyl-shaped", "zeros-16", "zeros-real"])
def test_channel_csv_bytes_on_special_values(tmp_path, make):
    matrix = make()
    path = tmp_path / "channel.csv"
    write_channel(str(path), matrix)
    assert path.read_bytes() == channel_reference(matrix)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_channel_csv_bytes_with_repeated_values(tmp_path_factory, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    parts = data.draw(st.lists(st.sampled_from(SPECIAL), min_size=2 * rows * cols,
                               max_size=2 * rows * cols))
    matrix = np.array(parts).view(complex).reshape(rows, cols)
    path = tmp_path_factory.mktemp("channel") / "channel.csv"
    write_channel(str(path), matrix)
    assert path.read_bytes() == channel_reference(matrix)
    # and a mostly +0.0 matrix of the same shape, as a Weyl channel is
    sparse = np.zeros(rows * cols, dtype=complex)
    spots = data.draw(st.lists(st.integers(0, rows * cols - 1), unique=True,
                               max_size=rows * cols // 3))
    sparse[spots] = data.draw(st.lists(st.sampled_from(SPARSE_SPECIAL + [1.0, 0.1]),
                                       min_size=len(spots), max_size=len(spots)))
    sparse = sparse.reshape(rows, cols)
    write_channel(str(path), sparse)
    assert path.read_bytes() == channel_reference(sparse)


def _evolved_channel(field, t0, t):
    """``weyl.evolve``'s channel, checked against the dense GEMM reference
    that shares no code with the support assembly behind it."""
    spectrum = weyl.WeylSpectrum(classical.relaxation(field.as_circulant(), t0, t))
    expected = weyl.evolve(field, t0, t).matrix
    assert np.max(np.abs(expected - assemble_reference(spectrum))) \
        <= spectrum.rounding_bound()
    return expected


def test_weyl_run_writes_the_channel_of_its_window(tmp_path):
    # d = 2, N = 2: a 16 x 16 channel written through the command line
    rates = [-1.5] + [0.1] * 15
    payload = dict(WEYL_CONFIG, dims={"d": 2, "N": 2}, rates=rates,
                   time={"t0": 0.25, "t": 1.0, "samples": 3})
    config = write_config(tmp_path, "weyl22.json", payload)
    out = tmp_path / "weyl22.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    field = weyl.WeylCoefficientField.constant(2, 2, rates)
    expected = _evolved_channel(field, 0.25, 1.0)
    assert expected.shape == (16, 16)
    channel = tmp_path / "weyl22.csv.channel.csv"
    assert channel.read_bytes() == channel_reference(expected)


def _count_validate_channel(monkeypatch):
    """Count calls of ``superop.validate_channel``, under its own name and
    the one ``cli`` imported."""
    calls = []
    dense = superop.validate_channel

    def counted(*args, **kwargs):
        calls.append(args)
        return dense(*args, **kwargs)

    monkeypatch.setattr(superop, "validate_channel", counted)
    monkeypatch.setattr(cli, "validate_channel", counted)
    return calls


def test_weyl_run_reports_its_channel_from_the_spectrum(tmp_path, monkeypatch):
    # d = 2, N = 4: the final channel's report comes from the relaxation
    # factors, and the 256 x 256 channel CSV is still the dense map's
    calls = _count_validate_channel(monkeypatch)
    rng = np.random.default_rng(3)
    rates = list(rng.uniform(0.0, 0.05, 256))
    rates[0] = -sum(rates[1:])
    payload = dict(WEYL_CONFIG, dims={"d": 2, "N": 4}, rates=rates,
                   time={"t0": 0.0, "t": 1.0, "samples": 2})
    config = write_config(tmp_path, "weyl24.json", payload)
    out = tmp_path / "weyl24.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    assert calls == []
    field = weyl.WeylCoefficientField.constant(2, 4, rates)
    expected = _evolved_channel(field, 0.0, 1.0)
    channel = tmp_path / "weyl24.csv.channel.csv"
    assert channel.read_bytes() == channel_reference(expected)
    spectrum = weyl.WeylSpectrum(classical.relaxation(
        field.as_circulant(), 0.0, 1.0))
    sidecar = json.loads((tmp_path / "weyl24.csv.meta.json").read_text())
    final = sidecar["reports"]["final_channel"]
    assert final == json.loads(json.dumps(spectrum.channel_report().as_dict()))
    assert final["cp"] and final["tp"] and final["unital"]
    dense = superop.validate_channel(superop.SuperOperator(16, expected))
    assert superop.ChannelReport(**final).agrees_with(dense, spectrum.rounding_bound())


def test_weyl_oracle_run_cross_checks_the_spectral_report(tmp_path, monkeypatch):
    calls = _count_validate_channel(monkeypatch)
    config = write_config(tmp_path, "weyl.json", WEYL_CONFIG)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    assert len(calls) == 1
    oracle_report = json.loads((tmp_path / "weyl.csv.meta.json").read_text())[
        "reports"]["oracle"]
    assert oracle_report["final_channel_agrees"] and oracle_report["passed"]
    # a disagreement between the two reports fails the oracle report
    monkeypatch.setattr(superop.ChannelReport, "agrees_with",
                        lambda self, other, atol: False)
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    oracle_report = json.loads((tmp_path / "weyl.csv.meta.json").read_text())[
        "reports"]["oracle"]
    # ... and the report says which check failed
    assert oracle_report["max_residual"] <= oracle_report["tol"]
    assert not oracle_report["final_channel_agrees"]
    assert not oracle_report["passed"]


def _count_dense_weyl(monkeypatch):
    """Count calls of the dense Weyl paths: the family's stack, its vec
    columns and the dense map of a coefficient field."""
    calls = {"_build_stack": 0, "vec_columns": 0, "map_from_values": 0}

    def counted(owner, name):
        dense = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return dense(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(weyl.WeylFamily, "_build_stack")
    counted(weyl.WeylFamily, "vec_columns")
    counted(weyl, "map_from_values")
    return calls


# d = 3: a block of the channel and its transpose differ (at d = 2 every
# block is symmetric), and the rates are not symmetric under m -> -m
WEYL_D3_CONFIG = dict(WEYL_CONFIG, dims={"d": 3, "N": 1},
                      rates=[-1.2, 0.3, 0.05, 0.2, 0.1, 0.15, 0.1, 0.2, 0.1])


def test_weyl_run_builds_no_dense_family(tmp_path, monkeypatch):
    calls = _count_dense_weyl(monkeypatch)
    config = write_config(tmp_path, "weyl.json", WEYL_D3_CONFIG)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    assert calls == {"_build_stack": 0, "vec_columns": 0, "map_from_values": 0}
    field = weyl.WeylCoefficientField.constant(3, 1, WEYL_D3_CONFIG["rates"])
    channel = (tmp_path / "weyl.csv.channel.csv").read_bytes()
    assert channel == channel_reference(_evolved_channel(field, 0.0, 1.0))
    # the oracle's dense generator path does build the family
    calls.update(dict.fromkeys(calls, 0))
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    assert calls["_build_stack"] == 1 and calls["map_from_values"] > 0


def test_weyl_oracle_catches_a_transposed_support_block(tmp_path, monkeypatch):
    config = write_config(tmp_path, "weyl.json", WEYL_D3_CONFIG)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    sidecar = tmp_path / "weyl.csv.meta.json"
    assert json.loads(sidecar.read_text())["reports"]["oracle"]["passed"]
    scatter = weyl._scatter_support
    monkeypatch.setattr(weyl, "_scatter_support", lambda blocks, positions:
                        scatter(blocks.transpose(0, 2, 1), positions))
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    report = json.loads(sidecar.read_text())["reports"]["oracle"]
    assert report["max_residual"] > 1e3 * report["tol"]
    assert not report["passed"]


def test_mixture_run(tmp_path):
    config = write_config(tmp_path, "mixture.json", {
        "kind": "mixture",
        "dims": {"d": 2, "N": 1},
        "generators": [[-0.8, 0.5, 0.3, 0.0], [-1.1, 0.2, 0.0, 0.9]],
        "weights": [{"kind": "damped-trig", "amplitude": 1.0, "decay": -1.0},
                    {"kind": "damped-trig", "amplitude": -1.0, "decay": -1.0,
                     "offset": 1.0}],
        "time": {"t0": 0.0, "t": 2.0, "samples": 5},
    })
    out = tmp_path / "mixture.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    header, rows = read_csv(out)
    assert header[1] == "re_c0"
    sidecar = json.loads((tmp_path / "mixture.csv.meta.json").read_text())
    assert sidecar["reports"]["oracle"]["max_residual"] < 1e-10


def test_mixture_oracle_run_checks_the_weights_once(tmp_path, monkeypatch):
    # the run checks the weights on [0, t - t0], which holds every row's
    # window, so the per-row oracle residuals must not check them again
    calls = []
    check = generators.MixtureSpec.validate_weights

    def counted(self, *args, **kwargs):
        calls.append(args)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(generators.MixtureSpec, "validate_weights", counted)
    payload = dict(MIXTURE_CONFIG, time={"t0": 0.5, "t": 2.0, "samples": 5})
    config = write_config(tmp_path, "mixture.json", payload)
    out = tmp_path / "mixture.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    assert calls == [(0.5, 2.0)]
    # each residual is the one the checked mixture_map gives
    cset = generators.CommutingGeneratorSet.from_generators(
        cli._mixture_generators(payload))
    spec = cli._mixture_spec(payload, cset)
    header, rows = read_csv(out)
    for t, residual in zip(rows[:, 0], rows[:, header.index("oracle_residual")]):
        amap = generators.mixture_map(spec, 0.5, t)
        direct = sum(w * oracle.expm((t - 0.5) * g.matrix)
                     for w, g in zip(spec.weight_values(t - 0.5), cset.generators))
        assert residual == float(np.max(np.abs(amap.matrix - direct)))


def test_run_sidecar_records_the_versions(tmp_path):
    import scipy
    import comdyn
    config = write_config(tmp_path, "classical.json", CLASSICAL_CONFIG)
    out = tmp_path / "classical.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "classical.csv.meta.json").read_text())
    assert sidecar["versions"] == {"comdyn": comdyn.__version__,
                                   "numpy": np.__version__,
                                   "scipy": scipy.__version__}


def test_resolvent_run(tmp_path):
    config = write_config(tmp_path, "resolvent.json", {
        "kind": "resolvent",
        "dims": {"d": 2, "N": 1},
        "rates": [-0.8, 0.5, 0.3, 0.0],
        "s_values": [0.5, 1.0, 10.0],
        "k_values": [0, 1, 2, 3],
    })
    out = tmp_path / "resolvent.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows.shape[0] == 12
    cp_column = header.index("cp")
    assert np.all(rows[:, cp_column] == 1.0)


def test_kernel_run(tmp_path):
    config = write_config(tmp_path, "kernel.json", {
        "kind": "kernel",
        "weights": [0.35, 0.65],
        "exponents": [-0.6, -1.7],
        "s_values": [0.5, 1.0, 2.0, 4.0],
    })
    out = tmp_path / "kernel.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:3] == ["s", "re_f_hat", "im_f_hat"]
    sidecar = json.loads((tmp_path / "kernel.csv.meta.json").read_text())
    assert sidecar["reports"]["laplace_identity_residual"] < 1e-12


def test_malformed_config_names_offending_path(tmp_path, capsys):
    payload = dict(CLASSICAL_CONFIG)
    payload["dims"] = {"d": 1, "N": 1}
    config = write_config(tmp_path, "bad.json", payload)
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 1
    assert "dims.d" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    payload = dict(CLASSICAL_CONFIG)
    payload["surprise"] = 1
    config = write_config(tmp_path, "bad.json", payload)
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 1


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_precondition_failure_exit_code(tmp_path, capsys):
    payload = dict(CLASSICAL_CONFIG)
    payload["rates"] = [0.7, -0.7]
    config = write_config(tmp_path, "bad_rates.json", payload)
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 2
    assert "Kolmogorov" in capsys.readouterr().err


def test_kernel_pole_is_a_precondition_failure(tmp_path, capsys):
    # f^(3) = (-2)(-1)/4 + 3(-3)/6 = -1, so 1 + f^ vanishes at s = 3
    config = write_config(tmp_path, "pole.json", {
        "kind": "kernel", "weights": [-2, 3], "exponents": [-1, -3],
        "s_values": [3]})
    assert main(["run", config, "--out", str(tmp_path / "k.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: 1 + f^ = ")
    assert "at s=3.0" in err
    assert not (tmp_path / "k.csv").exists()


def test_tabulated_rate_outside_its_domain_is_an_input_error(tmp_path, capsys):
    payload = dict(CLASSICAL_CONFIG)
    # the window [0, 2] leaves the tabulated domain [0, 1]
    payload["rates"] = [
        {"kind": "tabulated", "times": [0.0, 1.0], "values": [-0.7, -0.7]},
        {"kind": "tabulated", "times": [0.0, 1.0], "values": [0.7, 0.7]}]
    config = write_config(tmp_path, "tabulated.json", payload)
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 1
    assert "outside tabulated domain [0.0, 1.0]" in capsys.readouterr().err


def test_validate_weyl_config(tmp_path, capsys):
    config = write_config(tmp_path, "weyl.json", WEYL_CONFIG)
    assert main(["validate", config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "weyl_relations" in names
    assert "channel_cptp_unital" in names
    agreement = report["checks"][names.index("channel_spectral_agrees")]
    assert agreement["passed"] and agreement["cp"]
    assert 0.0 < agreement["atol"] < 1e-12


def test_validate_flags_sign_violation(tmp_path, capsys):
    payload = dict(WEYL_CONFIG)
    payload["rates"] = [1.1, -0.5, -0.3, -0.3]
    config = write_config(tmp_path, "bad_weyl.json", payload)
    assert main(["validate", config]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    failing = [c for c in report["checks"] if not c.get("passed")]
    assert any("first_violation" in c for c in failing)


def test_validate_qubit_certifies_commutativity_on_the_fixed_basis(
        tmp_path, capsys, monkeypatch):
    # L(t) = sum_k f_k(t) B_k: the report is the largest commutator of the
    # six fixed B_k, with no generator built at any time
    payload = dict(QUBIT_CONFIG, epsilon={"kind": "damped-trig", "amplitude": 0.4,
                                          "decay": -0.2, "frequency": 1.3,
                                          "phase": 0.5, "offset": 0.1},
                   gamma={"kind": "damped-trig", "amplitude": 0.3, "decay": -0.3,
                          "frequency": 1.1, "phase": 0.5, "offset": 0.5},
                   c=[[{"kind": "polynomial", "coeffs": [0.3, 0.1]}, 0.05],
                      [0.05, 0.2]])
    config = write_config(tmp_path, "qubit.json", payload)
    basis = cli._qubit_spec(cli.load_config(config)).basis
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert len(pairs) == 15
    reference = max(float(np.linalg.norm(basis[i] @ basis[j] - basis[j] @ basis[i], 2))
                    for i, j in pairs)
    calls = []
    build = qubit.build_generator
    monkeypatch.setattr(qubit, "build_generator",
                        lambda spec, t=0.0: calls.append(t) or build(spec, t))
    assert main(["validate", config]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    commutativity = next(c for c in checks if c["name"] == "commutativity")
    assert commutativity["max_commutator"] == reference == 0.0
    assert commutativity["passed"]
    assert calls == []
    # a basis matrix that does not commute with the others is refused
    generator_basis = qubit._generator_basis

    def broken_basis(mu):
        out = generator_basis(mu).copy()
        out[0] = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        return out
    monkeypatch.setattr(qubit, "_generator_basis", broken_basis)
    assert main(["validate", config]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    commutativity = next(c for c in checks if c["name"] == "commutativity")
    assert not commutativity["passed"] and commutativity["max_commutator"] > 1e-10


def test_validate_tol_reaches_the_qubit_classification(tmp_path):
    # gamma = -1e-6 is inadmissible at tol 1e-10 and within tol 1e-3, as
    # for the classical rates [1e-6, -1e-6]
    qubit_config = write_config(tmp_path, "qubit.json", dict(QUBIT_CONFIG, gamma=-1e-6))
    classical_config = write_config(tmp_path, "classical.json",
                                    dict(CLASSICAL_CONFIG, rates=[1e-6, -1e-6]))
    for config in (qubit_config, classical_config):
        assert main(["validate", config, "--tol", "1e-10"]) == 2
        assert main(["validate", config, "--tol", "1e-3"]) == 0


def _qubit_window_config(tmp_path, gamma_coeffs):
    """A Markov qubit config on the window [2, 3] with a polynomial gamma."""
    return write_config(tmp_path, "qubit.json", dict(
        QUBIT_CONFIG, gamma={"kind": "polynomial", "coeffs": gamma_coeffs},
        time={"t0": 2.0, "t": 3.0, "samples": 3}))


def test_qubit_markov_classification_uses_the_run_window(tmp_path, capsys):
    # gamma = t - 1 >= 1 on [t0, t] = [2, 3], negative on [0, 1)
    config = _qubit_window_config(tmp_path, [-1.0, 1.0])
    out = tmp_path / "qubit.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    classification = json.loads(
        (tmp_path / "qubit.csv.meta.json").read_text())["reports"]["classification"]
    assert classification["markovian"]
    assert classification["first_markov_violation"] is None
    assert classification["horizon"] == 1.0
    assert main(["validate", config]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert next(c for c in checks if c["name"] == "admissible_markov")["markovian"]


def test_qubit_markov_violation_inside_the_run_window(tmp_path, capsys):
    # gamma = 2.75 - t is positive on [0, 1] and negative on (2.75, 3]
    config = _qubit_window_config(tmp_path, [2.75, -1.0])
    assert main(["run", config, "--out", str(tmp_path / "qubit.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: gamma(")
    run_witness = float(err[len("precondition failed: gamma("):err.index(")")])
    assert 2.75 < run_witness <= 2.755 + 1e-12
    assert main(["validate", config]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    admissible = next(c for c in checks if c["name"] == "admissible_markov")
    assert not admissible["passed"]
    assert admissible["first_markov_violation"] == [run_witness, "gamma pointwise"]


def test_validate_self_test(capsys):
    assert main(["validate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "weyl_relations_d2_N1" in names
    assert "qubit_spectrum" in names


def test_validate_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"]


MIXTURE_CONFIG = {
    "kind": "mixture",
    "dims": {"d": 2, "N": 1},
    "generators": [[-1, 0.5, 0.25, 0.25], [-0.6, 0.2, 0.2, 0.2]],
    "weights": [0.7, 0.3],
    "time": {"t0": 0, "t": 1, "samples": 3},
}

RESOLVENT_CONFIG = {
    "kind": "resolvent",
    "dims": {"d": 2, "N": 1},
    "rates": [-0.8, 0.5, 0.3, 0.0],
    "s_values": [0.5],
    "k_values": [0],
}

BACKWARDS = {"time": {"t0": 2.0, "t": 1.0, "samples": 3}}

# a mixture assembles each generator once, so one that changes in time is
# refused, here with rates that equal a Markov generator at t = 0
DRIFTING_GENERATORS = {"generators": [
    [-1, 0.5, 0.25, 0.25],
    [{"kind": "polynomial", "coeffs": [-0.3, -3.0]}]
    + [{"kind": "polynomial", "coeffs": [0.1, 1.0]}] * 3]}

# the mode factor 0.5 e^(-0.8 t) + 0.5 e^(0.4 t) of these generators
# exceeds 1 by t = 2, so their mixture is not a channel
NON_MARKOV_GENERATORS = {"generators": [[-0.6, 0.2, 0.2, 0.2],
                                        [0.3, -0.1, -0.1, -0.1]],
                         "weights": [0.5, 0.5]}

FAILURE_PATHS = {
    # name: (command, config, extra argv, exit code, stderr prefix)
    "weyl-kolmogorov": (
        "run", dict(WEYL_CONFIG, rates=[1.1, -0.5, -0.3, -0.3]), [], 2,
        "precondition failed: Kolmogorov markov check failed at t=0.0: "),
    # the off-origin rate 0.5 - t turns negative after t = 0.5, so the
    # refusal comes from the window [0, 1] of the last sample
    "weyl-kolmogorov-late": (
        "run", dict(WEYL_CONFIG, rates=[
            {"kind": "polynomial", "coeffs": [-1.1, 1.0]},
            {"kind": "polynomial", "coeffs": [0.5, -1.0]}, 0.3, 0.3],
            time={"t0": 0.0, "t": 1.0, "samples": 3}), [], 2,
        "precondition failed: Kolmogorov markov check failed at t=0.505: "
        "pointwise nonnegativity off the origin (index 1,"),
    "qubit-negative-gamma": (
        "run", dict(QUBIT_CONFIG, gamma=-1.0), [], 2,
        "precondition failed: gamma(0.0) = -1.0 negative"),
    # c01 = 0.1 t against c10 = 0: the homogeneous check refuses the
    # integrated c at the first nonzero tau of [0, 3]
    "qubit-non-hermitian-nonmarkov": (
        "run", dict(QUBIT_CONFIG, mode="nonmarkov",
                    time={"t0": 0.0, "t": 3.0, "samples": 2},
                    c=[[0.4, {"kind": "polynomial", "coeffs": [0.0, 0.1]}],
                       [0.0, 0.3]]),
        [], 1, "error: int_0^t c is not Hermitian at t=0.015"),
    "kernel-divergent-transform": (
        "run", {"kind": "kernel", "rate": {"kind": "damped-trig", "decay": 2.0},
                "s_values": [0.5]}, [], 2,
        "precondition failed: s=0.5 does not dominate"),
    "mixture-weights": (
        "run", dict(MIXTURE_CONFIG, weights=[0.7, 0.7]), [], 2,
        "precondition failed: weights sum to 1.4 at tau=0.0"),
    # the weights stay a distribution on [0, 0.75] and break at tau = 0.765
    "mixture-weights-late": (
        "run", dict(MIXTURE_CONFIG, weights=[
            {"kind": "polynomial", "coeffs": [0.7, 0.0, -1.2]},
            {"kind": "polynomial", "coeffs": [0.3, 0.0, 1.2]}]), [], 2,
        "precondition failed: negative weight -2.270e-03 at tau=0.765"),
    "mixture-drifting-generator-run": (
        "run", dict(MIXTURE_CONFIG, **DRIFTING_GENERATORS), [], 1,
        "error: config invalid at generators.1: a mixture generator must be "
        "constant in time"),
    "mixture-drifting-generator-validate": (
        "validate", dict(MIXTURE_CONFIG, **DRIFTING_GENERATORS), [], 1,
        "error: config invalid at generators.1: a mixture generator must be "
        "constant in time"),
    "mixture-non-markov-generator": (
        "run", dict(MIXTURE_CONFIG, **NON_MARKOV_GENERATORS), [], 2,
        "precondition failed: generators.1 is not a Markov generator: pointwise "
        "nonnegativity off the origin (index 1, value -1.000000e-01)"),
    "mixture-weights-oracle": (
        "run", dict(MIXTURE_CONFIG, weights=[0.7, 0.7]), ["--oracle"], 2,
        "precondition failed: weights sum to 1.4 at tau=0.0"),
    "resolvent-singular-run": (
        "run", dict(RESOLVENT_CONFIG, rates=[1.0, -0.5, -0.25, -0.25],
                    s_values=[1.5]), [], 2,
        "precondition failed: (s - L) numerically singular at s=1.5"),
    "resolvent-singular-validate": (
        "validate", dict(RESOLVENT_CONFIG, rates=[1.0, -0.5, -0.25, -0.25],
                         s_values=[1.5]), [], 2,
        "precondition failed: (s - L) numerically singular at s=1.5"),
    "classical-backwards-window": (
        "run", dict(CLASSICAL_CONFIG, **BACKWARDS), [], 1,
        "error: need t >= t0, got t0=2.0, t=1.5"),
    "mixture-backwards-window": (
        "run", dict(MIXTURE_CONFIG, **BACKWARDS), [], 1,
        "error: need t >= t0, got t0=2.0, t=1.0"),
    # validate reads the tabulated weights on [0, 1], past their domain
    "mixture-tabulated-weights-validate": (
        "validate", dict(MIXTURE_CONFIG, weights=[
            {"kind": "tabulated", "times": [0.0, 0.5], "values": [0.7, 0.7]},
            {"kind": "tabulated", "times": [0.0, 0.5], "values": [0.3, 0.3]}]),
        [], 1, "error: t=0.505 outside tabulated domain [0.0, 0.5]"),
    # an integer field takes only ints, not integer-valued floats
    "integer-float-samples": (
        "run", dict(CLASSICAL_CONFIG, time={"t0": 0.0, "t": 2.0, "samples": 3.0}),
        [], 1, "error: config invalid at time.samples: 3.0 is not of type 'integer'"),
    "integer-float-dims": (
        "run", dict(CLASSICAL_CONFIG, dims={"d": 2.0, "N": 1}), [], 1,
        "error: config invalid at dims.d: 2.0 is not of type 'integer'"),
    "integer-float-oracle-steps": (
        "run", dict(CLASSICAL_CONFIG, oracle={"steps": 8.0}), ["--oracle"], 1,
        "error: config invalid at oracle.steps: 8.0 is not of type 'integer'"),
    "integer-float-k-values": (
        "run", dict(RESOLVENT_CONFIG, k_values=[1.0]), [], 1,
        "error: config invalid at k_values.0: 1.0 is not of type 'integer'"),
    # JSON NaN and Infinity are refused with their path before any numpy
    # call can warn about them
    "non-finite-t": (
        "run", dict(CLASSICAL_CONFIG, time={"t0": 0.0, "t": float("inf"),
                                            "samples": 3}), [], 1,
        "error: config invalid at time.t: inf is not a finite number"),
    "non-finite-rate-amplitude": (
        "run", dict(CLASSICAL_CONFIG, rates=[
            -0.7, {"kind": "damped-trig", "amplitude": float("nan")}]), [], 1,
        "error: config invalid at rates.1.amplitude: nan is not a finite number"),
    # a bare rate belongs to the number branch of a time function's oneOf
    "non-finite-rate": (
        "run", dict(CLASSICAL_CONFIG, rates=[-0.7, float("nan")]), [], 1,
        "error: config invalid at rates.1: nan is not a finite number"),
}


@pytest.mark.parametrize("name", sorted(FAILURE_PATHS))
def test_failure_paths_exit_with_their_code_and_write_nothing(tmp_path, capsys, name):
    command, payload, extra, code, prefix = FAILURE_PATHS[name]
    config = write_config(tmp_path, "config.json", payload)
    out = tmp_path / "result.out"
    assert main([command, config, "--out", str(out)] + extra) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_validate_weyl_applies_its_tolerance_to_the_channel(tmp_path):
    # a -1e-9 rate passes the 1e-8 Kolmogorov tolerance, so the report must
    # go on to the channel check instead of refusing at the default 1e-10
    payload = dict(WEYL_CONFIG, rates=[-0.6, -1e-9, 0.3, 0.3])
    config = write_config(tmp_path, "weyl.json", payload)
    out = tmp_path / "report.json"
    assert main(["validate", config, "--tol", "1e-8", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    names = [c["name"] for c in checks]
    assert names[-3:] == ["kolmogorov_markov", "channel_cptp_unital",
                          "channel_spectral_agrees"]
    for check in checks[-2:]:
        assert check["tol"] == 1e-8 and check["passed"], check["name"]
    # the channel is TP only to about 1e-9
    assert 1e-10 < checks[-2]["tp_residual"] < 1e-8


def test_validate_mixture_reports_a_generator_that_is_not_markov(tmp_path):
    config = write_config(tmp_path, "mixture.json",
                          dict(MIXTURE_CONFIG, **NON_MARKOV_GENERATORS))
    out = tmp_path / "report.json"
    assert main(["validate", config, "--out", str(out)]) == 2
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["generator_0_markov"]["passed"]
    assert checks["generator_1_markov"]["first_violation"] == {
        "time": 0.0, "index": 1, "value": -0.1,
        "condition": "pointwise nonnegativity off the origin"}
    assert not checks["generator_1_markov"]["passed"]


def test_validate_resolvent_applies_its_tolerance_to_the_channels(tmp_path):
    # at s = 1 this channel's Choi matrix dips to -3.4e-6: refused at the
    # default 1e-10, accepted at 1e-3
    payload = dict(RESOLVENT_CONFIG, rates=[-0.183331, 0.1, 0.1, -0.016669],
                   s_values=[1.0])
    config = write_config(tmp_path, "resolvent.json", payload)
    out = tmp_path / "report.json"
    assert main(["validate", config, "--out", str(out)]) == 2
    assert main(["validate", config, "--tol", "1e-3", "--out", str(out)]) == 0
    [check] = json.loads(out.read_text())["checks"]
    assert check["tol"] == 1e-3
    assert -1e-5 < check["choi_min_eigenvalue"] < 0


def test_validate_report_to_a_missing_directory_is_an_output_error(tmp_path, capsys):
    config = write_config(tmp_path, "weyl.json", WEYL_CONFIG)
    out = tmp_path / "missing" / "report.json"
    assert main(["validate", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["weyl.json"]


def test_config_messages_name_the_time_function_kind_they_break(tmp_path, capsys):
    # a value tagged with one time-function kind gets that kind's error, not
    # "not valid under any of the given schemas"
    payload = dict(CLASSICAL_CONFIG, rates=[
        -0.7, {"kind": "polynomial", "coeffs": []}])
    config = write_config(tmp_path, "bad.json", payload)
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: config invalid at rates.1.coeffs: [] should be non-empty\n")
    payload = dict(CLASSICAL_CONFIG, rates=[-0.7, {"kind": "bogus"}])
    config = write_config(tmp_path, "bad.json", payload)
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: config invalid at rates.1: {'kind': 'bogus'} is not valid under "
        "any of the given schemas\n")


@pytest.mark.parametrize("kind", [[], {}, 3, None])
def test_kind_that_is_not_a_string_is_a_config_error(tmp_path, capsys, kind):
    config = write_config(tmp_path, "bad.json", dict(CLASSICAL_CONFIG, kind=kind))
    assert main(["run", config, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: unknown kind ")


def test_schema_with_an_unimplemented_keyword_does_not_compile():
    with pytest.raises(ValueError, match="'pattern'"):
        cli._compile({"type": "string", "pattern": "^a"})
    with pytest.raises(ValueError, match="'null'"):
        cli._compile({"type": "null"})
    with pytest.raises(ValueError, match="additionalProperties"):
        cli._compile({"type": "object", "additionalProperties": True})


def test_importing_the_cli_loads_the_top_level_scipy_package():
    # perfbench/passrun.py reads sys.modules["scipy"].__version__ after its
    # import-only pass, so a comdyn that never imported scipy would crash
    # every benchmark run; the bare scipy package costs 10 ms or less to
    # import beside numpy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, comdyn.cli; print(sys.modules['scipy'].__version__)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip()


def test_importing_the_cli_loads_neither_jsonschema_nor_scipy_interpolate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, comdyn.cli; "
            "print(sorted(m for m in ('jsonschema', 'scipy.interpolate') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
