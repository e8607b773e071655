import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from comdyn import (classical, cli, generators, kernel, oracle, qubit, superop, timefn,
                    weyl)
from comdyn.cli import _fmt, main, write_channel
from comdyn.config import TIMEFN_SCHEMA, _TYPES, _Invalid, _compile, _tag_table

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


def _indented_table(header, rows) -> str:
    """The JSON table as the pure-Python indent encoder writes it, each
    value re-read from its 17-digit text first."""
    payload = {"columns": header, "rows": [[float(_fmt(v)) for v in row] for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("header, rows", [
    (["t", "a,b", "ü", 'q"'],
     [[0.0, float("nan"), float("inf"), -float("inf")],
      [-0.0, 1e-300, -1e-300, 5e-324],
      [np.float64(0.1), 3, True, np.float32(0.1)],
      [1.7976931348623157e308, -2.5, 1 / 3, 2.0 ** 60]]),
    (["t"], [[0.5]]),
    (["t"], []),
    (["t"], [[]]),
    ([], [[1.0], [2.0]]),
])
def test_json_table_bytes_equal_the_indented_encoder(tmp_path, header, rows):
    out = tmp_path / "table.json"
    cli.write_table(str(out), "json", header, rows)
    assert out.read_bytes() == _indented_table(header, rows).encode()


@pytest.mark.parametrize("rows", [
    [[0.0, float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -5e-324],
     [True, False, 3, -7, 2 ** 60, 10 ** 30, 1.7976931348623157e308, 1 / 3],
     [np.float64(0.1), np.float32(0.1), np.int64(-5), np.float64("nan"), np.float64(-0.0)]],
    [[0.5]],
    [],
])
def test_csv_table_bytes_equal_the_per_value_format(tmp_path, rows):
    # write_table formats a row with one %-format; the bytes are those of
    # joining _fmt over the row
    out = tmp_path / "table.csv"
    header = [f"c{i}" for i in range(max(map(len, rows), default=0))]
    cli.write_table(str(out), "csv", header, rows)
    expected = "\n".join([",".join(header)] + [",".join(map(_fmt, row)) for row in rows]) + "\n"
    assert out.read_bytes() == expected.encode()


def test_csv_table_bytes_on_random_bit_patterns(tmp_path, rng):
    bits = rng.integers(0, 2 ** 63, size=(4, 5000), dtype=np.int64)
    bits[:, ::2] |= np.int64(-2 ** 63)
    rows = bits.view(np.float64).tolist()
    out = tmp_path / "table.csv"
    cli.write_table(str(out), "csv", ["c"] * 5000, rows)
    expected = "\n".join([",".join(["c"] * 5000)] + [",".join(map(_fmt, row)) for row in rows])
    assert out.read_bytes() == (expected + "\n").encode()


def test_fmt_reads_back_as_every_double(rng):
    # the JSON table writes repr(v) where it wrote float(_fmt(v)): the same
    # double for every bit pattern, NaN aside
    bits = rng.integers(0, 2 ** 63, size=20000, dtype=np.int64)
    bits[::2] |= np.int64(-2 ** 63)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].tolist() + [0.0, -0.0, 5e-324, 1e-300]
    assert all(repr(float(_fmt(v))) == repr(v) for v in values)


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


def _written_channel(tmp_path, spectrum) -> bytes:
    path = tmp_path / "channel.csv"
    write_channel(str(path), spectrum)
    return path.read_bytes()


def _given_support(d, nparties, values):
    """A spectrum of Z_d^N whose D x D support values (see
    ``WeylSpectrum.support``) are ``values`` bit for bit, in its dense
    ``assemble`` and in the channel writer alike."""
    spectrum = weyl.WeylSpectrum(classical.LatticeField(
        d, 2 * nparties, np.zeros(d ** (2 * nparties), dtype=complex)))
    layout = spectrum.support()[1:]
    object.__setattr__(spectrum, "support",
                       lambda: (np.asarray(values, dtype=complex),) + layout)
    return spectrum


def _dense(spectrum):
    """The D^2 x D^2 matrix of ``spectrum``'s support blocks, as
    ``assemble`` scatters them, also where a SuperOperator would refuse it
    for non-finite entries."""
    values, positions, differences = spectrum.support()
    matrix = np.zeros((positions.size,) * 2, dtype=complex)
    matrix[positions[:, :, None], positions[:, None, :]] = values[:, differences]
    return matrix


def _evolved_spectrum(d, nparties, rates):
    field = weyl.WeylCoefficientField.constant(d, nparties, rates)
    return weyl.WeylSpectrum(classical.relaxation(field.as_circulant(), 0.0, 1.0))


def test_channel_csv_bytes(tmp_path):
    spectrum = _evolved_spectrum(2, 1, WEYL_CONFIG["rates"])
    assert _written_channel(tmp_path, spectrum) == channel_reference(
        spectrum.assemble().matrix)
    # d = 2: values[0, 1] sits at (0, 3) and values[1, 0] at (1, 1); a
    # signed zero on the support keeps its sign, and off it every entry is +0.0
    values = spectrum.support()[0].copy()
    values[0, 1] = complex(-0.0, -0.0)
    values[1, 0] = complex(0.1, -0.0)
    given = _given_support(2, 1, values)
    matrix = given.assemble().matrix
    assert _written_channel(tmp_path, given) == channel_reference(matrix)
    lines = (tmp_path / "channel.csv").read_text().splitlines()
    assert lines[2] == "0,1,0,0"
    assert lines[4] == "0,3,-0,-0"
    assert lines[6] == "1,1,0.10000000000000001,-0"


NAN = float("nan")
# values whose bit patterns differ although some compare equal (the zeros)
# or unequal to themselves (the NaNs)
SPECIAL = [NAN, -NAN, float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
           1e16, 0.1, -0.1, 1.0, 2.5e-17]


def _complex(re, im):
    """The complex array of parts ``re`` and ``im``, bit for bit (a sum
    with a product by 1j would lose signed zeros and make NaNs of
    infinities)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _special_values(dim):
    """D x D support values cycling through SPECIAL, real and imaginary
    parts in opposite orders."""
    pool = np.resize(SPECIAL, dim * dim)
    return _complex(pool, pool[::-1]).reshape(dim, dim)


# a LatticeField refuses non-finite values, so eigenvalue grids take these;
# NaNs and infinities reach the writer as support values
FINITE_SPECIAL = [v for v in SPECIAL if np.isfinite(v)]

# the values a mostly +0.0 map must still format one by one
SPARSE_SPECIAL = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                  complex(NAN, 0.0), complex(0.0, -NAN), complex(5e-324, 0.0),
                  complex(0.0, 5e-324), complex(-5e-324, NAN)]


def _sparse_values(values, seed):
    """``values`` with each of SPARSE_SPECIAL put at up to three random spots."""
    values = np.array(values, dtype=complex)
    rng = np.random.default_rng(seed)
    flat = values.reshape(-1)
    spots = rng.choice(flat.size, min(flat.size, 3 * len(SPARSE_SPECIAL)), replace=False)
    flat[spots] = np.resize(SPARSE_SPECIAL, spots.size)
    return values


def _random_eigenvalues(d, nparties, seed):
    rng = np.random.default_rng(seed)
    count = d ** (2 * nparties)
    return weyl.WeylSpectrum(classical.LatticeField(
        d, 2 * nparties, rng.standard_normal(count) + 1j * rng.standard_normal(count)))


@pytest.mark.parametrize("make", [
    lambda: _given_support(2, 2, _special_values(4)),
    lambda: _random_eigenvalues(2, 3, 5),
    lambda: _given_support(2, 1, np.full((2, 2), complex(-NAN, 1e16))),
    lambda: _given_support(2, 1, np.full((2, 2), complex(0.0, -0.0))),
    lambda: _given_support(2, 2, _special_values(4).T),
    lambda: _given_support(3, 1, _special_values(3).real),
    lambda: _given_support(3, 1, _sparse_values(
        _evolved_spectrum(3, 1, [-0.8] + [0.1] * 8).support()[0], 3)),
    lambda: _given_support(2, 2, _sparse_values(np.zeros((4, 4)), 4)),
    lambda: _given_support(3, 1, _sparse_values(np.zeros((3, 3)), 5).real),
    lambda: weyl.WeylSpectrum(classical.LatticeField(
        3, 4, _complex(np.resize(FINITE_SPECIAL, 81),
                       np.resize(FINITE_SPECIAL[::-1], 81)))),
], ids=["special", "dense-64", "d2n1-nan", "d2n1-zeros", "transposed", "real",
        "weyl-shaped", "zeros-16", "zeros-real", "special-eigenvalues"])
def test_channel_csv_bytes_on_special_values(tmp_path, make):
    spectrum = make()
    assert _written_channel(tmp_path, spectrum) == channel_reference(_dense(spectrum))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_channel_csv_bytes_with_repeated_values(tmp_path_factory, data):
    d, nparties = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    dim = d ** nparties
    tmp_path = tmp_path_factory.mktemp("channel")
    # an eigenvalue grid drawn from SPECIAL, through the partial transform
    parts = data.draw(st.lists(st.sampled_from(FINITE_SPECIAL), min_size=2 * dim * dim,
                               max_size=2 * dim * dim))
    spectrum = weyl.WeylSpectrum(classical.LatticeField(
        d, 2 * nparties, np.array(parts).view(complex)))
    assert _written_channel(tmp_path, spectrum) == channel_reference(_dense(spectrum))
    # support values drawn from SPECIAL, each repeated on D supports
    parts = data.draw(st.lists(st.sampled_from(SPECIAL), min_size=2 * dim * dim,
                               max_size=2 * dim * dim))
    given = _given_support(d, nparties, np.array(parts).view(complex).reshape(dim, dim))
    assert _written_channel(tmp_path, given) == channel_reference(_dense(given))
    # and mostly +0.0 support values, as a Weyl channel's can be
    sparse = np.zeros(dim * dim, dtype=complex)
    spots = data.draw(st.lists(st.integers(0, dim * dim - 1), unique=True,
                               max_size=dim * dim // 3))
    sparse[spots] = data.draw(st.lists(st.sampled_from(SPARSE_SPECIAL + [1.0, 0.1]),
                                       min_size=len(spots), max_size=len(spots)))
    given = _given_support(d, nparties, sparse.reshape(dim, dim))
    assert _written_channel(tmp_path, given) == channel_reference(_dense(given))


def test_channel_csv_formats_each_support_value_once(tmp_path, monkeypatch):
    # a d = 2, N = 4 (D = 16) Weyl channel: D^3 = 4,096 support entries of
    # D^2 = 256 values, so at most 512 parts to format
    rates = np.random.default_rng(4).uniform(0.001, 0.01, 256)
    rates[0] = -rates[1:].sum()
    spectrum = _evolved_spectrum(2, 4, list(rates))
    calls = []

    def counted(value):
        calls.append(value)
        return _fmt(value)
    monkeypatch.setattr(cli, "_fmt", counted)
    written = _written_channel(tmp_path, spectrum)
    monkeypatch.undo()
    assert len(calls) <= 2 * 16 ** 2 < 16 ** 3
    assert written == channel_reference(spectrum.assemble().matrix)


def _zero_sum_rates(count, seed) -> list:
    rates = np.random.default_rng(seed).uniform(0.0, 0.05, count)
    rates[0] = -rates[1:].sum()
    return rates.tolist()


@pytest.mark.parametrize("d, nparties", [(2, 1), (3, 1), (2, 3), (3, 2)])
def test_weyl_run_channel_bytes_equal_the_dense_map(tmp_path, d, nparties):
    rates = _zero_sum_rates(d ** (2 * nparties), d + nparties)
    payload = dict(WEYL_CONFIG, dims={"d": d, "N": nparties}, rates=rates)
    config = write_config(tmp_path, "weyl.json", payload)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    field = weyl.WeylCoefficientField.constant(d, nparties, rates)
    channel = (tmp_path / "weyl.csv.channel.csv").read_bytes()
    assert channel == channel_reference(_evolved_channel(field, 0.0, 1.0))
    assert channel.count(b"\n") == d ** (4 * nparties) + 1


def _benchmark_job(workload, job_id, workdir):
    """The job ``job_id`` of perfbench's ``workload`` at seed 1, its config
    written under ``workdir``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return next(job for job in module.make_jobs(workload, 1, str(workdir))
                if job["id"] == job_id)


def test_large_state_weyl_channel_bytes_equal_the_dense_map(tmp_path):
    # the benchmark's D = 32 Weyl job: a 1024 x 1024 map, 32,768 support entries
    job = _benchmark_job("large-state", "weyl-d2n5-markov", tmp_path)
    assert main(job["argv"]) == 0
    config = job["config"]
    field = weyl.WeylCoefficientField(2, 5, config["rates"])
    window = config["time"]
    spectrum = weyl.WeylSpectrum(classical.relaxation(
        field.as_circulant(), window["t0"], window["t"]))
    channel = Path(job["out"] + ".channel.csv").read_bytes()
    assert channel == channel_reference(spectrum.assemble().matrix)


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


def _written(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir())


#: the one stderr line of a run whose oracle residual exceeds the tolerance
RESIDUAL_REFUSAL = re.compile(
    r"precondition failed: oracle residual (\S+) at t=(\S+) exceeds tol 1e-07\n")


def test_weyl_oracle_run_cross_checks_the_spectral_report(tmp_path, monkeypatch, capsys):
    calls = _count_validate_channel(monkeypatch)
    config = write_config(tmp_path, "weyl.json", WEYL_CONFIG)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    assert len(calls) == 1
    oracle_report = json.loads((tmp_path / "weyl.csv.meta.json").read_text())[
        "reports"]["oracle"]
    assert oracle_report["final_channel_agrees"] and oracle_report["passed"]
    names = _written(tmp_path)
    # a disagreement between the two reports refuses the run, which writes
    # nothing, and the one stderr line names both reports
    monkeypatch.setattr(superop.ChannelReport, "agrees_with",
                        lambda self, other, atol: False)
    capsys.readouterr()
    assert main(["run", config, "--out", str(tmp_path / "refused.csv"), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: oracle: the final channel's spectral "
                          "report {'cp': True, ")
    assert " disagrees with its dense report {'cp': True, " in err
    assert err.count("\n") == 1
    assert _written(tmp_path) == names


def _count_dense_weyl(monkeypatch):
    """Count calls of the dense Weyl paths: the family's vec columns and
    the dense map of a coefficient field."""
    calls = {"vec_columns": 0, "map_from_values": 0}

    def counted(owner, name):
        dense = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return dense(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(weyl.WeylFamily, "vec_columns")
    counted(weyl, "map_from_values")
    return calls


# d = 3: a block of the channel and its transpose differ (at d = 2 every
# block is symmetric), and the rates are not symmetric under m -> -m
WEYL_D3_CONFIG = dict(WEYL_CONFIG, dims={"d": 3, "N": 1},
                      rates=[-1.2, 0.3, 0.05, 0.2, 0.1, 0.15, 0.1, 0.2, 0.1])


def test_plain_weyl_run_never_assembles_the_dense_map(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("dense assembly in a plain run")
    config = write_config(tmp_path, "weyl.json", WEYL_D3_CONFIG)
    out = tmp_path / "weyl.csv"
    monkeypatch.setattr(weyl.WeylSpectrum, "assemble", refuse)
    assert main(["run", config, "--out", str(out)]) == 0
    monkeypatch.undo()
    channel = tmp_path / "weyl.csv.channel.csv"
    written = channel.read_bytes()
    field = weyl.WeylCoefficientField.constant(3, 1, WEYL_D3_CONFIG["rates"])
    assert written == channel_reference(_evolved_channel(field, 0.0, 1.0))
    # --oracle still checks the dense report of the written channel, which
    # is the same file
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    oracle_report = json.loads((tmp_path / "weyl.csv.meta.json").read_text())[
        "reports"]["oracle"]
    assert oracle_report["final_channel_agrees"] and oracle_report["passed"]
    assert channel.read_bytes() == written


def test_weyl_run_builds_no_dense_family(tmp_path, monkeypatch):
    calls = _count_dense_weyl(monkeypatch)
    config = write_config(tmp_path, "weyl.json", WEYL_D3_CONFIG)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out)]) == 0
    assert calls == {"vec_columns": 0, "map_from_values": 0}
    field = weyl.WeylCoefficientField.constant(3, 1, WEYL_D3_CONFIG["rates"])
    channel = (tmp_path / "weyl.csv.channel.csv").read_bytes()
    assert channel == channel_reference(_evolved_channel(field, 0.0, 1.0))
    # the oracle's dense generator path does scatter dense unitaries
    calls.update(dict.fromkeys(calls, 0))
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    assert calls["map_from_values"] > 0


def test_weyl_oracle_catches_a_transposed_support_block(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, "weyl.json", WEYL_D3_CONFIG)
    out = tmp_path / "weyl.csv"
    assert main(["run", config, "--out", str(out), "--oracle"]) == 0
    sidecar = tmp_path / "weyl.csv.meta.json"
    assert json.loads(sidecar.read_text())["reports"]["oracle"]["passed"]
    channel = tmp_path / "weyl.csv.channel.csv"
    written, names = channel.read_bytes(), _written(tmp_path)
    support = weyl.WeylSpectrum.support

    def transposed(self):
        # transposed differences transpose every block
        values, positions, differences = support(self)
        return values, positions, differences.T
    monkeypatch.setattr(weyl.WeylSpectrum, "support", transposed)
    capsys.readouterr()
    assert main(["run", config, "--out", str(tmp_path / "refused.csv"), "--oracle"]) == 2
    refusal = RESIDUAL_REFUSAL.fullmatch(capsys.readouterr().err)
    assert float(refusal[1]) > 1e3 * 1e-7
    assert _written(tmp_path) == names
    # without the oracle the channel CSV is written from the same layout
    assert main(["run", config, "--out", str(out)]) == 0
    assert channel.read_bytes() != written


def _flip_classical_mode(monkeypatch):
    relaxation = classical.relaxation

    def flipped(*args, **kwargs):
        # two sites: P = (1 + r, 1 - r) / 2 becomes (1 - r, 1 + r) / 2,
        # still a probability vector, so only the oracle can tell
        return [classical.LatticeField(f.d, f.naxes, f.values * np.array([1.0, -1.0]))
                for f in relaxation(*args, **kwargs)]
    monkeypatch.setattr(classical, "relaxation", flipped)


def _flip_qubit_mode(monkeypatch):
    modes = qubit._modes
    monkeypatch.setattr(qubit, "_modes", lambda row: modes(row) * np.array([1, 1, 1, -1]))


@pytest.mark.parametrize("config, flip", [(CLASSICAL_CONFIG, _flip_classical_mode),
                                          (QUBIT_CONFIG, _flip_qubit_mode)],
                         ids=["classical", "qubit"])
def test_oracle_catches_a_flipped_mode(tmp_path, monkeypatch, capsys, config, flip):
    path = write_config(tmp_path, "config.json", config)
    out = tmp_path / "result.csv"
    sidecar = tmp_path / "result.csv.meta.json"
    assert main(["run", path, "--out", str(out), "--oracle"]) == 0
    assert json.loads(sidecar.read_text())["reports"]["oracle"]["passed"]
    names = _written(tmp_path)
    flip(monkeypatch)
    capsys.readouterr()
    assert main(["run", path, "--out", str(tmp_path / "refused.csv"), "--oracle"]) == 2
    refusal = RESIDUAL_REFUSAL.fullmatch(capsys.readouterr().err)
    assert float(refusal[1]) > 1e3 * 1e-7
    # the worst row is one of the run's rows
    assert float(refusal[2]) in read_csv(out)[1][:, 0]
    assert _written(tmp_path) == names


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
    spec = generators.MixtureSpec(tuple(map(timefn.from_spec, payload["weights"])), cset)
    header, rows = read_csv(out)
    for t, residual in zip(rows[:, 0], rows[:, header.index("oracle_residual")]):
        amap = generators.mixture_map(spec, 0.5, t)
        direct = sum(w * oracle.expm((t - 0.5) * g.matrix)
                     for w, g in zip(spec.weight_values(t - 0.5), cset.generators))
        assert residual == float(np.max(np.abs(amap.matrix - direct)))


_SPECTRAL_CONFIGS = {"classical": CLASSICAL_CONFIG, "weyl": WEYL_CONFIG,
                     "qubit": QUBIT_CONFIG}

# rows at t = 0.5 (an empty window in either mode), 1.0 and 1.5
_OFFSET_TIME = {"t0": 0.5, "t": 1.5, "samples": 3}
_MODE_WINDOWS = {"markov": [(0.5, 1.0), (0.5, 1.5)],
                 "nonmarkov": [(0.0, 0.5), (0.0, 1.0)]}


def _recording_ordered_exp(monkeypatch):
    """Replaces oracle.ordered_exp by a cheap product that records each
    call's window and step count."""
    calls = []
    original = oracle.ordered_exp

    def recorded(lfun, t0, t, steps):
        calls.append((t0, t, steps))
        return original(lfun, t0, t, 4)

    monkeypatch.setattr(oracle, "ordered_exp", recorded)
    return calls


@pytest.mark.parametrize("argv, settings, steps, tol", [
    ([], None, 2048, 1e-7),
    ([], {"steps": 64, "tol": 1e-3}, 64, 1e-3),
    (["--steps", "32", "--tol", "0.5"], {"steps": 64, "tol": 1e-3}, 32, 0.5),
])
@pytest.mark.parametrize("mode", ["markov", "nonmarkov"])
@pytest.mark.parametrize("kind", sorted(_SPECTRAL_CONFIGS))
def test_oracle_orders_each_row_over_its_mode_window(tmp_path, monkeypatch, kind, mode,
                                                     argv, settings, steps, tol):
    calls = _recording_ordered_exp(monkeypatch)
    payload = dict(_SPECTRAL_CONFIGS[kind], mode=mode, time=_OFFSET_TIME)
    if settings is not None:
        payload["oracle"] = settings
    config = write_config(tmp_path, "config.json", payload)
    out = tmp_path / "result.csv"
    assert main(["run", config, "--out", str(out), "--oracle"] + argv) == 0
    # one call per row with a non-empty window, over that row's window in
    # the mode, with --steps over the config's steps over the default
    assert calls == [(lo, hi, steps) for lo, hi in _MODE_WINDOWS[mode]]
    report = json.loads((tmp_path / "result.csv.meta.json").read_text())["reports"]
    assert report["mode"] == mode
    assert report["oracle"]["steps"] == steps and report["oracle"]["tol"] == tol
    header, rows = read_csv(out)
    assert header[-1] == "oracle_residual" and rows.shape[0] == 3
    # the row at t = t0 is the identity map, compared with the identity
    assert rows[0, -1] == 0.0
    assert report["oracle"]["max_residual"] == rows[:, -1].max()


def test_mixture_oracle_report_has_no_steps(tmp_path, monkeypatch):
    calls = _recording_ordered_exp(monkeypatch)
    config = write_config(tmp_path, "mixture.json",
                          dict(MIXTURE_CONFIG, oracle={"steps": 64, "tol": 1e-3}))
    out = tmp_path / "mixture.csv"
    assert main(["run", config, "--out", str(out), "--oracle", "--steps", "32"]) == 0
    report = json.loads((tmp_path / "mixture.csv.meta.json").read_text())["reports"]
    assert list(report["oracle"]) == ["max_residual", "tol", "passed"]
    assert report["oracle"]["tol"] == 1e-3
    assert calls == []


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


def test_write_sidecar_splices_the_config_text(tmp_path):
    import scipy
    import comdyn
    body = ('{"kind": "classical", "name": "Zürich – ✓ naïve",\r\n'
            '  "rates": [-0.0, 1e-300, [1, [2, {"é": []}]]],\r\n'
            '  "time": {"t0": -0.0, "t": 1e-300, "samples": 3}, "empty": {}}')
    text = " \t\r\n" + body + "\r\n\n\t "
    reports = {"oracle": {"max_residual": float("nan"), "passed": False},
               "where": tmp_path, "classification": {"markovian": None}}
    path = tmp_path / "x.csv.meta.json"
    cli.write_sidecar(str(path), text, reports, 0.1234567)
    expected = (
        '{\n  "config": ' + body + ',\n'
        '  "reports": {\n'
        '    "oracle": {\n'
        '      "max_residual": NaN,\n'
        '      "passed": false\n'
        '    },\n'
        f'    "where": {json.dumps(str(tmp_path))},\n'
        '    "classification": {\n'
        '      "markovian": null\n'
        '    }\n'
        '  },\n'
        '  "versions": {\n'
        f'    "comdyn": "{comdyn.__version__}",\n'
        f'    "numpy": "{np.__version__}",\n'
        f'    "scipy": "{scipy.__version__}"\n'
        '  },\n'
        '  "wall_time_seconds": 0.123457\n'
        '}\n')
    assert path.read_bytes() == expected.encode("utf-8")
    sidecar = json.loads(path.read_text(encoding="utf-8"))
    assert sidecar["config"] == json.loads(text)


# numbers that Python re-spells: 1e-3 (0.001), 2.50 (2.5) and a 40-digit
# decimal (0.7)
RESPELLED_CLASSICAL = """{
    "kind": "classical",
    "dims": {
        "d": 2,
        "N": 1
    },
    "rates": [
        -0.7000000000000000000000000000000000000000,
        0.7
    ],
    "time": {
        "t0": 1e-3,
        "t": 2.50,
        "samples": 9
    },
    "mode": "markov"
}
"""


def test_sidecar_echoes_the_config_file_text(tmp_path):
    config = tmp_path / "classical.json"
    config.write_text(RESPELLED_CLASSICAL)
    out = tmp_path / "first.csv"
    assert main(["run", str(config), "--out", str(out)]) == 0
    sidecar = (tmp_path / "first.csv.meta.json").read_text()
    assert sidecar.startswith('{\n  "config": ' + RESPELLED_CLASSICAL.strip() + ',\n  "reports": ')
    echo = json.loads(sidecar)["config"]
    assert echo == json.loads(RESPELLED_CLASSICAL)
    # the echo re-runs to the same table, both as parsed and as the
    # sidecar's own text
    rerun_config = write_config(tmp_path, "echo.json", echo)
    rerun_out = tmp_path / "second.csv"
    assert main(["run", rerun_config, "--out", str(rerun_out)]) == 0
    assert out.read_bytes() == rerun_out.read_bytes()
    verbatim = tmp_path / "verbatim.json"
    verbatim.write_text(sidecar[len('{\n  "config": '):sidecar.index(',\n  "reports": ')])
    assert main(["run", str(verbatim), "--out", str(tmp_path / "third.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "third.csv").read_bytes()


def test_weyl_channel_csv_does_not_depend_on_the_config_echo(tmp_path, monkeypatch):
    compact = write_config(tmp_path, "compact.json", WEYL_CONFIG)
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(WEYL_CONFIG, indent=4) + "\n")
    assert main(["run", compact, "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["run", str(indented), "--out", str(tmp_path / "b.csv")]) == 0
    monkeypatch.setattr(cli, "write_sidecar", lambda *args: None)
    assert main(["run", compact, "--out", str(tmp_path / "c.csv")]) == 0
    assert not (tmp_path / "c.csv.meta.json").exists()
    channels = [(tmp_path / f"{name}.csv.channel.csv").read_bytes() for name in "abc"]
    assert channels[0] == channels[1] == channels[2]
    tables = [(tmp_path / f"{name}.csv").read_bytes() for name in "abc"]
    assert tables[0] == tables[1] == tables[2]


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


KERNEL_CONFIG = {
    "kind": "kernel",
    "weights": [0.35, 0.65],
    "exponents": [-0.6, -1.7],
    "s_values": [0.5, 1.0, 2.0, 4.0],
}


def test_kernel_run(tmp_path):
    config = write_config(tmp_path, "kernel.json", KERNEL_CONFIG)
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
    basis = cli._qubit_spec(cli.load_config(config)[0]).basis
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

# a resolvent generator is assembled once, at t = 0, so rates that change
# in time are refused, here rates that equal [-1, 0.5, 0.5, 0] at t = 0
DRIFTING_RATES = {"rates": [{"kind": "polynomial", "coeffs": [-1.0, -5.0]},
                            {"kind": "polynomial", "coeffs": [0.5, 5.0]}, 0.5, 0.0]}

# the mode factor 0.5 e^(-0.8 t) + 0.5 e^(0.4 t) of these generators
# exceeds 1 by t = 2, so their mixture is not a channel
NON_MARKOV_GENERATORS = {"generators": [[-0.6, 0.2, 0.2, 0.2],
                                        [0.3, -0.1, -0.1, -0.1]],
                         "weights": [0.5, 0.5]}

UNBOUNDED_KERNEL = {"kind": "kernel", "rate": {"kind": "polynomial", "coeffs": [-25.0, 1.0]},
                    "s_values": [0.5, 1.0]}

TABULATED_KERNEL = {"kind": "kernel", "s_values": [0.5],
                    "rate": {"kind": "tabulated", "times": [0, 1, 2],
                             "values": [-1.0, -1.2, -1.1]}}
TABULATED_KERNEL_REFUSAL = ("error: config invalid at rate: the transform needs the rate "
                            "on all t >= 0; a tabulated rate ends at t=2\n")

#: Z_2 rates -+exp(800 t): finite parameters, values beyond a double on [0, 1]
OVERFLOWING_RATES = [{"kind": "damped-trig", "amplitude": -1.0, "decay": 800.0},
                     {"kind": "damped-trig", "amplitude": 1.0, "decay": 800.0}]
OVERFLOW_WINDOW = {"t0": 0.0, "t": 1.0, "samples": 2}
NAN_WEIGHTS = [0.3, {"kind": "damped-trig", "amplitude": 0, "decay": 800, "offset": 0.7}]

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
    # c(t) = exp(t^2 / 2 - 25 t) grows faster than any exponential, although
    # its rate stays negative on [0, 20]
    "kernel-unbounded-polynomial-run": (
        "run", UNBOUNDED_KERNEL, [], 2,
        "precondition failed: s=0.5 does not dominate the growth-rate estimate inf: "
        "rate Polynomial([-25.0, 1.0]) is unbounded above on t >= 0"),
    "kernel-tabulated-rate-run": ("run", TABULATED_KERNEL, [], 1, TABULATED_KERNEL_REFUSAL),
    "kernel-tabulated-rate-validate": (
        "validate", TABULATED_KERNEL, [], 1, TABULATED_KERNEL_REFUSAL),
    "kernel-unbounded-polynomial-validate": (
        "validate", UNBOUNDED_KERNEL, [], 2,
        "precondition failed: s=0.5 does not dominate the growth-rate estimate inf: "
        "rate Polynomial([-25.0, 1.0]) is unbounded above on t >= 0"),
    "qubit-initial-state-not-hermitian": (
        "run", dict(QUBIT_CONFIG, initial_state=[[[2, 0], [0.5, 0]], [[0, 0], [-1, 0]]]),
        [], 1, "error: config invalid at initial_state: not Hermitian "
        "(max |rho - rho^H| = 0.5)"),
    "qubit-initial-state-trace": (
        "run", dict(QUBIT_CONFIG, initial_state=[[[0.5, 0], [0, 0]], [[0, 0], [0.25, 0]]]),
        [], 1, "error: config invalid at initial_state: trace 0.75 is not 1"),
    "qubit-initial-state-negative": (
        "run", dict(QUBIT_CONFIG, initial_state=[[[2, 0], [0, 0]], [[0, 0], [-1, 0]]]),
        [], 1, "error: config invalid at initial_state: eigenvalue -1.0 is negative"),
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
    "resolvent-drifting-rates-run": (
        "run", dict(RESOLVENT_CONFIG, **DRIFTING_RATES), [], 1,
        "error: config invalid at rates: a resolvent generator must be constant "
        "in time"),
    "resolvent-drifting-rates-validate": (
        "validate", dict(RESOLVENT_CONFIG, **DRIFTING_RATES), [], 1,
        "error: config invalid at rates: a resolvent generator must be constant "
        "in time"),
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
    # finite parameters whose rates overflow: exp(800 t) is inf past
    # t = 0.887, so the block read on [0, 1] is refused, without a warning
    "classical-overflow": (
        "run", dict(CLASSICAL_CONFIG, rates=OVERFLOWING_RATES, time=OVERFLOW_WINDOW), [], 1,
        "error: field has non-finite values\n"),
    "weyl-overflow": (
        "run", dict(WEYL_CONFIG, rates=OVERFLOWING_RATES + [0.0, 0.0], time=OVERFLOW_WINDOW),
        [], 1, "error: field has non-finite values\n"),
    "qubit-overflow-markov": (
        "run", dict(QUBIT_CONFIG, gamma=OVERFLOWING_RATES[1], time=OVERFLOW_WINDOW), [], 1,
        "error: coefficients have non-finite values at t=0.89\n"),
    # the antiderivative forms exp(800 t) 800 before it divides by 800^2,
    # which overflows from t = 0.88
    "qubit-overflow-nonmarkov": (
        "run", dict(QUBIT_CONFIG, gamma=OVERFLOWING_RATES[1], time=OVERFLOW_WINDOW,
                    mode="nonmarkov"), [], 1,
        "error: int_0^t coefficients have non-finite values at t=0.88\n"),
    # a zero amplitude times exp(800 tau) is 0 * inf = NaN past tau = 0.887,
    # which no comparison of the weight checks flags
    "mixture-nan-weights": (
        "run", dict(MIXTURE_CONFIG, weights=NAN_WEIGHTS, time=OVERFLOW_WINDOW), [], 1,
        "error: weights have non-finite values at tau=0.89\n"),
    "mixture-nan-weights-validate": (
        "validate", dict(MIXTURE_CONFIG, weights=NAN_WEIGHTS, time=OVERFLOW_WINDOW), [], 1,
        "error: weights have non-finite values at tau=0.89\n"),
    # an int past int64 makes numpy build an object array; the bank reads it
    # as a double, so the rates are checked, not crashed on
    "int-past-int64-amplitude": (
        "run", dict(CLASSICAL_CONFIG, rates=[{"kind": "damped-trig", "amplitude": -1},
                                             {"kind": "damped-trig", "amplitude": 10 ** 30}]),
        [], 2, "precondition failed: Kolmogorov markov check failed at t=0.0: pointwise "
        "zero-sum conservation (index 0, value 1.000000e+30)\n"),
    # 2,048 oracle steps of about 9e15 end 0.5 away from the closed form
    # (0.5, 0.5): a failed oracle refuses the run at its worst row
    "classical-oracle-failed": (
        "run", dict(CLASSICAL_CONFIG, rates=[-0.5, 0.5],
                    time={"t0": 0, "t": 2 ** 64, "samples": 2}), ["--oracle"], 2,
        "precondition failed: oracle residual 5.000000e-01 at t=1.8446744073709552e+19 "
        "exceeds tol 1e-07\n"),
    # zero-sum rates of 1e30 whose transform rounds to a positive exponent
    # of about 1e14: the relaxation overflows and is refused, without a warning
    "weyl-overflowing-relaxation": (
        "run", dict(WEYL_CONFIG, rates=[-3e30, 1e30, 1e30, 1e30]), [], 1,
        "error: field has non-finite values\n"),
    # a tolerance must be finite and >= 0: NaN fails every comparison, so it
    # used to pass every validate check, and a negative one refused every
    # oracle as a failed one (exit 2)
    "validate-nan-tol": (
        "validate", dict(CLASSICAL_CONFIG, rates=[0.5, -0.5],
                         time={"t0": 0, "t": 2, "samples": 3}), ["--tol", "nan"], 1,
        "error: --tol must be a finite number >= 0, got nan\n"),
    "run-oracle-negative-tol": (
        "run", CLASSICAL_CONFIG, ["--oracle", "--tol", "-1"], 1,
        "error: --tol must be a finite number >= 0, got -1.0\n"),
    "run-oracle-nan-tol": (
        "run", CLASSICAL_CONFIG, ["--oracle", "--tol", "nan"], 1,
        "error: --tol must be a finite number >= 0, got nan\n"),
    "config-negative-oracle-tol": (
        "run", dict(CLASSICAL_CONFIG, oracle={"tol": -1}), ["--oracle"], 1,
        "error: config invalid at oracle.tol: -1 is less than the minimum of 0\n"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.parametrize("argv, message", [
    (["run", "config.json", "--steps", "abc"],
     "comdyn run: error: argument --steps: invalid int value: 'abc'\n"),
    (["frobnicate"],
     "comdyn: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'run', 'validate')\n"),
], ids=["bad-value", "bad-subcommand"])
def test_usage_errors_exit_as_input_errors_with_argparses_message(capsys, argv, message):
    # 2 is the refusal code, so argparse's own exit 2 becomes 1
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: comdyn") and err.endswith(message)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "validate"])
def test_times_past_int64_are_read_as_doubles(tmp_path, capsys, command):
    payload = dict(CLASSICAL_CONFIG, time={"t0": 0, "t": 2 ** 64, "samples": 2})
    config = write_config(tmp_path, "config.json", payload)
    out = tmp_path / "result.out"
    assert main([command, config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command == "run":
        assert out.read_text().splitlines()[1:] == [
            "0,1,0", "1.8446744073709552e+19,0.5,0.5"]


@pytest.mark.parametrize("text, reason", [
    (b'{"kind": "classical", "rates": [-1' + b"0" * 5000 + b"]}",
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 "
     "digits; use sys.set_int_max_str_digits() to increase the limit"),
    (b'{"kind": "classical",\xff "rates": []}',
     "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte"),
], ids=["int-past-digit-limit", "not-utf-8"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_unreadable_config_text_is_refused_with_its_path(tmp_path, capsys, text, reason,
                                                          command):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    out = tmp_path / "result.out"
    assert main([command, str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot read config {config}: {reason}\n"
    assert not out.exists()


KIND_CONFIGS = {"classical": CLASSICAL_CONFIG, "weyl": WEYL_CONFIG, "qubit": QUBIT_CONFIG,
                "mixture": MIXTURE_CONFIG, "resolvent": RESOLVENT_CONFIG,
                "kernel": KERNEL_CONFIG}


def _passed_values(node):
    """Every value under a ``passed`` key, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "passed":
                yield value
            yield from _passed_values(value)
    elif isinstance(node, list):
        for value in node:
            yield from _passed_values(value)


@pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
def test_passed_is_a_json_boolean_in_every_report(tmp_path, kind):
    # a numpy bool would reach the JSON as the string "True" through default=str
    config = write_config(tmp_path, f"{kind}.json", KIND_CONFIGS[kind])
    assert main(["run", config, "--out", str(tmp_path / "out.csv"), "--oracle"]) == 0
    assert main(["validate", config, "--out", str(tmp_path / "report.json")]) == 0
    sidecar, report = (list(_passed_values(json.loads((tmp_path / name).read_text())))
                       for name in ("out.csv.meta.json", "report.json"))
    assert report
    assert all(v is True or v is False for v in sidecar + report), (sidecar, report)


def test_run_without_an_output_path_is_an_input_error(tmp_path, capsys):
    config = write_config(tmp_path, "config.json", CLASSICAL_CONFIG)
    assert main(["run", config]) == 1
    assert capsys.readouterr().err == (
        "error: no output path (use --out or the 'output' field)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["run", "validate"])
def test_tabulated_kernel_rate_is_refused_before_the_transform(tmp_path, capsys, monkeypatch,
                                                               command):
    # samples on [0, 40] cover the old probe window and the quadrature
    # horizon, yet the rate past t = 40 is still undefined
    def untouched(*args):
        raise AssertionError("the transform ran")
    monkeypatch.setattr(kernel, "laplace_table", untouched)
    rate = {"kind": "tabulated", "times": [0.0, 20.0, 40.0], "values": [-1.0, -1.2, -1.1]}
    config = write_config(tmp_path, "kernel.json", dict(TABULATED_KERNEL, rate=rate))
    assert main([command, config, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == TABULATED_KERNEL_REFUSAL.replace("t=2", "t=40.0")


_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(), st.booleans())
_FIELD_VALUES = st.one_of(_NUMBERS, st.lists(_NUMBERS, max_size=3), st.none(),
                          st.text(max_size=2), st.dictionaries(st.text(max_size=1),
                                                               _NUMBERS, max_size=1))
_VALID_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": st.floats(-2, 2)}),
    st.fixed_dictionaries({"kind": st.just("polynomial"),
                           "coeffs": st.lists(st.floats(-2, 2), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("damped-trig")}, optional={
        name: st.floats(-2, 2)
        for name in ("amplitude", "decay", "frequency", "phase", "offset")}),
    st.fixed_dictionaries({"kind": st.just("tabulated"),
                           "times": st.lists(st.floats(0, 1), min_size=1, max_size=3),
                           "values": st.lists(st.floats(0, 1), min_size=1, max_size=3)}))
# the four kinds, near misses of them, and values of other types
_KINDS = st.one_of(st.sampled_from(["constant", "polynomial", "damped-trig", "tabulated"]),
                   st.sampled_from(["Constant", "damped_trig", "exponential", ""]),
                   _FIELD_VALUES)
_FIELDS = st.sampled_from(["value", "coeffs", "amplitude", "decay", "frequency", "phase",
                           "offset", "times", "values", "extra"])


@st.composite
def _timefn_specs(draw):
    """Valid time-function specs, and the same with fields dropped, added or
    replaced and the kind replaced, plus bare values."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return draw(st.one_of(_NUMBERS, st.just(float("nan")), st.just(True), _FIELD_VALUES))
    spec = dict(draw(_VALID_SPECS)) if choice == 1 else {}
    for key in draw(st.lists(st.sampled_from(sorted(spec) or ["kind"]), max_size=2)):
        spec.pop(key, None)
    spec.update(draw(st.dictionaries(_FIELDS, _FIELD_VALUES, max_size=2)))
    if draw(st.booleans()):
        spec["kind"] = draw(_KINDS)
    return spec


def test_timefn_checker_dispatches_on_the_kind():
    key, table, untagged = _tag_table(TIMEFN_SCHEMA)
    assert key == "kind" and untagged == {"type": "number"}
    assert sorted(table) == ["constant", "damped-trig", "polynomial", "tabulated"]


def _tagged(tag, key="kind", **extra):
    return {"type": "object", "required": [key],
            "properties": {key: {"const": tag}, **extra}}


@pytest.mark.parametrize("branches", [
    [_tagged("a"), _tagged("a")],                          # a tag used twice
    [_tagged("a"), _tagged("b", key="type")],              # two tag keys
    [_tagged("a"), _tagged(1)],                            # a tag that is no string
    [_tagged("a"), _tagged("b", v={"const": "x"})],        # a second 'const'
    [_tagged("a"), {"type": "object"}],                    # an untagged object
    [_tagged("a"), {"enum": [{"kind": "a"}]}],             # a branch of no type
    [_tagged("a"), dict(_tagged("b"), required=[])],       # a tag not required
    [_tagged("a"), {"type": "number"}, {"type": "string"}],  # two untagged branches
], ids=["repeated", "two-keys", "int-tag", "two-consts", "untagged", "no-type",
        "not-required", "two-untagged"])
def test_compile_refuses_a_one_of_a_tag_cannot_decide(branches):
    with pytest.raises(ValueError, match="'oneOf' is implemented only"):
        _compile({"oneOf": branches})


def _claims(branch):
    """Whether a failing value still belongs to ``branch``: an object that
    carries the branch's tag (its properties fixed by 'const'), or, for an
    untagged branch, a value of the branch's type apart from finiteness."""
    tag = {k: s["const"] for k, s in branch.get("properties", {}).items() if "const" in s}
    if tag:
        return lambda v: (isinstance(v, dict)
                          and all(k in v and v[k] == c for k, c in tag.items()))
    name = branch.get("type")
    if name is None:
        return lambda v: False
    is_type = _TYPES[name]
    return lambda v: is_type(v) or name == "number" and isinstance(v, float)


def _check_one_of_general(schema):
    """Reference: a oneOf checked against every branch; a value that belongs
    to one branch gets that branch's error instead of the generic one."""
    branches = [_compile(b) for b in schema["oneOf"]]
    claims = [_claims(b) for b in schema["oneOf"]]

    def check(v):
        errors = [branch(v) for branch in branches]
        matched = sum(error is None for error in errors)
        if matched == 1:
            return None
        if matched > 1:
            return _Invalid("{!r} is valid under more than one of the given schemas", v)
        claimed = [error for error, claim in zip(errors, claims) if claim(v)]
        if len(claimed) == 1:
            return claimed[0]
        return _Invalid("{!r} is not valid under any of the given schemas", v)
    return check


@settings(max_examples=400, deadline=None)
@given(spec=_timefn_specs())
@example(spec={"kind": "Constant", "value": 1.0})
@example(spec={"kind": ["constant"], "value": 1.0})
@example(spec={"kind": "polynomial", "coeffs": []})
@example(spec={"value": 1.0})
@example(spec=float("nan"))
@example(spec=True)
@example(spec=0.5)
def test_timefn_dispatch_agrees_with_the_general_checker(spec):
    fast = _compile(TIMEFN_SCHEMA)(spec)
    general = _check_one_of_general(TIMEFN_SCHEMA)(spec)
    assert (fast is None) == (general is None)
    if fast is not None:
        assert (fast.message, fast.path) == (general.message, general.path)


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
        _compile({"type": "string", "pattern": "^a"})
    with pytest.raises(ValueError, match="'null'"):
        _compile({"type": "null"})
    with pytest.raises(ValueError, match="additionalProperties"):
        _compile({"type": "object", "additionalProperties": True})


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
    # nor any scipy submodule that a bare ``import scipy`` does not load:
    # scipy.linalg and scipy.integrate alone cost more than the rest of
    # the import; nor numpy.polynomial, which only the kernel's growth
    # bound and the s-quadrature of weighted generators call
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def loaded(statement):
        code = (f"import json, sys; {statement}; print(json.dumps(sorted(m for m in "
                "sys.modules if m.startswith(('scipy.', 'numpy.polynomial')) "
                "or m == 'jsonschema')))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        return set(json.loads(result.stdout))

    bare = loaded("import numpy, scipy")
    used = loaded("import comdyn.cli")
    assert used <= bare
    assert "jsonschema" not in used and "scipy.interpolate" not in used
    assert "numpy.polynomial" not in used


def test_z2_runs_never_load_numpy_fft(tmp_path):
    # a Z_2 lattice transform runs as butterflies, so a fresh interpreter
    # that runs Z_2 classical and Weyl configs never imports numpy.fft
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    classical_config = write_config(tmp_path, "classical.json", dict(
        CLASSICAL_CONFIG, dims={"d": 2, "N": 3}, rates=[-0.7] + [0.1] * 7))
    weyl_config = write_config(tmp_path, "weyl.json", dict(
        WEYL_CONFIG, dims={"d": 2, "N": 2}, rates=[-1.5] + [0.1] * 15))
    argvs = [["run", classical_config, "--out", str(tmp_path / "classical.csv")],
             ["run", weyl_config, "--out", str(tmp_path / "weyl.csv")],
             ["validate", weyl_config, "--out", str(tmp_path / "weyl.report.json")]]
    code = (f"import sys, comdyn.cli; codes = [comdyn.cli.main(a) for a in {argvs!r}]; "
            "print(codes, 'numpy.fft' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[0, 0, 0] False\n"
    assert (tmp_path / "weyl.csv.channel.csv").exists()
