"""End-to-end exercises of the command line surface."""

import io
import contextlib
import importlib.metadata
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ladderfield.chain_complex import build_chain_complex
from ladderfield.cli import _read_values, main
from ladderfield.scc import gradient_link_values

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv):
    """Invoke the entry point in-process, capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as stop:  # argparse-level exits
            rc = int(stop.code or 0)
    return rc, out.getvalue(), err.getvalue()


def body(text):
    """Output without the metadata header lines."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def test_version_flag():
    rc, out, _ = run("--version")
    assert rc == 0
    assert "0.1.0" in out


def test_missing_subcommand_is_a_usage_error():
    rc, _, err = run()
    assert rc == 2


def test_unknown_flag_is_a_usage_error():
    rc, _, _ = run("graph", "--n", "6", "--frobnicate")
    assert rc == 2


def test_graph_matches_golden_file():
    rc, out, _ = run("graph", "--n", "6")
    assert rc == 0
    assert out == (FIXTURES / "graph" / "ladder6.csv").read_text()


def test_graph_rejects_odd_vertex_count():
    rc, out, err = run("graph", "--n", "7")
    assert rc == 1
    assert err.startswith("error:")
    assert "even" in err


def test_scc_preset_matches_golden_file():
    rc, out, _ = run("scc", "--n", "6", "--from-vertices", "preset:twin6")
    assert rc == 0
    assert out == (FIXTURES / "scc" / "twin6.csv").read_text()
    assert "verdict                 PASS" in out


def test_scc_random_is_deterministic_per_seed():
    first = run("scc", "--n", "12", "--from-vertices", "random", "--seed", "7")
    second = run("scc", "--n", "12", "--from-vertices", "random", "--seed", "7")
    other = run("scc", "--n", "12", "--from-vertices", "random", "--seed", "8")
    assert first == second
    assert first[1] != other[1]
    assert "# seed=7" in first[1]


def test_scc_from_file(tmp_path):
    values = tmp_path / "v.txt"
    values.write_text("0\n1\n-3\n4\n2\n5\n")
    rc, out, _ = run("scc", "--n", "6", "--from-vertices", str(values))
    assert rc == 0
    assert "vertex values           0 1 -3 4 2 5" in out


def test_scc_file_with_wrong_count(tmp_path):
    values = tmp_path / "v.txt"
    values.write_text("1\n2\n3\n")
    rc, _, err = run("scc", "--n", "6", "--from-vertices", str(values))
    assert rc == 1
    assert "error:" in err


def test_spectrum_six_lists_known_values():
    rc, out, _ = run("spectrum", "--n", "6")
    assert rc == 0
    lines = body(out)
    assert lines[0] == "index,eigenvalue,parity,is_zero_mode"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values == [0.0, 1.0, 2.0, 3.0, 3.0, 5.0]
    zero_flags = [ln.split(",")[3] for ln in lines[1:]]
    assert zero_flags == ["true", "false", "false", "false", "false", "false"]


def test_spectrum_lorentzian_quarter_mode():
    rc, out, _ = run("spectrum", "--n", "8", "--lorentzian")
    assert rc == 0
    zero_rows = [ln for ln in body(out)[1:] if ln.endswith(",true")]
    assert len(zero_rows) == 2
    assert any(",antisymmetric," in ln for ln in zero_rows)


def test_spectrum_coupling_scales_values():
    _, base, _ = run("spectrum", "--n", "4")
    _, scaled, _ = run("spectrum", "--n", "4", "--beta", "2.0")
    vb = [float(ln.split(",")[1]) for ln in body(base)[1:]]
    vs = [float(ln.split(",")[1]) for ln in body(scaled)[1:]]
    assert vs == [2 * v for v in vb]


def test_partition_preset_reports_oracle_columns():
    rc, out, _ = run(
        "partition", "--source", "preset:twin6", "--oracle", "quadrature",
        "--budget", "4096",
    )
    assert rc == 0
    lines = body(out)
    assert lines[0] == "log_Z,exponent_term,restricted_dim,oracle_log_Z,abs_err"
    row = lines[1].split(",")
    assert len(row) == 5
    assert int(row[2]) == 5
    assert float(row[4]) >= 0.0


def test_partition_without_oracle():
    rc, out, _ = run("partition", "--source", "preset:twin6")
    assert rc == 0
    lines = body(out)
    assert lines[0] == "log_Z,exponent_term,restricted_dim"
    assert len(lines) == 2


def test_partition_source_from_file(tmp_path):
    src = tmp_path / "e.txt"
    src.write_text("\n".join(str(x) for x in 0.1 * np.arange(7)))
    rc, out, _ = run("partition", "--source", str(src))
    assert rc == 0
    assert int(body(out)[1].split(",")[2]) == 5


@pytest.mark.parametrize("n", [12, 100_000])
def test_partition_of_a_gradient_is_the_kirchhoff_closed_form(tmp_path, n):
    # pdet K = N tau (matrix-tree theorem), with tau = ((2+r3)^h - (2-r3)^h) / (2 r3) spanning
    # trees of the h-rung ladder; J = d1 e with e = d1^T v gives the exponent |e|^2 / 2
    e = gradient_link_values(build_chain_complex(n), np.random.default_rng(1).standard_normal(n))
    src = tmp_path / "e.txt"
    src.write_text("\n".join(map(repr, e.tolist())))
    r3 = np.sqrt(3.0)
    log_tau = n / 2 * np.log(2 + r3) + np.log1p(-((2 - r3) ** n)) - np.log(2 * r3)
    log_z = (n - 1) / 2 * np.log(2 * np.pi) - (np.log(n) + log_tau) / 2 + np.sum(e**2) / 2
    rc, out, err = run("partition", "--source", str(src))
    assert (rc, err) == (0, "")
    row = body(out)[1].split(",")
    assert int(row[2]) == n - 1
    assert float(row[0]) == pytest.approx(log_z, rel=1e-9, abs=0)


@pytest.mark.parametrize("flags, zero_rows", [((), [0]), (("--lorentzian",), [25_000, 25_001])])
def test_spectrum_marks_only_the_exact_zero_modes_at_n_100000(flags, zero_rows):
    rc, out, _ = run("spectrum", "--n", "100000", *flags)
    assert rc == 0
    rows = body(out)[1:]
    assert len(rows) == 100_000
    assert [i for i, row in enumerate(rows) if row.endswith(",true")] == zero_rows


def test_partition_montecarlo_oracle_seeded():
    a = run("partition", "--source", "preset:twin6", "--oracle", "mc",
            "--budget", "20000", "--seed", "3")
    b = run("partition", "--source", "preset:twin6", "--oracle", "mc",
            "--budget", "20000", "--seed", "3")
    assert a == b
    assert a[0] == 0


def test_twinslit_schema_and_central_row():
    rc, out, _ = run(
        "twinslit", "--n", "8", "--d", "10", "--L", "1000", "--lambda", "2",
        "--y-range=-40:40:5",
    )
    assert rc == 0
    lines = body(out)
    assert lines[0] == "y,delta_phi,n_nearest,is_maximum,nrqm_intensity"
    assert len(lines) == 6
    centre = lines[3].split(",")
    assert float(centre[0]) == 0.0
    assert float(centre[1]) == 0.0
    assert centre[2] == "0"
    assert centre[3] == "true"
    assert float(centre[4]) == 4.0


def test_twinslit_rows_are_symmetric_about_the_axis():
    rc, out, _ = run(
        "twinslit", "--n", "8", "--d", "4", "--L", "500", "--lambda", "1",
        "--y-range=-30:30:7",
    )
    rows = [ln.split(",") for ln in body(out)[1:]]
    phis = [float(r[1]) for r in rows]
    assert phis[0] == pytest.approx(-phis[-1], rel=1e-12)
    intensities = [float(r[4]) for r in rows]
    assert intensities[0] == pytest.approx(intensities[-1], rel=1e-12)


def test_twinslit_bad_range_spec():
    rc, _, err = run("twinslit", "--n", "8", "--d", "4", "--L", "500",
                     "--lambda", "1", "--y-range=oops")
    assert rc == 1
    assert "error:" in err


def test_gauge_check_residual_table():
    rc, out, _ = run("gauge-check", "--trials", "50", "--seed", "2")
    assert rc == 0
    lines = body(out)
    assert lines[0] == "kernel,property,max_residual"
    kernels = {ln.split(",")[0] for ln in lines[1:]}
    assert kernels == {"maxwell", "fierz_pauli"}
    for ln in lines[1:]:
        assert float(ln.split(",")[2]) <= 1e-12


def test_output_file_and_plot_script(tmp_path):
    target = tmp_path / "spec6.csv"
    rc, out, _ = run("spectrum", "--n", "6", "--output", str(target), "--gnuplot")
    assert rc == 0
    assert target.exists()
    script = tmp_path / "spec6.gp"
    assert script.exists()
    text = script.read_text()
    assert "set datafile separator ','" in text
    assert "impulses" in text


def test_plot_script_requires_output():
    rc, _, _ = run("spectrum", "--n", "6", "--gnuplot")
    assert rc == 2


def test_plot_script_refused_for_partition_schema(tmp_path):
    from ladderfield.cli import emit_plot_script

    target = tmp_path / "part.csv"
    rc, _, _ = run("partition", "--source", "preset:twin6", "--output", str(target))
    assert rc == 0
    with pytest.raises(ValueError, match="no plot defined"):
        emit_plot_script(target)


def test_twinslit_plot_script(tmp_path):
    target = tmp_path / "screen.csv"
    rc, _, _ = run("twinslit", "--n", "8", "--d", "10", "--L", "1000",
                   "--lambda", "2", "--y-range=-40:40:9",
                   "--output", str(target), "--gnuplot")
    assert rc == 0
    assert (tmp_path / "screen.gp").read_text().count("using 1:") >= 1


def test_environment_variable_prefixes_relative_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("LADDERFIELD_OUTPUT_DIR", str(tmp_path))
    rc, _, _ = run("graph", "--n", "4", "--output", "g4.txt")
    assert rc == 0
    assert (tmp_path / "g4.txt").read_text().startswith("# version=")


def test_environment_variable_ignored_for_absolute_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("LADDERFIELD_OUTPUT_DIR", "/nonexistent-prefix")
    target = tmp_path / "abs.txt"
    rc, _, _ = run("graph", "--n", "4", "--output", str(target))
    assert rc == 0
    assert target.exists()


def test_metadata_header_on_every_command():
    for argv in (
        ("graph", "--n", "4"),
        ("spectrum", "--n", "4"),
        ("scc", "--n", "4", "--from-vertices", "random"),
        ("partition", "--source", "preset:twin6"),
        ("gauge-check", "--trials", "5"),
    ):
        rc, out, _ = run(*argv)
        assert rc == 0
        head = out.splitlines()[:2]
        assert head[0].startswith("# version=")
        assert head[1].startswith("# seed=")


PROJECT_ROOT = Path(__file__).resolve().parents[1]

# What an installer's generated `ladderfield` wrapper does.
LAUNCH = """
import sys
from importlib.metadata import entry_points
(ep,) = entry_points(group="console_scripts", name="ladderfield")
sys.argv = ["ladderfield", "--version"]
sys.exit(ep.load()())
"""


def test_console_script_is_installed(tmp_path):
    """The checkout's packaging declares a working `ladderfield` script.

    The metadata comes from the project's own build backend, written to
    `tmp_path`, so no install is needed and nothing lands in the checkout.
    """
    pytest.importorskip("setuptools")
    import ladderfield

    built = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=PROJECT_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert built.returncode == 0, built.stderr
    dist = importlib.metadata.Distribution.at(tmp_path / "ladderfield.egg-info")
    declared = dist.entry_points.select(group="console_scripts", name="ladderfield")
    assert [ep.value for ep in declared] == ["ladderfield.cli:entrypoint"]
    assert dist.version == ladderfield.__version__ == "0.1.0"

    package_parent = Path(ladderfield.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(tmp_path), str(package_parent)])}
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCH], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert launched.returncode == 0, launched.stderr
    assert launched.stdout == f"ladderfield {dist.version}\n"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("spectrum", "--n", "8", "--beta", "2", "--lorentzian"), "spectrum/lorentzian8.csv"),
        (("partition", "--source", "preset:twin6"), "partition/twin6.csv"),
        (
            ("twinslit", "--n", "12", "--d", "20", "--L", "100", "--lambda", "0.5",
             "--y-range=-50:50:50"),
            "twinslit/sweep50.csv",
        ),
    ],
)
def test_output_matches_golden_file(argv, golden):
    rc, out, _ = run(*argv)
    assert rc == 0
    assert out == (FIXTURES / golden).read_text()


@pytest.mark.parametrize("n", ["7", "2"])
def test_twinslit_rejects_bad_vertex_count(n):
    rc, out, err = run("twinslit", "--n", n, "--d", "10", "--L", "1000", "--lambda", "2",
                       "--y-range=-4:4:5")
    assert (rc, out) == (1, "")
    assert err == f"error: vertex count must be an even integer >= 4, got {n}\n"


def test_partition_refuses_a_non_positive_budget():
    rc, out, err = run("partition", "--source", "preset:twin6", "--oracle", "quadrature",
                       "--budget", "-5")
    assert (rc, out) == (1, "")
    assert err == "error: quadrature budget must be a positive node count, got -5\n"


def test_gauge_check_refuses_a_negative_trial_count():
    rc, out, err = run("gauge-check", "--trials", "-3")
    assert (rc, out) == (1, "")
    assert err == "error: --trials must be a non-negative trial count, got -3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "--source", "preset:twin6", "--oracle", "mc", "--budget", "2000"),
        ("scc", "--n", "6"),
        ("gauge-check", "--trials", "5"),
    ],
)
def test_a_negative_seed_is_refused_by_name(argv):
    rc, out, err = run(*argv, "--seed", "-1")
    assert (rc, out) == (1, "")
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_scc_refuses_vertex_values_that_would_wrap(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(f"{2**62}\n0\n0\n0\n")
    rc, out, err = run("scc", "--from-vertices", str(path), "--alpha", "3")
    assert (rc, out) == (1, "")
    assert err.startswith("error: integer arithmetic would overflow int64")


def test_integer_literal_outside_int64_is_an_error(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(f"{2**70}\n0\n0\n0\n")
    rc, out, err = run("scc", "--from-vertices", str(path))
    assert (rc, out) == (1, "")
    assert err == f"error: integer value in {path} outside the int64 range\n"


@pytest.mark.parametrize("option", ["--source", "--from-vertices"])
def test_integer_literal_outside_the_float_range_beside_a_float_is_an_error(tmp_path, option):
    path = tmp_path / "values.txt"
    path.write_text(f"1.5\n{10**400}\n0\n0\n")  # four link values fit N=4, four vertex values too
    rc, out, err = run("partition" if option == "--source" else "scc", option, str(path))
    assert (rc, out) == (1, "")
    assert err == f"error: integer value in {path} outside the float range\n"


def _per_line_values(path):
    """The values file read line by line: int when a line is an integer literal, float otherwise."""

    def number(text):
        try:
            return int(text)
        except ValueError:
            return float(text)

    rows = [number(line) for line in Path(path).read_text().splitlines() if line.strip()]
    exact = all(isinstance(r, int) for r in rows)
    try:
        return np.array(rows, dtype=np.int64 if exact else float)
    except OverflowError as exc:
        raise ValueError(f"integer value in {path} outside the {'int64' if exact else 'float'} range") from exc


_INTEGER_LITERALS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["-0", "+0", "-00", "0", "1_000", "-1_0", " 7 ", "\t-3", "\u0661\u0662", "-\u0660",
                     "\uff17", str(2**63), str(-(2**63) - 1), str(10**400), f"-{10**400}",
                     str(2**1024 - 2**970), str(2**1024 - 2**970 - 1)]),
)
_FLOAT_LITERALS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["-0.0", "0.0", "1e400", "-1e400", "inf", "-inf", "nan", "1_0.5", "\u0661.5", " 2.5 "]),
)
_BAD_LITERALS = st.sampled_from(["abc", "1__0", "0x10", "1.2.3", "_1", "--1"])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(_INTEGER_LITERALS, _FLOAT_LITERALS, _BAD_LITERALS), min_size=1, max_size=6)
       | st.lists(_INTEGER_LITERALS, min_size=1, max_size=6))
def test_values_file_reads_as_line_by_line(tmp_path, literals):
    # the reader decides int or float once per file; every value and every refusal is the per-line one
    path = tmp_path / "values.txt"
    path.write_text("\n".join(literals) + "\n")
    try:
        want = _per_line_values(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _read_values(path)
        assert str(got.value) == str(exc)
        return
    got = _read_values(path)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_python_dash_m_runs_the_cli():
    import ladderfield

    package_parent = Path(ladderfield.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_parent)}
    done = subprocess.run(
        [sys.executable, "-m", "ladderfield", "--version"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ladderfield 0.1.0\n"


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("scc", "--n", "6", "--beta", "inf"), "inf"),
        (("spectrum", "--n", "6", "--beta", "nan"), "nan"),
        (("spectrum", "--n", "6", "--beta=-inf", "--lorentzian"), "-inf"),
        (("partition", "--source", "preset:twin6", "--beta", "inf"), "inf"),
        # a NaN alpha was once called an overflow of the source
        (("scc", "--n", "6", "--alpha", "nan"), "nan"),
        (("partition", "--source", "preset:twin6", "--alpha", "nan"), "nan"),
    ],
)
def test_non_finite_coupling_is_an_error(argv, shown):
    rc, out, err = run(*argv)
    name = "alpha" if "--alpha" in argv else "beta"
    assert (rc, out, err) == (1, "", f"error: coupling {name} must be finite, got {shown}\n")


def test_partition_reads_no_operator_so_only_the_spectrum_bounds_beta():
    # beta = 2**62 would overflow an int64 K, which partition never builds; scc still refuses it
    rc, out, _ = run("partition", "--source", "preset:twin6", "--beta", str(2**62))
    assert rc == 0 and body(out)[1].endswith(",5")
    rc, _, err = run("scc", "--from-vertices", "preset:twin6", "--beta", str(2**62))
    assert rc == 1 and err.startswith("error: integer arithmetic would overflow int64")
    rc, out, err = run("partition", "--source", "preset:twin6", "--beta", "1e308")
    assert (rc, out) == (1, "")
    assert err == "error: closed-form spectrum is not finite: the inputs overflow the float range\n"


@pytest.mark.parametrize(
    "contents, argv, message",
    [
        ("# only a comment\n", ("partition", "--source", "{path}"), "no values found in {path}"),
        (None, ("partition", "--source", "preset:nope"), "unknown preset 'nope'"),
        (None, ("partition", "--source", "preset:twin6", "--n", "8"), "preset 'twin6' fixes N=6, got --n 8"),
        ("1\n2\n3\n4\n5\n", ("partition", "--source", "{path}"), "5 link values do not fit any ladder graph"),
        ("1\n2\n3\n4\n5\n6\n7\n", ("partition", "--source", "{path}", "--n", "8"),
         "--n 8 does not match 7 link values (N=6)"),
        (None, ("twinslit", "--n", "8", "--d", "4", "--L", "500", "--lambda", "1", "--y-range=0:1:0"),
         "steps must be >= 1"),
    ],
    ids=["comments-only", "unknown-preset", "preset-size", "no-ladder", "size-mismatch", "zero-steps"],
)
def test_cli_refusals_name_the_input(tmp_path, contents, argv, message):
    path = tmp_path / "values.txt"
    if contents is not None:
        path.write_text(contents)
    rc, out, err = run(*(arg.format(path=path) for arg in argv))
    assert (rc, out, err) == (1, "", f"error: {message.format(path=path)}\n")


def test_plot_script_refused_for_a_csv_with_no_header_row(tmp_path):
    from ladderfield.cli import emit_plot_script

    target = tmp_path / "empty.csv"
    target.write_text("# version=0.1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(target))} contains no header row$"):
        emit_plot_script(target)


def test_partition_oracles_at_restricted_dimension_zero(tmp_path):
    src = tmp_path / "zeros.txt"
    src.write_text("0\n" * 7)
    for oracle in ("quadrature", "mc"):
        rc, out, err = run("partition", "--source", str(src), "--beta", "0", "--oracle", oracle)
        assert (rc, err) == (0, "")
        assert body(out) == ["log_Z,exponent_term,restricted_dim,oracle_log_Z,abs_err", "0,0,0,0,0"]


@pytest.mark.parametrize(
    "d, L, lam, message",
    [
        ("10", "1000", "1e-200", "lambda_hat=1e-200 gives"),
        ("10", "1000", "1e200", "lambda_hat=1e+200 gives"),
        # neither NaN nor inf is a positive finite wavelength: refused before the calibration
        ("10", "1000", "inf", "wavelength must be a positive finite number, got inf"),
        ("10", "1000", "nan", "wavelength must be a positive finite number, got nan"),
        ("nan", "1000", "2", "path lengths must be finite, got nan and nan"),
        # a row that fails two checks is refused on the first: its path lengths
        ("nan", "1000", "inf", "path lengths must be finite, got nan and nan"),
        ("10", "inf", "2", "path lengths must be finite, got inf and inf"),
        # the couplings fit, but the phase difference overflows
        ("10", "1000", "1e-150", "phase difference at y=-1 is not finite"),
        # finite, but one ulp of the phase exceeds MAXIMUM_PHASE_TOL (|phase| >= 2**23)
        ("10", "1000", "5e-9", "phase difference at y=-1 is 12566207.2554 rad, too large to resolve"),
        ("10", "1000", "1e-20", "phase difference at y=-1 is 6.28310362735e+18 rad, too large"),
    ],
)
def test_twinslit_refuses_what_the_calibration_cannot_represent(d, L, lam, message):
    rc, out, err = run("twinslit", "--n", "8", "--d", d, "--L", L, "--lambda", lam,
                       "--y-range=-1:1:2")
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_twinslit_still_sweeps_phases_whose_ulp_resolves_a_maximum():
    rc, out, err = run("twinslit", "--n", "8", "--d", "10", "--L", "1000", "--lambda", "1e-8",
                       "--y-range=-1:1:2")
    assert (rc, err) == (0, "")
    assert body(out)[1:] == ["-1,6283103.6275,999987,false,3.99999729777",
                             "1,-6283103.6275,-999987,false,3.99999729777"]


# ---------------------------------------------------------------------------
# byte pins: the output of the earlier per-entry formatting and running maxima


def _reference_fmt(x):
    """The formatting that took numpy scalars one at a time."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _reference_matrix_block(label, M):
    """The operator block with every entry formatted, then split and right-justified."""
    rows = [" ".join(map(_reference_fmt, row.tolist())) for row in M]
    width = max(len(cell) for row in rows for cell in row.split(" "))
    return [label] + ["      " + " ".join(cell.rjust(width) for cell in row.split(" ")) for row in rows]


@pytest.mark.parametrize("n", [4, 6, 160, 600])  # 600: two blocks of cells
@pytest.mark.parametrize(
    "alpha, beta, shown",
    [(3, 2, " -2 "), (1.0, -1.5, " -0 "), (2, 1e-7, "e-07 ")],
    ids=["int", "negative-float", "exponent-widths"],
)
def test_operator_block_bytes_match_the_per_entry_reference(n, alpha, beta, shown):
    from ladderfield.chain_complex import build_chain_complex
    from ladderfield.cli import _matrix_block
    from ladderfield.scc import build_system, gradient_link_values

    c = build_chain_complex(n)
    v = np.random.default_rng(n).integers(-9, 10, size=n)
    K = build_system(c, 1, gradient_link_values(c, v), alpha=alpha, beta=beta).K
    block = _matrix_block("  operator K", K)
    assert block == _reference_matrix_block("  operator K", K)
    assert shown in " ".join(block) + " "


def _with_header(seed, lines):
    from ladderfield import __version__

    return "\n".join([f"# version={__version__}", f"# seed={seed}", *lines]) + "\n"


def _reference_gauge_check(trials, seed):
    """gauge-check with one running maximum per residual, updated in place."""
    from ladderfield.gauge_continuum import (
        fierz_pauli_apply, fierz_pauli_kernel, gauge_tensor, maxwell_kernel,
        minkowski_square, null_residual, sym_to_vec,
    )

    rng = np.random.default_rng(seed)

    def draw_momentum():
        while True:
            k = rng.uniform(-10.0, 10.0, size=4)
            if abs(minkowski_square(k)) >= 0.1:
                return k

    worst = {
        ("maxwell", "gauge-annihilation"): 0.0,
        ("maxwell", "transversality"): 0.0,
        ("fierz_pauli", "gauge-annihilation"): 0.0,
        ("fierz_pauli", "transversality"): 0.0,
    }
    for _ in range(trials):
        k = draw_momentum()
        knorm = float(np.linalg.norm(k))
        M = maxwell_kernel(k)
        worst["maxwell", "gauge-annihilation"] = max(
            worst["maxwell", "gauge-annihilation"], null_residual(M, k)
        )
        x = rng.normal(size=4)
        div = float(k @ (M @ x))
        scale = float(np.linalg.norm(M, 2)) * float(np.linalg.norm(x)) * knorm
        worst["maxwell", "transversality"] = max(worst["maxwell", "transversality"], abs(div) / scale)
        F = fierz_pauli_kernel(k)
        eps = rng.normal(size=4)
        worst["fierz_pauli", "gauge-annihilation"] = max(
            worst["fierz_pauli", "gauge-annihilation"],
            null_residual(F, sym_to_vec(gauge_tensor(k, eps))),
        )
        H = rng.normal(size=(4, 4))
        H = H + H.T
        div_t = k @ fierz_pauli_apply(k, H)
        scale = float(np.linalg.norm(F, 2)) * float(np.linalg.norm(H)) * knorm
        worst["fierz_pauli", "transversality"] = max(
            worst["fierz_pauli", "transversality"], float(np.linalg.norm(div_t)) / scale
        )
    lines = ["kernel,property,max_residual"]
    lines += [f"{kernel},{prop},{_reference_fmt(value)}" for (kernel, prop), value in worst.items()]
    return _with_header(seed, lines)


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 2024])
@pytest.mark.parametrize("trials", [0, 1, 20, 36, 48, 200, 1100])  # 1100: two stacks
def test_gauge_check_bytes_match_the_running_maximum_reference(trials, seed):
    assert run("gauge-check", "--trials", str(trials), "--seed", str(seed)) == (
        0, _reference_gauge_check(trials, seed), ""
    )


def _reference_spectrum(n, beta, lorentzian):
    from ladderfield.spectral import continue_to_lorentzian, ladder_spectrum_closed_form

    spectrum = ladder_spectrum_closed_form(n, beta=beta)
    if lorentzian:
        spectrum = continue_to_lorentzian(spectrum, n)
    zero = set(spectrum.zero_modes)
    lines = ["index,eigenvalue,parity,is_zero_mode"]
    for i in range(spectrum.n_modes):
        value, parity = spectrum.eigenvalues[i], spectrum.parity[i] or ""
        lines.append(f"{i},{_reference_fmt(value)},{parity},{_reference_fmt(i in zero)}")
    return _with_header(0, lines)


@pytest.mark.parametrize(
    "flags, beta, lorentzian", [(("--beta", "-1.5"), -1.5, False), (("--beta", "2", "--lorentzian"), 2, True)]
)
@pytest.mark.parametrize("n", [130, 2048])
def test_spectrum_bytes_match_the_per_entry_reference(n, flags, beta, lorentzian):
    assert run("spectrum", "--n", str(n), *flags) == (0, _reference_spectrum(n, beta, lorentzian), "")


def _reference_scc(v, seed, alpha, beta):
    from ladderfield.chain_complex import build_chain_complex
    from ladderfield.scc import build_system, gradient_link_values, verify_scc

    n = v.size
    c = build_chain_complex(n)
    e = gradient_link_values(c, v)
    system = build_system(c, 1, e, alpha=alpha, beta=beta)
    report = verify_scc(system, v)
    vec = lambda x: " ".join(_reference_fmt(t) for t in x)
    cells = [[_reference_fmt(t) for t in row] for row in system.K]
    width = max(len(cell) for row in cells for cell in row)
    lines = [
        "self-consistency report",
        f"  n_vertices              {n}",
        "  degree                  1",
        f"  alpha                   {_reference_fmt(alpha)}",
        f"  beta                    {_reference_fmt(beta)}",
        f"  arithmetic              {'exact' if report.exact else 'float'}",
        f"  vertex values           {vec(v)}",
        f"  link values             {vec(e)}",
        f"  source J                {vec(system.J)}",
        "  operator K",
        *("      " + " ".join(cell.rjust(width) for cell in row) for row in cells),
        f"  identity max residual   {_reference_fmt(report.max_identity_residual)}",
        f"  source sum              {_reference_fmt(report.source_sum)}",
        f"  constant-mode residual  {_reference_fmt(report.max_constant_mode_residual)}",
        "  verdict                 PASS",
    ]
    return _with_header(seed, lines)


@pytest.mark.parametrize("n", [64, 130, None], ids=["64", "130", "preset"])
def test_scc_bytes_match_the_per_entry_reference(n):
    from ladderfield.cli import PRESET_VERTICES

    if n is None:
        argv, seed, v = ("--from-vertices", "preset:twin6"), 0, PRESET_VERTICES["twin6"]
    else:
        argv, seed, v = ("--n", str(n), "--seed", "3"), 3, np.random.default_rng(3).integers(-9, 10, size=n)
    want = _reference_scc(v, seed, 0.5, 2.5)
    assert run("scc", *argv, "--alpha", "0.5", "--beta", "2.5") == (0, want, "")


def test_the_reused_parser_keeps_no_state_between_calls():
    graph6 = (FIXTURES / "graph" / "ladder6.csv").read_text()
    assert run("graph", "--n", "6", "--frobnicate")[0] == 2
    assert run("graph", "--n", "6") == (0, graph6, "")
    assert run("spectrum", "--n", "6", "--gnuplot")[0] == 2
    rc, out, err = run("spectrum", "--n", "6")
    assert (rc, err) == (0, "") and out == run("spectrum", "--n", "6")[1]
    assert run("partition", "--source", "preset:twin6", "--oracle", "mc", "--budget", "2000")[0] == 0
    rc, out, _ = run("partition", "--source", "preset:twin6")
    assert rc == 0 and body(out)[0] == "log_Z,exponent_term,restricted_dim" and len(body(out)[1].split(",")) == 3
    assert run("graph", "--n", "6") == (0, graph6, "")


def test_importing_the_cli_builds_no_parser():
    import ladderfield

    package_parent = Path(ladderfield.__file__).resolve().parents[1]
    probe = "import ladderfield.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(package_parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
