"""End-to-end exercises of the command line surface."""

import io
import contextlib
import importlib.metadata
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ladderfield.cli import main

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
