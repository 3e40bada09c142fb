"""Command-line front end.

One executable, one subcommand per module.  Each subcommand returns its
body lines; ``main`` prefixes the ``# version=`` and ``# seed=`` metadata
lines and writes the whole text once, so identical invocations produce
identical bytes.  Exit codes: 0 success, 1 domain error
(message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain_complex import _data_lines, build_chain_complex, build_ladder_graph, serialize_graph
from .gauge_continuum import _gauge_residuals, minkowski_square
from .partition import brute_force_Z, euclidean_Z
from .scc import build_system, gradient_link_values, verify_scc
from .spectral import continue_to_lorentzian, ladder_spectrum_closed_form
from .twinslit import _fringe_sweep

OUTPUT_DIR_ENV = "LADDERFIELD_OUTPUT_DIR"

#: Vertex values behind the six-vertex preset; its gradient supplies link values.
PRESET_VERTICES = {"twin6": np.array([0, 2, 1, 4, 3, 7])}

_SPECTRUM_HEADER = "index,eigenvalue,parity,is_zero_mode"
_TWINSLIT_HEADER = "y,delta_phi,n_nearest,is_maximum,nrqm_intensity"
#: Table rows, each formatted by one "%" operation: "%.12g" prints a float as _fmt does.
_SPECTRUM_ROW = "%d,%.12g,%s,%s"
_TWINSLIT_ROW = "%.12g,%.12g,%d,%s,%.12g"


def _fmt(x) -> str:
    """A Python bool, int or float as printed; arrays reach it through ``tolist()``."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, ".12g")


def _numbers(lines: list[str]) -> list:
    """The lines' values, their kind decided once for all of them: ints when every line is an
    integer literal, floats otherwise.  Among floats an integer literal reads as
    float(int(text)): -0 gives +0.0, and past the float range it raises OverflowError."""
    try:
        return list(map(int, lines))
    except ValueError:  # some line is no integer literal
        values = list(map(float, lines))
    floats = np.array(values)
    # float(text) rounds as float(int(text)) does, so only a -0.0 or an infinity can differ
    for i in np.flatnonzero(np.isinf(floats) | (floats == 0.0) & np.signbit(floats)).tolist():
        try:
            values[i] = float(int(lines[i]))
        except ValueError:  # a float literal keeps its float
            pass
    return values


def _coupling(text: str):
    """A coupling literal, read as a one-line values file: int or float."""
    return _numbers([text])[0]


def _read_values(path: str) -> np.ndarray:
    lines = _data_lines(Path(path).read_text())
    if not lines:
        raise ValueError(f"no values found in {path}")
    exact = False
    try:
        rows = _numbers(lines)
        exact = isinstance(rows[0], int)
        return np.array(rows, dtype=np.int64 if exact else float)
    except OverflowError as exc:  # an integer literal past the int64, or the float, range
        raise ValueError(f"integer value in {path} outside the {'int64' if exact else 'float'} range") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_graph(args) -> list[str]:
    return [serialize_graph(build_ladder_graph(args.n)).rstrip("\n")]


def _cmd_spectrum(args) -> list[str]:
    spectrum = ladder_spectrum_closed_form(args.n, beta=args.beta)
    if args.lorentzian:
        spectrum = continue_to_lorentzian(spectrum, args.n)
    zero = set(spectrum.zero_modes)
    rows = enumerate(zip(spectrum.eigenvalues.tolist(), spectrum.parity))
    return [_SPECTRUM_HEADER] + [
        _SPECTRUM_ROW % (i, value, parity or "", _fmt(i in zero)) for i, (value, parity) in rows
    ]


def _preset(spec: str, n: int | None) -> np.ndarray | None:
    """Vertex values of a 'preset:NAME' spec (None for any other spec), checked against --n."""
    if not spec.startswith("preset:"):
        return None
    name = spec.split(":", 1)[1]
    if name not in PRESET_VERTICES:
        raise ValueError(f"unknown preset {name!r}")
    size = PRESET_VERTICES[name].size
    if n is not None and n != size:
        raise ValueError(f"preset {name!r} fixes N={size}, got --n {n}")
    return PRESET_VERTICES[name]


def _resolve_vertices(args) -> np.ndarray:
    spec = args.from_vertices
    if spec == "random":
        rng = np.random.default_rng(args.seed)
        return rng.integers(-9, 10, size=args.n)
    preset = _preset(spec, args.n)
    return _read_values(spec) if preset is None else preset


def _matrix_block(label: str, M: np.ndarray) -> list[str]:
    """The label, then M's rows with each cell right-justified to the widest.  Each distinct
    entry is formatted once, keyed by its bits (so -0.0 keeps its own cell apart from 0.0);
    blocks of about 2**18 cells keep the temporaries of a large M small."""
    blocks = np.array_split(np.ascontiguousarray(M).view(f"u{M.itemsize}"), -(-M.size // 2**18))
    keys = np.unique(np.concatenate([np.unique(block) for block in blocks]))
    cells = [_fmt(x) for x in keys.view(M.dtype).tolist()]
    width = max(map(len, cells))
    padded = np.array([" " + cell.rjust(width) for cell in cells], dtype="S")
    rows = (padded[np.searchsorted(keys, block)].view(np.uint8) for block in blocks)
    return [label] + ["     " + row.tobytes().decode() for block in rows for row in block]


def _cmd_scc(args) -> list[str]:
    v = _resolve_vertices(args)
    n = int(v.size)
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} does not match {n} vertex values")
    c = build_chain_complex(n)
    e = gradient_link_values(c, v)
    system = build_system(c, 1, e, alpha=args.alpha, beta=args.beta)
    report = verify_scc(system, v)

    vec = lambda x: " ".join(map(_fmt, x.tolist()))
    return [
        "self-consistency report",
        f"  n_vertices              {n}",
        f"  degree                  1",
        f"  alpha                   {_fmt(args.alpha)}",
        f"  beta                    {_fmt(args.beta)}",
        f"  arithmetic              {'exact' if report.exact else 'float'}",
        f"  vertex values           {vec(v)}",
        f"  link values             {vec(e)}",
        f"  source J                {vec(system.J)}",
        *_matrix_block("  operator K", system.K),
        f"  identity max residual   {_fmt(report.max_identity_residual)}",
        f"  source sum              {_fmt(report.source_sum)}",
        f"  constant-mode residual  {_fmt(report.max_constant_mode_residual)}",
        "  verdict                 PASS",
    ]


def _resolve_source(args):
    """(n_vertices, link values) from --source / --n."""
    spec = args.source
    preset = _preset(spec, args.n)
    if preset is not None:
        return preset.size, gradient_link_values(build_chain_complex(preset.size), preset)
    e = _read_values(spec)
    n = round((e.size + 2) * 2 / 3)  # links = 3N/2 - 2
    if 3 * n // 2 - 2 != e.size or n % 2:
        raise ValueError(f"{e.size} link values do not fit any ladder graph")
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} does not match {e.size} link values (N={n})")
    return n, e


def _cmd_partition(args) -> list[str]:
    n, e = _resolve_source(args)
    c = build_chain_complex(n)
    system = build_system(c, 1, e, alpha=args.alpha, beta=args.beta)
    spectrum = ladder_spectrum_closed_form(n, beta=args.beta)
    result = euclidean_Z(system, spectrum)

    header = "log_Z,exponent_term,restricted_dim"
    row = f"{_fmt(result.log_magnitude)},{_fmt(result.exponent_term)},{result.restricted_dimension}"
    if args.oracle:
        oracle = brute_force_Z(
            system, spectrum, method=args.oracle, budget=args.budget, seed=args.seed
        )
        header += ",oracle_log_Z,abs_err"
        row += f",{_fmt(oracle.log_magnitude)},{_fmt(abs(oracle.log_magnitude - result.log_magnitude))}"
    return [header, row]


def _parse_range(text: str) -> np.ndarray:
    m = re.fullmatch(r"([^:]+):([^:]+):(\d+)", text)
    if not m:
        raise ValueError(f"bad range {text!r}; expected start:stop:steps")
    start, stop, steps = float(m.group(1)), float(m.group(2)), int(m.group(3))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return np.linspace(start, stop, steps)


def _cmd_twinslit(args) -> list[str]:
    ys = _parse_range(args.y_range).tolist()
    rows = zip(ys, _fringe_sweep(args.n, args.d, args.L, args.lam, ys))
    return [_TWINSLIT_HEADER] + [
        _TWINSLIT_ROW % (y, dphi, nearest, _fmt(is_max), intensity)
        for y, (dphi, nearest, is_max, intensity) in rows
    ]


#: Row labels of the gauge-check table, in the column order of its residual rows.
_GAUGE_CHECKS = (
    "maxwell,gauge-annihilation",
    "maxwell,transversality",
    "fierz_pauli,gauge-annihilation",
    "fierz_pauli,transversality",
)
#: Trials evaluated per stack: bounds the memory of a large --trials.
_TRIALS_PER_STACK = 1024


def _cmd_gauge_check(args) -> list[str]:
    if args.trials < 0:
        raise ValueError(f"--trials must be a non-negative trial count, got {args.trials}")
    rng = np.random.default_rng(args.seed)

    def draw_momentum():
        while True:
            k = rng.uniform(-10.0, 10.0, size=4)
            if abs(minkowski_square(k)) >= 0.1:
                return k

    worst = np.zeros(len(_GAUGE_CHECKS))  # --trials 0 reports zeros
    for first in range(0, args.trials, _TRIALS_PER_STACK):
        # draw order k, x, eps, H per trial fixes the output for a seed
        draws = [(draw_momentum(), rng.normal(size=4), rng.normal(size=4), rng.normal(size=(4, 4)))
                 for _ in range(min(_TRIALS_PER_STACK, args.trials - first))]
        k, x, eps, H = map(np.array, zip(*draws))
        worst = np.maximum(worst, np.max(_gauge_residuals(k, x, eps, H + np.swapaxes(H, -1, -2)), axis=0))
    return ["kernel,property,max_residual"] + [
        f"{check},{_fmt(value)}" for check, value in zip(_GAUGE_CHECKS, worst.tolist())
    ]


# ---------------------------------------------------------------------------
# plot scripts


#: The gnuplot lines of each plotted table after the shared preamble; {name} is the CSV's file name.
_PLOTS = {
    _SPECTRUM_HEADER: ("set xlabel 'mode index'", "set ylabel 'eigenvalue'", "set style data impulses",
                       "plot '{name}' using 1:2 lw 2 title 'eigenvalue'"),
    _TWINSLIT_HEADER: ("set xlabel 'detector position'", "set ylabel 'intensity'",
                       "plot '{name}' using 1:5 with lines title 'reference intensity'"),
}


def emit_plot_script(csv_path) -> Path:
    """Write a gnuplot script next to the CSV, dispatching on its header row."""
    csv_path = Path(csv_path)
    rows = _data_lines(csv_path.read_text())
    if not rows:
        raise ValueError(f"{csv_path} contains no header row")
    header = rows[0]
    if header not in _PLOTS:
        raise ValueError(f"no plot defined for schema: {header}")
    lines = ["set datafile separator ','", "set key autotitle columnhead", *_PLOTS[header]]
    script_path = csv_path.with_suffix(".gp")
    script_path.write_text("\n".join(lines).format(name=csv_path.name) + "\n")
    return script_path


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderfield",
        description="Gaussian field numerics on ladder graphs",
        epilog=f"Relative --output paths resolve against ${OUTPUT_DIR_ENV} when it is set.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the header")

    p = sub.add_parser("graph", help="emit the ladder graph serialization")
    p.add_argument("--n", type=int, required=True, help="vertex count (even, >= 4)")
    common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("spectrum", help="closed-form ladder spectrum as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=_coupling, default=1.0)
    p.add_argument("--lorentzian", action="store_true", help="continue the spectrum")
    p.add_argument("--gnuplot", action="store_true", help="emit a plot script next to --output")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scc", help="verify the operator/source identity")
    p.add_argument("--n", type=int, default=None)
    p.add_argument(
        "--from-vertices",
        default="random",
        help="'random', 'preset:twin6', or a file of vertex values",
    )
    p.add_argument("--alpha", type=_coupling, default=1)
    p.add_argument("--beta", type=_coupling, default=1)
    common(p)
    p.set_defaults(func=_cmd_scc)

    p = sub.add_parser("partition", help="restricted partition function as CSV")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--source", required=True, help="file of link values, or preset:twin6")
    p.add_argument("--alpha", type=_coupling, default=1)
    p.add_argument("--beta", type=_coupling, default=1)
    p.add_argument("--oracle", choices=["quadrature", "mc"], default=None)
    p.add_argument("--budget", type=int, default=200_000)
    common(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("twinslit", help="fringe sweep over detector positions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True, help="slit separation")
    p.add_argument("--L", type=float, required=True, help="screen distance")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="wavelength")
    p.add_argument("--y-range", required=True, help="start:stop:steps detector sweep")
    p.add_argument("--gnuplot", action="store_true", help="emit a plot script next to --output")
    common(p)
    p.set_defaults(func=_cmd_twinslit)

    p = sub.add_parser("gauge-check", help="continuum kernel residuals as CSV")
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=_cmd_gauge_check)

    return parser


def _resolve_output(raw: str | None) -> Path | None:
    if raw is None:
        return None
    path = Path(raw)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "gnuplot", False) and args.output is None:
        parser.error("--gnuplot requires --output")

    try:
        if args.seed < 0:  # every seeded draw needs a non-negative seed, and the header records it
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        # one join, with the trailing newline: no line outlives it, and no second copy of the text
        text = "\n".join([f"# version={__version__}", f"# seed={args.seed}", *args.func(args), ""])
        out = _resolve_output(args.output)
        if out is None:
            sys.stdout.write(text)
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
            if getattr(args, "gnuplot", False):
                emit_plot_script(out)
    except (ValueError, OSError) as exc:  # SccViolation and friends included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    raise SystemExit(main())
