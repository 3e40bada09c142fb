"""The benchmark's three workloads: seeded inputs, one task, and its check.

Every workload makes a pool of ``POOL`` task inputs from the seed during
set-up.  The timed loop walks the pool in order and starts again from the
top if a run ever gets through all of it.  ``run`` calls the library (or
``cli.main``) on one input; ``check`` verifies the output by a route that
does not share code with the one that produced it, and raises
``CheckFailed`` when it disagrees.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

import ladderfield as lf
from ladderfield import cli

POOL = 4096

#: Gaussian-oracle agreement bound in standard errors.  With a few hundred
#: Monte Carlo tasks per run, 4 SE would raise a false alarm on a correct
#: estimator in about 2% of runs; 5 SE keeps that below 2e-4 per run.
MC_SE_BOUND = 5.0


class CheckFailed(AssertionError):
    """A task's output disagrees with the independent route."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got: float, want: float, rtol: float, what: str) -> None:
    expect(
        abs(got - want) <= rtol * max(abs(want), 1.0),
        f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})",
    )


# ---------------------------------------------------------------------------
# ladder structure rebuilt by index arithmetic, independent of the library


def ladder_gradient(v: np.ndarray) -> np.ndarray:
    """Rail-major link values head - tail: left rail, right rail, rungs."""
    half = v.size // 2
    left, right = v[:half], v[half:]
    return np.concatenate([np.diff(left), np.diff(right), right - left])


def ladder_laplacian(n: int) -> np.ndarray:
    """Graph Laplacian of the ladder on n vertices (equal to d1 @ d1.T)."""
    half = n // 2
    adj = np.zeros((n, n))
    for offset in (0, half):
        a = np.arange(offset, offset + half - 1)
        adj[a, a + 1] = adj[a + 1, a] = 1.0
    r = np.arange(half)
    adj[r, r + half] = adj[r + half, r] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


def restricted_log_z(n: int, e: np.ndarray) -> float:
    """log |Z| at alpha = beta = 1 for a gradient source with link values e.

    The exponent is |e|^2 / 2 (J = L v, so J.L+.J = v.L.v), and the mode
    volume uses det(L + 11^T / n), which equals the product of the
    nonzero Laplacian eigenvalues.
    """
    _, logdet = np.linalg.slogdet(ladder_laplacian(n) + 1.0 / n)
    return 0.5 * (n - 1) * math.log(2.0 * math.pi) - 0.5 * logdet + 0.5 * float(e @ e)


def spread(rng: np.random.Generator, count: int, lo: int, hi: int, step: int = 1) -> np.ndarray:
    """``count`` values from lo..hi (inclusive, on ``step``) along a golden-ratio
    sequence with a seeded start: every prefix covers the range evenly, and
    values repeat only once the range is used up."""
    slots = (hi - lo) // step + 1
    u = (rng.random() + np.arange(count) * 0.6180339887498949) % 1.0
    return lo + step * np.floor(u * slots).astype(np.int64)


def task_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, 2**31 - 1, size=count)


# ---------------------------------------------------------------------------
# sweep-large


class SweepLarge:
    """Fresh integer vertex field per task on the N=512 ladder, alpha=2, beta=3."""

    name = "sweep-large"
    N = 512
    ALPHA = 2
    BETA = 3

    def inputs(self, rng, workdir):
        fields = rng.integers(-9, 10, size=(POOL, self.N), dtype=np.int8)
        return list(fields)

    def run(self, field):
        n, alpha, beta = self.N, self.ALPHA, self.BETA
        v = field.astype(np.int64)
        c = lf.build_chain_complex(n)
        e = lf.gradient_link_values(c, v)
        system = lf.build_system(c, 1, e, alpha=alpha, beta=beta)
        report = lf.verify_scc(system, v)
        spectrum = lf.ladder_spectrum_closed_form(n, beta=beta)
        z = lf.euclidean_Z(system, spectrum)
        q = lf.classical_solution(system, spectrum)
        phase = lf.phase_decomposition(e, n, alpha, 1.0, beta)
        return {
            "exact": report.exact,
            "exponent_term": z.exponent_term,
            "phase_total": phase.total,
            "K": system.K,
            "J": system.J,
            "Q": q,
        }

    def check(self, field, out):
        expect(out["exact"] is True, "verify_scc did not take the exact integer path")
        close(out["phase_total"], out["exponent_term"], 1e-9, "phase total vs exponent term")
        J = np.asarray(out["J"], dtype=float)
        resid = float(np.max(np.abs(np.asarray(out["K"], dtype=float) @ out["Q"] - J)))
        expect(resid <= 1e-9 * max(float(np.max(np.abs(J))), 1.0), f"K.Q - J residual {resid:.3e}")


# ---------------------------------------------------------------------------
# oracle-small


@dataclass(frozen=True)
class OracleCase:
    n: int
    method: str
    budget: int
    scale: float


@dataclass(frozen=True)
class OracleInput:
    case: OracleCase
    field: np.ndarray
    seed: int


class OracleSmall:
    """Criterion-04 mix: two quadrature cases and one Monte Carlo case, rotating."""

    name = "oracle-small"
    CASES = (
        OracleCase(4, "quadrature", 64**3, 0.8),
        OracleCase(6, "quadrature", 24**5, 0.7),
        OracleCase(10, "mc", 200_000, 0.3),
    )

    def inputs(self, rng, workdir):
        seeds = task_seeds(rng, POOL)
        pool = []
        for i in range(POOL):
            case = self.CASES[i % len(self.CASES)]
            # A Gaussian direction, scaled so the source strength |e|^2 sits
            # at its mean for the case's scale, scale^2 tr(L).  Unscaled
            # fields have a long upper tail where the fixed budgets no longer
            # resolve the integral, and the oracles say so themselves through
            # error_estimate and underresolved.  Measured on unscaled fields:
            # the Monte Carlo case fell under its effective-size floor on 5
            # of 300, and one N=6 quadrature in about 2600 (|e|^2 = 40, six
            # times the mean) missed 1e-6.
            v = rng.standard_normal(case.n)
            e = ladder_gradient(v)
            v *= math.sqrt(case.scale**2 * (3 * case.n - 4) / float(e @ e))
            pool.append(OracleInput(case, v, int(seeds[i])))
        return pool

    def run(self, inp):
        case = inp.case
        c = lf.build_chain_complex(case.n)
        system = lf.build_system(c, 1, lf.gradient_link_values(c, inp.field))
        spectrum = lf.ladder_spectrum_closed_form(case.n)
        closed = lf.euclidean_Z(system, spectrum)
        oracle = lf.brute_force_Z(
            system, spectrum, method=case.method, budget=case.budget, seed=inp.seed
        )
        return closed, oracle

    def check(self, inp, out):
        closed, oracle = out
        expect(not oracle.underresolved, f"{inp.case.method} oracle underresolved")
        if inp.case.method == "quadrature":
            diff = abs(oracle.log_magnitude - closed.log_magnitude)
            expect(
                diff <= 1e-6 * abs(closed.log_magnitude),
                f"quadrature off by {diff:.3e} at N={inp.case.n}",
            )
        else:
            diff = abs(oracle.log_magnitude - closed.log_magnitude)
            expect(
                diff <= MC_SE_BOUND * oracle.error_estimate,
                f"mc off by {diff:.3e} > {MC_SE_BOUND:g} SE ({oracle.error_estimate:.3e})",
            )


# ---------------------------------------------------------------------------
# cli-mixed


@dataclass(frozen=True)
class CliInput:
    kind: str
    argv: tuple[str, ...]
    links: np.ndarray | None = None


def data_rows(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


class CliMixed:
    """In-process ``cli.main`` calls rotating through the six subcommands."""

    name = "cli-mixed"
    KINDS = ("twinslit", "gauge-check", "spectrum", "scc", "graph", "partition")
    TWINSLIT_POINTS = 2000
    MC_BUDGET = 200_000
    #: |e|^2 of the generated partition link files: weak enough that the
    #: Monte Carlo oracle keeps an effective sample size near 1e5.
    WEAK_STRENGTH = 0.5
    #: Link files written at set-up.  Partition tasks cycle through them,
    #: each with its own Monte Carlo seed; writing one file per pool entry
    #: made set-up time follow the file system's latency.
    LINK_FILES = 128

    def inputs(self, rng, workdir):
        per_kind = -(-POOL // len(self.KINDS))
        seeds = task_seeds(rng, per_kind)
        twin_n = spread(rng, per_kind, 8, 64, 2)
        trials = spread(rng, per_kind, 24, 48)
        spec_n = spread(rng, per_kind, 1024, 2048, 2)
        scc_n = spread(rng, per_kind, 100, 160, 2)
        graph_n = spread(rng, per_kind, 4000, 6000, 2)
        link_files = []
        for f, n in enumerate(spread(rng, self.LINK_FILES, 8, 14, 2)):
            links = ladder_gradient(rng.standard_normal(n))
            links *= math.sqrt(self.WEAK_STRENGTH / float(links @ links))
            path = workdir / f"links{f}.txt"
            path.write_text("".join(f"{x!r}\n" for x in links.tolist()))
            link_files.append((path, links))
        pool = []
        for i in range(POOL):
            kind, j = self.KINDS[i % len(self.KINDS)], i // len(self.KINDS)
            seed = str(seeds[j])
            links = None
            if kind == "twinslit":
                lo, hi = [5.0, 500.0, 0.5, 20.0], [20.0, 2000.0, 4.0, 60.0]
                d, screen, lam, y = map(float, rng.uniform(lo, hi))
                argv = (
                    "twinslit", "--n", str(twin_n[j]), "--d", repr(d), "--L", repr(screen),
                    "--lambda", repr(lam), f"--y-range={-y!r}:{y!r}:{self.TWINSLIT_POINTS}",
                )
            elif kind == "gauge-check":
                argv = ("gauge-check", "--trials", str(trials[j]), "--seed", seed)
            elif kind == "spectrum":
                beta = int(rng.integers(1, 4))
                argv = ("spectrum", "--n", str(spec_n[j]), "--beta", str(beta), "--lorentzian")
            elif kind == "scc":
                alpha, beta = (int(x) for x in rng.integers(1, 4, size=2))
                argv = ("scc", "--n", str(scc_n[j]), "--seed", seed,
                        "--alpha", str(alpha), "--beta", str(beta))
            elif kind == "graph":
                argv = ("graph", "--n", str(graph_n[j]))
            else:
                path, links = link_files[j % self.LINK_FILES]
                argv = ("partition", "--source", str(path), "--oracle", "mc",
                        "--budget", str(self.MC_BUDGET), "--seed", seed)
            pool.append(CliInput(kind, argv, links))
        return pool

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(list(inp.argv))
            except SystemExit as stop:  # argparse usage errors
                rc = stop.code
        return rc, buf.getvalue()

    def check(self, inp, out):
        rc, text = out
        expect(rc == 0, f"{inp.kind} exited {rc}")
        rows = data_rows(text)
        args = dict(zip(inp.argv[1::2], inp.argv[2::2]))
        getattr(self, "_check_" + inp.kind.replace("-", "_"))(inp, args, rows)

    def _check_twinslit(self, inp, args, rows):
        expect(rows[0] == "y,delta_phi,n_nearest,is_maximum,nrqm_intensity", "twinslit header")
        table = np.array([r.split(",")[:2] for r in rows[1:]], dtype=float)
        expect(len(table) == self.TWINSLIT_POINTS, "twinslit row count")
        d, screen, lam = float(args["--d"]), float(args["--L"]), float(args["--lambda"])
        y = table[:, 0]
        dl = np.hypot(screen, y - d / 2) - np.hypot(screen, y + d / 2)
        want = 2.0 * math.pi * dl / lam
        err = float(np.max(np.abs(table[:, 1] - want) / np.maximum(np.abs(want), 1.0)))
        expect(err <= 1e-9, f"twinslit delta_phi off by {err:.3e} relative")

    def _check_gauge_check(self, inp, args, rows):
        expect(rows[0] == "kernel,property,max_residual" and len(rows) == 5, "gauge-check table")
        worst = max(float(r.rsplit(",", 1)[1]) for r in rows[1:])
        expect(worst <= 1e-12, f"gauge-check residual {worst:.3e}")

    def _check_spectrum(self, inp, args, rows):
        n, beta = int(args["--n"]), float(args["--beta"])
        expect(rows[0] == "index,eigenvalue,parity,is_zero_mode", "spectrum header")
        expect(len(rows) == n + 1, "spectrum row count")
        fields = [r.split(",") for r in rows[1:]]
        vals = np.array([f[1] for f in fields], dtype=float)
        expect(bool(np.all(np.diff(vals) >= 0)), "spectrum not ascending")
        lam = 3.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2) / n)
        # Lorentzian continuation: antisymmetric beta(lam + 1) shifted by -4 beta
        want = {"symmetric": beta * (lam - 1.0), "antisymmetric": beta * (lam + 1.0) - 4.0 * beta}
        for parity, expected in want.items():
            got = np.sort(vals[[f[2] == parity for f in fields]])
            expect(got.size == expected.size, f"spectrum {parity} count")
            err = float(np.max(np.abs(got - np.sort(expected))))
            expect(err <= 1e-9 * 4.0 * beta, f"spectrum {parity} eigenvalues off by {err:.3e}")
        zeros = sum(f[3] == "true" for f in fields)
        expect(zeros == (2 if n % 4 == 0 else 1), f"spectrum reports {zeros} zero modes")

    def _check_scc(self, inp, args, rows):
        report = {}
        for r in rows:
            key, _, value = r.strip().partition("  ")
            report[key] = value.strip()
        expect(report.get("verdict") == "PASS", "scc verdict line missing")
        expect(report.get("arithmetic") == "exact", "scc arithmetic not exact")
        v = np.array(report["vertex values"].split(), dtype=np.int64)
        J = np.array(report["source J"].split(), dtype=np.int64)
        expect(v.size == int(args["--n"]), "scc vertex count")
        want = int(args["--alpha"]) * (ladder_laplacian(v.size) @ v)
        expect(bool(np.array_equal(J, want.astype(np.int64))), "scc source J != alpha L v")

    def _check_graph(self, inp, args, rows):
        body = "\n".join(rows) + "\n"
        n = int(args["--n"])
        graph = lf.parse_graph(body)
        expect(graph.n_vertices == n and graph.n_links == 3 * n // 2 - 2, "graph size")
        expect(lf.serialize_graph(graph) == body, "graph does not round-trip")

    def _check_partition(self, inp, args, rows):
        header = "log_Z,exponent_term,restricted_dim,oracle_log_Z,abs_err"
        expect(rows[0] == header, "partition header")
        log_z, exponent, dim, oracle, abs_err = (float(x) for x in rows[1].split(","))
        e = inp.links
        n = 2 * (e.size + 2) // 3
        close(log_z, restricted_log_z(n, e), 1e-9, "partition log_Z")
        close(exponent, 0.5 * float(e @ e), 1e-9, "partition exponent term")
        expect(dim == n - 1, "partition restricted dimension")
        close(abs_err, abs(oracle - log_z), 1e-9, "partition abs_err column")
        # log-normal importance weights with log-variance |e|^2
        se = math.sqrt(math.expm1(float(e @ e)) / int(args["--budget"]))
        diff = abs(oracle - log_z)
        expect(diff <= MC_SE_BOUND * se, f"partition mc off by {diff:.3e} > {MC_SE_BOUND:g} SE")


WORKLOADS = {w.name: w for w in (SweepLarge(), OracleSmall(), CliMixed())}
