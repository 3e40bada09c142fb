"""Closed-form eigenvalues to the last digit, against references in the standard library's decimal.

Each eigenvalue is formed without cancellation, so the low modes keep every
digit up to N = 10**6 and the continued j = N/4 mode is exactly 0.0.  The float
routes of verify_scc and classical_solution keep their tolerances at the same sizes.
The N = 10**6 checks are kept together here, and run in a few seconds.
"""

import contextlib
import io
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ladderfield._ladder_transform import ladder_eigenvalues
from ladderfield.chain_complex import build_chain_complex
from ladderfield.cli import main
from ladderfield.partition import classical_solution, euclidean_Z
from ladderfield.scc import SCC_RTOL, build_system, gradient_link_values, verify_scc
from ladderfield.spectral import continue_to_lorentzian, ladder_spectrum_closed_form
from ladderfield.twinslit import phase_decomposition

#: Significant digits of every decimal reference.
DIGITS = 60


def _pi() -> Decimal:
    """pi to the context precision: the series of the decimal module's documentation."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return +s


def _sin(x: Decimal) -> Decimal:
    """sin x by its Taylor series, for |x| <= pi/2, to the context precision."""
    term, total, k = x, x, 1
    while abs(term) > Decimal(10) ** -(DIGITS + 5):
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def _reference_eigenvalues(n: int, j: int) -> tuple[Decimal, Decimal, Decimal]:
    """Mode j's symmetric, antisymmetric and continued antisymmetric unit eigenvalues, exactly
    to DIGITS digits: 4 sin^2(pi j/N), 2 + 4 sin^2(pi j/N) and 2 sin((4j - N) pi/2N)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        pi = _pi()
        sym = 4 * _sin(pi * j / n) ** 2
        return +sym, 2 + sym, 2 * _sin(pi * (4 * j - n) / (2 * n))


def _within_ulps(value: float, reference: Decimal, ulps: int) -> bool:
    return abs(Decimal(value) - reference) <= ulps * Decimal(math.ulp(float(reference)))


@pytest.mark.parametrize("n", [4, 44, 400, 100_000, 1_000_000])
def test_every_eigenvalue_is_within_four_ulp_of_the_decimal_reference(n):
    euclidean, continued = ladder_eigenvalues(n), ladder_eigenvalues(n, True)
    sample = {0, 1, 2, n // 4 - 1, n // 4, n // 4 + 1, n // 2 - 1} & set(range(n // 2))
    for j in sorted(sample):
        sym, anti, anti_continued = _reference_eigenvalues(n, j)
        for value, reference in ((euclidean[2 * j], sym), (euclidean[2 * j + 1], anti),
                                 (continued[2 * j], sym), (continued[2 * j + 1], anti_continued)):
            assert _within_ulps(float(value), reference, 4), (n, j, value, reference)


def test_the_continued_quarter_mode_is_exactly_zero_at_every_multiple_of_four():
    # once formed as (4 - 2 cos) - 4, it was -4.4e-16 at N = 44 and nonzero at 74 of these sizes
    for n in range(4, 4001, 4):
        s = continue_to_lorentzian(ladder_spectrum_closed_form(n), n)
        assert ladder_eigenvalues(n, True)[n // 2 + 1] == 0.0
        assert s.eigenvalues[list(s.zero_modes)].tolist() == [0.0, 0.0]


N_LARGE = 1_000_000


def _smooth(n):
    """The symmetric j = 1 mode on the vertices: cos((2k + 1) pi / N) on each rail."""
    return np.tile(np.cos((2 * np.arange(n // 2) + 1) * np.pi / n), 2)


@pytest.mark.parametrize("vertex_values", [_smooth, lambda n: np.random.default_rng(7).standard_normal(n)],
                         ids=["smooth", "random"])
def test_the_phase_split_is_the_spectral_exponent_at_a_million_vertices(vertex_values):
    # at beta = hbar = 1 both compute sum Jt^2 / 2a: the split with the eigenvalue cancelled
    # analytically, the spectral route with it read from the table
    c = build_chain_complex(N_LARGE)
    e = gradient_link_values(c, vertex_values(N_LARGE))
    total = phase_decomposition(e, N_LARGE, 1.0, 1.0, 1.0).total
    exponent = euclidean_Z(build_system(c, 1, e), ladder_spectrum_closed_form(N_LARGE)).exponent_term
    assert abs(total - exponent) <= 1e-14 * abs(exponent)


def test_the_zero_source_log_z_is_kirchhoffs_at_a_million_vertices():
    # pdet K = N tau_h (matrix-tree theorem), tau_h = ((2 + r3)^h - (2 - r3)^h) / (2 r3) spanning trees
    # of the h-rung ladder, so log Z = (N - 1)/2 log(2 pi) - (log N + log tau_h)/2
    n, h = N_LARGE, N_LARGE // 2
    with localcontext() as ctx:
        ctx.prec = DIGITS
        r3 = Decimal(3).sqrt()
        tau = ((2 + r3) ** h - (2 - r3) ** h) / (2 * r3)
        reference = float(Decimal(n - 1) / 2 * (2 * _pi()).ln() - (Decimal(n).ln() + tau.ln()) / 2)
    c = build_chain_complex(n)
    log_z = euclidean_Z(build_system(c, 1, np.zeros(3 * n // 2 - 2)), ladder_spectrum_closed_form(n)).log_magnitude
    assert abs(log_z - reference) <= 1e-15 * abs(reference)


@pytest.mark.parametrize("n", [4, 400, 100_000, N_LARGE])
def test_verify_scc_passes_a_random_float_gradient_at_every_size(n):
    # the identity residual stays near rounding: 4.4e-16 at N = 4 and 5.3e-15 at 10**6
    c = build_chain_complex(n)
    v = np.random.default_rng(n).standard_normal(n)
    report = verify_scc(build_system(c, 1, gradient_link_values(c, v), alpha=1.3, beta=0.7), v)
    assert not report.exact and report.max_identity_residual < 1e-2 * SCC_RTOL


@pytest.mark.parametrize("vertex_values", [None, _smooth], ids=["random_links", "smooth"])
@pytest.mark.parametrize("n", [4, 400, 100_000, N_LARGE])
def test_the_classical_solution_is_backward_stable_at_every_size(n, vertex_values):
    # max|KQ - J| / (|K|_inf max|Q| + max|J|): 4.2e-16 at 10**6, where the smooth source's forward
    # error is about 1e-5, as cond K of about N**2 allows
    c = build_chain_complex(n)
    rng = np.random.default_rng(n)
    e = rng.standard_normal(c.n_links) if vertex_values is None else gradient_link_values(c, vertex_values(n))
    system = build_system(c, 1, e)
    Q = classical_solution(system, ladder_spectrum_closed_form(n))
    K, J = system._nonzeros, system.J
    backward = np.max(np.abs(K.dot(Q) - J)) / (K.max_row_l1 * np.max(np.abs(Q)) + np.max(np.abs(J)))
    assert backward < 1e-14


def test_the_spectrum_command_prints_the_low_mode_to_every_digit():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spectrum", "--n", str(N_LARGE)]) == 0
    rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    assert rows[2] == "1,3.94784176042e-11,symmetric,false"  # 4 sin^2(pi / N), once printed 3.94784205326e-11
