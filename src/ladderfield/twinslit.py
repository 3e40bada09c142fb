"""Two-source interference on ladder graphs.

The phase accumulated by a ladder configuration is the source-dependent
exponent of the restricted Gaussian, expressed in units of the action
quantum:

    Phi = sum_j Jt_j^2 / (2 a_j hbar beta)

where a_j are the unit-coupling (beta = 1) nonzero eigenvalues.  For a
ladder source J = alpha d1 e this splits exactly into three closed-form
pieces, Phi = (Phi_S + Phi_T + Phi_ST) / (2 hbar beta), with

    Phi_S  = +- (2 alpha^2 / N) (sum of spatial links)^2
    Phi_T  = (2 alpha^2 / N) sum_j [ sum_k (eL_k + eR_k) sin(2 pi j k / N) ]^2
    Phi_ST = sum_j (4 alpha^2 / N) B_j^2 / (d_j)

    B_j = sin(j pi / N) sum_k (eL_k - eR_k) sin(2 pi j k / N)
          + sum_k ex_k cos((2k - 1) j pi / N)

with j, k running 1 .. N/2 - 1 (k to N/2 in the spatial sum), eL / eR
the left / right rail temporal links and ex the rungs.  In the
Euclidean regime d_j = 1 + 2 sin^2(j pi / N) and Phi_S takes the plus
sign; the Lorentzian continuation flips the Phi_S sign and replaces the
denominator by -1 + 2 sin^2(j pi / N), which vanishes at j = N/4.  For
N divisible by 4 that mode is a genuine second null direction: a
configuration exciting it has no finite phase, and this module raises
GaugeObstruction for it.

A twin-slit pair is two such ladders sharing every temporal link value
(e_T on all rails) and differing only in a uniform spatial value (e_x
versus e_x_tilde).  Uniform configurations never excite the dangerous
mode -- both interior sums in B_j vanish identically -- so their
Lorentzian phases are always defined, and the interference phase
difference collapses to

    delta_phi = N alpha^2 (e_x^2 - e_x_tilde^2) / (4 hbar beta).

With the calibration alpha = h / lambda_hat, beta = h / lambda_hat^2
(h = 2 pi hbar), maxima fall where N (e_x^2 - e_x_tilde^2) / 4 is an
integer multiple of 2 pi / (alpha^2 / (hbar beta)) -- i.e. where
(N / 4)(e_x^2 - e_x_tilde^2) is an integer.  Mapping slit geometry to
link values by e_x^2 = 4 ell / (N lambda) ties this to the familiar
path-difference fringe condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain_complex import build_chain_complex, check_n
from .errors import GaugeObstruction, RowSpaceError
from .partition import _row_space_projection
from .scc import build_source
from .spectral import Spectrum, continue_to_lorentzian, ladder_spectrum_closed_form

EUCLIDEAN = "euclidean"
LORENTZIAN = "lorentzian"

#: Relative threshold for "the singular mode is excited" in the Lorentzian regime.
OBSTRUCTION_RTOL = 1e-9


@dataclass(frozen=True)
class PhaseDecomposition:
    """Closed-form phase split; ``total`` = (sum of parts) / (2 hbar beta)."""

    phi_spatial: float
    phi_temporal: float
    phi_mixed: float
    total: float
    regime: str


@dataclass(frozen=True)
class TwinSlitConfig:
    """Two uniform ladder configurations differing only in their spatial value.

    ``e_x`` and ``e_x_alt`` are the rung values of the two graphs;
    ``e_T`` is the common temporal value on every rail link of both.
    ``lambda_hat`` is the length unit behind the calibrated couplings.
    """

    n_vertices: int
    e_x: float
    e_x_alt: float
    e_T: float
    alpha: float
    beta: float
    hbar: float = 1.0
    lambda_hat: float | None = None

    def __post_init__(self):
        check_n(self.n_vertices)

    @classmethod
    def calibrated(
        cls,
        n_vertices: int,
        e_x: float,
        e_x_alt: float,
        e_T: float,
        lambda_hat: float,
        hbar: float = 1.0,
    ) -> "TwinSlitConfig":
        """Couplings fixed by the length unit: alpha = h / lambda_hat,
        beta = h / lambda_hat^2, with h = 2 pi hbar.  This is exactly the
        choice that makes alpha^2 / (hbar beta) = 2 pi."""
        if lambda_hat <= 0:
            raise ValueError(f"lambda_hat must be positive, got {lambda_hat}")
        h = 2.0 * math.pi * hbar
        return cls(
            n_vertices=n_vertices,
            e_x=e_x,
            e_x_alt=e_x_alt,
            e_T=e_T,
            alpha=h / lambda_hat,
            beta=h / lambda_hat**2,
            hbar=hbar,
            lambda_hat=lambda_hat,
        )


def split_links(link_values, n_vertices: int):
    """(left rail, right rail, rungs) views of a rail-major link vector."""
    n = check_n(n_vertices)
    e = np.asarray(link_values, dtype=float)
    half = n // 2
    if e.shape != (3 * half - 2,):
        raise ValueError(f"link vector has shape {e.shape}, expected ({3 * half - 2},)")
    return e[: half - 1], e[half - 1 : n - 2], e[n - 2 :]


def uniform_link_values(n_vertices: int, e_x: float, e_T: float) -> np.ndarray:
    """Rail-major link vector with every rail link e_T and every rung e_x."""
    n = check_n(n_vertices)
    e = np.empty(3 * (n // 2) - 2)
    e[: n - 2] = e_T
    e[n - 2 :] = e_x
    return e


def phase_exponent(projections, eigenvalues, hbar: float, beta: float) -> float:
    """Phi = sum Jt^2 / (2 a hbar beta) over the supplied nonzero modes.

    ``eigenvalues`` are unit-coupling values (divide a Spectrum's
    eigenvalues by its beta before passing them in).
    """
    jt = np.asarray(projections, dtype=float)
    a = np.asarray(eigenvalues, dtype=float)
    if jt.shape != a.shape:
        raise ValueError(f"shape mismatch: {jt.shape} projections vs {a.shape} eigenvalues")
    if np.any(a == 0.0):
        raise ValueError("zero eigenvalue passed to phase_exponent; drop null modes first")
    return float(np.sum(jt**2 / (2.0 * a * hbar * beta)))


def phase_decomposition(
    link_values,
    n_vertices: int,
    alpha: float,
    hbar: float,
    beta: float,
    regime: str = EUCLIDEAN,
    obstruction_tol: float = OBSTRUCTION_RTOL,
) -> PhaseDecomposition:
    """Closed-form spatial / temporal / mixed phase split of one configuration.

    Lorentzian regime with N divisible by 4: if the j = N/4 mixed
    numerator exceeds ``obstruction_tol`` (relative to the link scale)
    the phase does not exist and GaugeObstruction is raised; a numerator
    below tolerance is treated as the row-space restriction at work and
    its term is dropped.
    """
    if regime not in (EUCLIDEAN, LORENTZIAN):
        raise ValueError(f"unknown regime {regime!r}")
    n = check_n(n_vertices)
    half = n // 2
    e_left, e_right, e_spatial = split_links(link_values, n)

    sign = 1.0 if regime == EUCLIDEAN else -1.0
    phi_spatial = sign * (2.0 * alpha**2 / n) * float(np.sum(e_spatial)) ** 2

    j = np.arange(1, half)
    k = np.arange(1, half)
    rungs = np.arange(1, half + 1)
    # interior sine sums over the rails, one row per mode j
    sines = np.sin(2.0 * np.pi * np.outer(j, k) / n)
    t_sums = sines @ (e_left + e_right)
    phi_temporal = (2.0 * alpha**2 / n) * float(np.sum(t_sums**2))

    s_j = np.sin(j * np.pi / n)
    rail_diff = sines @ (e_left - e_right)
    rung_cos = np.cos(np.outer(j, 2 * rungs - 1) * np.pi / n) @ e_spatial
    numerators = s_j * rail_diff + rung_cos

    denom_offset = 1.0 if regime == EUCLIDEAN else -1.0
    denominators = denom_offset + 2.0 * s_j**2

    keep = np.ones(j.size, dtype=bool)
    if regime == LORENTZIAN and n % 4 == 0:
        singular = n // 4 - 1  # position of j = N/4 in the 1..N/2-1 range
        scale = max(1.0, float(np.max(np.abs(np.asarray(link_values))))) * n
        if abs(numerators[singular]) > obstruction_tol * scale:
            raise GaugeObstruction(
                f"continued operator has a zero mode at j={n // 4} and the "
                f"configuration excites it (numerator {numerators[singular]:.6e}); "
                "the phase is undefined",
                mode_index=n // 4,
            )
        keep[singular] = False

    phi_mixed = float(
        np.sum((4.0 * alpha**2 / n) * numerators[keep] ** 2 / denominators[keep])
    )
    total = (phi_spatial + phi_temporal + phi_mixed) / (2.0 * hbar * beta)
    return PhaseDecomposition(
        phi_spatial=phi_spatial,
        phi_temporal=phi_temporal,
        phi_mixed=phi_mixed,
        total=total,
        regime=regime,
    )


# ---------------------------------------------------------------------------
# trigonometric identities the closed forms rest on


@dataclass(frozen=True)
class TrigIdentityReport:
    """Worst absolute errors of the identities underlying the phase split.

    sine_sum: sum_{k=1}^{N/2-1} sin(2 pi j k / N) equals 0 for even j
    and cot(j pi / N) for odd j.  cot_square: sum_{k=1}^{n}
    cot^2((pi/2)(2k-1)/(2n)) = 2 n^2 - n.  composite: summing the
    squared odd-j sine sums gives ((N-2)/4)(N/2).
    """

    n_vertices: int
    sine_sum_error: float
    cot_square_error: float
    composite_error: float

    @property
    def max_error(self) -> float:
        return max(self.sine_sum_error, self.cot_square_error, self.composite_error)

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_error <= tol


def trig_lemmas(n_vertices: int) -> TrigIdentityReport:
    """Check the closed-form sine/cotangent identities numerically for this N."""
    n = check_n(n_vertices)
    half = n // 2

    k = np.arange(1, half)
    sine_err = 0.0
    square_total = 0.0
    for j in range(1, half):
        direct = float(np.sum(np.sin(2.0 * np.pi * j * k / n)))
        expected = 0.0 if j % 2 == 0 else 1.0 / math.tan(j * math.pi / n)
        sine_err = max(sine_err, abs(direct - expected))
        square_total += direct**2

    composite_err = abs(square_total - ((n - 2) / 4.0) * (n / 2.0))

    cot_err = 0.0
    for m in range(1, half + 1):
        kk = np.arange(1, m + 1)
        direct = float(np.sum(1.0 / np.tan((math.pi / 2.0) * (2 * kk - 1) / (2 * m)) ** 2))
        cot_err = max(cot_err, abs(direct - (2.0 * m * m - m)))

    return TrigIdentityReport(
        n_vertices=n,
        sine_sum_error=sine_err,
        cot_square_error=cot_err,
        composite_error=composite_err,
    )


# ---------------------------------------------------------------------------
# conditional amplitudes and interference


def _uniform_spectrum(config: TwinSlitConfig) -> Spectrum:
    base = ladder_spectrum_closed_form(config.n_vertices, beta=config.beta)
    return continue_to_lorentzian(base, config.n_vertices)


def conditional_amplitude(
    config: TwinSlitConfig,
    which: int,
    outcome: float,
    mode: int,
    row_space_tol: float = OBSTRUCTION_RTOL,
) -> tuple[float, float]:
    """(log magnitude, phase) of the amplitude for one graph at a fixed click.

    ``which`` selects graph 1 (e_x) or graph 2 (e_x_alt); ``mode``
    indexes the continued spectrum; ``outcome`` is the retained mode
    coordinate conditioned on.  The magnitude is
    sqrt((2 pi)^(m-1) / prod' |a_j|) over the other retained modes m-1
    in number; the phase is

        -( outcome^2 a_k / 2 + Jt_k outcome + (Phi_S + Phi_T) / (2 hbar beta) )

    The constant unit-phase factors coming from the continued measure
    are omitted: they are common to both graphs and cancel in any
    interference difference.
    """
    if which not in (1, 2):
        raise ValueError(f"graph selector must be 1 or 2, got {which}")
    n = config.n_vertices
    e_x = config.e_x if which == 1 else config.e_x_alt
    links = uniform_link_values(n, e_x, config.e_T)

    spectrum = _uniform_spectrum(config)
    if mode in spectrum.zero_modes:
        raise ValueError(f"mode {mode} is a zero mode of the continued operator")
    if not 0 <= mode < spectrum.n_modes:
        raise ValueError(f"mode index {mode} out of range")

    J = build_source(build_chain_complex(n), 1, links, config.alpha)
    try:
        proj = _row_space_projection(J, spectrum, row_space_tol)
    except RowSpaceError as exc:
        raise GaugeObstruction(
            f"source excites a null direction of the continued operator: {exc}",
            mode_index=int(spectrum.zero_modes[-1]),
        ) from exc

    retained = [i for i in spectrum.nonzero_modes if i != mode]
    a = spectrum.eigenvalues
    log_mag = 0.5 * (
        len(retained) * math.log(2.0 * math.pi)
        - float(np.sum(np.log(np.abs(a[retained]))))
    )

    parts = phase_decomposition(
        links, n, config.alpha, config.hbar, config.beta, regime=LORENTZIAN
    )
    a_k = float(a[mode])
    jt_k = float(proj[mode])
    q = float(outcome)
    phase = -(
        0.5 * q * q * a_k
        + jt_k * q
        + (parts.phi_spatial + parts.phi_temporal) / (2.0 * config.hbar * config.beta)
    )
    return log_mag, phase


def interference_phase_difference(config: TwinSlitConfig) -> float:
    """Phase of graph 1 minus graph 2 at the same click:
    N alpha^2 (e_x^2 - e_x_alt^2) / (4 hbar beta)."""
    n = config.n_vertices
    return (
        n
        * config.alpha**2
        * (config.e_x**2 - config.e_x_alt**2)
        / (4.0 * config.hbar * config.beta)
    )


def interference_order(config: TwinSlitConfig) -> float:
    """Phase difference in whole turns; integer values sit on maxima."""
    return interference_phase_difference(config) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# slit geometry and the wave-mechanics reference


@dataclass(frozen=True)
class SlitGeometry:
    """Double-slit layout: slits at +-separation/2, screen at distance L.

    ``detector_position`` is the transverse coordinate y on the screen;
    slit 1 sits at +separation/2, slit 2 at -separation/2.
    """

    slit_separation: float
    screen_distance: float
    detector_position: float
    wavelength: float

    def at(self, y: float) -> "SlitGeometry":
        return replace(self, detector_position=y)


def path_lengths(geometry: SlitGeometry) -> tuple[float, float]:
    """Straight-line distances from each slit to the detector point."""
    d = geometry.slit_separation
    L = geometry.screen_distance
    y = geometry.detector_position
    return (math.hypot(L, y - d / 2.0), math.hypot(L, y + d / 2.0))


def path_difference(geometry: SlitGeometry) -> float:
    l1, l2 = path_lengths(geometry)
    return l1 - l2


def geometry_to_links(geometry: SlitGeometry, n_vertices: int) -> tuple[float, float]:
    """Uniform rung values reproducing the two path lengths.

    Each graph's N/2 rungs accumulate its whole path at the calibrated
    couplings when e_x^2 = 4 ell / (N lambda); the pair (e_x, e_x_alt)
    then encodes (ell_1, ell_2).
    """
    n = check_n(n_vertices)
    l1, l2 = path_lengths(geometry)
    lam = geometry.wavelength
    if lam <= 0:
        raise ValueError(f"wavelength must be positive, got {lam}")
    return (math.sqrt(4.0 * l1 / (n * lam)), math.sqrt(4.0 * l2 / (n * lam)))


def nrqm_intensity(path_diff: float, wavelength: float) -> float:
    """Two-beam reference intensity 2 + 2 cos(2 pi path_diff / wavelength)."""
    return 2.0 + 2.0 * math.cos(2.0 * math.pi * path_diff / wavelength)


def nrqm_maximum_position(
    slit_separation: float, screen_distance: float, wavelength: float, order: int
) -> float:
    """Exact detector position of the maximum where ell_1 - ell_2 = order * wavelength.

    The locus of constant path difference is a hyperbola with the slits
    as foci; this is its intersection with the screen.  Positive orders
    land at negative y with slit 1 on the positive side.  |order| is
    limited by the slit separation.
    """
    a = -order * wavelength / 2.0
    c = slit_separation / 2.0
    if order == 0:
        return 0.0
    if abs(a) >= c:
        raise ValueError(
            f"order {order} unreachable: |order * wavelength| must be below the slit separation"
        )
    b_sq = c * c - a * a
    return a * math.sqrt(1.0 + screen_distance**2 / b_sq)
