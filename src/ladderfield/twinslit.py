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
the left / right rail temporal links and ex the rungs.  The mixed
denominators d_j are half the antisymmetric unit eigenvalues of the
regime, which _ladder_transform holds, and Phi_S is divided by d_0:
d_j = 1 + 2 sin^2(pi j / N) in the Euclidean regime (d_0 = 1), and
d_j = sin((4j - N) pi / 2N) continued (d_0 = -1), which is exactly 0
at j = N/4.  For N divisible by 4 that mode is a genuine second null
direction: a configuration exciting it has no finite phase, and this
module raises GaugeObstruction for it, by the row-space rule on |J|,
which Parseval gives from the split's own sums.

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

from ._ladder_transform import dct2, dst1, ladder_eigenvalues, rails, zero_modes
from .chain_complex import _finite, _is_integer, build_chain_complex, check_array, check_coupling, check_finite, check_n
from .errors import GaugeObstruction
from .partition import _check_mode, _log_volume, _outside_row_space, project_source
from .scc import build_source
from .spectral import _nonzero_mask, continue_to_lorentzian, ladder_spectrum_closed_form

EUCLIDEAN = "euclidean"
LORENTZIAN = "lorentzian"

#: Error, relative to max(1, |identity value|), within which TrigIdentityReport.passed accepts the identities.
TRIG_ATOL = 1e-9

#: Absolute phase slack (radians) for flagging a sweep row as an exact maximum.
MAXIMUM_PHASE_TOL = 1e-9


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
        choice that makes alpha^2 / (hbar beta) = 2 pi.  hbar must be finite and nonzero."""
        _check_divisors(hbar=hbar)
        if lambda_hat <= 0:
            raise ValueError(f"lambda_hat must be positive, got {lambda_hat}")
        h = 2.0 * math.pi * hbar
        try:
            alpha, beta = h / lambda_hat, h / lambda_hat**2
            representable = all(math.isfinite(x) and x != 0 for x in (alpha, beta, alpha**2))
        except (ZeroDivisionError, OverflowError):  # lambda_hat**2 or alpha**2 out of range
            representable = False
        if not representable:
            raise ValueError(f"lambda_hat={lambda_hat} gives a zero or non-finite alpha, beta or alpha^2")
        return cls(n_vertices, e_x, e_x_alt, e_T, alpha, beta, hbar, lambda_hat)


def split_links(link_values, n_vertices: int):
    """(left rail, right rail, rungs) views of a rail-major link vector of finite values."""
    n = check_n(n_vertices)
    half = n // 2
    e = check_array(link_values, (3 * half - 2,), "link values", float)
    return e[: half - 1], e[half - 1 : n - 2], e[n - 2 :]


def uniform_link_values(n_vertices: int, e_x: float, e_T: float) -> np.ndarray:
    """Rail-major link vector with every rail link e_T and every rung e_x."""
    n = check_n(n_vertices)
    e = np.empty(3 * (n // 2) - 2)
    e[: n - 2] = e_T
    e[n - 2 :] = e_x
    return e


def _check_divisors(**divisors) -> None:
    """ValueError unless each named divisor (hbar, beta), which the phase divides by, is finite and nonzero."""
    for name, value in divisors.items():
        if check_coupling(value, name) == 0:
            raise ValueError(f"coupling {name} must be nonzero, got {value!r}")


def phase_exponent(projections, eigenvalues, hbar: float, beta: float) -> float:
    """Phi = sum Jt^2 / (2 a hbar beta) over the supplied nonzero modes.

    ``eigenvalues`` are unit-coupling values (divide a Spectrum's
    eigenvalues by its beta before passing them in).  hbar and beta must be
    finite and nonzero; a phase past the float range is refused with ValueError.
    """
    _check_divisors(hbar=hbar, beta=beta)
    a = np.asarray(check_finite(np.asarray(eigenvalues), "eigenvalues"), dtype=float)
    jt = check_array(projections, a.shape, "projections", float)
    if np.any(a == 0.0):
        raise ValueError("zero eigenvalue passed to phase_exponent; drop null modes first")
    return float(_finite("phase exponent", lambda: np.sum(jt**2 / (2.0 * a * hbar * beta))))


def phase_decomposition(
    link_values,
    n_vertices: int,
    alpha: float,
    hbar: float,
    beta: float,
    regime: str = EUCLIDEAN,
) -> PhaseDecomposition:
    """Closed-form spatial / temporal / mixed phase split of one configuration.

    Lorentzian regime with N divisible by 4: the source J = alpha d1 e
    has the component alpha sqrt(8/N) B_{N/4} along the continued zero
    mode j = N/4.  A source is refused when its component along a zero
    mode exceeds ``partition.ROW_SPACE_RTOL`` times |J|, so a zero source
    (alpha = 0) never is; then the phase does not exist and
    GaugeObstruction is raised.  A component within that bound is the
    row-space restriction at work, and its term is dropped.  alpha must
    be finite, hbar and beta finite and nonzero, and the link values
    finite; a phase past the float range is refused with ValueError.
    """
    if regime not in (EUCLIDEAN, LORENTZIAN):
        raise ValueError(f"unknown regime {regime!r}")
    check_coupling(alpha, "alpha")
    _check_divisors(hbar=hbar, beta=beta)
    n = check_n(n_vertices)
    half = n // 2
    e_left, e_right, e_spatial = split_links(link_values, n)

    def terms():
        continued = regime == LORENTZIAN
        # the antisymmetric modes of the unit spectrum in that regime, halved: +-1 at j = 0, then d_j
        halved = ladder_eigenvalues(n, continued)[1::2] / 2.0
        phi_spatial = (2.0 * alpha**2 / n) * float(np.sum(e_spatial)) ** 2 / float(halved[0])

        j = np.arange(1, half)
        # the interior sine sums of the rail sum and difference, and the rungs' cosine sums, per mode j
        t_sums, rail_diff = dst1(rails(np.concatenate((e_left, e_right))))
        rung_cos = dct2(e_spatial)[1:]
        phi_temporal = (2.0 * alpha**2 / n) * float(np.sum(t_sums**2))

        sines = np.sin(j * np.pi / n)
        numerators = sines * rail_diff + rung_cos

        null = [m // 2 - 1 for m in zero_modes(n, continued) if m % 2]  # the place of j = N/4, when 4 | N
        keep = np.ones(j.size, dtype=bool)
        keep[null] = False
        for i in null:
            # J's components on the modes it can reach: antisymmetric j = 0, then symmetric and antisymmetric j
            jt = alpha * math.sqrt(8.0 / n) * np.concatenate(
                ([np.sum(e_spatial) / math.sqrt(2.0)], sines * t_sums, numerators))
            component = float(jt[half + i])
            if _outside_row_space(component, jt):
                raise GaugeObstruction(f"the source's component {component:.6e} along the continued zero "
                                       f"mode j={j[i]} leaves the phase undefined", mode_index=int(j[i]))

        phi_mixed = float(
            np.sum((4.0 * alpha**2 / n) * numerators[keep] ** 2 / halved[1:][keep])
        )
        total = (phi_spatial + phi_temporal + phi_mixed) / (2.0 * hbar * beta)
        return phi_spatial, phi_temporal, phi_mixed, total

    return PhaseDecomposition(*_finite("phase decomposition", terms), regime=regime)


# ---------------------------------------------------------------------------
# trigonometric identities the closed forms rest on


@dataclass(frozen=True)
class TrigIdentityReport:
    """Worst errors of the identities underlying the phase split.

    sine_sum: sum_{k=1}^{N/2-1} sin(2 pi j k / N) equals 0 for even j
    and cot(j pi / N) for odd j.  cot_square: the squares of those
    cotangents, the sum the split uses, give sum over odd j < N/2 of
    cot^2(j pi / N) = N (N - 2) / 8 (for N = 4n, 2 n^2 - n).  composite:
    summing the squared sine sums gives the same ((N-2)/4)(N/2).  Each
    error is taken relative to max(1, |identity value|), as both sums grow
    as N^2 / 8.
    """

    n_vertices: int
    sine_sum_error: float
    cot_square_error: float
    composite_error: float

    @property
    def max_error(self) -> float:
        return max(self.sine_sum_error, self.cot_square_error, self.composite_error)

    def passed(self) -> bool:
        return self.max_error <= TRIG_ATOL


def _relative_error(computed, value):
    """|computed - value| / max(1, |value|), entry by entry."""
    return np.abs(computed - value) / np.maximum(np.abs(value), 1.0)


def trig_lemmas(n_vertices: int) -> TrigIdentityReport:
    """Check the closed-form sine/cotangent identities numerically for this N."""
    n = check_n(n_vertices)
    half = n // 2

    j = np.arange(1, half)
    direct = dst1(np.ones(half - 1))  # entry j sums sin(2 pi j k / N) over k = 1 .. N/2 - 1
    expected = np.where(j % 2, 1.0 / np.tan(j * np.pi / n), 0.0)
    sine_err = float(np.max(_relative_error(direct, expected), initial=0.0))
    composite_err = float(_relative_error(float(np.sum(direct**2)), ((n - 2) / 4.0) * (n / 2.0)))
    cot_err = float(_relative_error(float(np.sum(expected**2)), n * (n - 2) / 8.0))

    return TrigIdentityReport(
        n_vertices=n,
        sine_sum_error=sine_err,
        cot_square_error=cot_err,
        composite_error=composite_err,
    )


# ---------------------------------------------------------------------------
# conditional amplitudes and interference


def conditional_amplitude(
    config: TwinSlitConfig,
    which: int,
    outcome: float,
    mode: int,
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
    interference difference.  A source is refused when its component
    along a zero mode exceeds ``partition.ROW_SPACE_RTOL`` times |J|, so a
    zero source (alpha = 0) never is: phase_decomposition raises
    GaugeObstruction, and a uniform configuration leaves only rounding there.
    """
    if not _is_integer(which) or which not in (1, 2):
        raise ValueError(f"graph selector must be 1 or 2, got {which}")
    q = float(check_array(outcome, (), "outcome", float))
    n = config.n_vertices
    e_x = config.e_x if which == 1 else config.e_x_alt
    links = uniform_link_values(n, e_x, config.e_T)

    spectrum = continue_to_lorentzian(ladder_spectrum_closed_form(n, beta=config.beta), n)
    _check_mode(spectrum, mode)

    proj = project_source(build_source(build_chain_complex(n), 1, links, config.alpha), spectrum)

    retained = _nonzero_mask(spectrum)
    retained[mode] = False
    a = spectrum.eigenvalues
    log_mag = _log_volume(a[retained])

    parts = phase_decomposition(
        links, n, config.alpha, config.hbar, config.beta, regime=LORENTZIAN
    )
    a_k = float(a[mode])
    jt_k = float(proj[mode])
    phase = _finite("conditional phase", lambda: -(
        0.5 * q * q * a_k
        + jt_k * q
        + (parts.phi_spatial + parts.phi_temporal) / (2.0 * config.hbar * config.beta)
    ))
    return log_mag, phase


def interference_phase_difference(config: TwinSlitConfig) -> float:
    """Phase of graph 1 minus graph 2 at the same click: N alpha^2 (e_x^2 - e_x_alt^2) / (4 hbar beta).
    alpha and the rung values must be finite, hbar and beta finite and nonzero; a phase past the float
    range is refused with ValueError."""
    check_coupling(config.alpha, "alpha")
    _check_divisors(hbar=config.hbar, beta=config.beta)
    check_finite(np.asarray((config.e_x, config.e_x_alt)), "rung values")
    n = config.n_vertices
    return _finite("interference phase difference", lambda: (
        n * config.alpha**2 * (config.e_x**2 - config.e_x_alt**2) / (4.0 * config.hbar * config.beta)))


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
    return _path_lengths(geometry.slit_separation, geometry.screen_distance, geometry.detector_position)


def _path_lengths(d: float, L: float, y: float) -> tuple[float, float]:
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
    return _rung_values(check_n(n_vertices), *path_lengths(geometry), geometry.wavelength)


def _rung_values(n: int, l1: float, l2: float, lam: float) -> tuple[float, float]:
    """geometry_to_links for a checked vertex count, from the two path lengths."""
    if not (math.isfinite(l1) and math.isfinite(l2)):
        raise ValueError(f"path lengths must be finite, got {l1} and {l2}")
    _check_wavelength(lam)
    return (math.sqrt(4.0 * l1 / (n * lam)), math.sqrt(4.0 * l2 / (n * lam)))


def _check_wavelength(lam) -> None:
    """ValueError unless the wavelength is a positive finite number (NaN is not)."""
    if not 0 < lam < math.inf:
        raise ValueError(f"wavelength must be a positive finite number, got {lam}")


def _fringe_sweep(n_vertices, d: float, L: float, wavelength: float, ys):
    """Yield (delta_phi, n_nearest, is_maximum, nrqm_intensity) per detector position y.

    Each row is bitwise what geometry_to_links, TwinSlitConfig.calibrated (e_T = 1),
    interference_phase_difference and nrqm_intensity give, with n and the calibration
    checked once.  A row is refused on the first of: path lengths, wavelength,
    calibration, a non-finite phase difference, or one whose float spacing exceeds
    MAXIMUM_PHASE_TOL, so that no maximum can be resolved.
    """
    n = check_n(n_vertices)
    scale = None  # n alpha^2 and 4 hbar beta, once the first row has passed its path checks
    for y in ys:
        l1, l2 = _path_lengths(d, L, y)
        e_x, e_x_alt = _rung_values(n, l1, l2, wavelength)
        if scale is None:
            config = TwinSlitConfig.calibrated(n, e_x, e_x_alt, e_T=1.0, lambda_hat=wavelength)
            scale = (n * config.alpha**2, 4.0 * config.hbar * config.beta)
        # as interference_phase_difference evaluates it, left to right
        dphi = scale[0] * (e_x**2 - e_x_alt**2) / scale[1]
        if not math.isfinite(dphi):
            raise ValueError(f"phase difference at y={y:.12g} is not finite")
        if math.ulp(dphi) > MAXIMUM_PHASE_TOL:
            raise ValueError(
                f"phase difference at y={y:.12g} is {dphi:.12g} rad, too large to resolve a "
                f"maximum: its float spacing exceeds {MAXIMUM_PHASE_TOL:.12g}"
            )
        nearest = round(dphi / (2.0 * math.pi))
        is_max = abs(dphi - 2.0 * math.pi * nearest) <= MAXIMUM_PHASE_TOL
        yield dphi, nearest, is_max, nrqm_intensity(l1 - l2, wavelength)


def nrqm_intensity(path_diff: float, wavelength: float) -> float:
    """Two-beam reference intensity 2 + 2 cos(2 pi path_diff / wavelength), for a finite path difference,
    a positive finite wavelength and a phase within the float range."""
    _check_wavelength(wavelength)
    if not math.isfinite(path_diff):
        raise ValueError(f"path difference must be finite, got {path_diff}")
    phase = 2.0 * math.pi * path_diff / wavelength
    if not math.isfinite(phase):  # _finite names it; checked here first, so no sweep row pays its errstate
        _finite("NRQM phase", lambda: phase)
    return 2.0 + 2.0 * math.cos(phase)


def nrqm_maximum_position(
    slit_separation: float, screen_distance: float, wavelength: float, order: int
) -> float:
    """Exact detector position of the maximum where ell_1 - ell_2 = order * wavelength.

    The locus of constant path difference is a hyperbola with the slits
    as foci; this is its intersection with the screen.  Positive orders
    land at negative y with slit 1 on the positive side.  The order must be
    an integer, |order| is limited by the slit separation, the separation
    and screen distance must be finite, and the wavelength positive and finite.
    """
    _check_wavelength(wavelength)
    if not (math.isfinite(slit_separation) and math.isfinite(screen_distance)):
        raise ValueError(
            f"slit separation and screen distance must be finite, got {slit_separation} and {screen_distance}"
        )
    if not _is_integer(order):
        raise ValueError(f"order must be an integer, got {order!r}")
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
