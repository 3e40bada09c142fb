"""Spectra of ladder operators: closed form, numeric, and Wick-continued.

For the degree-1 ladder operator K = beta * d1 @ d1.T on N vertices the
whole eigensystem is known in closed form.  Write s_j = sin(j pi / N)
for j = 0 .. N/2 - 1, and let x_j be the half-vector

    x_0k = sqrt(1/N),   x_jk = sqrt(2/N) cos(j (2k - 1) pi / N)   (j > 0)

for k = 1 .. N/2.  Then [x_j; x_j] is an eigenvector with eigenvalue
4 beta s_j^2 (rail-swap symmetric) and [x_j; -x_j] one with eigenvalue
beta (2 + 4 s_j^2) (antisymmetric).  j = 0 symmetric is the constant
gauge zero mode.

The Lorentzian continuation replaces K by

    K_M = K - 2 beta [[I, -I], [-I, I]]

which leaves symmetric eigenpairs alone and takes every antisymmetric
eigenvalue 4 beta lower, to 2 beta sin((4j - N) pi / 2N): exactly zero at
j = N/4 when 4 | N, a second null direction.  _ladder_transform holds
the unit eigenvalues of both regimes, each formed without cancellation;
``continue_to_lorentzian`` reads them for a closed-form Euclidean
spectrum only, whose mode indices give each parity; any other K_M is
diagonalized by ``numeric_spectrum(lorentzian_operator(K))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from numbers import Integral

import numpy as np

from .chain_complex import (
    _BuiltOnFirstRead,
    _finite,
    _frozen,
    _gap,
    _kept,
    _ReadOnlyState,
    check_coupling,
    check_finite,
    check_n,
    check_square,
    check_symmetric,
)
from ._ladder_transform import LadderBasis, degenerate_pairs, ladder_eigenvalues, pivot_signs, zero_modes

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

#: Relative threshold below which an eigenvalue counts as zero.
ZERO_MODE_RTOL = 1e-9

#: Relative gap below which neighbouring eigenvalues share a degeneracy group.
DEGENERACY_RTOL = 1e-9

#: Distance from +-1 within which an eigenvalue of the rail swap on an eigenspace tags its vector's parity.
PARITY_ATOL = 1e-6


class _LazyFields(_ReadOnlyState):
    # declared on a private base, so vars(Spectrum) lists no descriptor
    eigenvectors = _BuiltOnFirstRead()
    degeneracy_groups = _BuiltOnFirstRead()


@dataclass(frozen=True, eq=False)
class Spectrum(_LazyFields):
    """Eigenvalues (ascending), eigenvectors (columns), and bookkeeping.

    Each eigenvector column has its largest-magnitude entry positive: the
    largest as rounded to float, the first of equal floats (entries of equal
    exact magnitude can differ in the last bit).  ``parity`` tags each column
    'symmetric' / 'antisymmetric' under the rail swap, or None when no
    parity structure applies.  ``beta`` is the coupling the operator was
    built with, so unit-coupling shape eigenvalues are ``eigenvalues / beta``.

    ``eigenvectors`` and ``degeneracy_groups`` each take a value or a
    zero-argument builder; a builder runs on the first read and its result
    is kept, so a caller that reads only eigenvalues never pays for them.
    ``repr`` leaves both out, and ``==`` is identity, so neither builds them.

    A closed-form or continued spectrum also keeps a DCT basis, which builds
    its vectors and projects on its modes without them; one made by
    ``dataclasses.replace`` or this constructor keeps none, uses its own and has no continuation.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    parity: tuple[str | None, ...]
    zero_modes: tuple[int, ...]
    degeneracy_groups: tuple[tuple[int, ...], ...] = field(repr=False)
    beta: float = 1.0
    regime: str = "euclidean"

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def nonzero_modes(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(_nonzero_mask(self)).tolist())

    @property
    def is_singular(self) -> bool:
        """More null directions than the single gauge mode."""
        return len(self.zero_modes) > 1

    def eigenpairs(self):
        for i in range(self.n_modes):
            yield self.eigenvalues[i], self.eigenvectors[:, i]


def _nonzero_mask(spectrum: Spectrum) -> np.ndarray:
    """True at the nonzero modes: it indexes them, in order, with no list of every index."""
    keep = np.ones(spectrum.n_modes, dtype=bool)
    keep[list(spectrum.zero_modes)] = False
    return keep


def _zero_mode_indices(vals: np.ndarray) -> tuple[int, ...]:
    top = np.max(np.abs(vals), initial=0.0)
    return tuple(np.flatnonzero(np.abs(vals) <= ZERO_MODE_RTOL * top).tolist())


def _groups(n: int, joined) -> tuple[tuple[int, ...], ...]:
    """0 .. n - 1 as runs of consecutive indices, with i and i + 1 in one run for each i in ``joined``."""
    ends = np.setdiff1d(np.arange(1, n), np.asarray(joined, dtype=int) + 1).tolist() + [n]
    return tuple(tuple(range(a, b)) for a, b in zip([0] + ends, ends) if a < b)


def _degeneracy_groups(vals: np.ndarray) -> tuple[tuple[int, ...], ...]:
    scale = max(np.max(np.abs(vals), initial=0.0), 1.0)
    # a NaN gap is not within the tolerance, so it ends a group
    return _groups(vals.size, np.flatnonzero(np.abs(np.diff(vals)) <= DEGENERACY_RTOL * scale))


def _sign_fix(vecs: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's largest-magnitude float, the first of equal ones, is positive;
    returned read-only and in Fortran order, the layout whose einsum projections every result is pinned to."""
    vecs *= pivot_signs(lambda s: vecs[:, s], vecs.shape)
    return _frozen(np.asfortranarray(vecs))


def _symmetric_eigh(K) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigensolve of a square symmetric matrix; ValueError otherwise."""
    return np.linalg.eigh(check_symmetric(check_square(np.asarray(K))))


def _mode_tags(modes: np.ndarray, beta, continued: bool) -> tuple:
    """A closed-form or continued spectrum's arrays: beta times each mode's unit eigenvalue from
    ladder_eigenvalues, sorted stably from the order of ``modes``, with every tag from the mode indices
    and none from a threshold."""
    vals = _finite("closed-form spectrum", lambda: beta * ladder_eigenvalues(modes.size, continued)[modes])
    order = np.argsort(vals, kind="stable")
    basis = LadderBasis(modes[order])
    n = modes.size
    column = np.empty(n, dtype=int)
    column[basis.modes] = np.arange(n)
    if beta == 0:  # every eigenvalue is 0: all zero modes, in one group
        zero, joined = range(n), range(n - 1)
    else:
        zero = sorted(column[zero_modes(n, continued)].tolist())
        joined = [min(column[a], column[b]) for a, b in degenerate_pairs(n, continued)]
    parity = np.array([SYMMETRIC, ANTISYMMETRIC], dtype=object)[basis.modes % 2].tolist()
    return _frozen(vals[order]), basis, tuple(parity), tuple(zero), tuple(joined)


def _from_modes(tags: tuple, beta, regime) -> Spectrum:
    """A fresh spectrum, with its own lazy fields, around the values of _mode_tags."""
    vals, basis, parity, zero, joined = tags
    spectrum = Spectrum(eigenvalues=vals, eigenvectors=basis.vectors, parity=parity, zero_modes=zero,
                        degeneracy_groups=partial(_groups, vals.size, joined), beta=float(beta), regime=regime)
    object.__setattr__(spectrum, "_basis", basis)  # an instance attribute, not a field, so replace() drops it
    return spectrum


def ladder_spectrum_closed_form(n_vertices: int, beta: float = 1.0) -> Spectrum:
    """The exact eigensystem of the degree-1 ladder operator.

    Eigenvalues are 4 beta s_j^2 and beta (2 + 4 s_j^2) as in the module docstring;
    eigenvectors come out orthonormal by construction, on first read.
    The spectra of one (N, beta) share its kept eigenvalues, tags and basis.  beta is keyed
    by type and repr, so 0, 0.0 and -0.0 are three keys.
    """
    n = check_n(n_vertices)
    beta = check_coupling(beta)
    build = partial(_mode_tags, np.arange(n), beta, False)
    key = (type(beta), repr(beta))
    tags = _kept(n, "closed form", build, key)
    return _from_modes(tags, beta, "euclidean")


def parity_swap_matrix(n_vertices: int) -> np.ndarray:
    """Permutation matrix exchanging the two rails."""
    n = check_n(n_vertices)
    return _frozen(np.roll(np.eye(n), n // 2, axis=1))


def lorentzian_operator(K: np.ndarray, beta: float = 1) -> np.ndarray:
    """K_M = K - 2 beta [[I, -I], [-I, I]] for a ladder-sized operator (even, >= 4).

    Integer K with an Integral beta stays exact int64, with ValueError where
    an entry could leave the int64 range; anything else comes out float64.
    """
    K = check_finite(check_square(np.asarray(K)), "matrix entries")
    n = check_n(K.shape[0])
    exact = isinstance(check_coupling(beta), Integral) and np.issubdtype(K.dtype, np.integer)
    # entries of K_M are at most max|K| + 2|beta| in magnitude
    if exact and max(int(K.max(initial=0)), -int(K.min(initial=0))) + 2 * abs(int(beta)) >= 2**63:
        raise ValueError(f"integer arithmetic would overflow int64: max|K| + 2 * |{beta}| >= 2**63")
    shift = 2 * (int(beta) if exact else float(beta))
    K_M = np.array(K, dtype=np.result_type(K, np.int64 if exact else float))
    i = np.arange(n)

    def shifted():  # in place: the 2N entries on the diagonal and at each vertex's rail-swap partner
        K_M[i, i] -= shift
        K_M[i, (i + n // 2) % n] += shift
        return K_M
    return _frozen(shifted() if exact else _finite("Lorentzian operator", shifted))


def numeric_spectrum(K) -> Spectrum:
    """Eigensystem of an arbitrary symmetric matrix, with the same bookkeeping.

    Uses a dense symmetric eigensolver, whose eigenvalues come out
    ascending, then post-processes: when the size is a ladder size (even,
    >= 4) and the matrix commutes with the rail swap, each degenerate
    subspace is rotated into definite-parity vectors so the tags match the
    closed form.  Raises on non-symmetric input.  Zero modes and degeneracy
    groups come from ZERO_MODE_RTOL and DEGENERACY_RTOL, so past cond K of
    about 1e9 a genuine mode is tagged zero (the ladder's own K gets there
    near N = 82 000).  The continued counterpart of such a spectrum is
    ``numeric_spectrum(lorentzian_operator(K))``.
    """
    K = check_symmetric(check_square(np.asarray(K)))
    vals, vecs = np.linalg.eigh(K)
    n = K.shape[0]

    parity: list[str | None] = [None] * n
    if n >= 4 and n % 2 == 0:
        swap = np.roll(np.arange(n), n // 2)  # the rail swap by index: row i of swap @ K is K[swap[i]]
        if _gap(K, K[swap][:, swap])[1]:
            for idx in _degeneracy_groups(vals):
                V = vecs[:, idx]
                # The swap restricted to an eigenspace is an involution;
                # its +-1 eigenvectors are the definite-parity modes.
                w, R = np.linalg.eigh(np.ascontiguousarray(V[swap].T) @ V)
                vecs[:, idx] = V @ R
                for pos, wi in zip(idx, w):
                    if abs(wi - 1.0) < PARITY_ATOL:
                        parity[pos] = SYMMETRIC
                    elif abs(wi + 1.0) < PARITY_ATOL:
                        parity[pos] = ANTISYMMETRIC

    vals = _frozen(vals)  # a builder that is a partial of a module-level function pickles unread
    return Spectrum(eigenvalues=vals, eigenvectors=partial(_sign_fix, vecs), parity=tuple(parity),
                    zero_modes=_zero_mode_indices(vals), degeneracy_groups=partial(_degeneracy_groups, vals))


def continue_to_lorentzian(spectrum: Spectrum, n_vertices: int) -> Spectrum:
    """Continue a closed-form ladder spectrum: beta times the continued unit eigenvalues of its modes.

    The parent is one from ladder_spectrum_closed_form, and the continuation
    takes its tags from the mode indices; for N divisible by 4 the
    antisymmetric mode at j = N/4 becomes a second null direction and the
    result reports itself singular.  Any other spectrum (a continued one, or
    one from numeric_spectrum, this constructor or ``dataclasses.replace``)
    is refused with ValueError: its continued counterpart is
    ``numeric_spectrum(lorentzian_operator(K))``.
    """
    basis = getattr(spectrum, "_basis", None)
    if basis is None or spectrum.regime != "euclidean":
        raise ValueError("only a Euclidean closed-form ladder spectrum can be continued; "
                         "for any other, take numeric_spectrum(lorentzian_operator(K))")
    if spectrum.n_modes != n_vertices:
        raise ValueError(f"spectrum has {spectrum.n_modes} modes but n_vertices is {n_vertices}")
    # sorted from the parent's order, tied values keep their columns
    return _from_modes(_mode_tags(basis.modes, spectrum.beta, True), spectrum.beta, "lorentzian")


def _project(spectrum: Spectrum, x: np.ndarray, signed: bool) -> np.ndarray:
    """x's component along each column, through the spectrum's DCT basis (``signed`` as in
    LadderBasis.project) or, with none, by an einsum: off the threaded matmul path, so no bit
    depends on the BLAS thread count.  ValueError past the float range."""
    basis = getattr(spectrum, "_basis", None)
    if basis is None:
        return _finite("source projection", lambda: np.einsum("ij,i->j", spectrum.eigenvectors, x))
    return _finite("source projection", lambda: basis.project(x, signed))


def _synthesize(spectrum: Spectrum, coeffs: np.ndarray) -> np.ndarray:
    """The sum of coeffs[i] times column i, as an unsigned _project reads the columns."""
    basis = getattr(spectrum, "_basis", None)
    if basis is None:
        return _finite("mode sum", lambda: np.einsum("ij,j->i", spectrum.eigenvectors, coeffs))
    return _finite("mode sum", lambda: basis.synthesize(coeffs))
