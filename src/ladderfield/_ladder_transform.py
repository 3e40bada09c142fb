"""The ladder's one transform: its modes are DCT-II vectors on each rail.

The closed-form eigenvectors are [x_j; +-x_j], with x_j the j-th DCT-II
vector on N/2 points (Strang, SIAM Rev. 41(1), 1999).  A vertex vector
projects onto every mode through one DCT-II of its rail sum and difference,
and a sum of modes is one DCT-III back; the phase split's sine sums are a
DST-I.  Each is unnormalised, acts along the last axis and runs on numpy.fft
(Makhoul, IEEE TASSP 28(1), 1980): O(N log N) time, O(N) memory, and single
threaded, so no result depends on the BLAS thread count.  A transform on
m points reads its twiddles, and a basis its rail scales and pivot signs,
from the ladder table of N = 2m, which builds them once per N.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .chain_complex import _frozen, _kept, _ReadOnlyState

#: Entries of the largest block of columns pivot_signs reads at once.
_BLOCK_ENTRIES = 1 << 18


def ladder_eigenvalues(n: int, continued: bool = False) -> np.ndarray:
    """Unit-coupling eigenvalues, read-only and kept per regime: 4 sin^2(pi j/N) in place 2j (symmetric) and
    2 + 4 sin^2(pi j/N), or continued 2 sin((4j - N) pi/2N), exactly 0.0 at j = N/4, in place 2j + 1."""
    def build():
        j = np.arange(n // 2)
        sym = 4.0 * np.sin(np.pi * j / n) ** 2
        anti = 2.0 * np.sin((4 * j - n) * np.pi / (2 * n)) if continued else 2.0 + sym
        return _frozen(np.stack((sym, anti), axis=1).ravel())
    return _kept(n, ("eigenvalues", continued), build)


def zero_modes(n: int, continued: bool) -> list[int]:
    """Modes of exact eigenvalue 0: symmetric j = 0, and antisymmetric j = N/4 when continued and 4 | N."""
    return [0, n // 2 + 1] if continued and n % 4 == 0 else [0]


def degenerate_pairs(n: int, continued: bool) -> list[tuple[int, int]]:
    """(symmetric, antisymmetric) mode pairs of exactly equal eigenvalue: j, j' with cos(2 pi j'/N) -
    cos(2 pi j/N) = 1 (-1 continued).  For cosines of rational multiples of pi only (1, 0) and (1/2, -1/2)
    solve it (Conway & Jones, Acta Arith. 30, 1976): (j, j') = (N/4, 0) or (N/3, N/6), swapped continued."""
    pairs = [(n // 4, 0)] * (n % 4 == 0) + [(n // 3, n // 6)] * (n % 3 == 0)
    return [(2 * p[continued], 2 * p[not continued] + 1) for p in pairs]


def rails(x: np.ndarray) -> np.ndarray:
    """(first half + second half, first half - second half) of a 1-D vector, stacked."""
    left, right = x[: x.size // 2], x[x.size // 2 :]
    return np.stack((left + right, left - right))


def _factors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DCT-II and DCT-III twiddles on m = N/2 points and the rail scales, kept in the ladder table."""
    return _kept(n, "dct", partial(_build_factors, n))


def _build_factors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = np.arange(n // 2)
    forward, backward = np.exp(-0.5j * np.pi * k / k.size), np.exp(0.5j * np.pi * k / k.size)
    scale = np.sqrt(np.where(k == 0, 1.0, 2.0) / n)  # x_j's norm: sqrt(1/N) at j = 0, sqrt(2/N) after
    return _frozen(forward), _frozen(backward), _frozen(scale)


def dct2(y: np.ndarray) -> np.ndarray:
    """sum_k y_k cos(pi j (2k + 1) / 2m) for j < m, where m is the last axis's length."""
    m = y.shape[-1]
    return (np.fft.rfft(y, 2 * m)[..., :m] * _factors(2 * m)[0]).real


def dct3(w: np.ndarray) -> np.ndarray:
    """The transpose of dct2: sum_j w_j cos(pi j (2k + 1) / 2m) for k < m."""
    m = w.shape[-1]
    z = w * _factors(2 * m)[1]
    z[..., 0] *= 2.0  # irfft counts every other term twice, with its conjugate
    return m * np.fft.irfft(z, 2 * m)[..., :m]


def dst1(y: np.ndarray) -> np.ndarray:
    """sum_k y_k sin(pi j k / (m + 1)) for j, k = 1 .. m, where m is the last axis's length."""
    padded = np.concatenate((np.zeros(y.shape[:-1] + (1,)), y), axis=-1)
    return -np.fft.rfft(padded, 2 * padded.shape[-1])[..., 1 : padded.shape[-1]].imag


def cosine_block(n: int, j: np.ndarray) -> np.ndarray:
    """Columns x_j for the modes j: sqrt(2/n) cos((2k + 1) j pi / n) for k < n/2, and sqrt(1/n) at j = 0."""
    x = np.sqrt(2.0 / n) * np.cos(np.outer(2 * np.arange(n // 2) + 1, j) * np.pi / n)
    x[:, j == 0] = np.sqrt(1.0 / n)
    return x


def pivot_signs(columns, shape: tuple[int, int]) -> np.ndarray:
    """+-1 per column: the sign of its largest-magnitude entry as rounded to float, the first of equal floats.

    ``columns(s)`` gives the columns in slice s of a matrix of ``shape``; they are
    read at most _BLOCK_ENTRIES entries at a time, never as one whole-matrix temporary.
    """
    step = max(1, _BLOCK_ENTRIES // max(shape[0], 1))
    signs = np.empty(shape[1])
    for start in range(0, shape[1], step):
        x = columns(slice(start, start + step))
        signs[start : start + step] = np.where(x[np.argmax(np.abs(x), axis=0), np.arange(x.shape[1])] < 0, -1.0, 1.0)
    return signs


def column_signs(n: int) -> np.ndarray:
    """The pivot sign of each x_j, kept per N: from one block of cosines at a time, or by LadderBasis.vectors."""
    return _kept(n, "signs", lambda: _frozen(
        pivot_signs(lambda s: cosine_block(n, np.arange(n // 2)[s]), (n // 2, n // 2))))


class LadderBasis(_ReadOnlyState):
    """A Spectrum's closed-form modes: column i is mode ``modes[i]`` of ladder_eigenvalues,
    times the sign ``column_signs(N)[modes[i] // 2]``."""

    def __init__(self, modes: np.ndarray):
        self.modes = _frozen(modes)

    def project(self, x: np.ndarray, signed: bool = True) -> np.ndarray:
        """x's component along each column, or along its mode before the sign fix."""
        p = (dct2(rails(x)) * _factors(self.modes.size)[2]).T.ravel()[self.modes]
        return p * column_signs(self.modes.size)[self.modes // 2] if signed else p

    def vectors(self) -> np.ndarray:
        """Every column, signed: [x_j; x_j] for mode 2j, [x_j; -x_j] for mode 2j + 1."""
        half = self.modes.size // 2
        x = cosine_block(self.modes.size, np.arange(half))
        x *= _kept(self.modes.size, "signs", lambda: _frozen(pivot_signs(lambda s: x[:, s], x.shape)))
        vecs = x[np.arange(2 * half)[:, None] % half, self.modes // 2]  # [x_j; x_j] in mode order
        vecs[half:] *= np.where(self.modes % 2, -1.0, 1.0)
        return _frozen(vecs)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """The sum of coeffs[i] times column i's mode, before its sign fix."""
        modal = np.empty(self.modes.size)
        modal[self.modes] = coeffs
        return dct3(rails(modal.reshape(-1, 2).T.ravel()) * _factors(self.modes.size)[2]).ravel()
