"""Closed-form eigensystem of the ladder operator against dense diagonalization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import subspace_angles

from ladderfield.chain_complex import build_chain_complex
from ladderfield.scc import build_operator
from ladderfield.spectral import (
    continue_to_lorentzian,
    ladder_spectrum_closed_form,
    lorentzian_operator,
    numeric_spectrum,
    parity_swap_matrix,
)

SWEEP = list(range(4, 202, 2))


def dense_operator(n, beta=1.0):
    K = build_operator(build_chain_complex(n), 1, 1)
    return beta * np.asarray(K, dtype=float)


def test_six_vertex_values():
    s = ladder_spectrum_closed_form(6)
    assert_allclose(s.eigenvalues, [0, 1, 2, 3, 3, 5], atol=1e-12)
    assert s.parity == (
        "symmetric",
        "symmetric",
        "antisymmetric",
        "symmetric",
        "antisymmetric",
        "antisymmetric",
    )
    assert s.zero_modes == (0,)
    assert s.degeneracy_groups == ((0,), (1,), (2,), (3, 4), (5,))


def test_four_vertex_values():
    s = ladder_spectrum_closed_form(4)
    assert_allclose(s.eigenvalues, [0, 2, 2, 4], atol=1e-12)


def test_coupling_scales_eigenvalues():
    plain = ladder_spectrum_closed_form(10)
    scaled = ladder_spectrum_closed_form(10, beta=2.5)
    assert_allclose(scaled.eigenvalues, 2.5 * plain.eigenvalues, rtol=1e-15)
    assert scaled.beta == 2.5
    # eigenvectors are coupling independent
    assert_allclose(scaled.eigenvectors, plain.eigenvectors, atol=1e-15)


@pytest.mark.parametrize("n", SWEEP)
def test_closed_form_matches_dense_eigenvalues(n):
    K = dense_operator(n, beta=1.3)
    s = ladder_spectrum_closed_form(n, beta=1.3)
    reference = np.linalg.eigvalsh(K)
    scale = np.abs(reference).max()
    assert np.max(np.abs(np.sort(s.eigenvalues) - reference)) <= 1e-10 * scale


@pytest.mark.parametrize("n", [4, 6, 12, 50, 144])
def test_closed_form_vectors_are_eigenvectors(n):
    K = dense_operator(n)
    s = ladder_spectrum_closed_form(n)
    residual = K @ s.eigenvectors - s.eigenvectors * s.eigenvalues
    assert np.abs(residual).max() < 1e-12 * max(1.0, np.abs(s.eigenvalues).max())


@pytest.mark.parametrize("n", [4, 6, 30, 100])
def test_closed_form_vectors_orthonormal(n):
    V = ladder_spectrum_closed_form(n).eigenvectors
    assert_allclose(V.T @ V, np.eye(n), atol=1e-12)


def test_zero_mode_is_normalized_constant():
    s = ladder_spectrum_closed_form(16)
    assert s.zero_modes == (0,)
    assert_allclose(s.eigenvectors[:, 0], np.full(16, 0.25), atol=1e-14)


@pytest.mark.parametrize("n", [4, 6, 8, 26])
def test_trace_identity(n):
    s = ladder_spectrum_closed_form(n)
    assert_allclose(s.eigenvalues.sum(), 3 * n - 4, rtol=1e-12)


@pytest.mark.parametrize("n", [6, 10, 40])
def test_parity_tags_describe_rail_swap(n):
    s = ladder_spectrum_closed_form(n)
    swap = parity_swap_matrix(n)
    for k in range(n):
        v = s.eigenvectors[:, k]
        sign = 1.0 if s.parity[k] == "symmetric" else -1.0
        assert_allclose(swap @ v, sign * v, atol=1e-12)
    assert s.parity.count("symmetric") == n // 2
    assert s.parity.count("antisymmetric") == n // 2


def test_degeneracy_groups_partition_and_agree():
    s = ladder_spectrum_closed_form(36)
    flattened = [k for group in s.degeneracy_groups for k in group]
    assert flattened == list(range(36))
    for group in s.degeneracy_groups:
        vals = s.eigenvalues[list(group)]
        assert np.ptp(vals) <= 1e-9 * max(1.0, np.abs(vals).max())


def test_numeric_spectrum_plain_diagonal():
    s = numeric_spectrum(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(s.eigenvalues, [1.0, 2.0, 3.0])
    assert s.parity == (None, None, None)
    assert s.zero_modes == ()


def test_numeric_spectrum_tags_parity_only_at_ladder_sizes():
    s = numeric_spectrum(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert_allclose(s.eigenvalues, [1.0, 3.0])
    assert s.parity == (None, None)


def test_numeric_spectrum_detects_zero_modes():
    s = numeric_spectrum(np.diag([0.0, 4.0, 0.0, 1.0]))
    assert s.zero_modes == (0, 1)
    assert s.is_singular


def test_numeric_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError):
        numeric_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [6, 8, 14, 40])
def test_numeric_spectrum_refines_parity(n):
    s = numeric_spectrum(dense_operator(n))
    closed = ladder_spectrum_closed_form(n)
    got = sorted((round(v, 8), p) for v, p in zip(s.eigenvalues, s.parity))
    want = sorted((round(v, 8), p) for v, p in zip(closed.eigenvalues, closed.parity))
    assert got == want
    # refined vectors are still eigenvectors
    K = dense_operator(n)
    residual = K @ s.eigenvectors - s.eigenvectors * s.eigenvalues
    assert np.abs(residual).max() < 1e-11


@pytest.mark.parametrize("n", [4, 6, 16, 80, 200])
def test_degenerate_subspaces_agree(n):
    closed = ladder_spectrum_closed_form(n)
    numeric = numeric_spectrum(dense_operator(n))
    scale = np.abs(closed.eigenvalues).max()
    for group in closed.degeneracy_groups:
        target = closed.eigenvalues[group[0]]
        members = [
            k
            for k in range(n)
            if abs(numeric.eigenvalues[k] - target) <= 1e-8 * max(1.0, scale)
        ]
        assert len(members) == len(group)
        angles = subspace_angles(
            closed.eigenvectors[:, list(group)], numeric.eigenvectors[:, members]
        )
        assert angles.max() <= 1e-8


def test_lorentzian_operator_six_matches_reference():
    K = build_operator(build_chain_complex(6), 1, 1)
    expected = np.array(
        [
            [0, -1, 0, 1, 0, 0],
            [-1, 1, -1, 0, 1, 0],
            [0, -1, 0, 0, 0, 1],
            [1, 0, 0, 0, -1, 0],
            [0, 1, 0, -1, 1, -1],
            [0, 0, 1, 0, -1, 0],
        ],
        dtype=np.int64,
    )
    assert_array_equal(lorentzian_operator(K), expected)


def test_lorentzian_operator_block_shift():
    for n in (4, 10):
        K = dense_operator(n, beta=1.9)
        KM = lorentzian_operator(K, beta=1.9)
        swap = parity_swap_matrix(n)
        assert_allclose(K - KM, 2 * 1.9 * (np.eye(n) - swap), atol=1e-12)


@pytest.mark.parametrize("n", [6, 8, 10, 24])
def test_continuation_matches_dense_lorentzian(n):
    beta = 0.8
    s = continue_to_lorentzian(ladder_spectrum_closed_form(n, beta=beta), n)
    KM = lorentzian_operator(dense_operator(n, beta=beta), beta=beta)
    reference = np.linalg.eigvalsh(KM)
    assert np.max(np.abs(np.sort(s.eigenvalues) - reference)) <= 1e-10 * np.abs(
        reference
    ).max()
    residual = KM @ s.eigenvectors - s.eigenvectors * s.eigenvalues
    assert np.abs(residual).max() < 1e-11
    assert s.regime == "lorentzian"


def test_continuation_six_values():
    s = continue_to_lorentzian(ladder_spectrum_closed_form(6), 6)
    assert_allclose(s.eigenvalues, [-2, -1, 0, 1, 1, 3], atol=1e-12)
    assert s.zero_modes == (2,)


def test_continuation_four_values():
    s = continue_to_lorentzian(ladder_spectrum_closed_form(4), 4)
    assert_allclose(s.eigenvalues, [-2, 0, 0, 2], atol=1e-12)
    assert len(s.zero_modes) == 2


@pytest.mark.parametrize("n", range(4, 50, 2))
def test_extra_zero_mode_iff_multiple_of_four(n):
    s = continue_to_lorentzian(ladder_spectrum_closed_form(n), n)
    extra = len(s.zero_modes) - 1
    assert (extra > 0) == (n % 4 == 0)
    if n % 4 == 0:
        assert extra == 1  # the quarter-frequency antisymmetric mode


def test_continuation_requires_parity_tags():
    s = numeric_spectrum(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        continue_to_lorentzian(s, 3)


def test_eigenpairs_iteration():
    s = ladder_spectrum_closed_form(4)
    pairs = list(s.eigenpairs())
    assert len(pairs) == 4
    val, vec = pairs[0]
    assert val == s.eigenvalues[0]
    assert_allclose(vec, s.eigenvectors[:, 0])


def _reference_closed_form(n, beta):
    """The per-mode construction of the closed form, with its own sort and sign rule.

    Kept as the reference the vectorized builder must reproduce bit for
    bit: modes in j order, symmetric before antisymmetric, then a stable
    ascending sort, then each column flipped so its largest-magnitude
    entry is positive.
    """
    half = n // 2
    vals, cols, parity = [], [], []
    for j in range(half):
        lam = 3.0 - 2.0 * np.cos(2.0 * np.pi * j / n)
        if j == 0:
            x = np.full(half, np.sqrt(1.0 / n))
        else:
            k = np.arange(1, half + 1)
            x = np.sqrt(2.0 / n) * np.cos(j * (2 * k - 1) * np.pi / n)
        vals += [beta * (lam - 1.0), beta * (lam + 1.0)]
        cols += [np.concatenate([x, x]), np.concatenate([x, -x])]
        parity += ["symmetric", "antisymmetric"]
    order = np.argsort(np.array(vals), kind="stable")
    vals = np.array(vals)[order]
    vecs = np.column_stack(cols)[:, order]
    for i in range(n):
        if vecs[np.argmax(np.abs(vecs[:, i])), i] < 0:
            vecs[:, i] = -vecs[:, i]
    top = np.max(np.abs(vals))
    zero = tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= 1e-9 * top))
    groups = [[0]]
    for i in range(1, n):
        if abs(vals[i] - vals[groups[-1][-1]]) <= 1e-9 * max(top, 1.0):
            groups[-1].append(i)
        else:
            groups.append([i])
    return vals, vecs, tuple(parity[i] for i in order), zero, tuple(map(tuple, groups))


@pytest.mark.parametrize("beta", [1, 2.5])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 130, 512])
def test_closed_form_is_bitwise_the_per_mode_construction(n, beta):
    vals, vecs, parity, zero, groups = _reference_closed_form(n, beta)
    s = ladder_spectrum_closed_form(n, beta=beta)
    assert_array_equal(s.eigenvalues, vals)
    assert_array_equal(s.eigenvectors, vecs)
    assert s.parity == parity
    assert s.zero_modes == zero
    assert s.degeneracy_groups == groups
