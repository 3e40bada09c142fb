"""Closed-form eigensystem of the ladder operator against dense diagonalization."""

import copy
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import subspace_angles

from ladderfield import _ladder_transform
from ladderfield._ladder_transform import column_signs, cosine_block
from ladderfield.chain_complex import ChainComplex, _ladder_table, build_chain_complex
from ladderfield.partition import classical_solution, euclidean_Z, outcome_probability, project_source
from ladderfield.scc import SccSystem, build_operator, build_system, gradient_link_values, null_space_basis
from ladderfield.spectral import (
    Spectrum,
    _project,
    _degeneracy_groups,
    _zero_mode_indices,
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


@pytest.mark.parametrize("n", [6, 8, 14, 40, 400])
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


def test_closed_form_tags_one_zero_mode_at_n_100000():
    assert ladder_spectrum_closed_form(100_000).zero_modes == (0,)


@pytest.mark.parametrize(
    "n, zero, continued_zero, pairs",
    [
        # past N near 82 000 the smallest nonzero eigenvalue is below 1e-9 of the largest
        (81_998, (0,), (20_500,), 0),  # neither 3 nor 4 divides N: no exact tie
        (82_000, (0,), (20_500, 20_501), 1),  # 4 | N: the j = N/4 pair, continued the two zero modes
        (10**6, (0,), (250_000, 250_001), 1),
    ],
)
def test_tags_come_from_the_mode_indices_at_large_n(n, zero, continued_zero, pairs):
    s = ladder_spectrum_closed_form(n)
    continued = continue_to_lorentzian(s, n)
    for spectrum, want in ((s, zero), (continued, continued_zero)):
        assert spectrum.zero_modes == want
        tied = [g for g in spectrum.degeneracy_groups if len(g) > 1]
        assert len(tied) == pairs and all(len(g) == 2 for g in tied)
    assert (continued_zero in tied) == (len(continued_zero) == 2)  # two zero modes form a group


def test_continuation_requires_parity_tags():
    s = numeric_spectrum(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        continue_to_lorentzian(s, 3)


@pytest.mark.parametrize("make", [
    lambda n: numeric_spectrum(dense_operator(n)),
    lambda n: replace(ladder_spectrum_closed_form(n)),
    lambda n: replace(continue_to_lorentzian(ladder_spectrum_closed_form(n), n)),
    lambda n: continue_to_lorentzian(ladder_spectrum_closed_form(n), n),
], ids=["numeric", "replaced_closed_form", "replaced_continuation", "continuation"])
def test_only_a_closed_form_spectrum_is_continued(make):
    # every tag is set on these, but none is Euclidean and keeps the basis whose mode indices give each parity;
    # continuing a continuation again would tag its -4 beta mode as a zero mode at N = 8
    n = 8
    message = ("only a Euclidean closed-form ladder spectrum can be continued; "
               "for any other, take numeric_spectrum(lorentzian_operator(K))")
    s = make(n)
    assert None not in s.parity
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        continue_to_lorentzian(s, n)


def test_eigenpairs_iteration():
    s = ladder_spectrum_closed_form(4)
    pairs = list(s.eigenpairs())
    assert len(pairs) == 4
    val, vec = pairs[0]
    assert val == s.eigenvalues[0]
    assert_allclose(vec, s.eigenvectors[:, 0])


def _reference_bookkeeping(vals, vecs, parity):
    """Loop-built bookkeeping: a stable ascending sort, then each column flipped
    so its largest-magnitude entry is positive, then zero modes and groups."""
    order = np.argsort(np.array(vals), kind="stable")
    vals = np.array(vals)[order]
    vecs = np.array(vecs)[:, order]
    for i in range(vals.size):
        if vecs[np.argmax(np.abs(vecs[:, i])), i] < 0:
            vecs[:, i] = -vecs[:, i]
    top = np.max(np.abs(vals))
    zero = tuple(i for i in range(vals.size) if abs(vals[i]) <= 1e-9 * top)
    groups = [[0]]
    for i in range(1, vals.size):
        if abs(vals[i] - vals[groups[-1][-1]]) <= 1e-9 * max(top, 1.0):
            groups[-1].append(i)
        else:
            groups.append([i])
    return vals, vecs, tuple(parity[i] for i in order), zero, tuple(map(tuple, groups))


@pytest.mark.parametrize("six_columns", [False, True], ids=["default_blocks", "six_columns_a_block"])
def test_column_signs_are_bitwise_the_per_column_loop(monkeypatch, six_columns):
    # Entries of equal exact magnitude differ in cos's last bit, and that decides
    # the pivot: a rule on exact values ("the first of the tied entries") gives
    # other signs at 594 of the 599 even sizes 4 <= N <= 1200.
    for n in [*range(4, 401, 2), 1200]:
        half = n // 2
        if six_columns:
            monkeypatch.setattr(_ladder_transform, "_BLOCK_ENTRIES", 6 * half)
        block = cosine_block(n, np.arange(half))
        fixed = _reference_bookkeeping(np.arange(half), block, [None] * half)[1]
        assert_array_equal(block * column_signs(n), fixed)


def _unit_eigenvalues(n, j, continued):
    """Mode j's symmetric and antisymmetric unit eigenvalues, each formed without cancellation."""
    sym = 4.0 * np.sin(np.pi * j / n) ** 2
    return sym, 2.0 * np.sin((4 * j - n) * np.pi / (2 * n)) if continued else 2.0 + sym


def _reference_closed_form(n, beta, continued=False):
    """The per-mode construction of the closed form or its continuation, with its own sort and sign rule.

    Kept as the reference the vectorized builder must reproduce bit for
    bit: modes in j order, symmetric before antisymmetric, put in the
    Euclidean spectrum's order (a continuation sorts from its parent's, so
    tied values keep their columns), then the loop-built bookkeeping.
    """
    half = n // 2
    vals, parent, cols, parity = [], [], [], []
    for j in range(half):
        if j == 0:
            x = np.full(half, np.sqrt(1.0 / n))
        else:
            k = np.arange(1, half + 1)
            x = np.sqrt(2.0 / n) * np.cos(j * (2 * k - 1) * np.pi / n)
        vals += [beta * v for v in _unit_eigenvalues(n, j, continued)]
        parent += [beta * v for v in _unit_eigenvalues(n, j, False)]
        cols += [np.concatenate([x, x]), np.concatenate([x, -x])]
        parity += ["symmetric", "antisymmetric"]
    order = np.argsort(parent, kind="stable")
    return _reference_bookkeeping(np.array(vals)[order], np.column_stack(cols)[:, order],
                                  [parity[i] for i in order])


def _assert_spectrum_is(s, reference):
    vals, vecs, parity, zero, groups = reference
    assert_array_equal(s.eigenvalues, vals)
    assert_array_equal(np.signbit(s.eigenvalues), np.signbit(vals))  # -0.0 included
    assert_array_equal(s.eigenvectors, vecs)
    assert s.parity == parity
    assert s.zero_modes == zero
    assert s.degeneracy_groups == groups
    assert s.nonzero_modes == tuple(i for i in range(len(vals)) if i not in zero)
    indices = s.zero_modes + s.nonzero_modes + sum(s.degeneracy_groups, ())
    assert all(type(i) is int for i in indices)


@pytest.mark.parametrize("beta", [1, 2.5, -2])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 130, 512])
def test_closed_form_is_bitwise_the_per_mode_construction(n, beta):
    s = ladder_spectrum_closed_form(n, beta=beta)
    _assert_spectrum_is(s, _reference_closed_form(n, beta))
    _assert_spectrum_is(continue_to_lorentzian(s, n), _reference_closed_form(n, beta, continued=True))


def _eager_closed_form(n, beta, continued=False):
    """The closed form or its continuation as built when every field was eager: the vectorized
    vectors at once, put in the Euclidean spectrum's order, then the loop-built bookkeeping."""
    half = n // 2
    j = np.arange(half)
    vals, parent = np.empty(n), np.empty(n)
    vals[0::2], vals[1::2] = (beta * v for v in _unit_eigenvalues(n, j, continued))
    parent[0::2], parent[1::2] = (beta * v for v in _unit_eigenvalues(n, j, False))
    vecs = np.empty((n, n))
    x = vecs[:half, 0::2]
    np.multiply(np.sqrt(2.0 / n), np.cos(np.outer(2 * j + 1, j) * np.pi / n), out=x)
    x[:, 0] = np.sqrt(1.0 / n)
    for i in range(half):
        if x[np.argmax(np.abs(x[:, i])), i] < 0:
            x[:, i] = -x[:, i]
    vecs[half:, 0::2] = x
    vecs[:half, 1::2] = x
    np.negative(x, out=vecs[half:, 1::2])
    order = np.argsort(parent, kind="stable")
    return _reference_bookkeeping(vals[order], vecs[:, order], [("symmetric", "antisymmetric")[i % 2] for i in order])


@pytest.mark.parametrize("beta", [1, 2.5, 3, -2, 0])
def test_lazy_fields_are_bitwise_the_eager_construction(beta):
    for n in [*range(4, 513, 2), 1024]:
        s = ladder_spectrum_closed_form(n, beta=beta)
        continued = continue_to_lorentzian(s, n)
        # the continuation is read first: it builds its vectors from its own basis
        for spectrum, want in ((continued, _eager_closed_form(n, beta, True)), (s, _eager_closed_form(n, beta))):
            if n <= 400:  # the index tags are the thresholds' on these eigenvalues
                assert spectrum.zero_modes == _zero_mode_indices(spectrum.eigenvalues)
                assert spectrum.degeneracy_groups == _degeneracy_groups(spectrum.eigenvalues)
            _assert_spectrum_is(spectrum, want)
            assert spectrum.eigenvectors.dtype == np.float64
            assert not spectrum.eigenvectors.flags.writeable


def test_reading_the_eigenvalues_never_builds_the_vectors():
    tracemalloc.start()
    try:
        s = continue_to_lorentzian(ladder_spectrum_closed_form(4096, beta=2), 4096)
        s.eigenvalues, s.parity, s.zero_modes, s.nonzero_modes, s.is_singular
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000  # one 4096 x 4096 float64 matrix is 134 MB


def test_a_continued_spectrum_never_builds_its_parents_vectors():
    parent = ladder_spectrum_closed_form(12, beta=2)
    continue_to_lorentzian(parent, 12).eigenvectors
    assert callable(vars(parent)["eigenvectors"])


def test_a_lazy_field_is_built_once_and_stays_read_only():
    s = continue_to_lorentzian(ladder_spectrum_closed_form(10), 10)
    vecs, groups = s.eigenvectors, s.degeneracy_groups
    assert s.eigenvectors is vecs and s.degeneracy_groups is groups
    with pytest.raises(ValueError):
        vecs[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        s.eigenvectors = vecs


def test_repr_and_equality_leave_the_lazy_fields_unbuilt():
    s = continue_to_lorentzian(ladder_spectrum_closed_form(4096, beta=2), 4096)
    other = ladder_spectrum_closed_form(4096, beta=2)
    text = repr(s)
    assert "eigenvectors" not in text and "degeneracy_groups" not in text
    # equality is identity: a field-by-field == of arrays has no truth value
    assert s == s and s != other and other != s
    for spectrum in (s, other):
        assert callable(vars(spectrum)["eigenvectors"])
        assert callable(vars(spectrum)["degeneracy_groups"])


def _same_fields(a, b):
    assert_array_equal(a.eigenvalues, b.eigenvalues)
    assert_array_equal(a.eigenvectors, b.eigenvectors)
    assert (a.parity, a.zero_modes, a.degeneracy_groups, a.beta, a.regime) == (
        b.parity, b.zero_modes, b.degeneracy_groups, b.beta, b.regime
    )


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "copy_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_round_trip_before_and_after_the_first_read(copy_of, read_first):
    closed = ladder_spectrum_closed_form(12, beta=2.5)
    for s in (closed, continue_to_lorentzian(closed, 12), numeric_spectrum(dense_operator(8))):
        if read_first:
            s.eigenvectors, s.degeneracy_groups
        c = copy_of(s)
        _same_fields(c, s)  # the copy is read first: it builds from its own builders
        assert not (c.eigenvalues.flags.writeable or c.eigenvectors.flags.writeable)


def _ladder_system(n, beta):
    c = build_chain_complex(n)
    return build_system(c, 1, gradient_link_values(c, np.arange(n) % 5 - 2), alpha=2, beta=beta)


@pytest.mark.parametrize(
    "copy_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_keep_the_transform_route_and_read_only_arrays(copy_of):
    n = 14  # not a multiple of 4: J stays in the continued operator's row space
    system = _ladder_system(n, 2.5)
    closed = ladder_spectrum_closed_form(n, beta=2.5)
    for s in (closed, continue_to_lorentzian(closed, n)):
        want = project_source(system.J, s)  # builds the signs, not the vectors
        c = copy_of(s)
        assert_array_equal(c._basis.modes, s._basis.modes)
        assert not (c._basis.modes.flags.writeable or s._basis.modes.flags.writeable)
        assert not column_signs(n).flags.writeable  # kept in the table, which no copy carries
        assert_array_equal(project_source(system.J, c), want)
        classical_solution(system, c)
        assert callable(vars(c)["eigenvectors"])


def test_replace_projects_on_the_callers_vectors():
    n = 10
    system = _ladder_system(n, 3)
    s = ladder_spectrum_closed_form(n, beta=3)
    J = np.asarray(system.J, dtype=float)
    for r in (replace(s), replace(s, eigenvectors=-s.eigenvectors)):
        assert not hasattr(r, "_basis")
        assert_array_equal(project_source(J, r), np.einsum("ij,i->j", r.eigenvectors, J))
    unit = replace(s, eigenvectors=np.eye(n))
    assert_array_equal(project_source(system.J, unit), system.J)
    with pytest.raises(ValueError, match="zero mode"):
        euclidean_Z(system, unit)  # J has a component along the constant mode's column e_0


def test_replace_takes_the_vectors_as_given():
    s = ladder_spectrum_closed_form(8)
    vecs = np.eye(8)
    r = replace(s, eigenvectors=vecs)
    assert r.eigenvectors is vecs
    assert r.degeneracy_groups == s.degeneracy_groups
    assert_array_equal(r.eigenvalues, s.eigenvalues)
    _same_fields(replace(s), s)


def _reference_numeric(K):
    """numeric_spectrum rebuilt with loops: dense eigh, parity rotation per group, bookkeeping."""
    K = np.asarray(K, dtype=float)
    vals, vecs = np.linalg.eigh(K)
    n = K.shape[0]
    parity = [None] * n
    swap = np.roll(np.eye(n), n // 2, axis=1)
    atol = 1e-12 * max(np.abs(K).max(), 1.0)
    if n >= 4 and n % 2 == 0 and np.allclose(swap @ K @ swap, K, rtol=0.0, atol=atol):
        for group in _reference_bookkeeping(vals, vecs, parity)[4]:
            idx = list(group)
            w, R = np.linalg.eigh(vecs[:, idx].T @ swap @ vecs[:, idx])
            vecs[:, idx] = vecs[:, idx] @ R
            for pos, wi in zip(idx, w):
                if abs(wi - 1.0) < 1e-6:
                    parity[pos] = "symmetric"
                elif abs(wi + 1.0) < 1e-6:
                    parity[pos] = "antisymmetric"
    return _reference_bookkeeping(vals, vecs, parity)


DEGENERATE_WITH_ZERO_MODES = {
    "diag(0, 4, 0, 1)": np.diag([0.0, 4.0, 0.0, 1.0]),
    "lorentzian N=8": lorentzian_operator(build_operator(build_chain_complex(8), 1, 1)),
    "lorentzian N=12": lorentzian_operator(build_operator(build_chain_complex(12), 1, 1)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_WITH_ZERO_MODES))
def test_numeric_spectrum_and_null_basis_are_bitwise_the_loop_references(name):
    K = DEGENERATE_WITH_ZERO_MODES[name]
    reference = _reference_numeric(K)
    zero, groups = reference[3], reference[4]
    assert len(zero) >= 2 and any(len(g) >= 2 for g in groups)  # the cases these inputs stand for
    _assert_spectrum_is(numeric_spectrum(K), reference)

    # null_space_basis: eigh, the zero columns by the same rule, each sign-fixed by a loop
    vals, vecs = np.linalg.eigh(np.asarray(K, dtype=float))
    top = np.max(np.abs(vals))
    null = vecs[:, [i for i in range(vals.size) if abs(vals[i]) <= 1e-9 * top]]
    for i in range(null.shape[1]):
        if null[np.argmax(np.abs(null[:, i])), i] < 0:
            null[:, i] = -null[:, i]
    basis = null_space_basis(K)
    assert len(basis) == null.shape[1]
    for got, want in zip(basis, null.T):
        assert_array_equal(got, want)


@pytest.mark.parametrize("columns", [1, 6])
@pytest.mark.parametrize("name", sorted(DEGENERATE_WITH_ZERO_MODES))
def test_the_sign_rule_is_the_loop_across_block_boundaries(monkeypatch, name, columns):
    # numeric_spectrum and null_space_basis read their columns in blocks, as column_signs does
    monkeypatch.setattr(_ladder_transform, "_BLOCK_ENTRIES", columns * DEGENERATE_WITH_ZERO_MODES[name].shape[0])
    test_numeric_spectrum_and_null_basis_are_bitwise_the_loop_references(name)


@pytest.mark.parametrize("n", [*range(4, 60, 2), 128])
def test_rail_swap_by_index_is_bitwise_the_permutation_products(n):
    # _reference_numeric applies the swap as a dense permutation matrix
    for K in (dense_operator(n), lorentzian_operator(dense_operator(n, 1.7), 1.7)):
        _assert_spectrum_is(numeric_spectrum(K), _reference_numeric(K))


# ---------------------------------------------------------------------------
# the Lorentzian operator follows the one int64 rule


def test_lorentzian_operator_refuses_a_wrapping_shift():
    # K_M[1, 1] = -3 * 2**61 - 2**62 lies below -2**63; in int64 it would wrap to +6.92e18
    K = -build_operator(build_chain_complex(6), 1, 2**61)
    with pytest.raises(ValueError, match="overflow int64"):
        lorentzian_operator(K, 2**61)


def test_lorentzian_operator_is_exact_just_inside_int64():
    K = build_operator(build_chain_complex(6), 1, 2**60)
    KM = lorentzian_operator(K, 2**60)
    assert KM.dtype == np.int64 and not KM.flags.writeable
    swap = parity_swap_matrix(6).astype(int)
    expected = [
        [int(K[i, j]) - 2 * 2**60 * (int(i == j) - int(swap[i, j])) for j in range(6)]
        for i in range(6)
    ]
    assert KM.tolist() == expected


def test_lorentzian_operator_dtype_follows_the_coupling_type():
    K = build_operator(build_chain_complex(6), 1, 1)
    assert lorentzian_operator(K).dtype == np.int64
    assert lorentzian_operator(K, 2).dtype == np.int64
    assert lorentzian_operator(K, np.int32(2)).dtype == np.int64
    # an Integral beta is the one integer rule: a float beta gives float64
    KM = lorentzian_operator(K, 1.0)
    assert KM.dtype == np.float64
    assert_array_equal(KM, lorentzian_operator(K))
    assert lorentzian_operator(K.astype(float), 1).dtype == np.float64


@pytest.mark.parametrize("n", [4, 6, 8, 12, 40, 130])
def test_lorentzian_operator_is_bitwise_the_dense_shift(n):
    # the shift by index against K - beta * 2 (I - S) with a dense permutation S
    K = build_operator(build_chain_complex(n), 1, 3)
    rng = np.random.default_rng(n)
    cases = [(K, 3), (dense_operator(n, 1.7), 1.7), (K, 2.5), (rng.normal(size=(n, n)), 0.9), (K.astype(np.int32), 2)]
    shift = 2 * (np.eye(n, dtype=np.int64) - parity_swap_matrix(n).astype(np.int64))
    for K, beta in cases:
        expected = K - (beta if isinstance(beta, int) and K.dtype.kind == "i" else float(beta)) * shift
        got = lorentzian_operator(K, beta)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_a_float_operator_takes_an_integer_coupling_past_the_int64_range():
    # only the exact route has an int64 bound; a float K is shifted in float64
    K = dense_operator(6)
    KM = lorentzian_operator(K, 2**62)
    shift = 2.0 * (np.eye(6) - parity_swap_matrix(6))
    assert KM.dtype == np.float64
    assert_array_equal(KM, K - 2.0**62 * shift)


# --- the ladder table: each (N, beta)'s closed-form modes built once ----------------

TABLE_SIZES = [4, 6, 44, 512]
TABLE_BETAS = [0, 0.0, -0.0, 1, 1.0, True, -2, 2.5, 1e-320]


def _outcome(f):
    """f()'s value, or the type and message of what it raised: a refusal must be the same too."""
    try:
        return f()
    except Exception as err:  # compared with the cold call's, not handled
        return type(err), str(err)


def _closed_form_bytes(n, beta, system):
    s = ladder_spectrum_closed_form(n, beta)
    arrays = [s.eigenvalues, _project(s, system.J, True), _project(s, system.J, False)]
    return [
        [(a.dtype.str, a.tobytes()) for a in arrays],
        s.parity, s.zero_modes, s.degeneracy_groups, s.beta, repr(s),
        _outcome(lambda: project_source(system.J, s).tobytes()),
        _outcome(lambda: euclidean_Z(system, s)),
        _outcome(lambda: classical_solution(system, s).tobytes()),
    ]


@pytest.mark.parametrize("n", TABLE_SIZES)
def test_a_warm_closed_form_is_bitwise_a_cold_one(n):
    c = build_chain_complex(n)
    v = np.random.default_rng(n).integers(-9, 10, size=n)
    system = build_system(c, 1, gradient_link_values(c, v))
    cold = {}
    for beta in TABLE_BETAS:
        _ladder_table.cache_clear()
        cold[beta, repr(beta)] = _closed_form_bytes(n, beta, system)
    # alternating order: each beta follows another on a table that already holds this N
    for beta in TABLE_BETAS[::2] + TABLE_BETAS[1::2] + TABLE_BETAS[::-1]:
        assert _closed_form_bytes(n, beta, system) == cold[beta, repr(beta)]


def test_zero_couplings_of_each_type_keep_their_sign_bits():
    for beta, negative in [(0, False), (0.0, False), (-0.0, True), (0, False), (-0.0, True), (0.0, False)]:
        vals = ladder_spectrum_closed_form(8, beta).eigenvalues
        assert np.all(np.signbit(vals) == negative)
    assert ladder_spectrum_closed_form(8, True).beta == 1.0


def test_each_call_returns_a_fresh_spectrum_around_one_basis():
    s1, s2 = ladder_spectrum_closed_form(8, 3), ladder_spectrum_closed_form(8, 3)
    assert s1 is not s2 and s1._basis is s2._basis
    s1.eigenvectors, s1.degeneracy_groups
    assert callable(vars(s2)["eigenvectors"]) and callable(vars(s2)["degeneracy_groups"])
    assert_array_equal(s2.eigenvectors, s1.eigenvectors)
    assert s2.eigenvectors is not s1.eigenvectors
    # the pivot signs of one N are one table entry, built by whichever spectrum of any beta reads them first
    assert vars(s1._basis).keys() == {"modes"}
    _ladder_table.cache_clear()
    s3 = ladder_spectrum_closed_form(8, 2)
    assert "signs" not in _ladder_table(8)
    project_source(np.arange(8.0) - 3.5, s3)
    signs = _ladder_table(8)["signs"][1]
    assert_array_equal(signs, column_signs(8))
    project_source(np.arange(8.0) - 3.5, continue_to_lorentzian(s3, 8)), ladder_spectrum_closed_form(8, 3).eigenvectors
    assert _ladder_table(8)["signs"][1] is signs
    assert s3._basis is not s1._basis


@pytest.mark.parametrize("vectors_first", [True, False], ids=["eigenvectors_first", "projections_first"])
def test_the_pivot_sign_rule_runs_once_per_n(monkeypatch, vectors_first):
    n = 20
    calls = []
    rule = _ladder_transform.pivot_signs
    monkeypatch.setattr(_ladder_transform, "pivot_signs", lambda *args: calls.append(args) or rule(*args))
    system = _ladder_system(n, 2)
    spectra = [ladder_spectrum_closed_form(n, 2), ladder_spectrum_closed_form(n, 3.5)]
    spectra.append(continue_to_lorentzian(spectra[0], n))

    def read_vectors():
        return [s.eigenvectors for s in spectra]

    def project():  # every signed projection: the continued one, at N = 20, need not be in the row space
        return [project_source(system.J, s) for s in spectra] + [outcome_probability(system, spectra[0], 3, 0.5)]
    first, second = (read_vectors, project) if vectors_first else (project, read_vectors)
    first(), second()
    assert len(calls) == 1


def _table_contents(obj):
    """Every object the ladder table reaches through its attributes and containers."""
    seen, stack = [], [obj]
    while stack:
        x = stack.pop()
        seen.append(x)
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif hasattr(x, "__dict__") and not isinstance(x, type):  # the types in a key are not walked
            stack.extend(vars(x).values())
    return seen


def test_the_table_holds_arrays_of_one_size_and_no_public_object():
    n = 64
    c = build_chain_complex(n)
    system = build_system(c, 1, gradient_link_values(c, np.arange(n)), beta=2)
    system.K, c.d1, c.d2
    for beta in (2, 2.0):
        s = ladder_spectrum_closed_form(n, beta)
        project_source(system.J, s), euclidean_Z(system, s), classical_solution(system, s)
        s.eigenvectors, continue_to_lorentzian(s, n).eigenvectors
    contents = _table_contents(_ladder_table(n))
    arrays = [x for x in contents if isinstance(x, np.ndarray)]
    assert arrays and all(a.ndim == 1 and a.size <= 4 * n and not a.flags.writeable for a in arrays)
    public = (ChainComplex, SccSystem, Spectrum)
    assert not any(isinstance(x, public) for x in contents)
    assert _ladder_table.cache_info().currsize == 1
