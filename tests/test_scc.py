"""Self-consistency between the vertex operator and link-built sources.

The load-bearing identity: for any vertex assignment v with link values taken
as its discrete gradient, alpha * (K @ v) equals beta * J exactly.  Both sides
are built by different code paths, so the tests below lean on integer inputs
to demand bit-exact agreement where the contract promises it.
"""

import copy
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from ladderfield import scc
from ladderfield.chain_complex import (
    ChainComplex,
    _ladder_table,
    build_chain_complex,
    six_vertex_interleaved_complex,
    validate_complex,
)
from ladderfield.errors import SccViolation
from ladderfield.partition import brute_force_Z, classical_solution, euclidean_Z, outcome_probability
from ladderfield.scc import (
    build_operator,
    build_source,
    build_system,
    gradient_link_values,
    null_space_basis,
    verify_scc,
)
from ladderfield.spectral import ladder_spectrum_closed_form
from ladderfield.twinslit import phase_decomposition

K_SIX = np.array(
    [
        [2, -1, 0, -1, 0, 0],
        [-1, 3, -1, 0, -1, 0],
        [0, -1, 2, 0, 0, -1],
        [-1, 0, 0, 2, -1, 0],
        [0, -1, 0, -1, 3, -1],
        [0, 0, -1, 0, -1, 2],
    ],
    dtype=np.int64,
)


def test_vertex_operator_six_matches_reference():
    c = build_chain_complex(6)
    assert_array_equal(build_operator(c, 1, 1), K_SIX)


def test_vertex_operator_is_numbering_independent():
    # The Gram matrix d1 @ d1.T ignores how links are ordered.
    assert_array_equal(build_operator(six_vertex_interleaved_complex(), 1, 1), K_SIX)


def test_vertex_operator_integer_coupling_stays_integer():
    c = build_chain_complex(6)
    K = build_operator(c, 1, 3)
    assert K.dtype == np.int64
    assert_array_equal(K, 3 * K_SIX)


@pytest.mark.parametrize("n", [4, 6, 8, 20, 50])
def test_vertex_operator_structure(n):
    K = build_operator(build_chain_complex(n), 1, 1)
    # row sums vanish; trace counts link ends: the four corner vertices have
    # degree 2 and the rest degree 3.
    assert_array_equal(K.sum(axis=1), np.zeros(n, dtype=np.int64))
    assert K.trace() == 3 * n - 4
    assert_array_equal(K, K.T)


def test_source_pattern_interleaved_six():
    # With links numbered so the two rails alternate, the source at each
    # vertex reads off signed sums of its incident link values.
    c = six_vertex_interleaved_complex()
    e = np.array([3, -2, 5, 7, -1, 4, 6], dtype=np.int64)
    expected = np.array(
        [
            -e[0] - e[3],
            e[0] - e[1] - e[2],
            e[2] - e[6],
            e[3] - e[4],
            e[1] + e[4] - e[5],
            e[5] + e[6],
        ]
    )
    assert_array_equal(build_source(c, 1, e, 1), expected)


@pytest.mark.parametrize("n", [6, 8, 14, 22])
def test_source_pattern_rail_major(n, rng=np.random.default_rng(3)):
    # Independent reconstruction of the source from the rail-major link
    # numbering: left temporal links come first, then right temporal links,
    # then the rungs, with every rung oriented from left rail to right rail.
    c = build_chain_complex(n)
    half = n // 2
    e = rng.integers(-9, 9, size=3 * half - 2)
    J = np.zeros(n, dtype=np.int64)
    for i in range(1, half + 1):  # left-rail vertex i
        v = i - 1
        if i > 1:
            J[v] += e[i - 2]
        if i < half:
            J[v] -= e[i - 1]
        J[v] -= e[n - 3 + i]
    for i in range(1, half + 1):  # right-rail vertex half + i
        v = half + i - 1
        if i > 1:
            J[v] += e[half + i - 3]
        if i < half:
            J[v] -= e[half + i - 2]
        J[v] += e[n - 3 + i]
    assert_array_equal(build_source(c, 1, e, 1), J)


def test_gradient_link_values_head_minus_tail():
    c = build_chain_complex(8)
    v = np.arange(8) ** 2
    g = gradient_link_values(c, v)
    d1 = np.asarray(c.d1)
    for k in range(d1.shape[1]):
        head = int(np.flatnonzero(d1[:, k] == 1)[0])
        tail = int(np.flatnonzero(d1[:, k] == -1)[0])
        assert g[k] == v[head] - v[tail]


def test_identity_exact_for_integer_data():
    c = build_chain_complex(20)
    rng = np.random.default_rng(11)
    v = rng.integers(-50, 50, size=20)
    system = build_system(c, 1, gradient_link_values(c, v), alpha=3, beta=2)
    report = verify_scc(system, v)
    assert report.exact
    assert report.max_identity_residual == 0
    assert report.source_sum == 0
    assert report.max_constant_mode_residual == 0


def test_identity_float_path():
    c = build_chain_complex(12)
    rng = np.random.default_rng(5)
    v = rng.normal(size=12)
    system = build_system(c, 1, gradient_link_values(c, v), alpha=1.3, beta=0.7)
    report = verify_scc(system, v)
    assert not report.exact
    assert report.max_identity_residual < 1e-12
    assert abs(report.source_sum) < 1e-12


def test_constant_assignment_gives_zero_source():
    c = build_chain_complex(10)
    v = 7 * np.ones(10, dtype=np.int64)
    system = build_system(c, 1, gradient_link_values(c, v))
    assert_array_equal(system.J, np.zeros(10))
    assert verify_scc(system, v).max_identity_residual == 0


def test_non_gradient_links_raise():
    c = build_chain_complex(6)
    v = np.arange(6)
    e = gradient_link_values(c, v).astype(float)
    e[2] += 0.25
    system = build_system(c, 1, e)
    with pytest.raises(SccViolation) as excinfo:
        verify_scc(system, v)
    assert excinfo.value.max_residual >= 0.25 / 2
    assert "gradient" in str(excinfo.value)


def test_operator_annihilates_constants():
    for n in (4, 6, 30):
        K = build_operator(build_chain_complex(n), 1, 1)
        assert_array_equal(K @ np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([4, 6, 10, 16]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_source_always_sums_to_zero(n, seed):
    # Telescoping: any link assignment, gradient or not, produces a source
    # with zero total because each link contributes +1 and -1 once.
    c = build_chain_complex(n)
    e = np.random.default_rng(seed).normal(size=3 * n // 2 - 2)
    J = build_source(c, 1, e, 1.0)
    assert abs(J.sum()) < 1e-12 * max(1.0, np.abs(J).max())


def test_source_shape_and_finite_checks():
    c = build_chain_complex(6)
    with pytest.raises(ValueError):
        build_source(c, 1, np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        build_source(c, 1, np.array([np.nan] + [0.0] * 6), 1.0)


def test_plaquette_degree_system():
    # degree-2 variant: operator on link values via d2
    c = build_chain_complex(8)
    K2 = build_operator(c, 2, 1)
    assert K2.shape == (c.d2.shape[0], c.d2.shape[0])
    assert_array_equal(K2, np.asarray(c.d2) @ np.asarray(c.d2).T)
    w = np.arange(c.d2.shape[1])
    J2 = build_source(c, 2, w, 1.0)
    assert_array_equal(J2, np.asarray(c.d2) @ w)


def test_unsupported_degree_raises():
    c = build_chain_complex(6)
    with pytest.raises(ValueError):
        build_operator(c, 3, 1)
    with pytest.raises(ValueError):
        build_source(c, 0, np.zeros(7), 1.0)


def test_null_space_of_ladder_operator_is_constants():
    K = np.asarray(build_operator(build_chain_complex(10), 1, 1), dtype=float)
    basis = null_space_basis(K)
    assert len(basis) == 1
    assert_allclose(basis[0], np.full(10, 1 / np.sqrt(10)), atol=1e-12)


def test_null_space_empty_for_definite_matrix():
    assert null_space_basis(np.eye(5)) == []


def test_null_space_two_dimensional():
    K = np.diag([0.0, 0.0, 2.0, 5.0])
    basis = null_space_basis(K)
    assert len(basis) == 2
    G = np.stack(basis)
    assert_allclose(G @ G.T, np.eye(2), atol=1e-12)


def test_null_space_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        null_space_basis(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_coupled_oscillator_form():
    """The vertex operator is the stiffness matrix of two identical chains of
    masses with nearest-neighbour springs along each chain and one cross
    spring per site, at unit choices of all three spring parameters."""
    n = 6
    half = n // 2
    path = np.zeros((half, half), dtype=np.int64)
    for i in range(half):
        if i > 0:
            path[i, i] += 1
            path[i, i - 1] = -1
        if i < half - 1:
            path[i, i] += 1
            path[i, i + 1] = -1
    A = np.block(
        [[path, np.zeros_like(path)], [np.zeros_like(path), path]]
    )
    S = np.block(
        [
            [np.zeros((half, half), dtype=np.int64), np.eye(half, dtype=np.int64)],
            [np.eye(half, dtype=np.int64), np.zeros((half, half), dtype=np.int64)],
        ]
    )
    I = np.eye(n, dtype=np.int64)
    assert_array_equal(A + I - S, K_SIX)
    # rotating the step parameter onto the imaginary axis flips the sign of
    # the on-site block relative to the kinetic one
    dt = 1j
    M = (1 / dt) * A + dt * (I - S)
    assert_allclose(M, -1j * (A - I + S), atol=1e-15)


# ---------------------------------------------------------------------------
# every route against the dense boundaries, which live here only, as the oracle

COUPLINGS = (1, 3, -2, 1.7, -0.3)


def assert_bitwise(got, expected):
    assert got.dtype == expected.dtype and not got.flags.writeable
    # bitwise, so signed zeros and the float rounding must agree too
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def assert_routes_match_the_dense_boundaries(c, rng):
    """e, K and J read off the nonzeros equal d1.T @ v, beta * d @ d.T and alpha * d @ e."""
    d1, d2 = c.d1, c.d2  # the first read builds them from the nonzeros
    for v in (rng.integers(-9, 10, size=d1.shape[0]), rng.standard_normal(d1.shape[0])):
        # each link sums two terms, so any summation order gives d1.T @ v exactly
        assert_bitwise(gradient_link_values(c, v), d1.T @ v)
    for degree, d in ((1, d1), (2, d2)):
        gram = d @ d.T
        cells = rng.integers(-9, 10, size=d.shape[1])
        for coupling in COUPLINGS:
            assert_bitwise(build_operator(c, degree, coupling), coupling * gram)
            # integers, then floats whose partial sums are exact in any order
            for e in (cells, cells.astype(float), cells / 8):
                assert_bitwise(build_source(c, degree, e, coupling), coupling * (d @ e))


@pytest.mark.parametrize("n", range(4, 402, 2))
def test_every_route_matches_the_dense_boundaries_at_every_size(n):
    assert_routes_match_the_dense_boundaries(build_chain_complex(n), np.random.default_rng(n))


def test_every_route_matches_the_dense_boundaries_of_caller_built_complexes():
    ladder = build_chain_complex(10)
    for c in (six_vertex_interleaved_complex(), ChainComplex(ladder.d1 * 3, ladder.d2 * -2)):
        assert_routes_match_the_dense_boundaries(c, np.random.default_rng(7))


@pytest.mark.parametrize("n", [6, 40, 400])
def test_float_sources_agree_with_the_dense_product_to_rounding(n):
    # A d1 row sums up to three terms, in column order here and in whatever
    # order the dense matvec takes, so other floats may differ in the last
    # bit: by at most 2 (terms - 1) eps times the terms' summed magnitude.
    c = build_chain_complex(n)
    rng = np.random.default_rng(n)
    e = rng.standard_normal(c.n_links) * 10.0 ** rng.integers(-5, 6, size=c.n_links)
    for alpha in (1.0, -0.3, 7.1e3):
        J = build_source(c, 1, e, alpha)
        bound = 4 * np.finfo(float).eps * abs(alpha) * (np.abs(c.d1) @ np.abs(e))
        assert J.dtype == np.float64
        assert np.all(np.abs(J - alpha * (c.d1 @ e)) <= bound)


def _largest_exact(product_bound):
    """The largest max|x| with product_bound * max|x| < 2**63."""
    return -(-(2**63) // product_bound) - 1


@pytest.mark.parametrize("scale", [1, 3])
@pytest.mark.parametrize("alpha", [1, -5])
def test_integer_routes_refuse_exactly_at_the_int64_bound(scale, alpha):
    """|scalar| * row L1 * max|x| >= 2**63 is refused, and one less stays exact."""
    ladder = build_chain_complex(8)
    c = ChainComplex(ladder.d1 * scale, ladder.d2)
    d1 = c.d1
    row_l1 = 3 * scale  # vertex 2 has three links
    m = _largest_exact(abs(alpha) * row_l1)
    e = np.zeros(c.n_links, dtype=np.int64)
    e[[0, 1, 7]] = m, -m, -m  # vertex 2's links, signed so its source reaches the bound
    J = build_source(c, 1, e, alpha)
    assert [int(x) for x in J] == [alpha * sum(int(a) * int(b) for a, b in zip(row, e)) for row in d1]
    assert abs(int(J[1])) == abs(alpha) * row_l1 * m
    e[0] = m + 1
    with pytest.raises(ValueError, match="overflow int64"):
        build_source(c, 1, e, alpha)

    m = _largest_exact(2 * scale)  # the gradient's bound: every link has two ends
    v = np.zeros(8, dtype=np.int64)
    v[0] = m
    assert gradient_link_values(c, v)[0] == -scale * m
    v[0] = m + 1
    with pytest.raises(ValueError, match="overflow int64"):
        gradient_link_values(c, v)

    beta = _largest_exact(row_l1 * scale)  # K's bound: |beta| * row L1 * max|d|
    assert build_operator(c, 1, beta)[1, 1] == beta * row_l1 * scale
    with pytest.raises(ValueError, match="overflow int64"):
        build_operator(c, 1, beta + 1)


def test_the_pipeline_leaves_the_dense_boundaries_unbuilt():
    n = 512
    c = build_chain_complex(n)
    v = np.arange(n) % 7 - 3
    e = gradient_link_values(c, v)
    system = build_system(c, 1, e, alpha=2, beta=3)
    assert verify_scc(system, v).exact
    assert validate_complex(c).passed
    spectrum = ladder_spectrum_closed_form(n, beta=3)
    euclidean_Z(system, spectrum), classical_solution(system, spectrum)
    phase_decomposition(e, n, 2, 1.0, 3)
    repr(c), repr(system), system.size
    assert callable(vars(c)["d1"]) and callable(vars(c)["d2"])
    assert callable(vars(system)["boundary"]) and callable(vars(system)["K"])
    # once read, the system's boundary is the complex's own dense d1, and K its gram
    assert system.boundary is c.d1 and not c.d1.flags.writeable
    assert_bitwise(system.K, 3 * (c.d1 @ c.d1.T))


@pytest.mark.parametrize("beta", COUPLINGS)
def test_a_built_system_reads_as_the_dense_operator(beta):
    # the same dtype and the same signed zeros as build_operator, on both degrees
    c = build_chain_complex(10)
    for degree, d in ((1, c.d1), (2, c.d2)):
        system = build_system(c, degree, np.arange(d.shape[1]) % 5 - 2, beta=beta)
        assert_bitwise(system.K, build_operator(c, degree, beta))
        assert system.size == d.shape[0]


def test_verify_scc_checks_the_operator_the_system_holds():
    c = build_chain_complex(8)
    v = np.arange(8) % 3 - 1
    system = build_system(c, 1, gradient_link_values(c, v), alpha=2, beta=3)
    corrupted = system.K.copy()
    corrupted[2, 5] += 1
    with pytest.raises(SccViolation):
        verify_scc(replace(system, K=corrupted), v)
    # a dense K given back as it was passes as the nonzeros did
    assert verify_scc(replace(system, K=system.K.copy()), v) == verify_scc(system, v)


def test_build_system_and_verify_scc_stay_linear_at_a_million_vertices():
    # a dense K at this size would take 8 TB
    n = 10**6
    c = build_chain_complex(n)
    v = np.arange(n) % 7 - 3
    e = gradient_link_values(c, v)
    tracemalloc.start()
    try:
        assert verify_scc(build_system(c, 1, e, alpha=2, beta=3), v).exact
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300e6


def test_the_pipeline_leaves_the_spectrum_vectors_unbuilt():
    # Z, the classical solution and the phase go through the DCT, never the N x N eigenvectors
    n = 512
    c = build_chain_complex(n)
    v = np.arange(n) % 7 - 3
    e = gradient_link_values(c, v)
    system = build_system(c, 1, e, alpha=2, beta=3)
    spectrum = ladder_spectrum_closed_form(n, beta=3)
    z = euclidean_Z(system, spectrum)
    classical_solution(system, spectrum)
    assert_allclose(phase_decomposition(e, n, 2, 1.0, 3).total, z.exponent_term, rtol=1e-9)
    assert callable(vars(spectrum)["eigenvectors"])


@pytest.mark.parametrize(
    "copy_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_a_copied_system_keeps_its_arrays_read_only(copy_of):
    c = build_chain_complex(8)
    v = np.arange(8)
    copied = copy_of(build_system(c, 1, gradient_link_values(c, v), alpha=2, beta=3))
    assert callable(vars(copied)["boundary"]) and callable(vars(copied)["K"])
    assert not (copied.K.flags.writeable or copied.J.flags.writeable or copied.boundary.flags.writeable)
    assert_array_equal(copied.boundary, c.d1)
    assert verify_scc(copied, v).exact


@st.composite
def sparse_int64_matrices(draw):
    shape = draw(st.tuples(st.integers(1, 9), st.integers(0, 11)))
    entries = st.one_of(st.just(0), st.just(0), st.integers(-(2**20), 2**20))
    return draw(arrays(np.int64, shape, elements=entries))


@settings(max_examples=200, deadline=None)
@given(d=sparse_int64_matrices(), beta=st.one_of(st.integers(-6, 6), st.floats(-4, 4)))
@example(d=np.array([[0, 3, 0, -1, 0]]), beta=2)  # one row, zero columns
@example(d=np.array([[0, 1, 0], [0, -1, 2], [0, 0, 5], [0, 0, -1]]), beta=-0.5)  # uneven columns
@example(d=np.zeros((3, 0), dtype=np.int64), beta=1)
def test_operator_is_the_dense_gram_of_any_sparse_integer_boundary(d, beta):
    c = ChainComplex(d, np.zeros((d.shape[1], 0), dtype=np.int64))
    K = build_operator(c, 1, beta)
    assert_bitwise(K, beta * (d @ d.T))
    K2 = build_operator(ChainComplex(np.zeros((0, d.shape[0]), dtype=np.int64), d), 2, beta)
    assert K2.tobytes() == K.tobytes()


@pytest.mark.parametrize("beta", [3, -2, 0])
@pytest.mark.parametrize("ladder", [True, False], ids=["ladder", "caller_built"])
def test_an_integer_operator_carries_the_row_l1_bound_it_would_sum(ladder, beta):
    # |beta| times the gram's bound, so verify_scc does not sum a fresh K's rows again
    c = build_chain_complex(10)
    if not ladder:
        c = ChainComplex(c.d1 * 2, c.d2)
    system = build_system(c, 1, gradient_link_values(c, np.arange(10)), alpha=1, beta=beta)
    K = system._nonzeros
    assert vars(K)["max_row_l1"] == int(np.max(np.sum(np.abs(K.dense()), axis=1)))
    assert verify_scc(system, np.arange(10)).exact


def test_build_system_stays_far_from_a_dense_gram():
    """build_system at N=2000 within two seconds: a dense int64 d1 @ d1.T
    alone takes about twenty at this size on a 2-vCPU machine."""
    c = build_chain_complex(2000)
    e = gradient_link_values(c, np.arange(2000) % 7)
    start = time.perf_counter()
    system = build_system(c, 1, e)
    assert time.perf_counter() - start < 2.0
    assert system.K.trace() == 3 * 2000 - 4


def test_verify_scc_refuses_a_nan_residual():
    # a NaN vertex value is refused by name, as gradient_link_values refuses it, before any residual
    c = build_chain_complex(4)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    system = build_system(c, 1, gradient_link_values(c, v), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError, match="^vertex values must be finite$"):
        verify_scc(system, np.array([np.nan, 2.0, 3.0, 4.0]))


def test_equality_is_identity_and_leaves_the_dense_K_unbuilt():
    # a generated field-by-field == of arrays has no truth value, and would build both K
    c = build_chain_complex(8)
    e = gradient_link_values(c, np.arange(8))
    system, alike = build_system(c, 1, e), build_system(c, 1, e)
    assert system == system and system != alike
    assert len({system, alike}) == 2
    for s in (system, alike):
        assert callable(vars(s)["K"]) and callable(vars(s)["boundary"])


# --- the ladder table: each size's unit operator built once -----------------------

TABLE_SIZES = [4, 6, 44, 512]
TABLE_BETAS = [0, 0.0, -0.0, 1, 1.0, True, -2, 2.5, 1e-320]


def _system_bytes(system):
    K = system._nonzeros
    return [
        (a.dtype.str, a.tobytes())
        for a in (K.rows, K.cols, K.vals, np.asarray(K.zero), system.K, system.J, system.boundary)
    ] + [repr(system)]


@pytest.mark.parametrize("degree", [1, 2])
def test_a_warm_system_is_bitwise_a_cold_one(degree):
    rng = np.random.default_rng(21)
    for n in TABLE_SIZES:
        c = build_chain_complex(n)
        d = c.nonzeros[degree - 1]
        e = rng.integers(-9, 10, size=d.shape[1])
        cold = {}
        for beta in TABLE_BETAS:
            _ladder_table.cache_clear()
            cold[beta, repr(beta)] = _system_bytes(build_system(build_chain_complex(n), degree, e, 2, beta))
        # alternating order: each beta follows another on a table that already holds the operator
        for beta in TABLE_BETAS[::2] + TABLE_BETAS[1::2] + TABLE_BETAS[::-1]:
            assert _system_bytes(build_system(c, degree, e, 2, beta)) == cold[beta, repr(beta)]
            assert_bitwise(build_operator(c, degree, beta), build_system(c, degree, e, 2, beta).K)
        assert _ladder_table.cache_info().currsize == 1


def test_each_call_returns_a_fresh_system_whose_dense_K_is_its_own():
    c = build_chain_complex(8)
    e = gradient_link_values(c, np.arange(8))
    s1, s2 = build_system(c, 1, e, beta=3), build_system(c, 1, e, beta=3)
    assert s1 is not s2 and s1._nonzeros is not s2._nonzeros
    s1.K, s1.boundary
    assert callable(vars(s2)["K"]) and callable(vars(s2)["boundary"])
    assert_bitwise(s2.K, s1.K)
    assert s2.K is not s1.K


def _count_products(monkeypatch):
    calls = []
    product = scc._product
    monkeypatch.setattr(scc, "_product", lambda *args: calls.append(args) or product(*args))
    return calls


def test_a_warm_ladder_system_only_scales_the_kept_operator(monkeypatch):
    calls = _count_products(monkeypatch)
    c = build_chain_complex(10)
    e = gradient_link_values(c, np.arange(10))
    for degree in (1, 2):
        for beta in (3, -2.5, 3, 0.0):
            build_system(c, degree, e if degree == 1 else np.arange(4), beta=beta).K
    assert len(calls) == 2  # one unit-coupling operator per boundary, built on its first use


# --- the J-only path: Z, the classical solution and the oracles build no operator ----


@pytest.mark.parametrize("beta", [3, 1.5])
def test_the_j_only_path_builds_no_operator(monkeypatch, beta):
    _ladder_table.cache_clear()  # a cold table: a first operator would sum its gram here
    calls = _count_products(monkeypatch)
    c = build_chain_complex(6)
    system = build_system(c, 1, gradient_link_values(c, np.arange(6) % 4), alpha=2, beta=beta)
    spectrum = ladder_spectrum_closed_form(6, beta)
    euclidean_Z(system, spectrum), classical_solution(system, spectrum)
    brute_force_Z(system, spectrum, method="quadrature", budget=4000)
    brute_force_Z(system, spectrum, method="mc", budget=200, seed=1)
    outcome_probability(system, spectrum, 1, 0.5)
    assert calls == [] and callable(vars(system)["_nonzeros"]) and callable(vars(system)["K"])
    # the first read makes the nonzeros once, and the dense K reads them
    assert system.size == 6 and len(calls) == 1
    nonzeros = system._nonzeros
    assert_bitwise(system.K, build_operator(c, 1, beta))
    assert system._nonzeros is nonzeros and len(calls) == 1


def test_an_operator_past_int64_is_refused_where_it_is_read():
    c = build_chain_complex(4)
    v = np.arange(4)
    system = build_system(c, 1, gradient_link_values(c, v), beta=2**62)
    for read in (lambda: system.K, lambda: system.size, lambda: verify_scc(system, v)):
        with pytest.raises(ValueError, match="^integer arithmetic would overflow int64"):
            read()
    system = build_system(c, 1, gradient_link_values(c, v), beta=1e308)
    with pytest.raises(ValueError, match=r"^operator beta \* d @ d.T is not finite"):
        system.K


def _swap_rails(e, n):
    """The link values of the ladder with its rails exchanged: rail links swap, rungs reverse."""
    rail = n // 2 - 1
    return np.concatenate((e[rail : 2 * rail], e[:rail], -e[2 * rail :]))


@pytest.mark.parametrize("n", [4, 400, 10**5, 10**6])
def test_exact_relations_of_z_and_the_phase_hold_bitwise(monkeypatch, n):
    calls = _count_products(monkeypatch)
    rng = np.random.default_rng(n)
    c = build_chain_complex(n)
    e = rng.integers(-9, 10, size=3 * n // 2 - 2)
    spectrum = ladder_spectrum_closed_form(n, 1.5)
    z = lambda links, alpha=0.75: euclidean_Z(build_system(c, 1, links, alpha=alpha, beta=1.5), spectrum)
    tracemalloc.start()
    try:
        base = z(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rail swap is a symmetry of the ladder: every mode keeps its square
    assert z(_swap_rails(e, n)) == base
    assert phase_decomposition(_swap_rails(e, n), n, 0.75, 1.0, 1.5) == phase_decomposition(e, n, 0.75, 1.0, 1.5)
    # J is linear in alpha, so doubling it scales each squared projection by exactly 4
    assert z(e, alpha=1.5).exponent_term == 4 * base.exponent_term
    # d1 @ d2 == 0: a plaquette boundary added to the links leaves J, and so Z, as it was
    curl = build_source(c, 2, rng.integers(-9, 10, size=n // 2 - 1), 1)
    assert z(e + curl) == base
    assert calls == []
    assert peak < 120e6
