"""Incidence structure of the ladder graph and the two boundary operators."""

import copy
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from ladderfield import scc
from ladderfield.chain_complex import (
    ChainComplex,
    INTERLEAVED_FROM_RAIL_MAJOR,
    LadderGraph,
    Link,
    boundary_1,
    boundary_2,
    build_chain_complex,
    build_ladder_graph,
    parse_graph,
    serialize_graph,
    _ladder_table,
    six_vertex_interleaved_complex,
    validate_complex,
)
from ladderfield.scc import build_system

# Six-vertex reference matrices in the interleaved link order:
# temporal links alternate between the rails before the rungs appear.
D1_SIX = np.array(
    [
        [-1, 0, 0, -1, 0, 0, 0],
        [1, -1, -1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1],
        [0, 0, 0, 1, -1, 0, 0],
        [0, 1, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 0, 1, 1],
    ],
    dtype=np.int64,
)

D2_SIX = np.array(
    [
        [-1, 0],
        [-1, 1],
        [0, -1],
        [1, 0],
        [1, 0],
        [0, 1],
        [0, -1],
    ],
    dtype=np.int64,
)


def test_six_vertex_fixture_matches_reference():
    c = six_vertex_interleaved_complex()
    assert_array_equal(c.d1, D1_SIX)
    assert_array_equal(c.d2, D2_SIX)
    assert c.d1.dtype == np.int64
    assert c.d2.dtype == np.int64


def test_fixture_is_a_relabelling_of_the_canonical_order():
    canonical = build_chain_complex(6)
    fixture = six_vertex_interleaved_complex()
    perm = [i - 1 for i in INTERLEAVED_FROM_RAIL_MAJOR]
    assert_array_equal(fixture.d1[:, perm], canonical.d1)
    assert_array_equal(fixture.d2[perm, :], canonical.d2)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 16, 30, 62, 120])
def test_counts(n):
    g = build_ladder_graph(n)
    assert g.n_links == 3 * n // 2 - 2
    assert g.n_plaquettes == n // 2 - 1
    assert g.n_rungs == n // 2
    assert len(g.temporal_links) == n - 2
    assert len(g.spatial_links) == n // 2


@pytest.mark.parametrize("n", [4, 6, 120, 10**6])
def test_counts_leave_the_links_and_faces_unbuilt(n):
    g = build_ladder_graph(n)
    assert (g.n_links, g.n_plaquettes) == (3 * n // 2 - 2, n // 2 - 1)
    assert callable(vars(g)["links"]) and callable(vars(g)["plaquettes"])
    if n < 10**6:  # caller-given tuples that are not the ladder's are refused, so none is counted
        with pytest.raises(ValueError, match=f"^links do not describe the canonical ladder for N={n}$"):
            LadderGraph(n, g.links[:-1], g.plaquettes[:1])


def _reversed_link(g):
    links = list(g.links)
    links[0] = Link(links[0].head, links[0].tail, links[0].kind)
    return tuple(links), g.plaquettes


def _relabelled_rung(g):
    links = list(g.links)
    links[-1] = Link(links[-1].tail, links[-1].head, "temporal")
    return tuple(links), g.plaquettes


@pytest.mark.parametrize(
    "tuples_of, name",
    [
        (_reversed_link, "links"),
        (lambda g: (g.links[:-1], g.plaquettes), "links"),
        (_relabelled_rung, "links"),
        (lambda g: (g.links, g.plaquettes[::-1]), "plaquettes"),
        (lambda g: ((), ()), "links"),
        (lambda g: (list(g.links), g.plaquettes), "links"),
    ],
    ids=["reversed_link", "dropped_link", "relabelled_rung_kind", "swapped_plaquettes", "empty", "list"],
)
def test_a_graph_given_other_than_the_canonical_tuples_is_refused(tuples_of, name):
    # each of these was once accepted, and its boundary_1 read N alone: another graph's matrix
    with pytest.raises(ValueError, match=f"^{name} do not describe the canonical ladder for N=6$"):
        LadderGraph(6, *tuples_of(build_ladder_graph(6)))


@pytest.mark.parametrize("n", [7, 6.5, float("nan"), 2])
def test_a_graph_refuses_a_bad_vertex_count_before_its_tuples(n):
    # LadderGraph(7, (), ()) was accepted with no links, and its boundary_1 was a numpy broadcast error
    with pytest.raises(ValueError, match=f"^vertex count must be an even integer >= 4, got {re.escape(repr(n))}$"):
        LadderGraph(n, (), ())


def test_a_graph_keeps_the_int_of_its_vertex_count():
    g = build_ladder_graph(6)
    given = LadderGraph(6.0, g.links, g.plaquettes)
    assert type(given.n_vertices) is int and given.n_links == 7 and type(given.n_links) is int
    assert given == g and hash(given) == hash(g) and repr(given) == "LadderGraph(n_vertices=6)"


@pytest.mark.parametrize("n", [4, 6, 8, 44, 400])
def test_every_accepted_graph_has_the_incidence_of_its_own_links(n):
    g = build_ladder_graph(n)
    given = LadderGraph(n, g.links, g.plaquettes)
    d1 = np.zeros((n, given.n_links), dtype=np.int64)
    for column, link in enumerate(given.links):
        d1[link.tail - 1, column], d1[link.head - 1, column] = -1, 1
    assert len(given.links) == given.n_links and len(given.plaquettes) == given.n_plaquettes
    assert_array_equal(boundary_1(given), d1)


def test_equality_hash_and_repr_of_a_million_vertex_graph_build_no_tuples():
    # these once built and compared 2 x 1.5 M Links: 6.6 to 9.4 s and 914 MB
    a, b = build_ladder_graph(10**6), build_ladder_graph(10**6)
    start = time.perf_counter()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "LadderGraph(n_vertices=1000000)"
    assert a != build_ladder_graph(10**6 - 2)
    assert time.perf_counter() - start < 0.1
    for g in (a, b):
        assert callable(vars(g)["links"]) and callable(vars(g)["plaquettes"])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, -4, 13])
def test_rejects_bad_vertex_counts(n):
    with pytest.raises(ValueError):
        build_ladder_graph(n)


@pytest.mark.parametrize("n", range(4, 402, 2))
def test_composition_vanishes(n):
    c = build_chain_complex(n)
    product = c.d1 @ c.d2
    assert product.dtype == np.int64
    assert not product.any()


def test_each_link_column_has_one_head_and_one_tail():
    d1 = boundary_1(build_ladder_graph(14))
    assert_array_equal(np.sum(d1 == 1, axis=0), np.ones(d1.shape[1]))
    assert_array_equal(np.sum(d1 == -1, axis=0), np.ones(d1.shape[1]))
    assert_array_equal(d1.sum(axis=0), np.zeros(d1.shape[1], dtype=np.int64))


def test_each_plaquette_column_has_four_sides():
    d2 = boundary_2(build_ladder_graph(12))
    assert_array_equal(np.abs(d2).sum(axis=0), 4 * np.ones(d2.shape[1], dtype=np.int64))


def test_gram_matrix_is_degree_minus_adjacency():
    # d1 @ d1.T must reproduce the vertex Laplacian of the graph, built here
    # directly from the link list.
    for n in (4, 6, 10, 28):
        g = build_ladder_graph(n)
        d1 = boundary_1(g)
        lap = np.zeros((n, n), dtype=np.int64)
        for link in g.links:
            t, h = link.tail - 1, link.head - 1
            lap[t, t] += 1
            lap[h, h] += 1
            lap[t, h] -= 1
            lap[h, t] -= 1
        assert_array_equal(d1 @ d1.T, lap)


def test_validation_passes_on_built_complexes():
    for n in (4, 6, 20):
        report = validate_complex(build_chain_complex(n))
        assert report.passed
        assert all(check.passed for check in report.checks)


def test_validation_catches_broken_composition():
    c = build_chain_complex(6)
    d2 = c.d2.copy()
    d2[0, 0] = -d2[0, 0]
    report = validate_complex(ChainComplex(d1=c.d1, d2=d2))
    assert not report.passed
    failed = [check.name for check in report.checks if not check.passed]
    assert "boundary-of-boundary" in failed


def test_validation_catches_degenerate_plaquette():
    c = build_chain_complex(6)
    d2 = c.d2.copy()
    d2[:, 1] = 0
    report = validate_complex(ChainComplex(d1=c.d1, d2=d2))
    assert not report.passed
    assert any("degenerate" in check.detail for check in report.checks if not check.passed)


def _dense_composition_check(c):
    """The boundary-of-boundary check read off the dense product d1 @ d2."""
    comp = c.d1 @ c.d2
    worst = int(np.max(np.abs(comp))) if comp.size else 0
    return ("boundary-of-boundary", not np.any(comp), f"d1 @ d2 == 0 (max |entry| {worst})")


def _broken_complexes():
    c = build_chain_complex(8)
    flipped = c.d2.copy()
    flipped[0, 0] = -flipped[0, 0]
    degenerate = c.d2.copy()
    degenerate[:, 1] = 0
    # four sign-balanced sides that are no closed walk: plaquette-sides passes, the composition does not
    wrong_walk = c.d2.copy()
    wrong_walk[:, 0] = 0
    wrong_walk[[0, 1, 2, 3], 0] = [1, 1, -1, -1]
    big = c.d2 * 2**61
    big[0, 0] = -big[0, 0]  # entries of 3 * 2**61 and more: the int64 sums wrap as d1 @ d2 does
    return {
        "flipped sign": ChainComplex(c.d1, flipped),
        "degenerate plaquette": ChainComplex(c.d1, degenerate),
        "non-cancelling walk": ChainComplex(c.d1, wrong_walk),
        "wrapping entries": ChainComplex(c.d1 * 3, big),
    }


@pytest.mark.parametrize(
    "c",
    [build_chain_complex(n) for n in range(4, 401, 2)]
    + [six_vertex_interleaved_complex(), *_broken_complexes().values()],
    ids=[f"N={n}" for n in range(4, 401, 2)] + ["interleaved", *_broken_complexes()],
)
def test_composition_check_matches_the_dense_product(c):
    check = validate_complex(c).checks[-1]
    assert (check.name, check.passed, check.detail) == _dense_composition_check(c)


def test_each_broken_complex_fails_its_check():
    failed = {
        name: [check.name for check in validate_complex(c).checks if not check.passed]
        for name, c in _broken_complexes().items()
    }
    assert failed == {
        "flipped sign": ["plaquette-sides", "boundary-of-boundary"],
        "degenerate plaquette": ["plaquette-sides"],
        "non-cancelling walk": ["boundary-of-boundary"],
        "wrapping entries": ["link-endpoints", "plaquette-sides", "boundary-of-boundary"],
    }


def test_validation_of_a_large_complex_takes_no_cubic_time():
    c = build_chain_complex(2000)
    start = time.perf_counter()
    report = validate_complex(c)
    assert time.perf_counter() - start < 1.0
    assert report.passed


def test_validation_rejects_shape_mismatch():
    c = build_chain_complex(6)
    with pytest.raises(ValueError):
        validate_complex(ChainComplex(d1=c.d1, d2=c.d2[:-1]))


def test_arrays_are_read_only():
    c = build_chain_complex(8)
    with pytest.raises(ValueError):
        c.d1[0, 0] = 5


def test_a_caller_built_complex_keeps_no_reference_to_its_matrices():
    c = build_chain_complex(6)
    d1, d2 = c.d1.copy(), c.d2.copy()
    caller_built = ChainComplex(d1, d2)
    d1[0, 0] = 7  # the triplets were taken on construction
    assert_array_equal(caller_built.d1, c.d1)
    assert not caller_built.d1.flags.writeable and caller_built.d2.dtype == np.int64


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
def test_a_boundary_must_be_a_matrix(shape):
    with pytest.raises(ValueError, match=re.escape(f"a boundary matrix must be 2-D, got shape {shape}")):
        ChainComplex(np.zeros(shape, dtype=np.int64), np.zeros((0, 0), dtype=np.int64))


def test_repr_and_equality_leave_the_dense_boundaries_unbuilt():
    c, other = build_chain_complex(4096), build_chain_complex(4096)
    assert repr(c) == "ChainComplex(n_vertices=4096, n_links=6142, n_plaquettes=2047)"
    # equality is identity: a field-by-field == of arrays has no truth value
    assert c == c and c != other
    for complex_ in (c, other):
        assert callable(vars(complex_)["d1"]) and callable(vars(complex_)["d2"])


def _read_only_arrays(c):
    arrays = [c.d1, c.d2] + [a for nz in c.nonzeros for a in (nz.rows, nz.cols, nz.vals)]
    return all(not a.flags.writeable for a in arrays)


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "copy_of", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_round_trip_read_only_before_and_after_the_first_read(copy_of, read_first):
    for c in (build_chain_complex(8), six_vertex_interleaved_complex()):
        if read_first:
            c.d1, c.d2
        copied = copy_of(c)
        assert callable(vars(copied)["d1"]) is not read_first
        assert _read_only_arrays(copied)
        assert_array_equal(copied.d1, c.d1)
        assert_array_equal(copied.d2, c.d2)
        assert validate_complex(copied).passed


@pytest.mark.parametrize("n", [4, 6, 10, 34, 70_000])  # 70 000 spans several formatting blocks
def test_serialization_round_trip(n):
    g = build_ladder_graph(n)
    text = serialize_graph(g)
    parsed = parse_graph(text)
    assert callable(vars(parsed)["links"]) and callable(vars(parsed)["plaquettes"])
    assert serialize_graph(parsed) == text
    assert parsed == g
    assert text.splitlines()[0] == f"ladder N={n}"


def test_parse_ignores_comments_and_blank_lines():
    text = serialize_graph(build_ladder_graph(4))
    lines = text.splitlines()
    lines.insert(1, "# a comment")
    lines.insert(3, "")
    lines.insert(4, "  \t# an indented comment")
    lines[2] = f"  {lines[2]}\t"  # each line is read stripped
    assert parse_graph("\n".join(lines)) == build_ladder_graph(4)


# Each refusal names the first fault a scan of the link lines meets: a
# malformed line or a repeated index, whichever comes first; only a text with
# neither is refused as no canonical ladder.  A line counts as well formed only
# in the serializer's own spelling.
_N4 = "ladder N=4\nlink 1 1 2 temporal\nlink 2 3 4 temporal\nlink 3 1 3 spatial\nlink 4 2 4 spatial\n"
_NOT_CANONICAL = "link records do not describe a canonical ladder for this N"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("link 1 1 2 temporal\nlink 2 3 4 temporal", "link 1 1 2 temporal\nlink 1 3 4 temporal\nlink 2 x",
         "link 1 is recorded more than once"),
        ("link 1 1 2 temporal\nlink 2 3 4 temporal", "link 1 1 2 diagonal\nlink 1 3 4 temporal",
         "bad link line: 'link 1 1 2 diagonal'"),
        ("link 1 1 2 temporal\nlink 2 3 4 temporal", "link 2 3 4 temporal\nlink 1 1 2 temporal", _NOT_CANONICAL),
        ("link 1 1 2", "link 1  1 2", "bad link line: 'link 1  1 2 temporal'"),
        ("link 1 1 2", "link 01 1 2", "bad link line: 'link 01 1 2 temporal'"),
        ("link 1 1 2", "link\t1 1 2", "bad link line: 'link\\t1 1 2 temporal'"),
        ("link 1 1 2", "link ١ 1 2", "bad link line: 'link ١ 1 2 temporal'"),  # an Arabic-Indic 1
        ("ladder N=4", "ladder  N=4", "bad header line: 'ladder  N=4'"),
        ("ladder N=4", "ladder N=04", "bad header line: 'ladder N=04'"),
        ("ladder N=4", "ladder N=5", "vertex count must be an even integer >= 4, got 5"),
        ("ladder N=4", "ladder N=1000000000000", _NOT_CANONICAL),  # refused before any graph is built
    ],
    ids=["repeat-before-malformed", "malformed-before-repeat", "reordered", "double-space", "leading-zero",
         "tab", "unicode-digit", "header-double-space", "header-leading-zero", "header-odd-n", "header-huge-n"],
)
def test_parse_refusal_names_the_first_fault(old, new, message):
    assert _N4 == serialize_graph(build_ladder_graph(4))
    assert _N4.count(old) == 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_graph(_N4.replace(old, new))


def test_parse_rejects_tampered_link():
    text = serialize_graph(build_ladder_graph(4))
    bad = text.replace("link 1 1 2 temporal", "link 1 1 3 temporal")
    with pytest.raises(ValueError, match=f"^{_NOT_CANONICAL}$"):
        parse_graph(bad)


def test_parse_rejects_a_repeated_link_record():
    text = serialize_graph(build_ladder_graph(4))
    bad = text.replace("link 1 1 2 temporal", "link 1 9 9 temporal\nlink 1 1 2 temporal")
    with pytest.raises(ValueError, match="^link 1 is recorded more than once$"):
        parse_graph(bad)


def test_parse_rejects_wrong_link_count():
    text = serialize_graph(build_ladder_graph(4))
    lines = [ln for ln in text.splitlines() if not ln.startswith("link 4 ")]
    with pytest.raises(ValueError, match=f"^{_NOT_CANONICAL}$"):
        parse_graph("\n".join(lines))


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(list(range(6))))
def test_vertex_relabelling_preserves_validity(perm):
    # Permuting vertex labels permutes the rows of d1 and changes nothing
    # about incidence counts or the vanishing composition.
    c = build_chain_complex(6)
    d1 = c.d1[list(perm), :]
    report = validate_complex(ChainComplex(d1=d1, d2=c.d2))
    assert report.passed


@pytest.mark.parametrize("n", [4, 6, 8, 12, 26])
def test_rung_count_equals_plaquette_count_plus_one(n):
    g = build_ladder_graph(n)
    assert g.n_rungs == g.n_plaquettes + 1
    # every rung appears in at most two plaquettes
    d2 = boundary_2(g)
    rung_rows = np.abs(d2[n - 2 :, :]).sum(axis=1)
    assert rung_rows.max() <= 2


# ---------------------------------------------------------------------------
# reference: the graph and both boundaries written out link by link


def loop_built(n):
    """The ladder, d1 and d2 built one link and one walk entry at a time."""
    half = n // 2
    links = []
    for i in range(1, half):
        links.append(Link(i, i + 1, "temporal"))
    for i in range(1, half):
        links.append(Link(half + i, half + i + 1, "temporal"))
    for i in range(1, half + 1):
        links.append(Link(i, half + i, "spatial"))
    plaquettes = []
    for i in range(1, half):
        rung_i, rung_next, left_rail, right_rail = n - 2 + i, n - 1 + i, i, half - 1 + i
        plaquettes.append((rung_i, right_rail, -rung_next, -left_rail))
    d1 = np.zeros((n, len(links)), dtype=np.int64)
    for c, link in enumerate(links):
        d1[link.tail - 1, c] = -1
        d1[link.head - 1, c] = 1
    d2 = np.zeros((len(links), len(plaquettes)), dtype=np.int64)
    for c, walk in enumerate(plaquettes):
        for signed in walk:
            d2[abs(signed) - 1, c] = 1 if signed > 0 else -1
    return LadderGraph(n, tuple(links), tuple(plaquettes)), d1, d2


@pytest.mark.parametrize("n", range(4, 402, 2))
def test_index_built_complex_matches_the_loop_built_one(n):
    graph, d1, d2 = loop_built(n)
    built = build_ladder_graph(n)
    assert built == graph
    assert all(type(k) is int for walk in built.plaquettes for k in walk)
    assert all(type(link.tail) is int and type(link.head) is int for link in built.links)
    c = build_chain_complex(n)
    for got, expected in ((c.d1, d1), (c.d2, d2), (boundary_1(built), d1), (boundary_2(built), d2)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert_array_equal(got, expected)
    assert serialize_graph(built) == serialize_graph(graph)


def test_serialization_formats_from_the_arrays_and_leaves_the_links_unbuilt():
    # 70000 vertices: 104998 links, several formatting blocks and every digit count up to six
    for n in (4, 6, 10, 34, 70_000):
        graph = build_ladder_graph(n)
        text = serialize_graph(graph)
        assert callable(vars(graph)["links"]) and callable(vars(graph)["plaquettes"])
        given_tuples = LadderGraph(n, graph.links, graph.plaquettes)
        assert text == serialize_graph(given_tuples)
    assert serialize_graph(loop_built(34)[0]) == serialize_graph(build_ladder_graph(34))


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "copy_of", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_graph_copies_round_trip_before_and_after_the_first_read(copy_of, read_first):
    for n in (4, 10, 34):
        graph = build_ladder_graph(n)
        if read_first:
            graph.links, graph.plaquettes
        copied = copy_of(graph)
        assert callable(vars(copied)["links"]) is not read_first
        assert callable(vars(copied)["plaquettes"]) is not read_first
        assert serialize_graph(copied) == serialize_graph(graph)
        assert copied == graph == loop_built(n)[0] and hash(copied) == hash(graph)
        assert repr(copied) == repr(graph)


# --- the ladder table: one N's boundaries, built once ---------------------------


def _triplets(c):
    """Every byte of a complex's nonzeros and of their transposes, with dtypes and row-L1 bounds."""
    return [
        (nz.shape, nz.zero, nz.max_row_l1, *((a.dtype.str, a.tobytes()) for a in (nz.rows, nz.cols, nz.vals)))
        for d in c.nonzeros
        for nz in (d, d.T)
    ]


@pytest.mark.parametrize("n", [4, 6, 44, 512])
def test_a_warm_complex_is_bitwise_a_cold_one(n):
    _ladder_table.cache_clear()
    cold = build_chain_complex(n)
    cold_triplets = _triplets(cold)
    for warm in (build_chain_complex(n), ChainComplex.from_graph(build_ladder_graph(n))):
        assert _triplets(warm) == cold_triplets
        assert_array_equal(warm.d1, cold.d1)
        assert_array_equal(warm.d2, cold.d2)
        assert_array_equal(boundary_1(build_ladder_graph(n)), cold.d1)
        assert_array_equal(boundary_2(build_ladder_graph(n)), cold.d2)
    assert _ladder_table.cache_info().hits >= 4  # every call after the first found the table


def test_each_call_returns_a_fresh_complex_whose_dense_boundaries_are_its_own():
    c1, c2 = build_chain_complex(8), build_chain_complex(8)
    assert c1 is not c2 and c1.nonzeros is not c2.nonzeros
    c1.d1, c1.d2
    assert callable(vars(c2)["d1"]) and callable(vars(c2)["d2"])
    assert c2.nonzeros == _ladder_table(8)["boundaries"][1]


def test_the_table_keeps_one_size():
    build_chain_complex(8)
    build_chain_complex(10)
    assert _ladder_table.cache_info().currsize == 1
    assert _ladder_table(10)["boundaries"][1][0].shape == (10, 13)


def test_complexes_from_dense_matrices_sum_their_pairs_and_leave_the_table_untouched(monkeypatch):
    canonical = build_chain_complex(6)
    dense = ChainComplex(np.array(canonical.d1), np.array(canonical.d2))
    _ladder_table.cache_clear()
    calls = []
    product = scc._product
    monkeypatch.setattr(scc, "_product", lambda *args: calls.append(args) or product(*args))
    before = _ladder_table.cache_info()
    for c in (six_vertex_interleaved_complex(), dense, ChainComplex(D1_SIX, D2_SIX)):
        for beta in (2, 2.0):
            assert_array_equal(build_system(c, 1, np.arange(7), beta=beta).K, beta * (c.d1 @ c.d1.T))
    assert len(calls) == 6  # one pair product per system
    assert _ladder_table.cache_info() == before
