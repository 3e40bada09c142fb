"""Ladder graphs and their integer boundary operators.

A ladder graph on N vertices (N even, N >= 4) is two parallel rails of
N/2 vertices joined by N/2 rungs.  Vertices are numbered 1..N/2 down the
left rail and N/2+1..N down the right rail.  Links carry a fixed
orientation and are numbered rail-major:

    link i           = (v_i      -> v_{i+1}),      i = 1..N/2-1   left rail
    link N/2-1+i     = (v_{N/2+i} -> v_{N/2+i+1}), i = 1..N/2-1   right rail
    link N-2+i       = (v_i      -> v_{N/2+i}),    i = 1..N/2     rungs

Rail links are "temporal", rungs are "spatial".  Rungs are oriented from
the left rail to the right rail; this is a convention, and every
identity downstream is insensitive to it up to a column sign.

Each consecutive pair of rungs closes a plaquette, giving N/2-1 faces.
A plaquette's boundary walks rung i, then right rail i, then rung i+1
reversed, then left rail i reversed, so the two rails enter with
opposite signs and the boundary-of-boundary composition cancels exactly.

Numbering and walks are written once, as index arrays; one signed-incidence
filler turns them into the integer boundary matrices, vertices x links for
degree 1 and links x plaquettes for degree 2.  Arrays handed out are read-only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral

import numpy as np

TEMPORAL = "temporal"
SPATIAL = "spatial"


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_n(n_vertices) -> int:
    """The ladder vertex count as an int; ValueError unless it is an even integer >= 4."""
    n = n_vertices
    if n != int(n) or n < 4 or n % 2:
        raise ValueError(f"vertex count must be an even integer >= 4, got {n_vertices!r}")
    return int(n)


def check_coupling(value, name="beta"):
    """The coupling ``name`` unchanged; ValueError unless it is a finite number."""
    if not isinstance(value, Integral) and not math.isfinite(value):
        raise ValueError(f"coupling {name} must be finite, got {value!r}")
    return value


def check_symmetric(a) -> np.ndarray:
    """``a`` as floats; ValueError unless each matrix ``a[..., :, :]`` is finite and symmetric.

    Each matrix's largest asymmetry may be at most 1e-12 times its largest
    entry (or 1e-12, for entries below 1).
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # finite entries of opposite sign near the float maximum
        asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1), initial=0.0)
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1), initial=0.0), 1.0)
    if not np.all(asym <= 1e-12 * scale):
        raise ValueError(f"matrix is not symmetric (max asymmetry {np.max(asym):.3e})")
    return a


def _exact_route(scalar, x: np.ndarray, matrix: np.ndarray | None = None) -> bool:
    """Whether ``scalar * (matrix @ x)`` (or ``scalar * x``) runs in exact int64.

    It does for an Integral scalar and integer arrays; ValueError when
    |scalar| * max row-L1 of matrix * max|x| reaches 2**63, where int64 could wrap.
    """
    arrays = (x,) if matrix is None else (x, matrix)
    if not isinstance(scalar, Integral) or not all(np.issubdtype(a.dtype, np.integer) for a in arrays):
        return False
    row_l1 = 1 if matrix is None else int(np.abs(matrix).sum(axis=1, dtype=np.uint64).max(initial=0))
    max_x = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    if abs(int(scalar)) * max(row_l1 * max_x, 1) >= 2**63:
        raise ValueError(
            f"integer arithmetic would overflow int64: |{scalar}| * {row_l1} * {max_x} >= 2**63 "
            "(scalar * largest row sum * largest entry)"
        )
    return True


def _product_of_nonzeros(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as a dense array, summed over the pairs of nonzeros a[i, k], b[k, j].

    The work grows with the number of such pairs, not with the cube of the
    size; integer arrays give the same int64 integers as ``a @ b``.
    """
    ia, ka = np.nonzero(a)
    kb, jb = np.nonzero(b)  # b's nonzeros grouped by row k
    count = np.bincount(kb, minlength=b.shape[0])[ka]  # partners of each nonzero of a
    # pair each nonzero of a with the `count` nonzeros of b's row k, from the row's first on
    first = np.repeat(np.arange(ka.size), count)
    second = np.arange(first.size) + np.repeat(np.searchsorted(kb, ka) + count - np.cumsum(count), count)
    m = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    np.add.at(m, (ia[first], jb[second]), a[ia, ka][first] * b[kb, jb][second])
    return m


@dataclass(frozen=True)
class Link:
    """One oriented link: tail -> head, with a temporal/spatial tag."""

    tail: int
    head: int
    kind: str


@dataclass(frozen=True)
class LadderGraph:
    """A ladder graph with 1-based vertex ids and rail-major link order.

    ``plaquettes`` holds, per face, the four signed 1-based link indices
    of its oriented boundary walk.
    """

    n_vertices: int
    links: tuple[Link, ...]
    plaquettes: tuple[tuple[int, int, int, int], ...]

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquettes)

    @property
    def n_rungs(self) -> int:
        return self.n_vertices // 2

    @property
    def temporal_links(self) -> tuple[Link, ...]:
        return tuple(l for l in self.links if l.kind == TEMPORAL)

    @property
    def spatial_links(self) -> tuple[Link, ...]:
        return tuple(l for l in self.links if l.kind == SPATIAL)


def _rail_major(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Links as 1-based (tail, head) rows and faces as rows of signed 1-based link indices."""
    half = n // 2
    rail = np.arange(1, half)
    tails = np.concatenate((rail, half + rail, np.arange(1, half + 1)))
    heads = tails + np.repeat((1, half), (n - 2, half))  # a rail link steps along, a rung across
    # Face i is bounded by rung i, right-rail link i, rung i+1, left-rail
    # link i; the walk orientation puts minus signs on the last two.
    walks = np.stack((n - 2 + rail, half - 1 + rail, -(n - 1 + rail), -rail), axis=1)
    return np.stack((tails, heads), axis=1), walks


def _signed_incidence(n_rows: int, cells: np.ndarray) -> np.ndarray:
    """Read-only int64 matrix; column j has sign(s) in row |s| for each s in cells[j] (1-based)."""
    m = np.zeros((n_rows, cells.shape[0]), dtype=np.int64)
    m[np.abs(cells) - 1, np.arange(cells.shape[0])[:, None]] = np.sign(cells)
    return _frozen(m)


def build_ladder_graph(n_vertices: int) -> LadderGraph:
    """Construct the ladder graph on ``n_vertices`` vertices.

    Raises ValueError unless ``n_vertices`` is an even integer >= 4.
    The result has 3N/2 - 2 links and N/2 - 1 plaquettes.
    """
    n = check_n(n_vertices)
    ends, walks = _rail_major(n)
    kinds = [TEMPORAL] * (n - 2) + [SPATIAL] * (n // 2)
    links = tuple(map(Link, *ends.T.tolist(), kinds))
    return LadderGraph(n, links, tuple(map(tuple, walks.tolist())))


def boundary_1(graph: LadderGraph) -> np.ndarray:
    """Vertex-by-link incidence matrix: column = +1 at head, -1 at tail."""
    return _signed_incidence(graph.n_vertices, _rail_major(graph.n_vertices)[0] * (-1, 1))


def boundary_2(graph: LadderGraph) -> np.ndarray:
    """Link-by-plaquette matrix of signed boundary walks."""
    return _signed_incidence(graph.n_links, _rail_major(graph.n_vertices)[1])


@dataclass(frozen=True)
class ChainComplex:
    """Boundary pair (d1, d2) with d1 @ d2 == 0."""

    d1: np.ndarray
    d2: np.ndarray

    @classmethod
    def from_graph(cls, graph: LadderGraph) -> "ChainComplex":
        return cls(boundary_1(graph), boundary_2(graph))

    @property
    def n_vertices(self) -> int:
        return self.d1.shape[0]

    @property
    def n_links(self) -> int:
        return self.d1.shape[1]

    @property
    def n_plaquettes(self) -> int:
        return self.d2.shape[1]


def build_chain_complex(n_vertices: int) -> ChainComplex:
    """Ladder graph boundary operators for the given vertex count, from one set of index arrays."""
    n = check_n(n_vertices)
    ends, walks = _rail_major(n)
    return ChainComplex(_signed_incidence(n, ends * (-1, 1)), _signed_incidence(ends.shape[0], walks))


@dataclass(frozen=True)
class ComplexCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ComplexCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_complex(c: ChainComplex) -> ValidationReport:
    """Run structural checks on a boundary pair.

    Checks: every d1 column is one +1 and one -1 (a genuine link), d1
    columns sum to zero, every d2 column has four nonzero entries that
    balance in sign, and the composition d1 @ d2 vanishes.  Shape
    mismatch between d1 and d2 is a hard error, not a failed check.
    """
    if c.d1.shape[1] != c.d2.shape[0]:
        raise ValueError(
            f"shape mismatch: d1 is {c.d1.shape} but d2 is {c.d2.shape}; "
            "link dimensions must agree"
        )

    checks = []

    ones = np.sum(c.d1 == 1, axis=0)
    minus = np.sum(c.d1 == -1, axis=0)
    nonzero = np.count_nonzero(c.d1, axis=0)
    ok = bool(np.all((ones == 1) & (minus == 1) & (nonzero == 2)))
    bad = "" if ok else f" (first bad column: {int(np.argmin((ones == 1) & (minus == 1) & (nonzero == 2))) + 1})"
    checks.append(ComplexCheck("link-endpoints", ok, f"each d1 column is one +1 and one -1{bad}"))

    colsums = c.d1.sum(axis=0)
    ok = bool(np.all(colsums == 0))
    checks.append(ComplexCheck("column-sums", ok, "d1 columns sum to zero"))

    sides = np.count_nonzero(c.d2, axis=0)
    balance = c.d2.sum(axis=0)
    degenerate = np.flatnonzero(sides == 0)
    if degenerate.size:
        detail = f"degenerate plaquette (column {int(degenerate[0]) + 1} has no sides)"
        checks.append(ComplexCheck("plaquette-sides", False, detail))
    else:
        ok = bool(np.all(sides == 4) and np.all(balance == 0))
        checks.append(ComplexCheck("plaquette-sides", ok, "each d2 column has four sign-balanced sides"))

    comp = _product_of_nonzeros(c.d1, c.d2)
    ok = not np.any(comp)
    worst = int(np.max(np.abs(comp))) if comp.size else 0
    checks.append(ComplexCheck("boundary-of-boundary", ok, f"d1 @ d2 == 0 (max |entry| {worst})"))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization

_HEADER = re.compile(r"^ladder\s+N=(\d+)$")
_LINK = re.compile(r"^link\s+(\d+)\s+(\d+)\s+(\d+)\s+(temporal|spatial)$")


def serialize_graph(graph: LadderGraph) -> str:
    """Plain-text form: a header line, then one line per link."""
    lines = [f"ladder N={graph.n_vertices}"]
    for i, link in enumerate(graph.links, start=1):
        lines.append(f"link {i} {link.tail} {link.head} {link.kind}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LadderGraph:
    """Inverse of serialize_graph.

    Only canonical ladder descriptions are accepted: the link records
    must match the rail-major construction for the header's N exactly.
    Blank lines and '#' comment lines are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph description")
    m = _HEADER.match(lines[0])
    if not m:
        raise ValueError(f"bad header line: {lines[0]!r}")
    graph = build_ladder_graph(int(m.group(1)))

    seen: dict[int, Link] = {}
    for ln in lines[1:]:
        lm = _LINK.match(ln)
        if not lm:
            raise ValueError(f"bad link line: {ln!r}")
        idx = int(lm.group(1))
        seen[idx] = Link(int(lm.group(2)), int(lm.group(3)), lm.group(4))

    expected = {i: link for i, link in enumerate(graph.links, start=1)}
    if seen != expected:
        raise ValueError("link records do not describe a canonical ladder for this N")
    return graph


# ---------------------------------------------------------------------------
# six-vertex fixture in an alternate link numbering
#
# The six-vertex ladder is often written down with its links numbered in
# interleaved walk order rather than rail-major order.  Entry i below is
# the interleaved index of rail-major link i+1; plaquette 1 and 2 keep
# their places.  The fixture matrices are what the boundary operators
# look like under that relabeling, and tests use them as frozen
# expected values.

INTERLEAVED_FROM_RAIL_MAJOR = (1, 3, 5, 6, 4, 2, 7)


def six_vertex_interleaved_complex() -> ChainComplex:
    """The N=6 boundary pair with links renumbered per the interleaved order."""
    c = build_chain_complex(6)
    order = np.argsort(INTERLEAVED_FROM_RAIL_MAJOR)  # rail-major index of each interleaved link
    return ChainComplex(_frozen(c.d1[:, order]), _frozen(c.d2[order]))
