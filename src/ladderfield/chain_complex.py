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

Numbering and walks are written once, as index arrays.  A boundary matrix
(vertices x links for degree 1, links x plaquettes for degree 2) is kept as
its nonzero (row, column, value) triplets: two per link column of d1, four
per plaquette column of d2.  Operators, sources, gradients and validation
read the triplets; the dense int64 d1 and d2 are built only when first read.
A ChainComplex given dense matrices derives its triplets once, on
construction.  Arrays handed out are read-only, pickled and copied ones too.

The triplets of one N, and what the other modules derive from N alone, are
kept for the most recent N in one table (``_kept``); every public object
made from them is fresh, and builds its own dense fields.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from numbers import Integral, Real

import numpy as np

TEMPORAL = "temporal"
SPATIAL = "spatial"

#: Largest gap between a matrix and its transpose or its rail swap, relative to max(its largest |entry|, 1).
SYMMETRY_RTOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _BuiltOnFirstRead:
    """A field given either its value or a zero-argument builder of it.

    A builder runs on the field's first read, once; its result replaces it
    in the instance ``__dict__``, where pickle and deepcopy find either.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        value = instance.__dict__[self.name]
        if callable(value):
            value = instance.__dict__[self.name] = value()
        return value

    def __set__(self, instance, value):
        instance.__dict__[self.name] = value


class _ReadOnlyState:
    """Base of the frozen dataclasses that hold arrays.

    Pickle and deepcopy restore an instance through ``__setstate__``, which
    makes its arrays read-only again: unpickled and copied arrays come back
    writeable otherwise.
    """

    def __setstate__(self, state):
        for value in state.values():
            if isinstance(value, np.ndarray):
                _frozen(value)
        self.__dict__.update(state)


def _finite(what: str, build):
    """``build()`` with float overflow silenced; ValueError unless every entry is finite.

    A Python float that overflows, or is divided by a product that underflowed
    to zero, raises rather than giving inf; that is refused the same way.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = build()
    except (OverflowError, ZeroDivisionError):
        out = np.inf
    if not np.isfinite(out).all():
        raise ValueError(f"{what} is not finite: the inputs overflow the float range")
    return out


def check_n(n_vertices) -> int:
    """The ladder vertex count as an int; ValueError unless it is an even integer >= 4."""
    n = n_vertices
    if not -math.inf < n < math.inf or n != int(n) or n < 4 or n % 2:  # int() refuses inf and NaN
        raise ValueError(f"vertex count must be an even integer >= 4, got {n_vertices!r}")
    return int(n)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool: the one rule for integer selectors, indices and seeds."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_coupling(value, name="beta"):
    """The coupling ``name`` unchanged; ValueError unless it is a finite real number."""
    if not isinstance(value, Real):
        raise ValueError(f"coupling {name} must be a real number, got {value!r}")
    if not isinstance(value, Integral) and not math.isfinite(value):
        raise ValueError(f"coupling {name} must be finite, got {value!r}")
    return value


def check_finite(a, what: str):
    """``a`` unchanged, dtype included; ValueError unless it holds bools, integers or floats, all finite."""
    if a.dtype.kind not in "biuf":  # complex, text, or numpy's object array of integers past int64
        raise ValueError(f"{what} must be floats or integers within the int64 range (|x| < 2**63)")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def check_array(x, shape: tuple, what: str, dtype=None) -> np.ndarray:
    """``np.asarray(x, dtype)``, the array ``what`` of a fixed shape; ValueError unless it has ``shape``
    (``<what> have shape S, expected T``) and finite real entries (check_finite, before the cast)."""
    a = np.asarray(x)
    if a.shape != shape:
        raise ValueError(f"{what} have shape {a.shape}, expected {shape}")
    return np.asarray(check_finite(a, what), dtype)


def check_square(a: np.ndarray) -> np.ndarray:
    """``a`` unchanged; ValueError unless it is a 2-D square matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _gap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix a[..., :, :]'s largest |a - b|, and whether it is at most SYMMETRY_RTOL * max(max|a|, 1)."""
    with np.errstate(over="ignore"):  # finite entries of opposite sign near the float maximum
        gap = np.max(np.abs(a - b), axis=(-2, -1), initial=0.0)
    return gap, gap <= SYMMETRY_RTOL * np.maximum(np.max(np.abs(a), axis=(-2, -1), initial=0.0), 1.0)


def check_symmetric(a) -> np.ndarray:
    """``a`` as floats; ValueError unless each matrix ``a[..., :, :]`` is finite and symmetric by _gap."""
    a = np.asarray(check_finite(np.asarray(a), "matrix entries"), dtype=float)
    asym, symmetric = _gap(a, np.swapaxes(a, -1, -2))
    if not np.all(symmetric):
        raise ValueError(f"matrix is not symmetric (max asymmetry {np.max(asym):.3e})")
    return a


@dataclass(frozen=True, eq=False)
class _Nonzeros(_ReadOnlyState):
    """A matrix of the given shape held as its nonzero entries (row, column, value).

    A ChainComplex's boundaries group their entries by column, in ascending
    column order, so ``dot`` sums each row in ascending column order; ``T``
    groups them by row.  ``zero`` is every other entry: 0, or -0.0 for a
    float matrix scaled by a negative number.  Calling it builds the dense
    read-only matrix, so it serves as the builder of a lazy dense field.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    zero: float = 0

    def __post_init__(self):
        for a in (self.rows, self.cols, self.vals):
            _frozen(a)

    @classmethod
    def of(cls, matrix) -> "_Nonzeros":
        """The nonzeros of a dense 2-D matrix (a _Nonzeros is returned as it is)."""
        if isinstance(matrix, cls):
            return matrix
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"a boundary matrix must be 2-D, got shape {matrix.shape}")
        cols, rows = np.nonzero(matrix.T)
        return cls(matrix.shape, rows, cols, matrix[rows, cols])

    def __call__(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=self.vals.dtype)
        if np.signbit(self.zero):
            m.fill(self.zero)
        m[self.rows, self.cols] = self.vals
        return _frozen(m)

    @property
    def dtype(self) -> np.dtype:
        return self.vals.dtype

    @cached_property
    def T(self) -> "_Nonzeros":
        """The transpose, sharing the entry arrays; built on first read and kept."""
        return _Nonzeros(self.shape[::-1], self.cols, self.rows, self.vals, self.zero)

    @cached_property
    def max_row_l1(self) -> int:
        """The largest row L1 norm of an integer matrix, summed in uint64; kept once read."""
        sums = np.zeros(self.shape[0], dtype=np.uint64)
        np.add.at(sums, self.rows, np.abs(self.vals).astype(np.uint64))
        return int(sums.max(initial=0))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """The matrix times the vector ``x``, in the dtype ``matrix @ x`` has."""
        out = np.zeros(self.shape[0], dtype=np.result_type(self.vals, x))
        np.add.at(out, self.rows, self.vals * x[self.cols])
        return out


def _exact_route(scalar, x: np.ndarray, matrix: _Nonzeros | None = None) -> bool:
    """Whether ``scalar * (matrix @ x)`` (or ``scalar * x``) runs in exact int64.

    It does for an Integral scalar and integer arrays; ValueError when
    |scalar| * max row-L1 of matrix * max|x| reaches 2**63, where int64 could wrap.
    """
    arrays = (x,) if matrix is None else (x, matrix)
    if not isinstance(scalar, Integral) or not all(a.dtype.kind in "iu" for a in arrays):  # signed or unsigned
        return False
    row_l1 = 1 if matrix is None else matrix.max_row_l1
    max_x = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    if abs(int(scalar)) * max(row_l1 * max_x, 1) >= 2**63:
        raise ValueError(
            f"integer arithmetic would overflow int64: |{scalar}| * {row_l1} * {max_x} >= 2**63 "
            "(scalar * largest row sum * largest entry)"
        )
    return True


def _product(a: _Nonzeros, b: _Nonzeros, dtype) -> _Nonzeros:
    """a @ b as ``dtype`` nonzeros, one entry per (i, j) that a pair a[i, k], b[k, j] reaches.

    Each entry sums its pairs in the order ``_pairs`` lists them; pairs that
    cancel leave an entry of 0.  Entries come in row-major order.  The work
    grows with the number of pairs, not with the size of the product; an
    integer dtype gives the same integers as a dense ``a @ b``.
    """
    width = max(b.shape[1], 1)
    keys, terms = _pairs(a, b, dtype, width)
    # a stable sort keeps each entry's pairs in order; the running count of
    # distinct keys numbers the entries
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    terms = terms[order]
    del order  # each pair array is freed once read: they are the largest arrays here
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    slot = np.cumsum(first)
    slot -= 1
    keys = keys[first]
    vals = np.zeros(keys.size, dtype=dtype)
    np.add.at(vals, slot, terms)
    return _Nonzeros((a.shape[0], b.shape[1]), *np.divmod(keys, width), vals)


def _pairs(a: _Nonzeros, b: _Nonzeros, dtype, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The key i * width + j and the ``dtype`` term a[i, k] * b[k, j] of each pair of
    nonzeros a[i, k], b[k, j]: a's nonzeros in their order, each with b's row k in b's order."""
    by_row = np.argsort(b.rows, kind="stable")
    kb = b.rows[by_row]
    count = np.bincount(kb, minlength=b.shape[0])[a.cols]  # partners of each nonzero of a
    # each nonzero of a pairs with the `count` nonzeros of b's row k, from the row's first on
    partner = np.repeat(np.searchsorted(kb, a.cols) + count - np.cumsum(count), count)
    partner += np.arange(partner.size)
    partner = by_row[partner]  # b's own index of each partner
    del by_row, kb
    keys = b.cols[partner]
    keys += np.repeat(a.rows * width, count)
    terms = np.repeat(a.vals.astype(dtype), count)
    terms *= b.vals[partner]
    return keys, terms


@dataclass(frozen=True)
class Link:
    """One oriented link: tail -> head, with a temporal/spatial tag."""

    tail: int
    head: int
    kind: str


class _LazyGraph(_ReadOnlyState):
    # declared on a private base, so vars(LadderGraph) lists no descriptor
    links = _BuiltOnFirstRead()
    plaquettes = _BuiltOnFirstRead()


@dataclass(frozen=True)
class LadderGraph(_LazyGraph):
    """The canonical ladder graph on N vertices, with 1-based vertex ids and rail-major link order.

    ``plaquettes`` holds, per face, the four signed 1-based link indices of its oriented boundary
    walk.  N decides the graph: the constructor keeps check_n's int and refuses (ValueError) links or
    plaquettes given as other than the canonical tuples.  A builder of either, as build_ladder_graph
    passes, runs unchecked on the first read.  ``==``, ``hash`` and ``repr`` read N alone.
    """

    n_vertices: int
    links: tuple[Link, ...] = field(repr=False, compare=False)
    plaquettes: tuple[tuple[int, int, int, int], ...] = field(repr=False, compare=False)

    def __post_init__(self):
        n = vars(self)["n_vertices"] = check_n(self.n_vertices)
        for name, canonical in (("links", _links), ("plaquettes", _plaquettes)):
            if not callable(given := vars(self)[name]) and given != canonical(n):
                raise ValueError(f"{name} do not describe the canonical ladder for N={n}")

    @property
    def n_links(self) -> int:
        return 3 * self.n_vertices // 2 - 2

    @property
    def n_plaquettes(self) -> int:
        return self.n_vertices // 2 - 1

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
    walks = (rail[:, None] + (n - 2, half - 1, n - 1, 0)) * (1, 1, -1, -1)
    return np.stack((tails, heads), axis=1), walks


def _signed_incidence(n_rows: int, cells: np.ndarray) -> _Nonzeros:
    """Int64 nonzeros; column j has sign(s) in row |s| for each s in cells[j] (1-based)."""
    n_cols, per_col = cells.shape
    cols = np.repeat(np.arange(n_cols), per_col)
    return _Nonzeros((n_rows, n_cols), np.abs(cells).ravel() - 1, cols, np.sign(cells).ravel())


def build_ladder_graph(n_vertices: int) -> LadderGraph:
    """Construct the ladder graph on ``n_vertices`` vertices, in O(1).

    Raises ValueError unless ``n_vertices`` is an even integer >= 4.
    The result has 3N/2 - 2 links and N/2 - 1 plaquettes, built on first read.
    """
    n = check_n(n_vertices)
    return LadderGraph(n, partial(_links, n), partial(_plaquettes, n))


def _links(n: int) -> tuple[Link, ...]:
    """The Links of the N-vertex ladder, rail-major: N - 2 rail links, then N/2 rungs."""
    return tuple(map(Link, *_rail_major(n)[0].T.tolist(), [TEMPORAL] * (n - 2) + [SPATIAL] * (n // 2)))


def _plaquettes(n: int) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(map(tuple, _rail_major(n)[1].tolist()))


def _ladder_boundaries(n: int) -> tuple[_Nonzeros, _Nonzeros]:
    """The nonzeros of d1 (-1 at a link's tail, +1 at its head) and of d2 (the signed walks)."""
    ends, walks = _rail_major(n)
    return _signed_incidence(n, ends * (-1, 1)), _signed_incidence(ends.shape[0], walks)


@lru_cache(maxsize=1)
def _ladder_table(n: int) -> dict:
    """What the operators of the N-vertex ladder derive from N alone, for the most recent N: kind -> (key, value)."""
    return {}


def _kept(n: int, kind, build, key=None):
    """build() for ``kind``, kept in the ladder table of N until a call with another ``key`` replaces it.

    A value is read-only and holds O(N) arrays, never an N x N one or a public object.
    """
    table = _ladder_table(n)
    held = table.get(kind)
    if held is None or held[0] != key:
        held = table[kind] = (key, build())
    return held[1]


def boundary_1(graph: LadderGraph) -> np.ndarray:
    """Vertex-by-link incidence matrix: column = +1 at head, -1 at tail."""
    return ChainComplex.from_graph(graph).d1


def boundary_2(graph: LadderGraph) -> np.ndarray:
    """Link-by-plaquette matrix of signed boundary walks."""
    return ChainComplex.from_graph(graph).d2


class _LazyBoundaries(_ReadOnlyState):
    # declared on a private base, so vars(ChainComplex) lists no descriptor
    d1 = _BuiltOnFirstRead()
    d2 = _BuiltOnFirstRead()


@dataclass(frozen=True, eq=False)
class ChainComplex(_LazyBoundaries):
    """Boundary pair (d1, d2) with d1 @ d2 == 0, held as their nonzeros.

    ``nonzeros`` holds the (d1, d2) triplets, taken on construction from the
    dense matrices a caller passes, or shared with the ladder table by
    build_chain_complex and from_graph; every operator reads them.  The dense
    ``d1`` and ``d2`` are built from them on first read and kept.  ``repr``
    leaves both out, and ``==`` is identity, so neither builds them.
    """

    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    nonzeros: tuple[_Nonzeros, _Nonzeros] = field(init=False, repr=False)

    def __post_init__(self):
        d1, d2 = _Nonzeros.of(vars(self)["d1"]), _Nonzeros.of(vars(self)["d2"])
        vars(self).update(d1=d1, d2=d2, nonzeros=(d1, d2))

    @classmethod
    def from_graph(cls, graph: LadderGraph) -> "ChainComplex":
        return _ladder_complex(cls, graph.n_vertices)

    def __repr__(self) -> str:
        return (
            f"ChainComplex(n_vertices={self.n_vertices}, n_links={self.n_links}, "
            f"n_plaquettes={self.n_plaquettes})"
        )

    @property
    def n_vertices(self) -> int:
        return self.nonzeros[0].shape[0]

    @property
    def n_links(self) -> int:
        return self.nonzeros[0].shape[1]

    @property
    def n_plaquettes(self) -> int:
        return self.nonzeros[1].shape[1]


def build_chain_complex(n_vertices: int) -> ChainComplex:
    """Ladder graph boundary operators for the given vertex count, from one set of index arrays."""
    return _ladder_complex(ChainComplex, check_n(n_vertices))


def _ladder_complex(cls, n: int) -> ChainComplex:
    """A fresh complex on the ladder table's boundaries, marked so its operators read the table too."""
    c = cls(*_kept(n, "boundaries", partial(_ladder_boundaries, n)))
    vars(c)["_ladder"] = True
    return c


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
    balance in sign, and the composition d1 @ d2 vanishes.  A d1 and d2
    whose link dimensions differ are a hard error, not a failed check.
    """
    d1, d2 = c.nonzeros
    if d1.shape[1] != d2.shape[0]:
        raise ValueError(f"d1 has shape {d1.shape} but d2 has shape {d2.shape}; link dimensions must agree")

    checks = []

    n_links = d1.shape[1]
    ones = np.bincount(d1.cols[d1.vals == 1], minlength=n_links)
    minus = np.bincount(d1.cols[d1.vals == -1], minlength=n_links)
    nonzero = np.bincount(d1.cols, minlength=n_links)
    ok = bool(np.all((ones == 1) & (minus == 1) & (nonzero == 2)))
    bad = "" if ok else f" (first bad column: {int(np.argmin((ones == 1) & (minus == 1) & (nonzero == 2))) + 1})"
    checks.append(ComplexCheck("link-endpoints", ok, f"each d1 column is one +1 and one -1{bad}"))

    colsums = d1.T.dot(np.ones(d1.shape[0], dtype=np.int64))
    ok = bool(np.all(colsums == 0))
    checks.append(ComplexCheck("column-sums", ok, "d1 columns sum to zero"))

    sides = np.bincount(d2.cols, minlength=d2.shape[1])
    balance = d2.T.dot(np.ones(d2.shape[0], dtype=np.int64))
    degenerate = np.flatnonzero(sides == 0)
    if degenerate.size:
        detail = f"degenerate plaquette (column {int(degenerate[0]) + 1} has no sides)"
        checks.append(ComplexCheck("plaquette-sides", False, detail))
    else:
        ok = bool(np.all(sides == 4) and np.all(balance == 0))
        checks.append(ComplexCheck("plaquette-sides", ok, "each d2 column has four sign-balanced sides"))

    comp = _product(d1, d2, np.result_type(d1.vals, d2.vals)).vals
    ok = not np.any(comp)
    worst = int(np.max(np.abs(comp), initial=0))
    checks.append(ComplexCheck("boundary-of-boundary", ok, f"d1 @ d2 == 0 (max |entry| {worst})"))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization

#: A number as serialize_graph writes it: ASCII digits, no sign and no leading zero.
_NUMBER = "(0|[1-9][0-9]*)"
_HEADER = re.compile(f"ladder N={_NUMBER}")
_LINK = re.compile(f"link {_NUMBER} {_NUMBER} {_NUMBER} (?:{TEMPORAL}|{SPATIAL})")
#: Links formatted per "%" operation by serialize_graph.
_LINKS_PER_BLOCK = 1 << 12


def _data_lines(text: str) -> list[str]:
    """The stripped lines of a text, skipping blank and '#' comment lines."""
    return [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]


def serialize_graph(graph: LadderGraph) -> str:
    """Plain-text form: a header line, then one line per link, formatted from the rail-major rows."""
    n = graph.n_vertices
    ends = _rail_major(n)[0]
    lines = (_link_lines(ends, first, n - 2) for first in range(0, len(ends), _LINKS_PER_BLOCK))
    return "".join([f"ladder N={n}\n", *lines])


def _link_lines(ends: np.ndarray, first: int, n_temporal: int) -> str:
    """The lines of one block of links, from index ``first`` on, out of their (tail, head) rows."""
    ends = ends[first : first + _LINKS_PER_BLOCK]
    rails = min(max(n_temporal - first, 0), len(ends))
    template = f"link %d %d %d {TEMPORAL}\n" * rails + f"link %d %d %d {SPATIAL}\n" * (len(ends) - rails)
    numbers = np.column_stack((np.arange(first + 1, first + 1 + len(ends)), ends))
    return template % tuple(numbers.ravel().tolist())


def parse_graph(text: str) -> LadderGraph:
    """Inverse of serialize_graph: the stripped lines must be exactly the ones it writes.

    Blank lines and '#' comment lines are ignored.  A refusal names the first
    link line that is malformed or repeats an index, else the records as not
    the canonical ladder for the header's N.
    """
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty graph description")
    if not (m := _HEADER.fullmatch(lines[0])):
        raise ValueError(f"bad header line: {lines[0]!r}")
    n = check_n(int(m[1]))
    graph = build_ladder_graph(n) if len(lines) - 1 == 3 * n // 2 - 2 else None  # only for 3N/2 - 2 records
    if graph is not None and "\n".join([*lines, ""]) == serialize_graph(graph):
        return graph
    seen = set()
    for line in lines[1:]:
        if not (match := _LINK.fullmatch(line)):
            raise ValueError(f"bad link line: {line!r}")
        if match[1] in seen:
            raise ValueError(f"link {match[1]} is recorded more than once")
        seen.add(match[1])
    raise ValueError("link records do not describe a canonical ladder for this N")


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
    d1, d2 = (d() for d in _ladder_boundaries(6))  # built apart from the ladder table
    order = np.argsort(INTERLEAVED_FROM_RAIL_MAJOR)  # rail-major index of each interleaved link
    return ChainComplex(d1[:, order], d2[order])
