"""Flat-array crossing graphs for woven structures.

A woven structure is broken down into *crossings*, each the meeting point
of two threads.  Every crossing owns four vertices, two per thread, stored
in four consecutive slots of one flat array: crossing ``c`` owns slots
``4c .. 4c+3``.  Each vertex records

* ``next_node`` -- where its thread continues: a vertex of another
  crossing, or :data:`TERMINAL` when the thread ends there.  Thread ends
  are never stored as records; the sentinel is all there is to them.
* ``on_top`` -- whether the vertex belongs to the thread lying on top at
  this crossing (exactly one of the two threads does).
* ``opposite`` -- the same-thread partner vertex within the crossing.

This layout makes following a thread an O(1) array hop per crossing, which
is what keeps fingerprint extraction linear in the walk depth.

Inter-crossing connections carry one of three labels: the thread either
changes level between the two crossings (alternating), stays on the same
level (non-alternating), or ends (terminated).
"""

from __future__ import annotations

import re
import threading
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import textio
from .textio import GraphParseError

TERMINAL = -1


class _Table:
    """A module table with one row per node id from TERMINAL up: ``rows[i + 1]`` is id i's.

    It only grows, by appending under a lock, so whatever was read from an
    older copy of ``rows`` keeps its objects.
    """

    def __init__(self, make):
        self._make = make  # make(lo, hi): the rows of ids lo .. hi-1
        self._growth = threading.Lock()
        self.rows = make(TERMINAL, 0)

    def upto(self, top: int) -> np.ndarray:
        """The rows, grown to hold ids up to ``top``; index the result, not ``self.rows``."""
        rows = self.rows
        if len(rows) <= top + 1:
            with self._growth:
                rows = self.rows
                if len(rows) <= top + 1:
                    rows = self.rows = np.concatenate((rows, self._make(len(rows) - 1, top + 1)))
        return rows


# One int object per node id, shared by every graph's walk lists.
_INTS = _Table(lambda lo, hi: np.arange(lo, hi).astype(object))
# Each id's two .tg tokens, "<id> " and "<id>\n", shared by every serialize_graph call.
_TOKENS = _Table(lambda lo, hi: np.array([(f"{i} ", f"{i}\n") for i in range(lo, hi)], dtype=object))


class EdgeLabel(str, Enum):
    """Label of a thread connection leaving a vertex."""

    ALTERNATING = "A"
    NON_ALTERNATING = "N"
    TERMINATED = "T"


class InvalidGraphError(ValueError):
    """Raised when a structurally parseable graph breaks a model invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = "; ".join(self.violations[:3])
        more = f" (+{len(self.violations) - 3} more)" if len(self.violations) > 3 else ""
        super().__init__(f"invalid graph: {shown}{more}")

    def __reduce__(self):
        # ``args`` holds the formatted message; rebuild from the violations,
        # so that a pickled copy, one sent between processes say, reads the same.
        return type(self), (self.violations,)


class _Frame:
    """The read-only ``next_node`` and ``opposite`` arrays of one or more graphs, their crc32 and walk lists.

    :func:`validate` of a graph on the frame must pass before the first
    :meth:`walk_lists`, which indexes the int table with the frame's ids.
    """

    __slots__ = ("next_node", "opposite", "_crc", "_lists", "__weakref__")

    def __init__(self, next_node: np.ndarray, opposite: np.ndarray):
        self.next_node = next_node
        self.opposite = opposite
        self._crc = self._lists = None

    def crc(self) -> int:
        """crc32 of ``next_node`` then ``opposite``, taken at the first graph hash, not at every parse."""
        if self._crc is None:
            self._crc = zlib.crc32(self.opposite, zlib.crc32(self.next_node))
        return self._crc

    def walk_lists(self):
        """``next_node`` and ``opposite`` as lists of the shared int objects, built at the first call."""
        if self._lists is None:  # two threads may both build equal lists here; either may stay
            ints = _INTS.upto(len(self.next_node) - 1)
            self._lists = (ints[self.next_node + 1].tolist(), ints[self.opposite + 1].tolist())
        return self._lists


@dataclass(frozen=True, eq=False)
class TextileGraph:
    """Immutable crossing graph in flat-array form.

    ``next_node``, ``on_top`` and ``opposite`` are parallel arrays of
    length ``4n`` for ``n`` crossings.  Instances hold read-only copies of
    their input arrays; all operations on them are pure reads, so a
    graph can be shared freely across threads.
    ``next_node`` and ``opposite``, the thread structure, live in a frame:
    ``grid_to_graph`` puts every graph of one grid shape on one shared
    frame, and a graph built here gets a frame of its own.  ``grid_to_graph``
    also returns one graph per distinct matrix, so many corpus items may
    hold one graph object, safely, since a graph never changes once built.
    Graphs are hashable by content: equal arrays, equal graphs, and the
    same hash in every process.
    The first walk caches the arrays as Python lists: the frame's two for
    its life, the graph's ``on_top`` for the graph's.  Each holds one
    pointer per node, to int objects that every graph shares through one
    growing module table, so ids above 256 cost no int of their own.
    A graph that breaks the model can be built, for :func:`validate` to
    report on, but not walked or serialized: the first walk or
    :func:`serialize_graph` runs :func:`validate` once, unless
    :func:`parse_graph` or ``grid_to_graph`` made the graph.
    """

    next_node: np.ndarray
    on_top: np.ndarray
    opposite: np.ndarray

    def __post_init__(self):
        nxt = np.array(self.next_node, dtype=np.int64)
        top = np.array(self.on_top, dtype=np.bool_)
        opp = np.array(self.opposite, dtype=np.int64)
        for arr, name in ((nxt, "next_node"), (top, "on_top"), (opp, "opposite")):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arr.flags.writeable = False
        if not (len(nxt) == len(top) == len(opp)):
            raise ValueError("next_node, on_top and opposite must have equal length")
        self._set(_Frame(nxt, opp), top)

    @classmethod
    def _on_frame(cls, frame: _Frame, on_top: np.ndarray) -> TextileGraph:
        """A vouched graph of ``frame``'s threads: only for a read-only ``on_top`` that makes it valid."""
        g = object.__new__(cls)
        g._set(frame, on_top)
        return _vouch(g)

    def _set(self, frame: _Frame, on_top: np.ndarray) -> None:
        object.__setattr__(self, "next_node", frame.next_node)
        object.__setattr__(self, "on_top", on_top)
        object.__setattr__(self, "opposite", frame.opposite)
        object.__setattr__(self, "_frame", frame)

    @property
    def node_count(self) -> int:
        return len(self.next_node)

    @property
    def crossing_count(self) -> int:
        return len(self.next_node) // 4

    def __eq__(self, other):
        if not isinstance(other, TextileGraph):
            return NotImplemented
        return (
            np.array_equal(self.next_node, other.next_node)
            and np.array_equal(self.on_top, other.on_top)
            and np.array_equal(self.opposite, other.opposite)
        )

    def __hash__(self):
        # crc32, not hash() of the bytes, which PYTHONHASHSEED salts, so the
        # hash is the same in every process; equal frames have equal crcs.
        return zlib.crc32(self.on_top, self._frame.crc())

    def __repr__(self):
        return f"TextileGraph(crossings={self.crossing_count})"

    def _thread_arrays(self):
        # Every walk starts here; the first call checks the graph unless its
        # maker vouched for it.  Plain lists index ~3x faster than numpy
        # scalars in the walk loop; cache them once: the graph is immutable.
        # The frame's lists come from a valid graph, this one or one that
        # shares its frame; on_top's entries are the bool singletons.
        cached = self.__dict__.get("_lists")
        if cached is None:
            _require_valid(self)
            nxt, opp = self._frame.walk_lists()
            cached = (nxt, self.on_top.tolist(), opp)
            object.__setattr__(self, "_lists", cached)
        return cached


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; violations are data, not exceptions."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate(g: TextileGraph) -> ValidationReport:
    """Check every model invariant; report each broken rule by node index.

    Every rule is one array mask over all nodes or crossings; Python only
    formats the messages of the entries that break it.
    """
    size = g.node_count
    if size == 0 or size % 4 != 0:
        return ValidationReport((f"node count {size} is not a positive multiple of four",))

    nxt, top, opp = g.next_node, g.on_top, g.opposite
    idx = np.arange(size)

    out = [f"node {i}: opposite index {opp[i]} out of range" for i in idx[(opp < 0) | (opp >= size)]]
    if out:
        return ValidationReport(tuple(out))

    # The four rules below make each node's opposite the other node of its level in its crossing,
    # so opposite is an involution that pairs the two top nodes: neither needs a rule of its own.
    for i in idx[opp == idx]:
        out.append(f"node {i}: opposite link points at itself")
    for i in idx[opp // 4 != idx // 4]:
        out.append(f"node {i}: opposite node {opp[i]} lies in a different crossing")
    for i in idx[top != top[opp]]:
        out.append(f"node {i}: on_top differs from its opposite node {opp[i]}")
    tops_per_block = top.reshape(-1, 4).sum(axis=1)
    for c in np.nonzero(tops_per_block != 2)[0]:
        out.append(f"crossing {c}: top-edge count != 2 (found {tops_per_block[c]})")

    out_of_range = (nxt < TERMINAL) | (nxt >= size)
    for i in idx[out_of_range]:
        out.append(f"node {i}: next index {nxt[i]} out of range")
    linked = ~out_of_range & (nxt != TERMINAL)
    for i in idx[linked & (nxt // 4 == idx // 4)]:
        out.append(f"node {i}: thread link stays inside its own crossing")
    back = nxt[np.where(linked, nxt, 0)]
    for i in idx[linked & (back != idx)]:
        out.append(f"node {i}: asymmetric thread link (next({i})={nxt[i]}, next({nxt[i]})={back[i]})")

    return ValidationReport(tuple(out))


def _require_valid(g: TextileGraph) -> TextileGraph:
    """``g``, checked once: raises :class:`InvalidGraphError` unless it is valid or vouched for."""
    if not g.__dict__.get("_valid"):
        report = validate(g)
        if not report.ok:
            raise InvalidGraphError(report.violations)
        _vouch(g)
    return g


def _vouch(g: TextileGraph) -> TextileGraph:
    """``g`` marked valid, so its walks skip :func:`validate`: only for checked or valid-by-construction graphs."""
    object.__setattr__(g, "_valid", True)
    return g


def edge_label(g: TextileGraph, i: int) -> EdgeLabel:
    """Label of the thread connection leaving vertex ``i``; the first call checks the graph, as a walk does."""
    if not 0 <= i < g.node_count:
        raise IndexError(f"node index {i} out of range for {g.node_count} nodes")
    nxt, top, _ = g._thread_arrays()
    j = nxt[i]
    if j == TERMINAL:
        return EdgeLabel.TERMINATED
    if top[i] != top[j]:
        return EdgeLabel.ALTERNATING
    return EdgeLabel.NON_ALTERNATING


# --- .tg text format -------------------------------------------------------
# Lines, comments and fields by the textio rule:
#   crossings <n>
#   <id> <next> <top> <opp>        exactly 4n lines, id running 0..4n-1, next -1 at a thread end

_FORMAT_COMMENT = "# weftprint graph format 1"

# The spelling serialize_graph writes: an optional format comment, the
# header, then 4n lines of four single-space-separated integers without
# signs or leading zeros, of 1-18 digits.  Text spelled this way is checked
# with byte masks and read in one numpy conversion; anything else goes to
# the line-by-line reader.
_CANONICAL_HEADER = re.compile(rf"(?:{re.escape(_FORMAT_COMMENT)}\n)?crossings ([1-9][0-9]{{0,17}})\n")
_SPACE, _LF, _MINUS, _ZERO, _ONE, _NINE = b" \n-019"


def _parse_canonical(text):
    """``(next, top, opposite)`` of canonically spelled text, else ``None``.

    ``None`` only means "not canonical": the caller then runs
    :func:`_parse_lines`, which accepts or rejects the text itself.
    """
    header = _CANONICAL_HEADER.match(text)
    if header is None:
        return None
    size = 4 * int(header.group(1))
    rest = text[header.end():]
    if not rest.isascii():
        return None
    raw = rest.encode("ascii")
    body = np.frombuffer(raw, dtype=np.uint8)
    # Separators: " ", " ", " ", "\n" on each of the 4n node lines, the last ending the text.
    ends = np.flatnonzero(body <= _SPACE)  # control bytes too, for the next check to refuse
    if len(ends) != 4 * size or ends[-1] != len(body) - 1:
        return None
    seps = body[ends]
    if not (seps[3::4] == _LF).all() or np.count_nonzero(seps == _SPACE) != 3 * size:
        return None
    # Fields: 1-18 characters without a leading zero.
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    first = body[starts]
    if lengths.min() < 1 or lengths.max() > 18 or ((first == _ZERO) & (lengths > 1)).any():
        return None
    # Every other byte is a digit, but for the "-" of a next index that reads "-1".
    signed = first[1::4] == _MINUS
    if (lengths[1::4][signed] != 2).any() or (body[starts[1::4][signed] + 1] != _ONE).any():
        return None
    digits = np.count_nonzero((body >= _ZERO) & (body <= _NINE))
    if digits + len(ends) + np.count_nonzero(signed) != len(body):
        return None
    ids, nxt, top, opp = np.fromstring(raw, dtype=np.int64, sep=" ").reshape(size, 4).T
    if not np.array_equal(ids, np.arange(size)) or nxt.max() >= size or top.max() > 1 or opp.max() >= size:
        return None
    return nxt, top.astype(np.bool_), opp


def _parse_lines(text):
    """``(next, top, opposite)`` of any text the grammar allows.

    The reference reader, and the one that reports syntax errors, with
    the line and column of the offending field.
    """
    lines = list(textio.significant_lines(text))
    if not lines:
        raise GraphParseError("empty graph file")

    lineno, raw, header = lines[0]
    parts = textio.fields(raw)
    if len(parts) != 2 or parts[0][0] != "crossings":
        raise GraphParseError(f"expected 'crossings <n>' header, got {textio.shown(header)}", lineno)
    count_token, count_col = parts[1]
    n = textio.int_field(count_token, lineno, count_col, "crossing count")
    if n < 1:
        raise GraphParseError(f"crossing count must be >= 1, got {n}", lineno)

    node_lines = lines[1:]
    if len(node_lines) != 4 * n:
        raise GraphParseError(f"node count {len(node_lines)} does not match 4*{n} = {4 * n}")

    size = 4 * n
    nxt = np.empty(size, dtype=np.int64)
    top = np.empty(size, dtype=np.bool_)
    opp = np.empty(size, dtype=np.int64)
    for expected, (lineno, raw, _) in enumerate(node_lines):
        fields = textio.fields(raw)
        if len(fields) != 4:
            raise GraphParseError(f"expected 4 fields '<id> <next> <top> <opp>', got {len(fields)}", lineno)
        (id_token, id_col), (next_token, next_col), (top_token, top_col), (opp_token, opp_col) = fields
        node_id = textio.int_field(id_token, lineno, id_col, "node id")
        if node_id != expected:
            raise GraphParseError(f"node id {node_id} out of order, expected {expected}", lineno, id_col)
        value = textio.int_field(next_token, lineno, next_col, "next index")
        if value != TERMINAL and not 0 <= value < size:
            raise GraphParseError(f"next index {value} out of range [-1, {size})", lineno, next_col)
        nxt[expected] = value
        flag = textio.int_field(top_token, lineno, top_col, "top flag")
        if flag not in (0, 1):
            raise GraphParseError(f"top flag must be 0 or 1, got {flag}", lineno, top_col)
        top[expected] = bool(flag)
        value = textio.int_field(opp_token, lineno, opp_col, "opposite index")
        if not 0 <= value < size:
            raise GraphParseError(f"opposite index {value} out of range [0, {size})", lineno, opp_col)
        opp[expected] = value
    return nxt, top, opp


def parse_graph(text: str) -> TextileGraph:
    """Parse ``.tg`` text into a validated graph.

    Node order is preserved exactly as written.  Raises
    :class:`GraphParseError` for syntax problems (with line/column) and
    :class:`InvalidGraphError` when the encoded graph breaks an invariant.
    Canonical text takes a one-pass fast path; every other spelling, and
    every error, goes through the line-by-line reader.
    """
    arrays = _parse_canonical(text)
    if arrays is None:
        arrays = _parse_lines(text)
    return _require_valid(TextileGraph(*arrays))


def serialize_graph(g: TextileGraph) -> str:
    """Canonical ``.tg`` text; inverse of :func:`parse_graph`.

    Raises :class:`InvalidGraphError` for a graph that breaks the model, as
    its first walk would, before any id indexes the token table.
    """
    _require_valid(g)
    rows = np.column_stack([np.arange(g.node_count), g.next_node, g.on_top, g.opposite]) + 1
    tokens = _TOKENS.upto(g.node_count - 1)[rows, (0, 0, 0, 1)]  # the last field ends its line
    return f"{_FORMAT_COMMENT}\ncrossings {g.crossing_count}\n" + "".join(tokens.ravel().tolist())


def load_graph(path) -> TextileGraph:
    return textio.load(path, parse_graph)


def save_graph(g: TextileGraph, path) -> None:
    textio.write_text(path, serialize_graph(g))  # a graph that breaks the model is refused before the file is made
