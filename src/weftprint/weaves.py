"""Binary weave matrices and their conversion to crossing graphs.

A weave matrix is a 2-D boolean numpy array of shape ``(h, w)``: ``h`` weft
rows by ``w`` warp columns, ``cells[i, j]`` true iff warp ``j`` passes over
weft ``i`` at grid position ``(i, j)``.  Matrices are only a generator
input; all similarity work happens on the graphs built from them.

Grid-representable families:

* plain -- strict over/under checkerboard (the 1/1 twill)
* twill(m, n) -- rows of m overs then n unders, shifted one column per row
* satin(period, step) -- one raiser per period, offset by a coprime step
* warp_above -- one thread family always on top
* random(density) -- independent per-cell coin from a seeded generator
* mixed(block, pool) -- a mosaic of square blocks, each drawn from a pool
  of random motifs; hand-woven pieces that combine several styles in one
  textile are approximated this way, and samples sharing one motif pool
  form a coherent family even though no two mosaics are alike
"""

from __future__ import annotations

import math
import re
import weakref

import numpy as np

from . import textio
from .graph import TERMINAL, TextileGraph, _Frame


def _as_matrix(cells) -> np.ndarray:
    m = np.asarray(cells, dtype=bool)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"weave matrix must be 2-D and non-empty, got shape {m.shape}")
    return m


def _check_dims(w, h):
    if w < 1 or h < 1:
        raise ValueError(f"grid dimensions must be >= 1, got w={textio.shown_number(w)}, h={textio.shown_number(h)}")


def plain_weave(w: int, h: int) -> np.ndarray:
    return twill_weave(1, 1, w, h)


def twill_weave(over: int, under: int, w: int, h: int) -> np.ndarray:
    """m-over/n-under diagonal: row i is row 0 shifted right by i columns."""
    _check_dims(w, h)
    if over < 1 or under < 1:
        raise ValueError(f"twill counts must be >= 1, got {textio.shown_number(over)}/{textio.shown_number(under)}")
    if over + under >= 2 ** 63:  # numpy's int64 arithmetic below would overflow
        raise ValueError("twill counts must sum to less than 2**63")
    i, j = np.indices((h, w))
    return (j - i) % (over + under) < over


def satin_weave(period: int, step: int, w: int, h: int) -> np.ndarray:
    """One raiser per period and row, advancing by ``step`` columns per row.

    ``step`` must be coprime with ``period`` and neither 1 nor period-1,
    so raisers never touch and every offset is visited.
    """
    _check_dims(w, h)
    if period < 5:
        raise ValueError(f"satin period must be >= 5, got {textio.shown_number(period)}")
    if period >= 2 ** 63:  # as for twill
        raise ValueError("satin period must be less than 2**63")
    if not 1 < step < period - 1:
        raise ValueError(f"satin step must satisfy 1 < step < period-1, got {textio.shown_number(step)}")
    if math.gcd(step, period) != 1:
        raise ValueError(f"satin step {step} must be coprime with period {period}")
    offsets = np.array([i * step % period for i in range(h)])  # exact: i * step may pass int64
    return np.arange(w) % period == offsets[:, None]


def warp_above_weave(w: int, h: int) -> np.ndarray:
    _check_dims(w, h)
    return np.ones((h, w), dtype=bool)


def random_weave(density: float, w: int, h: int, seed) -> np.ndarray:
    """Independent Bernoulli(density) cell coin from a seeded generator."""
    _check_dims(w, h)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {textio.shown_number(density)}")
    rng = np.random.default_rng(seed)
    return rng.random((h, w)) < density


_MOTIF_CELLS = 2 ** 22  # the most cells a motif pool may hold: mixed(256,64) fills it, with 32 MB of draws


def mixed_weave(block: int, pool: int, w: int, h: int, pool_seed, choice_seed) -> np.ndarray:
    """Mosaic of ``block``-sized squares picked from ``pool`` random motifs.

    The motif pool depends only on ``pool_seed``; which motif lands where
    depends only on ``choice_seed``.  Mosaics built from one pool share
    whole regions, so they stay mutually recognizable while differing
    globally -- unlike fully independent random matrices.
    """
    _check_dims(w, h)
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {textio.shown_number(block)}")
    if pool < 1:
        raise ValueError(f"motif pool size must be >= 1, got {textio.shown_number(pool)}")
    if pool * block * block > _MOTIF_CELLS:  # checked before the draw, which takes 8 bytes a cell
        raise ValueError(f"motif pool size times block area must be <= {_MOTIF_CELLS}, "
                         f"got {textio.shown_number(pool)} * {textio.shown_number(block)}x{textio.shown_number(block)}")
    return _place_motifs(_motif_pool(block, pool, pool_seed), w, h, choice_seed)


def _motif_pool(block: int, pool: int, pool_seed) -> np.ndarray:
    """The ``(pool, block, block)`` motifs of ``pool_seed``, in one draw: the cells of one draw per motif."""
    return np.random.default_rng(pool_seed).random((pool, block, block)) < 0.5


def _place_motifs(motifs: np.ndarray, w: int, h: int, choice_seed) -> np.ndarray:
    """The ``(h, w)`` mosaic of ``motifs`` that ``choice_seed`` picks, row by row."""
    pool, block, _ = motifs.shape
    choice_rng = np.random.default_rng(choice_seed)
    blocks_down = -(-h // block)
    blocks_across = -(-w // block)
    rows = [
        np.hstack([motifs[int(choice_rng.integers(pool))] for _ in range(blocks_across)])
        for _ in range(blocks_down)
    ]
    return np.vstack(rows)[:h, :w]


_KIND_RE = re.compile(r"[ \t]*([a-z_]+)[ \t]*(?:\([ \t]*([^)]*)\)[ \t]*)?")


def _mixed_from_seed(block: int, pool: int, w: int, h: int, seed) -> np.ndarray:
    """A mosaic whose motif pool and placements both derive from ``seed``."""
    if isinstance(seed, np.random.SeedSequence):  # a copy, so the caller's sequence spawns nothing
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    else:
        seed = np.random.SeedSequence(seed)
    return mixed_weave(block, pool, w, h, *seed.spawn(2))


# The kinds whose samples draw from a seed; every other kind gives one matrix per grid size.
SEEDED_KINDS = ("random", "mixed")
# Each kind's argument types and generator; the seeded kinds also take a seed.
_KINDS = {"plain": ((), plain_weave), "twill": ((int, int), twill_weave), "satin": ((int, int), satin_weave),
          "warp_above": ((), warp_above_weave), "random": ((float,), random_weave),
          "mixed": ((int, int), _mixed_from_seed)}


def parse_kind(kind: str) -> tuple[str, list]:
    """Name and converted arguments of a kind string, e.g. ``("twill", [2, 1])``.

    Integers are ASCII digits with an optional sign; decimals are spelled as
    distance-CSV cells; blanks are ASCII spaces and tabs.  An unparseable or
    unknown kind, or a wrong argument count or spelling, is a ``ValueError``.
    """
    m = _KIND_RE.fullmatch(kind)
    if not m:
        raise ValueError(f"unparseable weave kind {textio.shown(kind)}")
    name, argtext = m.groups()
    if name not in _KINDS:
        raise ValueError(f"unknown weave kind {textio.shown(name)}")
    args = [a.strip(" \t") for a in argtext.split(",")] if argtext else []
    types = _KINDS[name][0]
    if len(args) != len(types):
        raise ValueError(f"weave kind {textio.shown(kind)} takes {len(types)} parameter(s), got {len(args)}")
    return name, [textio.read_number(a, t, f"weave kind {textio.shown(kind)}") for a, t in zip(args, types)]


def weave_matrix(kind: str, w: int, h: int, seed=None) -> np.ndarray:
    """Build a matrix from a kind string such as ``twill(2,1)`` or ``random(0.5)``.

    The stochastic kinds, :data:`SEEDED_KINDS`, require ``seed``; for
    ``mixed`` the motif pool and the placements both derive from it, so use
    :func:`mixed_weave` directly to share one pool across several mosaics.
    """
    name, args = parse_kind(kind)
    if name not in SEEDED_KINDS:
        return _KINDS[name][1](*args, w, h)
    if seed is None:
        raise ValueError(f"{name} weave needs a seed")
    return _KINDS[name][1](*args, w, h, seed)


def rotate90(cells) -> np.ndarray:
    # Warp and weft swap families, so the over/under bit flips.
    m = _as_matrix(cells)
    return ~m.T[::-1]


def rotate180(cells) -> np.ndarray:
    return _as_matrix(cells)[::-1, ::-1]


def mirror(cells) -> np.ndarray:
    return _as_matrix(cells)[:, ::-1]


_TRANSFORMS = {"rotate90": rotate90, "rotate180": rotate180, "mirror": mirror}
TRANSFORM_OPS = tuple(_TRANSFORMS)


def transform(cells, op: str) -> np.ndarray:
    if op not in _TRANSFORMS:
        raise ValueError(f"unknown transform {op!r}, expected one of {TRANSFORM_OPS}")
    return _TRANSFORMS[op](cells)


def perturb(cells, rate: float, seed) -> np.ndarray:
    """Flip each cell independently with probability ``rate``.

    Pure function of (cells, rate, seed); ``seed`` is anything accepted by
    ``numpy.random.default_rng``.
    """
    m = _as_matrix(cells)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"perturbation rate must lie in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    flips = rng.random(m.shape) < rate
    return m ^ flips


# The frame of each grid shape (h, w) that some graph still holds.
_FRAMES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# The graph of each weave matrix, keyed by its shape and packed cells, that someone still holds.
_GRAPHS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _grid_frame(h: int, w: int) -> _Frame:
    """The thread structure shared by every ``h`` x ``w`` grid graph: see :func:`grid_to_graph`."""
    frame = _FRAMES.get((h, w))
    if frame is None:
        node = np.arange(4 * h * w).reshape(h, w, 4)  # node index of slot s of crossing (i, j)
        nxt = np.full((h, w, 4), TERMINAL, dtype=np.int64)
        nxt[:-1, :, 1] = node[1:, :, 0]   # warp, down
        nxt[1:, :, 0] = node[:-1, :, 1]   # warp, up
        nxt[:, :-1, 3] = node[:, 1:, 2]   # weft, right
        nxt[:, 1:, 2] = node[:, :-1, 3]   # weft, left
        nxt, opp = nxt.ravel(), node.ravel() ^ 1
        nxt.flags.writeable = opp.flags.writeable = False
        frame = _FRAMES.setdefault((h, w), _Frame(nxt, opp))
    return frame


def grid_to_graph(cells) -> TextileGraph:
    """Interlace a weave matrix into a crossing graph.

    Crossing ``(i, j)`` sits at block ``4*(i*w + j)``.  Slots 0/1 hold the
    warp pair (thread running down column ``j``), slots 2/3 the weft pair
    (along row ``i``).  Slot 1 links to slot 0 of the crossing below, slot
    3 to slot 2 of the crossing to the right; grid-boundary arms terminate.
    The links depend on the shape alone, so every graph of one shape
    shares one read-only frame of ``next_node`` and ``opposite`` and its
    walk lists, for as long as any of them lives.  Graphs are immutable,
    so equal matrices share one graph, with its ``on_top`` and walk lists,
    for as long as someone holds it: ``grid_to_graph(m) is
    grid_to_graph(m.copy())``.  Every boolean matrix gives a valid graph,
    so walks skip the check.
    """
    m = _as_matrix(cells)
    key = (m.shape, np.packbits(m).tobytes())  # packbits reads a view in row-major order
    graph = _GRAPHS.get(key)
    if graph is None:
        top = np.stack([m, m, ~m, ~m], -1).ravel()
        top.flags.writeable = False
        graph = _GRAPHS.setdefault(key, TextileGraph._on_frame(_grid_frame(*m.shape), top))
    return graph
