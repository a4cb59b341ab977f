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

import numpy as np

from .graph import TERMINAL, TextileGraph, _vouch


def _as_matrix(cells) -> np.ndarray:
    m = np.asarray(cells, dtype=bool)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"weave matrix must be 2-D and non-empty, got shape {m.shape}")
    return m


def _check_dims(w, h):
    if w < 1 or h < 1:
        raise ValueError(f"grid dimensions must be >= 1, got w={w}, h={h}")


def plain_weave(w: int, h: int) -> np.ndarray:
    return twill_weave(1, 1, w, h)


def twill_weave(over: int, under: int, w: int, h: int) -> np.ndarray:
    """m-over/n-under diagonal: row i is row 0 shifted right by i columns."""
    _check_dims(w, h)
    if over < 1 or under < 1:
        raise ValueError(f"twill counts must be >= 1, got {over}/{under}")
    i, j = np.indices((h, w))
    return (j - i) % (over + under) < over


def satin_weave(period: int, step: int, w: int, h: int) -> np.ndarray:
    """One raiser per period and row, advancing by ``step`` columns per row.

    ``step`` must be coprime with ``period`` and neither 1 nor period-1,
    so raisers never touch and every offset is visited.
    """
    _check_dims(w, h)
    if period < 5:
        raise ValueError(f"satin period must be >= 5, got {period}")
    if not 1 < step < period - 1:
        raise ValueError(f"satin step must satisfy 1 < step < period-1, got {step}")
    if math.gcd(step, period) != 1:
        raise ValueError(f"satin step {step} must be coprime with period {period}")
    i, j = np.indices((h, w))
    return j % period == (i * step) % period


def warp_above_weave(w: int, h: int) -> np.ndarray:
    _check_dims(w, h)
    return np.ones((h, w), dtype=bool)


def random_weave(density: float, w: int, h: int, seed) -> np.ndarray:
    """Independent Bernoulli(density) cell coin from a seeded generator."""
    _check_dims(w, h)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    return rng.random((h, w)) < density


def mixed_weave(block: int, pool: int, w: int, h: int, pool_seed, choice_seed) -> np.ndarray:
    """Mosaic of ``block``-sized squares picked from ``pool`` random motifs.

    The motif pool depends only on ``pool_seed``; which motif lands where
    depends only on ``choice_seed``.  Mosaics built from one pool share
    whole regions, so they stay mutually recognizable while differing
    globally -- unlike fully independent random matrices.
    """
    _check_dims(w, h)
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    if pool < 1:
        raise ValueError(f"motif pool size must be >= 1, got {pool}")
    pool_rng = np.random.default_rng(pool_seed)
    motifs = [pool_rng.random((block, block)) < 0.5 for _ in range(pool)]
    choice_rng = np.random.default_rng(choice_seed)
    blocks_down = -(-h // block)
    blocks_across = -(-w // block)
    rows = [
        np.hstack([motifs[int(choice_rng.integers(pool))] for _ in range(blocks_across)])
        for _ in range(blocks_down)
    ]
    return np.vstack(rows)[:h, :w]


_KIND_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def parse_kind(kind: str) -> tuple[str, list[str]]:
    """Split a kind string like ``twill(2,1)`` into name and argument list."""
    m = _KIND_RE.match(kind)
    if not m:
        raise ValueError(f"unparseable weave kind {kind!r}")
    argtext = m.group(2)
    return m.group(1), [a.strip() for a in argtext.split(",")] if argtext else []


def weave_matrix(kind: str, w: int, h: int, seed=None) -> np.ndarray:
    """Build a matrix from a kind string such as ``twill(2,1)`` or ``random(0.5)``.

    Recognized kinds: ``plain``, ``twill(m,n)``, ``satin(period,step)``,
    ``warp_above``, ``random(density)``, ``mixed(block,pool)``.  The
    stochastic kinds require ``seed``; for ``mixed`` the motif pool and
    the placements both derive from it, so use :func:`mixed_weave`
    directly to share one pool across several mosaics.
    """
    name, args = parse_kind(kind)
    if name == "plain":
        _expect_args(kind, args, 0)
        return plain_weave(w, h)
    if name == "twill":
        _expect_args(kind, args, 2)
        return twill_weave(int(args[0]), int(args[1]), w, h)
    if name == "satin":
        _expect_args(kind, args, 2)
        return satin_weave(int(args[0]), int(args[1]), w, h)
    if name == "warp_above":
        _expect_args(kind, args, 0)
        return warp_above_weave(w, h)
    if name == "random":
        _expect_args(kind, args, 1)
        if seed is None:
            raise ValueError("random weave needs a seed")
        return random_weave(float(args[0]), w, h, seed)
    if name == "mixed":
        _expect_args(kind, args, 2)
        if seed is None:
            raise ValueError("mixed weave needs a seed")
        pool_seed, choice_seed = np.random.SeedSequence(_seed_entropy(seed)).spawn(2)
        return mixed_weave(int(args[0]), int(args[1]), w, h, pool_seed, choice_seed)
    raise ValueError(f"unknown weave kind {name!r}")


def _seed_entropy(seed):
    return seed.entropy if isinstance(seed, np.random.SeedSequence) else seed


def _expect_args(kind, args, count):
    if len(args) != count:
        raise ValueError(f"weave kind {kind!r} takes {count} parameter(s), got {len(args)}")


TRANSFORM_OPS = ("rotate90", "rotate180", "mirror")


def rotate90(cells) -> np.ndarray:
    # Warp and weft swap families, so the over/under bit flips.
    m = _as_matrix(cells)
    return ~m.T[::-1]


def rotate180(cells) -> np.ndarray:
    return _as_matrix(cells)[::-1, ::-1]


def mirror(cells) -> np.ndarray:
    return _as_matrix(cells)[:, ::-1]


def transform(cells, op: str) -> np.ndarray:
    if op == "rotate90":
        return rotate90(cells)
    if op == "rotate180":
        return rotate180(cells)
    if op == "mirror":
        return mirror(cells)
    raise ValueError(f"unknown transform {op!r}, expected one of {TRANSFORM_OPS}")


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


def grid_to_graph(cells) -> TextileGraph:
    """Interlace a weave matrix into a crossing graph.

    Crossing ``(i, j)`` sits at block ``4*(i*w + j)``.  Slots 0/1 hold the
    warp pair (thread running down column ``j``), slots 2/3 the weft pair
    (along row ``i``).  Slot 1 links to slot 0 of the crossing below, slot
    3 to slot 2 of the crossing to the right; grid-boundary arms terminate.
    Every boolean matrix gives a valid graph, so walks skip the check.
    """
    m = _as_matrix(cells)
    h, w = m.shape
    n = h * w
    block = 4 * np.arange(n).reshape(h, w)

    nxt = np.full(4 * n, TERMINAL, dtype=np.int64)
    top = np.empty(4 * n, dtype=np.bool_)
    opp = np.empty(4 * n, dtype=np.int64)

    flat = m.reshape(-1)
    top[0::4] = flat
    top[1::4] = flat
    top[2::4] = ~flat
    top[3::4] = ~flat

    base = 4 * np.arange(n)
    opp[0::4] = base + 1
    opp[1::4] = base
    opp[2::4] = base + 3
    opp[3::4] = base + 2

    if h > 1:
        upper = block[:-1, :] + 1   # warp slot 1 of (i, j)
        lower = block[1:, :]        # warp slot 0 of (i+1, j)
        nxt[upper.reshape(-1)] = lower.reshape(-1)
        nxt[lower.reshape(-1)] = upper.reshape(-1)
    if w > 1:
        left = block[:, :-1] + 3    # weft slot 3 of (i, j)
        right = block[:, 1:] + 2    # weft slot 2 of (i, j+1)
        nxt[left.reshape(-1)] = right.reshape(-1)
        nxt[right.reshape(-1)] = left.reshape(-1)

    return _vouch(TextileGraph(nxt, top, opp))
