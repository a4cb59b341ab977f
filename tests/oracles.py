"""Independent reference implementations used to cross-check the library.

These deliberately avoid the shortcuts the production code relies on: the
fingerprint oracle walks an explicit hyperedge structure with no flat-array
indexing or partner array, and the clustering oracle recomputes every
cluster distance from the original matrix at every step.  The validation
oracle checks crossing by crossing and link by link in Python loops, and
the pair-counting oracle enumerates every unordered pair of items.  The
distance-CSV oracle writes row by row through ``csv.writer``, one cell
formatted at a time.  The grid oracle lays out one crossing at a time.
The corpus-spec oracle reads through ``configparser``.  The arm-code
oracle peels one base-4 digit per ``divmod``.  The mosaic oracle draws
one motif at a time and stacks the picked blocks.
"""

import configparser
import csv
import io
from itertools import combinations

from statistics import fmean

import numpy as np

from weftprint.corpus import CategorySpec, CorpusSpec
from weftprint.fingerprint import PAD
from weftprint.graph import TERMINAL


def explicit_hypergraph(g):
    """Expand a flat-array graph into explicit hyperedge structures."""
    crossings = [list(range(4 * c, 4 * c + 4)) for c in range(g.crossing_count)]
    member_of = {node: ci for ci, nodes in enumerate(crossings) for node in nodes}
    top_nodes = {i for i in range(g.node_count) if g.on_top[i]}
    links = {}
    for i in range(g.node_count):
        j = int(g.next_node[i])
        links[i] = None if j < 0 else j
    return crossings, member_of, top_nodes, links


def _counterpart(crossings, member_of, top_nodes, node):
    # Same crossing, same level, different node: the thread's other vertex.
    for other in crossings[member_of[node]]:
        if other != node and (other in top_nodes) == (node in top_nodes):
            return other
    raise AssertionError(f"no counterpart for node {node}")


def naive_arm_walk(structures, start, k):
    crossings, member_of, top_nodes, links = structures
    labels = []
    cur = start
    for _ in range(k):
        nxt = links[cur]
        if nxt is None:
            labels.append("T")
            break
        if (cur in top_nodes) != (nxt in top_nodes):
            labels.append("A")
        else:
            labels.append("N")
        cur = _counterpart(crossings, member_of, top_nodes, nxt)
    return "".join(labels).ljust(k, PAD)


def naive_fingerprint(g, k):
    """Multiset of neighborhoods via the explicit-structure walk."""
    from collections import Counter

    structures = explicit_hypergraph(g)
    crossings, _, top_nodes, _ = structures
    counts = Counter()
    for nodes in crossings:
        arms = {node: naive_arm_walk(structures, node, k) for node in nodes}
        top_pair = sorted(arms[n] for n in nodes if n in top_nodes)
        bottom_pair = sorted(arms[n] for n in nodes if n not in top_nodes)
        assert len(top_pair) == 2 and len(bottom_pair) == 2
        pairs = sorted([top_pair, bottom_pair])
        counts[f"{pairs[0][0]},{pairs[0][1]};{pairs[1][0]},{pairs[1][1]}"] += 1
    return counts


def digit_loop_decode_arm(arm, k):
    """Label string of a base-4 arm code (A=0, N=1, T=2, pad=3), last digit first."""
    chars = []
    for _ in range(k):
        arm, digit = divmod(arm, 4)
        chars.append(("ANT" + PAD)[digit])
    return "".join(reversed(chars))


def naive_validate(g):
    """Violations tuple of ``graph.validate``, one crossing and one link at a time."""
    out = []
    size = g.node_count
    if size == 0 or size % 4 != 0:
        out.append(f"node count {size} is not a positive multiple of four")
        return tuple(out)

    nxt, top, opp = g.next_node, g.on_top, g.opposite
    idx = np.arange(size)

    for i in idx[(opp < 0) | (opp >= size)]:
        out.append(f"node {i}: opposite index {opp[i]} out of range")
    if out:
        return tuple(out)

    for i in idx[opp == idx]:
        out.append(f"node {i}: opposite link points at itself")
    for i in idx[opp // 4 != idx // 4]:
        out.append(f"node {i}: opposite node {opp[i]} lies in a different crossing")
    for i in idx[top != top[opp]]:
        out.append(f"node {i}: on_top differs from its opposite node {opp[i]}")
    for c in range(g.crossing_count):
        found = int(top[4 * c:4 * c + 4].sum())
        if found != 2:
            out.append(f"crossing {c}: top-edge count != 2 (found {found})")

    out_of_range = (nxt < TERMINAL) | (nxt >= size)
    for i in idx[out_of_range]:
        out.append(f"node {i}: next index {nxt[i]} out of range")
    linked = ~out_of_range & (nxt != TERMINAL)
    for i in idx[linked & (nxt // 4 == idx // 4)]:
        out.append(f"node {i}: thread link stays inside its own crossing")
    for i in idx[linked]:
        j = nxt[i]
        if 0 <= j < size and nxt[j] != i:
            out.append(f"node {i}: asymmetric thread link (next({i})={j}, next({j})={nxt[j]})")

    return tuple(out)


def implied_partner_violations(g):
    """The involution and top-partner rules, which ``graph.validate`` leaves out, node by node.

    The rules it keeps imply both; tests use these two to show that leaving
    them out refuses no fewer graphs.  Like ``validate``, they are not run
    on a graph whose size or opposite indices are already refused.
    """
    size = g.node_count
    opp, top = g.opposite.tolist(), g.on_top.tolist()
    if size == 0 or size % 4 != 0 or not all(0 <= j < size for j in opp):
        return ()
    out = []
    for i, j in enumerate(opp):
        if j != i and opp[j] != i:
            out.append(f"node {i}: opposite link is not an involution")
    for c in range(g.crossing_count):
        tops = [i for i in range(4 * c, 4 * c + 4) if top[i]]
        if len(tops) == 2 and opp[tops[0]] != tops[1]:
            out.append(f"crossing {c}: top nodes {tops[0]} and {tops[1]} are not opposite partners")
    return tuple(out)


def loop_grid_arrays(cells):
    """``(next, top, opposite)`` of ``grid_to_graph(cells)``, built one crossing at a time.

    Crossing ``(i, j)`` owns nodes ``b .. b+3`` with ``b = 4*(i*w + j)``:
    slot 0 links up, slot 1 down, slot 2 left and slot 3 right, to the
    facing slot of the neighbouring crossing, or ends at the grid's edge.
    """
    m = np.asarray(cells, dtype=bool)
    h, w = m.shape
    nxt, top, opp = [], [], []
    for i in range(h):
        for j in range(w):
            b = 4 * (i * w + j)
            nxt += [
                b - 4 * w + 1 if i > 0 else TERMINAL,
                b + 4 * w if i < h - 1 else TERMINAL,
                b - 4 + 3 if j > 0 else TERMINAL,
                b + 4 + 2 if j < w - 1 else TERMINAL,
            ]
            top += [bool(m[i, j])] * 2 + [not m[i, j]] * 2
            opp += [b + 1, b, b + 3, b + 2]
    return np.array(nxt, dtype=np.int64), np.array(top, dtype=np.bool_), np.array(opp, dtype=np.int64)


def per_motif_mixed_weave(block, pool, w, h, pool_seed, choice_seed):
    """``mixed_weave``'s mosaic with one pool draw per motif, stacked block by block."""
    pool_rng = np.random.default_rng(pool_seed)
    motifs = [pool_rng.random((block, block)) < 0.5 for _ in range(pool)]
    choice_rng = np.random.default_rng(choice_seed)
    rows = [
        np.hstack([motifs[int(choice_rng.integers(pool))] for _ in range(-(-w // block))])
        for _ in range(-(-h // block))
    ]
    return np.vstack(rows)[:h, :w]


_SPEC_TYPES = {"kind": str, "count": int, "width": int, "height": int,
               "perturb_fraction": float, "perturb_rate": float, "transform_fraction": float, "seed": int}


def configparser_corpus_spec(text):
    """The ``CorpusSpec`` of spec ``text`` as ``configparser`` reads it.

    Only for texts in the documented grammar: on others ``configparser``
    follows rules of its own (``[DEFAULT]``, ``:``, continuation lines).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    categories = [CategorySpec(name, **{key: _SPEC_TYPES[key](value) for key, value in parser[name].items()})
                  for name in parser.sections() if name != "corpus"]
    return CorpusSpec(tuple(categories), seed=parser.getint("corpus", "seed", fallback=0))


def naive_upgma_merges(dm):
    """Merge sequence recomputing the mean pairwise distance from scratch.

    Clusters are represented by their smallest original index; ties break
    on the smallest (rep_i, rep_j) pair.
    """
    base = dm.values
    clusters = {i: [i] for i in range(len(dm.ids))}
    merges = []
    while len(clusters) > 1:
        best = None
        for ri in sorted(clusters):
            for rj in sorted(clusters):
                if rj <= ri:
                    continue
                dist = fmean(base[a, b] for a in clusters[ri] for b in clusters[rj])
                if best is None or (dist, ri, rj) < best:
                    best = (dist, ri, rj)
        dist, ri, rj = best
        merges.append((ri, rj, dist))
        clusters[ri] = clusters[ri] + clusters[rj]
        del clusters[rj]
    return merges


def loop_upgma_merges(dm):
    """Merge sequence updating the upper triangle one entry at a time.

    The same size-weighted arithmetic as ``upgma_merges``, written as a
    loop over the other clusters, so merges and distances must agree bit
    for bit.  Only the upper triangle of ``dm`` is read.
    """
    n = len(dm.ids)
    d = dm.values.astype(np.float64)
    d[np.tril_indices(n)] = np.inf
    sizes = np.ones(n)
    merges = []
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(d)), n)
        merges.append((i, j, float(d[i, j])))
        wi, wj = sizes[i], sizes[j]
        for other in range(n):
            if other == i or other == j or sizes[other] == 0:
                continue
            a, b = (other, i) if other < i else (i, other)
            aj, bj = (other, j) if other < j else (j, other)
            d[a, b] = (wi * d[a, b] + wj * d[aj, bj]) / (wi + wj)
        sizes[i] = wi + wj
        sizes[j] = 0
        d[j, :] = np.inf
        d[:, j] = np.inf
    return merges


def naive_pair_scores(predicted, truth):
    """``(tp, tn, fp, fn)`` by enumerating every unordered pair of ids."""
    pred, true = predicted.assignment, truth.assignment
    tp = tn = fp = fn = 0
    for a, b in combinations(sorted(pred), 2):
        same_pred = pred[a] == pred[b]
        same_true = true[a] == true[b]
        if same_pred and same_true:
            tp += 1
        elif same_pred:
            fp += 1
        elif same_true:
            fn += 1
        else:
            tn += 1
    return tp, tn, fp, fn


def naive_rank(dm, query):
    """All other ids sorted by (distance from the query, id)."""
    row = dm.values[dm.ids.index(query)]
    return sorted((item for item in dm.ids if item != query), key=lambda item: (row[dm.ids.index(item)], item))


def left_sum(values):
    """Float sum added strictly left to right (``sum`` is compensated from Python 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


def naive_average_precision(ranked, relevant):
    """AP by literal prefix enumeration."""
    precisions = []
    for position in range(1, len(ranked) + 1):
        if ranked[position - 1] in relevant:
            prefix = ranked[:position]
            precisions.append(sum(1 for x in prefix if x in relevant) / position)
    return left_sum(precisions) / len(relevant)


def naive_interpolated_precision(ranked, relevant, levels):
    """Interpolated precision per level, by scanning every prefix point."""
    points = []
    for position in range(1, len(ranked) + 1):
        prefix = ranked[:position]
        hits = sum(1 for x in prefix if x in relevant)
        points.append((hits / len(relevant), hits / position))
    return [max(p for r, p in points if r >= level) for level in levels]


def naive_curves(dm, labels, levels):
    """Averaged interpolated precision/F and MAP, all by direct enumeration."""
    by_category = {}
    for item, category in labels.items():
        by_category.setdefault(category, set()).add(item)
    precision_rows, f_rows, aps = [], [], []
    for query in dm.ids:
        relevant = by_category[labels[query]] - {query}
        if not relevant:
            continue
        ranked = naive_rank(dm, query)
        interp = naive_interpolated_precision(ranked, relevant, levels)
        precision_rows.append(interp)
        f_rows.append([2 * p * r / (p + r) if p + r > 0 else 0.0 for p, r in zip(interp, levels)])
        aps.append(naive_average_precision(ranked, relevant))
    n = len(precision_rows)
    avg = lambda rows: [left_sum(col) / n for col in zip(*rows)]
    return avg(precision_rows), avg(f_rows), left_sum(aps) / n


def format_distance(x, whole):
    """One distance cell: unpadded in a matrix of whole cells, else with 12 significant digits."""
    if whole:
        return str(int(x))
    return format(x, ".12g")


def csv_written(dm):
    """Distance CSV text through ``csv.writer`` and ``format_distance``, cell by cell.

    Each row is written with a CR LF end, so that a CR in an id is quoted
    as an LF is, and then ends with LF alone.
    """
    whole = all(float(x).is_integer() for x in dm.values.flat)
    rows = [["id", *dm.ids]]
    rows += [[row_id, *(format_distance(x, whole) for x in dm.values[i])] for i, row_id in enumerate(dm.ids)]
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)
