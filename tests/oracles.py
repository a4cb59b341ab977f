"""Independent reference implementations used to cross-check the library.

These deliberately avoid the shortcuts the production code relies on: the
fingerprint oracle walks an explicit hyperedge structure with no flat-array
indexing or partner array, and the clustering oracle recomputes every
cluster distance from the original matrix at every step.  The validation
oracle checks crossing by crossing and link by link in Python loops.
"""

from statistics import fmean

import numpy as np

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
    bad_involution = (opp[opp] != idx) & (opp != idx)
    for i in idx[bad_involution]:
        out.append(f"node {i}: opposite link is not an involution (opposite({i})={opp[i]}, opposite({opp[i]})={opp[opp[i]]})")
    for i in idx[top != top[opp]]:
        out.append(f"node {i}: on_top differs from its opposite node {opp[i]}")

    tops_per_block = top.reshape(-1, 4).sum(axis=1)
    for c in np.nonzero(tops_per_block != 2)[0]:
        out.append(f"crossing {c}: top-edge count != 2 (found {tops_per_block[c]})")
    for c in range(g.crossing_count):
        if tops_per_block[c] != 2:
            continue
        block = np.arange(4 * c, 4 * c + 4)
        top_nodes = block[top[block]]
        if opp[top_nodes[0]] != top_nodes[1]:
            out.append(f"crossing {c}: top nodes {top_nodes[0]} and {top_nodes[1]} are not opposite partners")

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


def naive_average_precision(ranked, relevant):
    """AP by literal prefix enumeration."""
    precisions = []
    for position in range(1, len(ranked) + 1):
        if ranked[position - 1] in relevant:
            prefix = ranked[:position]
            precisions.append(sum(1 for x in prefix if x in relevant) / position)
    return sum(precisions) / len(relevant)


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
    from weftprint.evaluation import rank_for_query

    by_category = {}
    for item, category in labels.items():
        by_category.setdefault(category, set()).add(item)
    precision_rows, f_rows, aps = [], [], []
    for query in dm.ids:
        relevant = by_category[labels[query]] - {query}
        if not relevant:
            continue
        ranked = rank_for_query(dm, query)
        interp = naive_interpolated_precision(ranked, relevant, levels)
        precision_rows.append(interp)
        f_rows.append([2 * p * r / (p + r) if p + r > 0 else 0.0 for p, r in zip(interp, levels)])
        aps.append(naive_average_precision(ranked, relevant))
    n = len(precision_rows)
    avg = lambda rows: [sum(col) / n for col in zip(*rows)]
    return avg(precision_rows), avg(f_rows), sum(aps) / n
