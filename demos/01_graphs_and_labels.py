"""Crossing graphs: the flat-array model, validation, and connection labels.

A woven fabric is a set of crossings; each crossing stores four vertices in
consecutive array slots.  This script builds the smallest graphs by hand,
shows what the validator catches, shows that a broken graph cannot be
walked, and reads the three connection labels.
"""

import numpy as np

from weftprint import (
    TERMINAL,
    InvalidGraphError,
    TextileGraph,
    edge_label,
    fingerprint,
    parse_graph,
    serialize_graph,
    validate,
)

# One crossing, four thread ends.  Columns: next, on_top, opposite.
one = TextileGraph(
    next_node=np.array([TERMINAL, TERMINAL, TERMINAL, TERMINAL]),
    on_top=np.array([True, True, False, False]),
    opposite=np.array([1, 0, 3, 2]),
)
print("single crossing:", one, "valid:", validate(one).ok)

# Every arm ends immediately, so every connection label is T.
print("labels:", [edge_label(one, i).value for i in range(4)])

# The graph survives a text round trip bit-exactly.
text = serialize_graph(one)
print("\n.tg form:")
print(text)
assert parse_graph(text) == one

# The validator names each broken rule.  Here: three top vertices.
broken = TextileGraph(
    next_node=np.array([TERMINAL] * 4),
    on_top=np.array([True, True, True, False]),
    opposite=np.array([1, 0, 3, 2]),
)
report = validate(broken)
print("broken graph violations:")
for violation in report.violations:
    print("  -", violation)

# Building a broken graph is allowed, so validate can report on it, but
# walking it is not: the first walk runs validate and raises.  Graphs from
# parse_graph and grid_to_graph were checked when made and skip this.
try:
    fingerprint(broken, 2)
except InvalidGraphError as exc:
    print("fingerprint(broken, 2) raises:", exc)
else:
    raise AssertionError("a broken graph was walked")

# Two crossings joined on all four arms make a closed structure with no
# thread ends at all; the model allows it.
loop = TextileGraph(
    next_node=np.array([4, 5, 6, 7, 0, 1, 2, 3]),
    on_top=np.array([True, True, False, False, True, True, False, False]),
    opposite=np.array([1, 0, 3, 2, 5, 4, 7, 6]),
)
print("closed loop valid:", validate(loop).ok)
print("closed loop labels:", sorted({edge_label(loop, i).value for i in range(8)}))
