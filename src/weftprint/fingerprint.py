"""k-neighborhood fingerprints of crossing graphs.

From every crossing, each of the four arms is walked up to ``k`` crossings
along its thread, collecting one connection label per step ('A'
alternating, 'N' non-alternating, 'T' terminated).  A walk stops at a
thread end and the remaining positions are padded.  The four length-k
label strings are grouped into the top-thread pair and the bottom-thread
pair; both the arms within a pair and the two pairs themselves are
unordered, which is what makes fingerprints blind to rotation and
mirroring of the source pattern.

A neighborhood is kept as one canonical string ``'<arm>,<arm>;<arm>,<arm>'``
under the label order A < N < T < pad: arms sorted within each pair, pairs
sorted by their arms.  Internally the pad symbol is ``'_'``, whose ASCII
position makes plain string comparison realize exactly that order; the
on-disk ``.fp`` format writes the pad as ``'0'``.

The fingerprint of a graph is the multiset of its crossing neighborhoods,
kept sparse as a ``Counter``: real weaves use a tiny fraction of the
possible neighborhoods.  Extraction is a single pass over the flat node
array, O(n*k) for n crossings; the hot loop walks arms as base-4 label
integers, and each distinct arm is decoded to its label string once per
call.  Walks raise :class:`~weftprint.graph.InvalidGraphError` on a graph
that breaks the model: the graph module checks each graph before its first.
"""

from __future__ import annotations

import re
from collections import Counter

from . import textio
from .graph import TextileGraph

PAD = "_"
_LABEL_CHARS = "ANT" + PAD  # decode order must match the codes in the walk

#: k defaults to 4; deeper neighborhoods buy little discrimination.
DEFAULT_K = 4

# Arm label strings, e.g. "AAT_" for k=4.
ArmSequence = str
# Canonical "<arm>,<arm>;<arm>,<arm>" string, top/bottom pairs unordered.
Neighborhood = str
Fingerprint = Counter


def arm_walk(g: TextileGraph, start: int, k: int) -> ArmSequence:
    """Labels of the first ``k`` thread connections walked from ``start``.

    After a terminated connection the walk stops and the remaining
    positions hold the pad symbol.  Each step hops to the linked crossing
    and resumes at the entered thread's partner vertex.
    """
    if k < 1:
        raise ValueError(f"walk depth k must be >= 1, got {k}")
    if not 0 <= start < g.node_count:
        raise IndexError(f"node index {start} out of range for {g.node_count} nodes")
    nxt, top, opp = g._thread_arrays()
    labels = []
    cur = start
    for _ in range(k):
        j = nxt[cur]
        if j < 0:
            labels.append("T")
            break
        labels.append("A" if top[cur] != top[j] else "N")
        cur = opp[j]
    walked = "".join(labels)
    return walked if len(walked) == k else walked + PAD * (k - len(walked))


def canonical_neighborhood(pair_a, pair_b) -> Neighborhood:
    """Canonical key of two arm pairs; insensitive to any input ordering."""
    a0, a1 = pair_a
    b0, b1 = pair_b
    if len({len(a0), len(a1), len(b0), len(b1)}) != 1:
        raise ValueError("all four arms must have the same length")
    # equal lengths make comparing the joined pairs the same as comparing their arm tuples
    return ";".join(sorted([",".join(sorted((a0, a1))), ",".join(sorted((b0, b1)))]))


def crossing_neighborhood(g: TextileGraph, c: int, k: int) -> Neighborhood:
    """Canonical k-neighborhood of crossing ``c``."""
    if not 0 <= c < g.crossing_count:
        raise IndexError(f"crossing index {c} out of range for {g.crossing_count} crossings")
    b = 4 * c
    top_arms = []
    bottom_arms = []
    for i in range(b, b + 4):
        arm = arm_walk(g, i, k)
        (top_arms if g.on_top[i] else bottom_arms).append(arm)
    return canonical_neighborhood(top_arms, bottom_arms)


def fingerprint(g: TextileGraph, k: int = DEFAULT_K) -> Fingerprint:
    """Multiset of the k-neighborhoods of all crossings.

    Counts always sum to the crossing count.  Arms are walked as base-4
    label integers (A=0, N=1, T=2, pad=3 behind a leading sentinel digit),
    so comparing integers is comparing label strings; the per-crossing
    work beyond the k walk steps stays small enough that measured time
    tracks n*k.  A thread end fills the pads with one shift and each
    distinct arm is decoded once, two bits per label: time and memory are
    linear in k for every k, except that an arm taking s steps (round a
    closed thread, say) grows its integer one label per step, in time
    quadratic in s with a small constant.  Keys keep first-crossing order.
    """
    if k < 1:
        raise ValueError(f"walk depth k must be >= 1, got {k}")
    nxt, top, opp = g._thread_arrays()
    keys = []
    append = keys.append
    # The four walks are unrolled by hand and counting is batched at the
    # end: per-crossing loop, list and dict traffic would otherwise rival
    # the per-step cost and break the time-proportional-to-k behavior
    # this routine is measured against.
    for b in range(0, len(nxt), 4):
        cur = b
        arm = 1
        left = k
        while left:
            j = nxt[cur]
            if j < 0:
                arm = (arm * 4 + 3 << 2 * left - 2) - 1  # T digit, then pads: (4*arm + 3) * 4**(left - 1) - 1
                break
            arm = arm * 4 + (0 if top[cur] != top[j] else 1)
            cur = opp[j]
            left -= 1
        w0 = arm
        cur = b + 1
        arm = 1
        left = k
        while left:
            j = nxt[cur]
            if j < 0:
                arm = (arm * 4 + 3 << 2 * left - 2) - 1
                break
            arm = arm * 4 + (0 if top[cur] != top[j] else 1)
            cur = opp[j]
            left -= 1
        w1 = arm
        cur = b + 2
        arm = 1
        left = k
        while left:
            j = nxt[cur]
            if j < 0:
                arm = (arm * 4 + 3 << 2 * left - 2) - 1
                break
            arm = arm * 4 + (0 if top[cur] != top[j] else 1)
            cur = opp[j]
            left -= 1
        w2 = arm
        cur = b + 3
        arm = 1
        left = k
        while left:
            j = nxt[cur]
            if j < 0:
                arm = (arm * 4 + 3 << 2 * left - 2) - 1
                break
            arm = arm * 4 + (0 if top[cur] != top[j] else 1)
            cur = opp[j]
            left -= 1
        # The partner of slot 0 fixes the same-thread pairing; which pair
        # is the top thread is irrelevant because the canonical form
        # orders the pairs itself.
        off = opp[b] - b
        if off == 1:
            a0 = w0
            a1 = w1
            b0 = w2
            b1 = arm
        elif off == 2:
            a0 = w0
            a1 = w2
            b0 = w1
            b1 = arm
        else:
            a0 = w0
            a1 = arm
            b0 = w1
            b1 = w2
        if a0 > a1:
            a0, a1 = a1, a0
        if b0 > b1:
            b0, b1 = b1, b0
        if a0 > b0 or (a0 == b0 and a1 > b1):
            append((b0, b1, a0, a1))
        else:
            append((a0, a1, b0, b1))
    # Key order is part of the output: the distance kernel sums in it.
    counts = Counter(keys)
    text = {arm: _decode_arm(arm) for arm in set().union(*counts)}
    return Counter({
        f"{text[a0]},{text[a1]};{text[b0]},{text[b1]}": count
        for (a0, a1, b0, b1), count in counts.items()
    })


def _decode_arm(arm: int) -> str:
    bits = bin(arm)[3:]  # past '0b' and the sentinel's 1: two bits per label
    return "".join([_LABEL_CHARS[int(bits[i:i + 2], 2)] for i in range(0, len(bits), 2)])


def _walk_each_once(keys, walk) -> list[Fingerprint]:
    """One fingerprint per key, where ``walk`` runs once, over the first position of each distinct key.

    ``walk`` takes those positions in input order and returns their
    fingerprints in that order.  Each repeat gets its own ``Counter`` copy
    of its first's, with equal items in equal key order.  Equal keys must
    mean equal fingerprints, or equal errors: a key fails at its first
    position, so the error raised is that of the first failing position.
    ``keys`` may be a generator; only the distinct keys are kept.
    """
    first: dict = {}
    at = [first.setdefault(key, i) for i, key in enumerate(keys)]
    walked = dict(zip(first.values(), walk(list(first.values()))))
    return [walked[j] if i == j else Counter(walked[j]) for i, j in enumerate(at)]


# --- .fp text format -------------------------------------------------------
#
# One line per neighborhood, '<key> <count>', lines sorted by key.  Key
# syntax: arms as k-character strings over {A, N, T, 0}, arms joined by ','
# within a pair, pairs joined by ';', e.g. 'AA,T0;AN,NT' for k=2.  An arm
# is a walk: A/N steps, then at most one T and only pads after it.

_TO_FILE = str.maketrans(PAD, "0")
_FROM_FILE = str.maketrans("0", PAD)
_FILE_ARM = re.compile(r"[AN]*(?:T0*)?")
_ARM = r"([AN]*(?:T_*)?)"  # an in-memory arm, padded with '_'
_KEY = re.compile(f"{_ARM},{_ARM};{_ARM},{_ARM}")


def format_neighborhood(nb: Neighborhood) -> str:
    return nb.translate(_TO_FILE)


def parse_neighborhood(key: str) -> Neighborhood:
    parts = key.split(";")
    if len(parts) != 2:
        raise ValueError(f"neighborhood key must have two ';'-joined pairs: {textio.shown(key)}")
    pairs = []
    for part in parts:
        arms = part.split(",")
        if len(arms) != 2:
            raise ValueError(f"each pair must have two ','-joined arms: {textio.shown(key)}")
        pairs.append(arms)
    arms = pairs[0] + pairs[1]
    if len({len(a) for a in arms}) != 1 or not arms[0]:
        raise ValueError(f"arms must share one positive length: {textio.shown(key)}")
    for a in arms:
        if not _FILE_ARM.fullmatch(a):
            raise ValueError(f"arm {textio.shown(a)} is not a walk [AN]*(T0*)?: "
                             "A/N steps, then at most one T and only 0 pads")
    decoded = [a.translate(_FROM_FILE) for a in arms]
    return canonical_neighborhood(decoded[:2], decoded[2:])


def fingerprint_to_text(fp: Fingerprint) -> str:
    """``.fp`` text of ``fp``; refuses every key and count that :func:`text_to_fingerprint` would not read back."""
    for nb, count in fp.items():
        if type(count) is not int or count < 1:  # a bool is not an int here
            raise ValueError(f"count of {textio.shown(str(nb))} must be an int >= 1, got {count!r}")
        m = _KEY.fullmatch(nb) if isinstance(nb, str) else None
        a0, a1, b0, b1 = m.groups() if m else ("",) * 4
        if not (0 < len(a0) == len(a1) == len(b0) == len(b1) and a0 <= a1 and b0 <= b1 and (a0, a1) <= (b0, b1)):
            raise ValueError(f"neighborhood {textio.shown(str(nb))} is not canonical: four walks of one length, "
                             "sorted within each pair and pair by pair")
    depths = {(len(nb) - 3) // 4 for nb in fp}
    if len(depths) > 1:
        raise ValueError(f"neighborhoods of depths {sorted(depths)} in one fingerprint")
    lines = sorted(f"{format_neighborhood(nb)} {count}" for nb, count in fp.items())
    return "\n".join(lines) + "\n" if lines else ""


def text_to_fingerprint(text: str) -> Fingerprint:
    """Parse ``.fp`` text; lines and fields follow the :mod:`textio` rule, and errors carry their line and column."""
    fp: Counter = Counter()
    first_line = {}
    key_length = None
    for lineno, raw, line in textio.significant_lines(text):
        fields = textio.fields(raw)
        if len(fields) != 2:
            raise textio.GraphParseError(f"expected '<key> <count>', got {textio.shown(line)}", lineno)
        (key_token, key_col), (count_token, count_col) = fields
        count = textio.int_field(count_token, lineno, count_col, "count")
        if count < 1:
            raise textio.GraphParseError(f"count must be >= 1, got {count}", lineno, count_col)
        try:
            key = parse_neighborhood(key_token)
        except ValueError as exc:
            raise textio.GraphParseError(str(exc), lineno, key_col) from None
        if key_length is None:
            key_length = len(key)
        elif len(key) != key_length:
            raise textio.GraphParseError("neighborhood depth differs from earlier lines", lineno, key_col)
        if key in first_line:
            raise textio.GraphParseError(f"neighborhood {textio.shown(key_token)} repeats line {first_line[key]}",
                                         lineno, key_col)
        first_line[key] = lineno
        fp[key] = count
    return fp


def save_fingerprint(fp: Fingerprint, path) -> None:
    textio.write_text(path, fingerprint_to_text(fp))  # refuses before the file is made


def load_fingerprint(path) -> Fingerprint:
    return textio.load(path, text_to_fingerprint)
