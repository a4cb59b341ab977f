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

from .graph import _DECIMAL, TextileGraph

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
    if a0 > a1:
        a0, a1 = a1, a0
    b0, b1 = pair_b
    if b0 > b1:
        b0, b1 = b1, b0
    if len({len(a0), len(a1), len(b0), len(b1)}) != 1:
        raise ValueError("all four arms must have the same length")
    if (a0, a1) > (b0, b1):
        a0, a1, b0, b1 = b0, b1, a0, a1
    return f"{a0},{a1};{b0},{b1}"


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
    tracks n*k.  Each distinct arm is decoded to its label string once
    per call, and the keys keep the order of their first crossing.
    """
    if k < 1:
        raise ValueError(f"walk depth k must be >= 1, got {k}")
    nxt, top, opp = g._thread_arrays()
    pow4 = [4 ** d for d in range(k + 1)]
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
                scale = pow4[left - 1]
                arm = (arm * 4 + 2) * scale + scale - 1  # T digit, then pads
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
                scale = pow4[left - 1]
                arm = (arm * 4 + 2) * scale + scale - 1
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
                scale = pow4[left - 1]
                arm = (arm * 4 + 2) * scale + scale - 1
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
                scale = pow4[left - 1]
                arm = (arm * 4 + 2) * scale + scale - 1
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
    text = {arm: _decode_arm(arm, k) for arm in set().union(*counts)}
    return Counter({
        f"{text[a0]},{text[a1]};{text[b0]},{text[b1]}": count
        for (a0, a1, b0, b1), count in counts.items()
    })


def _decode_arm(arm: int, k: int) -> str:
    chars = []
    for _ in range(k):
        arm, digit = divmod(arm, 4)
        chars.append(_LABEL_CHARS[digit])
    return "".join(reversed(chars))


# --- .fp text format -------------------------------------------------------
#
# One line per neighborhood, '<key> <count>', lines sorted by key.  Key
# syntax: arms as k-character strings over {A, N, T, 0}, arms joined by ','
# within a pair, pairs joined by ';', e.g. 'AA,T0;AN,NT' for k=2.  An arm
# is a walk: A/N steps, then at most one T and only pads after it.

_TO_FILE = str.maketrans(PAD, "0")
_FROM_FILE = str.maketrans("0", PAD)
_FILE_ARM = re.compile(r"[AN]*(?:T0*)?")


def format_neighborhood(nb: Neighborhood) -> str:
    return nb.translate(_TO_FILE)


def parse_neighborhood(key: str) -> Neighborhood:
    parts = key.split(";")
    if len(parts) != 2:
        raise ValueError(f"neighborhood key must have two ';'-joined pairs: {key!r}")
    pairs = []
    for part in parts:
        arms = part.split(",")
        if len(arms) != 2:
            raise ValueError(f"each pair must have two ','-joined arms: {key!r}")
        pairs.append(arms)
    arms = pairs[0] + pairs[1]
    if len({len(a) for a in arms}) != 1 or not arms[0]:
        raise ValueError(f"arms must share one positive length: {key!r}")
    for a in arms:
        if not _FILE_ARM.fullmatch(a):
            raise ValueError(f"arm {a!r} is not a walk [AN]*(T0*)?: A/N steps, then at most one T and only 0 pads")
    decoded = [a.translate(_FROM_FILE) for a in arms]
    return canonical_neighborhood(decoded[:2], decoded[2:])


def fingerprint_to_text(fp: Fingerprint) -> str:
    lines = sorted(f"{format_neighborhood(nb)} {count}" for nb, count in fp.items())
    return "\n".join(lines) + "\n" if lines else ""


def text_to_fingerprint(text: str) -> Fingerprint:
    fp: Counter = Counter()
    key_length = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<key> <count>', got {line!r}")
        if not _DECIMAL.fullmatch(fields[1]):
            raise ValueError(f"line {lineno}: count is not an integer: {fields[1]!r}")
        count = int(fields[1])
        if count < 1:
            raise ValueError(f"line {lineno}: count must be >= 1, got {count}")
        key = parse_neighborhood(fields[0])
        if key_length is None:
            key_length = len(key)
        elif len(key) != key_length:
            raise ValueError(f"line {lineno}: neighborhood depth differs from earlier lines")
        fp[key] += count
    return fp


def save_fingerprint(fp: Fingerprint, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(fingerprint_to_text(fp))


def load_fingerprint(path) -> Fingerprint:
    with open(path, "r", encoding="utf-8") as fh:
        return text_to_fingerprint(fh.read())
