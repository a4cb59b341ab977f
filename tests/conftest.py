import numpy as np
import pytest

from weftprint.corpus import CategorySpec, CorpusSpec, generate_corpus
from weftprint.distance import corpus_stats, distance_matrix
from weftprint.pipeline import corpus_fingerprints

# The desk-scale study corpus: 9 categories x 20 samples on 24x24 grids,
# each category 10 clean + 5 perturbed (rate 0.03) + 5 rotated/mirrored.
DESK_SCALE_KINDS = (
    ("plain", "plain"),
    ("twill-2-1", "twill(2,1)"),
    ("twill-2-2", "twill(2,2)"),
    ("twill-3-1", "twill(3,1)"),
    ("twill-3-3", "twill(3,3)"),
    ("twill-4-4", "twill(4,4)"),
    ("satin-5-2", "satin(5,2)"),
    ("warp-above", "warp_above"),
    ("random-mixed", "mixed(8,2)"),
)


# Corpus specs whose numbers int() or float() would take, whose integers have more digits
# than int() reads (sys.get_int_max_str_digits()), or whose kind arguments pass the int64
# arithmetic of their generator, and the message each is refused with; a value past 40
# characters is echoed cut short.
DIGITS_5000 = "1" * 5000
ONES_4000 = "1" * 4000
MISSPELLED_SPECS = [
    ("[corpus]\nseed = 1_0\n\n[a]\nkind = plain\n", r"section 'corpus': seed: '1_0' is not an integer"),
    ("[a]\nkind = plain\ncount = \u0663\n", r"category 'a': count: '\u0663' is not an integer"),
    ("[a]\nkind = plain\ncount = abc\n", r"category 'a': count: 'abc' is not an integer"),
    ("[a]\nkind = plain\nwidth = 1.0\n", r"category 'a': width: '1.0' is not an integer"),
    ("[a]\nkind = plain\nseed = 0x10\n", r"category 'a': seed: '0x10' is not an integer"),
    ("[a]\nkind = plain\nperturb_rate = 1_0e-2\n", r"category 'a': perturb_rate: '1_0e-2' is not a decimal number"),
    ("[a]\nkind = plain\ntransform_fraction = \u0660.5\n",
     r"category 'a': transform_fraction: '\u0660.5' is not a decimal number"),
    ("[a]\nkind = twill(\u0662,1)\n", r"weave kind 'twill\(\u0662,1\)': '\u0662' is not an integer"),
    ("[a]\nkind = random(1_0)\n", r"weave kind 'random\(1_0\)': '1_0' is not a decimal number"),
    pytest.param(f"[a]\nkind = plain\ncount = {DIGITS_5000}\n",
                 r"category 'a': count: integer has too many digits: 5000", id="count-past-digit-limit"),
    pytest.param(f"[a]\nkind = twill({DIGITS_5000},1)\n",
                 r"weave kind 'twill\(11111111111111'… \(5009 characters\): integer has too many digits: 5000",
                 id="kind-past-digit-limit"),
    pytest.param(f"[a]\nkind = plain\ncount = {'x' * 5000}\n",
                 r"category 'a': count: 'xxxxxxxxxxxxxxxxxxxx'… \(5000 characters\) is not an integer",
                 id="long-count"),
    pytest.param(f"[a]\nkind = twill({ONES_4000},1)\n",
                 r"category 'a': weave kind 'twill\(11111111111111'… \(4009 characters\): "
                 r"twill counts must sum to less than 2\*\*63", id="twill-over-past-int64"),
    pytest.param(f"[a]\nkind = twill(1,{ONES_4000})\n",
                 r"category 'a': weave kind 'twill\(1,111111111111'… \(4009 characters\): "
                 r"twill counts must sum to less than 2\*\*63", id="twill-under-past-int64"),
    pytest.param("[a]\nkind = satin(9223372036854775809,2)\n",
                 r"category 'a': weave kind 'satin\(9223372036854775809,2\)': satin period must be less than 2\*\*63",
                 id="satin-period-past-int64"),
    pytest.param(f"[a]\nkind = satin(5,{ONES_4000})\n",
                 r"category 'a': weave kind 'satin\(5,111111111111'… \(4009 characters\): "
                 r"satin step must satisfy 1 < step < period-1, got '11111111111111111111'… \(4000 characters\)",
                 id="satin-step-echoed-cut-short"),
]


def desk_scale_spec(seed=7) -> CorpusSpec:
    categories = tuple(
        CategorySpec(
            name=name,
            kind=kind,
            count=20,
            width=24,
            height=24,
            perturb_fraction=0.25,
            perturb_rate=0.03,
            transform_fraction=0.25,
            seed=seed + position,
        )
        for position, (name, kind) in enumerate(DESK_SCALE_KINDS)
    )
    return CorpusSpec(categories, seed=seed)


def desk_scale_config_text(seed=7) -> str:
    lines = [f"[corpus]\nseed = {seed}\n"]
    for position, (name, kind) in enumerate(DESK_SCALE_KINDS):
        lines.append(
            f"[{name}]\n"
            f"kind = {kind}\n"
            "count = 20\n"
            "width = 24\n"
            "height = 24\n"
            "perturb_fraction = 0.25\n"
            "perturb_rate = 0.03\n"
            "transform_fraction = 0.25\n"
            f"seed = {seed + position}\n"
        )
    return "\n".join(lines)


@pytest.fixture(scope="session")
def desk_corpus():
    return generate_corpus(desk_scale_spec())


@pytest.fixture(scope="session")
def desk_labels(desk_corpus):
    return {item.id: item.category for item in desk_corpus}


@pytest.fixture(scope="session")
def desk_fingerprints(desk_corpus):
    """{k: (ids, fingerprints)} for the k values the acceptance criteria use."""
    return {k: corpus_fingerprints(desk_corpus, k) for k in (4, 6)}


@pytest.fixture(scope="session")
def desk_matrices(desk_fingerprints):
    """Distance matrices reused across acceptance criteria."""
    out = {}
    for metric in ("jaccard", "hbool", "cosine"):
        ids, fps = desk_fingerprints[4]
        out[(metric, 4)] = distance_matrix(fps, metric, ids=ids)
    ids, fps = desk_fingerprints[6]
    out[("jaccard", 6)] = distance_matrix(fps, "jaccard", ids=ids)
    return out


def random_fingerprint(rng: np.random.Generator, universe=40, max_support=12, max_count=9):
    """Small random count vector; distance measures treat keys opaquely."""
    from collections import Counter

    support = int(rng.integers(1, max_support + 1))
    keys = rng.choice(universe, size=min(support, universe), replace=False)
    return Counter({f"p{key}": int(rng.integers(1, max_count + 1)) for key in keys})
