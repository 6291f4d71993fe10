"""The paper's rewritings, pinned as text.

Per plan: its rule count and the sha256 of ``str(plan.ndl)`` — the
rewriting as displayed, after the Appendix A.6 simplification that
inlines leaf predicates.  The plans are ``lin``, ``log`` and ``tw`` on
the benchmark's 27 Section 6 chains (prefixes 5, 9 and 15 of each
sequence, under ``chain_cq``'s fixed variable names) and ``tw`` on its
three hardness gadgets.  Any change to a rewriter, to the display step
or to the substitution both share shows here, down to a renamed
variable; ``tests/test_witness_kernel.py`` pins the unsimplified Tw
programs up to predicate names and clause order.
"""

import hashlib

import pytest

import repro
from repro import OMQ, chain_cq
from repro.experiments import SEQUENCES
from repro.hardness import (
    dagger_tbox,
    ddagger_tbox,
    sat_query,
    tokenize,
    word_query,
)

from .helpers import example11_tbox

#: label -> (rules, first 16 hex digits of sha256(str(plan.ndl)))
PINNED = {
    "sequence1[:5]/lin": (13, "c218bc6cb09301cd"),
    "sequence1[:5]/log": (8, "6e6314a85bd66556"),
    "sequence1[:5]/tw": (7, "23cbc27e18d9eedf"),
    "sequence1[:9]/lin": (23, "b0c1677e2bac5752"),
    "sequence1[:9]/log": (19, "d82e4aab0d4d0ce7"),
    "sequence1[:9]/tw": (21, "acb95f5f388475cd"),
    "sequence1[:15]/lin": (37, "52235d5cf07793ef"),
    "sequence1[:15]/log": (28, "731f9abe22405382"),
    "sequence1[:15]/tw": (38, "297cee2138f86edc"),
    "sequence2[:5]/lin": (9, "07101135bf0664e0"),
    "sequence2[:5]/log": (4, "6c9cbbaa99fe7cc8"),
    "sequence2[:5]/tw": (5, "fcb92dd6dfd3b85c"),
    "sequence2[:9]/lin": (19, "d6583698fbbc806d"),
    "sequence2[:9]/log": (10, "468a0280f8df5509"),
    "sequence2[:9]/tw": (12, "fee913073c907ba5"),
    "sequence2[:15]/lin": (27, "d2a186f5382ba277"),
    "sequence2[:15]/log": (16, "a5dfb376d0e5c57a"),
    "sequence2[:15]/tw": (26, "ba560f28348bc47b"),
    "sequence3[:5]/lin": (11, "fc5174dd4f4a3faa"),
    "sequence3[:5]/log": (6, "84b32c8f218fb7ad"),
    "sequence3[:5]/tw": (6, "f1aeced68258ec36"),
    "sequence3[:9]/lin": (23, "e7e5d4f9eeddd53d"),
    "sequence3[:9]/log": (14, "991c3a7389d1caef"),
    "sequence3[:9]/tw": (14, "875eec6a45d9ee50"),
    "sequence3[:15]/lin": (37, "28d972c9f49c9086"),
    "sequence3[:15]/log": (32, "a8447b6e16cef52c"),
    "sequence3[:15]/tw": (41, "b5584567cc35c2f7"),
    "sat2/tw": (21, "da6da2cdce1ede89"),
    "sat4/tw": (61, "81bc67a3580fa9cf"),
    "word[a1b1]/tw": (18, "7995776f0e389361"),
}

GADGETS = {
    "sat2": lambda: (dagger_tbox(), sat_query([[1, 2], [-1]])),
    "sat4": lambda: (dagger_tbox(), sat_query(
        [[1, 2, 3], [-1, 2], [-2, 3], [-3, 1]])),
    "word[a1b1]": lambda: (ddagger_tbox(), word_query(tokenize("[a1b1]"))),
}


def _omq(label):
    source, method = label.split("/")
    if source in GADGETS:
        return OMQ(*GADGETS[source]()), method
    name, prefix = source.rstrip("]").split("[:")
    query = chain_cq(SEQUENCES[name][:int(prefix)])
    return OMQ(example11_tbox(), query), method


@pytest.mark.parametrize("label", list(PINNED))
def test_rewriting_text_is_pinned(label):
    omq, method = _omq(label)
    plan = repro.compile(omq, method=method)
    digest = hashlib.sha256(str(plan.ndl).encode()).hexdigest()[:16]
    assert (plan.rules, digest) == PINNED[label]
