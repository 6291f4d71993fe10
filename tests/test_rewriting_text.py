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

Beyond the chains, a seeded corpus pins ``lin`` and ``log`` on random
tree-shaped CQs (2-11 variables, with answer variables, unary atoms and
self-loops) and ``log`` on treewidth-2 cyclic CQs, over Example 11 and
two random depth-2 TBoxes, one with a reflexive role.  It was drawn once
from ``random.Random(40)`` and is written out literally, so the pins do
not hang on the generator.  ``TestEachDecisionOnce`` counts what one
Lin or Log rewrite decides.
"""

import hashlib
from collections import Counter

import pytest

import repro
from repro import CQ, OMQ, TBox, chain_cq
from repro.experiments import SEQUENCES
from repro.hardness import (
    dagger_tbox,
    ddagger_tbox,
    sat_query,
    tokenize,
    word_query,
)

from repro.rewriting import lin_rewrite, log_rewrite, types
from repro.rewriting.log import _LogBuilder

from .helpers import canonical_program, example11_tbox

#: label -> (rules, first 16 hex digits of sha256(str(plan.ndl)))
PINNED = {
    "sequence1[:5]/lin": (13, "c218bc6cb09301cd"),
    "sequence1[:5]/log": (8, "6e6314a85bd66556"),
    "sequence1[:5]/tw": (7, "23cbc27e18d9eedf"),
    "sequence1[:9]/lin": (23, "b0c1677e2bac5752"),
    "sequence1[:9]/log": (19, "3e026cf181137474"),
    "sequence1[:9]/tw": (21, "acb95f5f388475cd"),
    "sequence1[:15]/lin": (37, "52235d5cf07793ef"),
    "sequence1[:15]/log": (28, "731f9abe22405382"),
    "sequence1[:15]/tw": (38, "297cee2138f86edc"),
    "sequence2[:5]/lin": (9, "07101135bf0664e0"),
    "sequence2[:5]/log": (4, "6c9cbbaa99fe7cc8"),
    "sequence2[:5]/tw": (5, "fcb92dd6dfd3b85c"),
    "sequence2[:9]/lin": (19, "d6583698fbbc806d"),
    "sequence2[:9]/log": (10, "d92b35683876921e"),
    "sequence2[:9]/tw": (12, "fee913073c907ba5"),
    "sequence2[:15]/lin": (27, "d2a186f5382ba277"),
    "sequence2[:15]/log": (16, "a5dfb376d0e5c57a"),
    "sequence2[:15]/tw": (26, "ba560f28348bc47b"),
    "sequence3[:5]/lin": (11, "fc5174dd4f4a3faa"),
    "sequence3[:5]/log": (6, "84b32c8f218fb7ad"),
    "sequence3[:5]/tw": (6, "f1aeced68258ec36"),
    "sequence3[:9]/lin": (23, "e7e5d4f9eeddd53d"),
    "sequence3[:9]/log": (14, "b7a9b7582c09d729"),
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


TBOXES = {
    "ex11": "roles: P, R, S\nP <= S\nP <= R-",
    "deep": "roles: P, Q, R\nA <= ER\nEQ <= ER\nER- <= B\nA <= EP\nEQ- <= ER-\nP <= Q",
    "refl": "roles: P, Q, R\nEP <= A\nEP- <= B\nA <= EQ-\nA <= EQ\nrefl(R)",
}

#: label -> (TBox, answer variables, CQ body)
CORPUS = {
    "tree00": ("ex11", ("v4",),
               "S(v0,v1), R(v1,v2), R(v0,v3), R(v1,v4), R(v1,v5), R(v0,v6), "
               "P(v7,v4), A(v2), A(v3), A(v6), A(v7)"),
    "tree01": ("deep", (),
               "P(v1,v0), Q(v0,v2), P(v3,v1), P(v1,v4)"),
    "tree02": ("refl", (),
               "Q(v0,v1), P(v1,v2), Q(v3,v2), R(v4,v0), R(v5,v3), Q(v3,v6), "
               "P(v7,v5), B(v5), B(v7), P(v7,v7)"),
    "tree03": ("ex11", (),
               "S(v0,v1), P(v1,v2), P(v0,v3), A(v3)"),
    "tree04": ("deep", ("v0", "v5"),
               "P(v0,v1), P(v0,v2), R(v3,v0), P(v1,v4), Q(v5,v3), R(v6,v0), "
               "P(v3,v7), A(v0), A(v4)"),
    "tree05": ("refl", (),
               "Q(v0,v1), B(v0), B(v1)"),
    "tree06": ("ex11", ("v1",),
               "S(v0,v1), R(v0,v2), S(v3,v0), R(v4,v0), R(v3,v5), A(v0), A(v1), "
               "A(v2)"),
    "tree07": ("deep", (),
               "R(v1,v0), R(v2,v1)"),
    "tree08": ("refl", (),
               "Q(v0,v1), R(v0,v2), R(v2,v3), R(v1,v4), Q(v4,v5), R(v3,v6), "
               "P(v7,v3), R(v3,v8), B(v6), Q(v6,v6)"),
    "tree09": ("ex11", ("v4", "v0"),
               "R(v0,v1), R(v2,v0), S(v2,v3), R(v4,v2), P(v5,v3), P(v6,v3), "
               "P(v7,v0), A(v0), S(v1,v1), A(v2), A(v6)"),
    "tree10": ("deep", (),
               "P(v0,v1), R(v0,v2)"),
    "tree11": ("refl", (),
               "R(v0,v1), Q(v1,v2), Q(v3,v1), R(v2,v4), Q(v0,v5), R(v6,v4), "
               "Q(v7,v4), P(v8,v2), Q(v9,v7), B(v0), B(v4), A(v7), A(v9)"),
    "tree12": ("ex11", ("v5", "v6"),
               "P(v0,v1), R(v1,v2), S(v3,v2), S(v4,v1), R(v2,v5), S(v2,v6), "
               "S(v0,v0), A(v5), S(v6,v6)"),
    "tree13": ("deep", ("v1", "v2"),
               "R(v0,v1), Q(v0,v2), B(v0)"),
    "tree14": ("refl", (),
               "Q(v0,v1), P(v2,v0), R(v3,v2), R(v4,v0), P(v5,v4), R(v6,v2), "
               "Q(v7,v0), Q(v8,v7), R(v0,v9), Q(v10,v2), B(v1), A(v3), A(v6), "
               "A(v7), A(v9)"),
    "tree15": ("ex11", ("v3", "v2"),
               "R(v1,v0), S(v2,v0), S(v1,v3)"),
    "tree16": ("deep", (),
               "P(v0,v1), Q(v2,v1), P(v3,v2), R(v2,v4), Q(v4,v5), B(v0), B(v1)"),
    "tree17": ("refl", ("v8",),
               "R(v0,v1), R(v1,v2), Q(v3,v0), R(v4,v3), Q(v5,v0), R(v6,v0), "
               "Q(v1,v7), R(v7,v8), Q(v9,v2), P(v10,v8), A(v4), A(v5), A(v9), "
               "A(v10)"),
    "tree18": ("ex11", ("v1",),
               "P(v0,v1), S(v0,v2), P(v3,v2), P(v1,v4), P(v0,v5), P(v1,v6), "
               "S(v2,v7), P(v8,v4), R(v1,v1), A(v3), A(v4), S(v5,v5), A(v7), "
               "S(v7,v7)"),
    "tree19": ("deep", (),
               "R(v1,v0), R(v0,v0)"),
    "tree20": ("refl", ("v2",),
               "P(v1,v0), R(v2,v0), Q(v3,v0)"),
    "tree21": ("ex11", ("v1",),
               "R(v1,v0), P(v0,v2), S(v3,v2), P(v1,v4), S(v5,v2), R(v6,v5), "
               "R(v7,v1), R(v0,v8), A(v1), A(v5), A(v6)"),
    "tree22": ("deep", ("v3",),
               "R(v0,v1), P(v1,v2), Q(v3,v0), P(v4,v3), Q(v1,v1)"),
    "tree23": ("refl", (),
               "R(v0,v1), R(v2,v1), Q(v3,v0), Q(v4,v1), R(v0,v5), R(v4,v6), "
               "R(v7,v3), A(v1), A(v5)"),
    "tree24": ("ex11", ("v7",),
               "P(v1,v0), R(v1,v2), P(v3,v1), S(v4,v2), S(v5,v1), P(v0,v6), "
               "S(v7,v6), R(v2,v8), A(v0), S(v1,v1), A(v5), A(v8)"),
    "tree25": ("deep", ("v1", "v0"),
               "P(v1,v0), Q(v0,v2), B(v0), R(v1,v1)"),
    "tree26": ("refl", ("v3",),
               "Q(v0,v1), R(v2,v0), P(v3,v2), Q(v4,v2)"),
    "tree27": ("ex11", ("v5",),
               "R(v1,v0), R(v1,v2), S(v1,v3), P(v0,v4), S(v5,v0), R(v5,v6), "
               "P(v0,v7), R(v8,v3), A(v2), A(v4), A(v6), S(v6,v6)"),
    "tree28": ("deep", ("v2", "v1"),
               "Q(v0,v1), P(v2,v0), R(v1,v3), Q(v2,v4), P(v5,v2), A(v3)"),
    "tree29": ("refl", (),
               "R(v0,v1), A(v1)"),
    "tree30": ("ex11", ("v0",),
               "S(v1,v0), P(v0,v2), S(v3,v2), R(v0,v4), P(v1,v5), R(v6,v4), "
               "P(v7,v2), S(v8,v4), R(v5,v9), R(v8,v10), A(v1), A(v6), A(v7), "
               "A(v8)"),
    "tree31": ("deep", (),
               "R(v0,v1), R(v2,v1), R(v1,v3), B(v2)"),
    "tree32": ("refl", ("v5",),
               "R(v1,v0), R(v1,v2), R(v3,v2), P(v4,v0), Q(v4,v5), R(v5,v6), "
               "P(v6,v7), P(v0,v8), A(v0), B(v4)"),
    "tree33": ("ex11", (),
               "S(v0,v1), P(v2,v0), P(v3,v1), R(v4,v3), A(v0), A(v1), P(v2,v2)"),
    "tree34": ("deep", (),
               "R(v1,v0), P(v2,v1), Q(v1,v3), P(v1,v4), P(v5,v2), P(v2,v6), "
               "P(v7,v0), B(v5), B(v6)"),
    "tree35": ("refl", ("v3",),
               "P(v1,v0), R(v2,v0), R(v3,v0), R(v4,v2), R(v3,v5), Q(v6,v0), "
               "A(v1), B(v2)"),
    "tree36": ("ex11", ("v0",),
               "R(v1,v0), S(v2,v1), P(v2,v3), S(v4,v2), P(v1,v1)"),
    "tree37": ("deep", ("v2", "v4"),
               "Q(v0,v1), P(v2,v1), R(v3,v2), P(v2,v4), R(v3,v5), B(v5)"),
    "tree38": ("refl", ("v0",),
               "R(v0,v1)"),
    "tree39": ("ex11", ("v3",),
               "P(v0,v1), R(v1,v2), S(v2,v3), A(v1), A(v2), R(v3,v3)"),
    "cyclic0": ("deep", ("w0", "u0"),
                "R(u0,u1), Q(u1,u2), R(u0,u2), R(w0,u0), P(u1,w0), A(u2)"),
    "cyclic1": ("refl", (),
                "Q(u0,u1), R(u2,u1), P(u2,u3), R(u3,u4), P(u0,u4), R(w0,u0), "
                "R(w0,w1), P(w1,u1), Q(u2,t0), Q(t1,t0), A(u3), A(u4), B(w1)"),
    "cyclic2": ("ex11", ("u1", "w1"),
                "R(u0,u1), R(u2,u1), R(u0,u2), R(w0,u0), P(w1,w0), S(w2,w1), "
                "S(u1,w2), R(w2,t0), A(u1), A(u2)"),
    "cyclic3": ("deep", ("w2",),
                "R(u1,u0), Q(u2,u1), Q(u3,u2), Q(u4,u3), R(u4,u0), R(w0,u0), "
                "R(w0,w1), R(w1,w2), P(u1,w2), Q(u0,t0), Q(t1,u3), B(u1), B(w1), "
                "A(t1)"),
    "cyclic4": ("refl", ("u1",),
                "Q(u0,u1), R(u2,u1), R(u0,u2), R(w0,u0), P(w1,w0), P(u1,w1), "
                "R(u1,t0), B(u1)"),
    "cyclic5": ("ex11", ("u1",),
                "R(u0,u1), P(u1,u2), S(u3,u2), R(u3,u0), R(u0,w0), R(w1,w0), "
                "P(w2,w1), S(w2,u1), R(u0,t0), A(u0), A(w2)"),
    "cyclic6": ("deep", ("u3",),
                "P(u1,u0), Q(u2,u1), R(u2,u3), R(u0,u3), R(w0,u0), Q(w1,w0), "
                "Q(w1,w2), R(u1,w2), R(t0,w2), A(u1), B(u2), A(w0)"),
    "cyclic7": ("refl", ("u1",),
                "P(u0,u1), Q(u1,u2), Q(u2,u0), Q(u0,w0), Q(w0,u1), B(u1)"),
    "cyclic8": ("ex11", (),
                "R(u0,u1), S(u2,u1), R(u3,u2), S(u3,u0), P(w0,u0), R(u1,w0), "
                "R(t0,u0), A(u2)"),
    "cyclic9": ("deep", (),
                "Q(u0,u1), Q(u2,u1), R(u2,u3), Q(u4,u3), R(u4,u0), P(w0,u0), "
                "Q(u1,w0), R(t0,u4), B(w0)"),
}

#: label -> (rules, first 16 hex digits of sha256(str(plan.ndl)));
#: a ``*`` after the method compiles with ``over="arbitrary"``
CORPUS_PINS = {
    "tree00/lin": (11, "0c3513b0f1d5626f"),
    "tree00/log": (7, "8aac5c6fee12924a"),
    "tree01/lin": (20, "8e57265aedd5f35f"),
    "tree01/log": (8, "b2fb821bb82b95d7"),
    "tree02/lin": (15, "8a05503cf2035d1f"),
    "tree02/log": (7, "fda8c2f041ed9ad7"),
    "tree03/lin": (8, "b16f09c4e5a664cb"),
    "tree03/log": (4, "92051f0b42eb5172"),
    "tree04/lin": (15, "31adbb78dc9b4036"),
    "tree04/log": (8, "b61d6f29c273d7b7"),
    "tree05/lin": (3, "399fca59756b273c"),
    "tree05/log": (1, "30e3ba03f44893dc"),
    "tree06/lin": (17, "10397aa6b159abaa"),
    "tree06/log": (8, "f00a4c11cb97b6a7"),
    "tree07/lin": (8, "78b6f1e8e3941bd3"),
    "tree07/log": (4, "0a6265b8de0d859f"),
    "tree08/lin": (11, "f8a8df4ea83ed0cc"),
    "tree08/log": (9, "90e93d7d9368b112"),
    "tree09/lin": (14, "850e925ed4d9e7c4"),
    "tree09/log": (8, "9993ad47fca218fc"),
    "tree10/lin": (12, "700503abfba42b35"),
    "tree10/log": (5, "913f9c161aadca5f"),
    "tree11/lin": (15, "b229e14213c032bb"),
    "tree11/log": (10, "742626f967ee317c"),
    "tree12/lin": (23, "bb208afa2683aeb1"),
    "tree12/log": (10, "8795a0ebd21b172e"),
    "tree13/lin": (4, "cfd671d257775116"),
    "tree13/log": (1, "e1e5ba39ada4dd38"),
    "tree14/lin": (27, "7ce7f55661b121b6"),
    "tree14/log": (11, "1f7f7a664e4512b4"),
    "tree15/lin": (5, "fba36dedfe8c2379"),
    "tree15/log": (1, "56d8665f3fa6e1fe"),
    "tree16/lin": (16, "222fd9954e607e98"),
    "tree16/log": (8, "5e2de9769ee2651f"),
    "tree17/lin": (9, "5fbbadc2add4decd"),
    "tree17/log": (10, "7e325e513c6461dd"),
    "tree18/lin": (16, "48c02dbe3ae84696"),
    "tree18/log": (9, "de01796bce2e8a18"),
    "tree19/lin": (5, "95c90035c1dd1db8"),
    "tree19/log": (2, "7e0b908da03978c3"),
    "tree20/lin": (10, "d0508a466ad5297b"),
    "tree20/log": (4, "d22b44a353124f10"),
    "tree21/lin": (59, "6f9b38c9e689e33f"),
    "tree21/log": (17, "1c79e9023b73ec80"),
    "tree22/lin": (9, "549eb2127c92a7c3"),
    "tree22/log": (6, "6515d28c391f60f9"),
    "tree23/lin": (18, "5614513f813203cf"),
    "tree23/log": (8, "867f683c5b85fbbb"),
    "tree24/lin": (17, "2c17a86acc0eba7b"),
    "tree24/log": (9, "cc2a878c89af5201"),
    "tree25/lin": (8, "64a9afab7345f90b"),
    "tree25/log": (4, "59fc1cfbf641b77a"),
    "tree26/lin": (10, "6cefd59f521a2cce"),
    "tree26/log": (5, "f63c5e88723dc793"),
    "tree27/lin": (12, "5714235de7553741"),
    "tree27/log": (8, "5287f7c8b6465298"),
    "tree28/lin": (15, "69e189f26353b801"),
    "tree28/log": (7, "bfc97ad7357e7f60"),
    "tree29/lin": (6, "3e75aae821b030c0"),
    "tree29/log": (2, "5e659cb7716973cc"),
    "tree30/lin": (56, "ced56f4958c96a8e"),
    "tree30/log": (16, "d1216e526dcdf17f"),
    "tree31/lin": (8, "ea8f9b7d64920255"),
    "tree31/log": (4, "bc2bd3b9fba4d4f6"),
    "tree32/lin": (12, "7e241658cd28b341"),
    "tree32/log": (8, "d56ecf2cca1afc64"),
    "tree33/lin": (11, "93c1aef3d846305c"),
    "tree33/log": (6, "084a310e8bb5d874"),
    "tree34/lin": (29, "e9926ed6bafc0f47"),
    "tree34/log": (11, "61f6e5a84c7b5763"),
    "tree35/lin": (11, "9e57c30c6c0fb6d0"),
    "tree35/log": (7, "3fbb8043514bcb78"),
    "tree36/lin": (15, "3ba70330bfbd5552"),
    "tree36/log": (6, "415df4022c14a638"),
    "tree37/lin": (23, "6bb1f0df3776eb77"),
    "tree37/log": (9, "9dc00b19200938e1"),
    "tree38/lin": (3, "e5f1345a0c52d434"),
    "tree38/log": (1, "14260e8bceaa5428"),
    "tree39/lin": (7, "00ee1bbb3f580c32"),
    "tree39/log": (3, "3d6d2ba7be98623c"),
    "cyclic0/log": (1, "6040bde5a96f56ae"),
    "cyclic1/log": (6, "d55bb0f79dded03a"),
    "cyclic2/log": (9, "29dfa46d8be26f2f"),
    "cyclic3/log": (9, "2178f09725dd3d2f"),
    "cyclic4/log": (2, "5c7e63272373706d"),
    "cyclic5/log": (13, "0a21219632416209"),
    "cyclic6/log": (7, "eec14d791e922e35"),
    "cyclic7/log": (1, "d82b5c0d6d2710af"),
    "cyclic8/log": (6, "4c8785722d9e7dd1"),
    "cyclic9/log": (5, "238193ec8195d408"),
    "tree01/lin*": (117, "11959702c08d8a1e"),
    "tree05/log*": (5, "13e626ed8ff04bd2"),
    "tree08/lin*": (83, "fcad7e30491bebbf"),
    "cyclic1/log*": (26, "47c712521c487c40"),
    "cyclic3/log*": (42, "66ccaf036be29251"),
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


@pytest.mark.parametrize("label", list(CORPUS_PINS))
def test_corpus_text_is_pinned(label):
    source, method = label.split("/")
    tbox, answers, body = CORPUS[source]
    omq = OMQ(TBox.parse(TBOXES[tbox]), CQ.parse(body, answers))
    over = "arbitrary" if method.endswith("*") else "complete"
    plan = repro.compile(omq, method=method.rstrip("*"), over=over)
    digest = hashlib.sha256(str(plan.ndl).encode()).hexdigest()[:16]
    assert (plan.rules, digest) == CORPUS_PINS[label]


#: The Log plans whose text moved when ``subtree_components`` stopped
#: following a frozenset's iteration order (it wrapped at bag 8) and
#: started ordering by least bag number -> ``canonical_program`` as
#: recorded before that change: the programs are equal up to predicate
#: names and clause order.
REORDERED = {
    "sequence1[:9]/log": "d8aac4a01cbda983",
    "sequence2[:9]/log": "0ef7f4e5708d4b93",
    "sequence3[:9]/log": "fc0ac888fbef6d91",
    "tree11/log": "6a3ab51c1b3ee4f1",
    "tree17/log": "a7ac641963b4d82f",
    "tree30/log": "2af58e320babb954",
}


@pytest.mark.parametrize("label", list(REORDERED))
def test_reordered_log_plans_are_the_same_program(label):
    source, method = label.split("/")
    if source in CORPUS:
        tbox, answers, body = CORPUS[source]
        omq = OMQ(TBox.parse(TBOXES[tbox]), CQ.parse(body, answers))
    else:
        omq, method = _omq(label)
    plan = repro.compile(omq, method=method)
    assert canonical_program(plan.ndl) == REORDERED[label]


class TestEachDecisionOnce:
    """Counts, not clocks: one rewrite decides each binary condition
    ``(predicate, word, word)`` and each Lemma 10 split once, and keeps
    nothing for the next rewrite."""

    QUERY = chain_cq(SEQUENCES["sequence1"][:15])

    @staticmethod
    def _count_pairs(monkeypatch):
        decided = Counter()
        original = types.pair_compatible

        def counting(tbox, atom, first_word, second_word):
            decided[(id(tbox), atom.predicate, first_word, second_word)] += 1
            return original(tbox, atom, first_word, second_word)

        monkeypatch.setattr(types, "pair_compatible", counting)
        return decided

    @pytest.mark.parametrize("rewrite", [lin_rewrite, log_rewrite])
    def test_each_pair_decided_once(self, rewrite, monkeypatch):
        decided = self._count_pairs(monkeypatch)
        rewrite(example11_tbox(), self.QUERY)
        assert decided and max(decided.values()) == 1

    def test_each_split_searched_once(self, monkeypatch):
        searched = Counter()
        original = _LogBuilder._split

        def counting(builder, subtree):
            searched[subtree] += 1
            return original(builder, subtree)

        monkeypatch.setattr(_LogBuilder, "_split", counting)
        log_rewrite(example11_tbox(), self.QUERY)
        assert searched and max(searched.values()) == 1

    @pytest.mark.parametrize("rewrite", [lin_rewrite, log_rewrite])
    def test_no_memo_outlives_a_rewrite(self, rewrite, monkeypatch):
        decided = self._count_pairs(monkeypatch)
        first, second = example11_tbox(), example11_tbox()
        rewrite(first, self.QUERY)
        rewrite(second, self.QUERY)
        per_tbox = {id(first): set(), id(second): set()}
        for tbox, *key in decided:
            per_tbox[tbox].add(tuple(key))
        assert per_tbox[id(first)] and \
            per_tbox[id(first)] == per_tbox[id(second)]
