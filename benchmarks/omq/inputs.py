"""The benchmark's inputs, all derived from the paper and ``--seed``.

What the paper fixes stays fixed: the Example 11 ontology, the three
Section 6 query sequences, the Theorem 17 / Theorem 22 gadgets and the
Table 2 dataset parameters.  What the seed draws: the order operations
are issued in, the variable names of every query sent (so a plan-cache
hit needs the canonical fingerprint), the constants of every update
batch, and the down-scaled instance the correctness oracle runs on.
The *cost* of a workload therefore does not depend on the seed, which
is what lets ten seeds agree within a metric's bound.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: Example 11: ``P(x,y) -> S(x,y)`` and ``P(x,y) -> R(y,x)``.
EXAMPLE11 = "roles: P, R, S\nP <= S\nP <= R-"

#: The three query sequences of Section 6 / Appendix D.1.
SEQUENCES: Dict[str, str] = {
    "sequence1": "RRSRSRSRRSRRSSR",
    "sequence2": "SRRRRRSRSRRRRRR",
    "sequence3": "SRRSSRSRSRRSRRS",
}
METHODS = ("lin", "log", "tw")

#: compile-cold: prefix lengths of every sequence (27 chain OMQs).
COMPILE_PREFIXES = (5, 9, 15)
#: compile-cold: the hardness gadgets, all rewritten with ``tw``.
SAT_GADGETS = ([[1, 2], [-1]],
               [[1, 2, 3], [-1, 2], [-2, 3], [-3, 1]])
WORD_GADGETS = ("[a1b1]",)

#: eval-tables: (sequence, prefix length) x METHODS = 12 plans.
EVAL_QUERIES = (("sequence1", 4), ("sequence1", 7), ("sequence1", 11),
                ("sequence3", 7))
#: Table 2 rows 1-3 (vertices, average degree, mark probability) and
#: the scale they run at; generator seeds are the row indexes, as in
#: ``repro.experiments.table2(seed=0)``.
TABLE2 = (("1.ttl", 1000, 50.0, 0.050),
          ("2.ttl", 5000, 10.0, 0.004),
          ("3.ttl", 10000, 20.0, 0.004))
SCALE = 0.08

#: serve-hot: chain shapes of 5-9 atoms with 1-200 answer rows on
#: ``1.ttl`` whose warm evaluation stays under 1 ms.
HOT_SHAPES = ("RRSRS", "RSRRS", "RSRSRS", "RSSRRS", "SRRSRS", "SRSRRS",
              "RRSRSRS", "RRSSRRS", "RSRRSRS", "RSRSRSRS", "RSRSSRRS",
              "SRRSRSRS", "SRRSSRRS", "RRSRSRSRS", "RRSRSSRRS",
              "RRSSRRSRS")
#: serve-wide: shapes returning 2k-6k rows on ``1.ttl``.
WIDE_SHAPES = ("RRSR", "RRSRSR", "RSRRSR", "RRSSRRSR")
#: update-standing: the standing shapes, each subscribed under
#: STANDING_RENAMINGS different variable names.
STANDING_SHAPES = ("SR", "RSR", "RRSR", "RSRSR", "RS", "RRS")
STANDING_RENAMINGS = 5

#: the oracle's down-scaled instance (vertices, edge and mark
#: probability): ~100 atoms, average degree 1.5.  Sparser than the
#: issue's (60, 0.05, 0.1), on which enumerating the homomorphisms of
#: sequence2[:15] took from 0.2 s to 59 s depending on the seed; here it
#: takes 0.02 s (0.75 s at worst over 140 seeds) and 58% of the
#: compile-cold chains still have answers
ORACLE_INSTANCE = (60, 0.025, 0.12)


def table2_dataset(name: str):
    """A fresh copy of one Table 2 dataset at SCALE, keeping its
    average degree (callers that mutate it need their own)."""
    from repro.data.generator import erdos_renyi_abox

    index = [row[0] for row in TABLE2].index(name)
    _, vertices, degree, marks = TABLE2[index]
    scaled = max(10, int(vertices * SCALE))
    probability = min(1.0, degree / max(scaled - 1, 1))
    return erdos_renyi_abox(scaled, probability, marks, seed=index)


def oracle_instance(seed: int):
    from repro.data.generator import erdos_renyi_abox

    vertices, edges, marks = ORACLE_INSTANCE
    return erdos_renyi_abox(vertices, edges, marks, seed=seed)


def fresh_chain(labels: str, rng: random.Random):
    """The chain CQ over ``labels`` under variable names nobody has
    sent before."""
    from repro import chain_cq

    return chain_cq(labels, prefix=f"v{rng.getrandbits(40):x}_")


def compile_specs() -> List[Tuple[str, str, object, str]]:
    """compile-cold's 30 OMQs as ``(label, kind, source, method)``;
    ``source`` is the chain's labels, a CNF or a word."""
    specs: List[Tuple[str, str, object, str]] = []
    for name, labels in SEQUENCES.items():
        for length in COMPILE_PREFIXES:
            for method in METHODS:
                specs.append((f"{name}[:{length}]/{method}", "chain",
                              labels[:length], method))
    for cnf in SAT_GADGETS:
        specs.append((f"sat{len(cnf)}/tw", "sat", cnf, "tw"))
    for word in WORD_GADGETS:
        specs.append((f"word{word}/tw", "word", word, "tw"))
    return specs


GroundAtom = Tuple[str, Tuple[str, ...]]


def unmarked_vertices(abox) -> List[str]:
    """The constants of ``abox`` that carry no ``A_P`` mark, sorted."""
    marked = {args[0] for predicate, args in abox.atoms()
              if predicate == "A_P"}
    return sorted(abox.individuals - marked)


def update_batch(rng: random.Random, unmarked: Sequence[str],
                 serial: int) -> List[GroundAtom]:
    """Five ``R``/``A_P`` atoms: a fresh two-edge ``R`` path, two
    edges tying it into the existing graph, and one mark on a vertex
    that has none (which is what guarantees every watched update
    changes the polled standing query's answers).  No atom is in the
    data already and fresh constants carry ``serial``, so deleting the
    batch afterwards restores the data exactly."""
    first, middle, last = (f"u{serial}_{i}" for i in range(3))
    old = rng.sample(unmarked, 3)
    return [("R", (first, middle)), ("R", (middle, last)),
            ("R", (last, old[0])), ("R", (old[1], first)),
            ("A_P", (old[2],))]


def shuffled(items: Sequence, rng: random.Random) -> List:
    items = list(items)
    rng.shuffle(items)
    return items
