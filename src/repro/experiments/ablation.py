"""Ablations suggested by the paper's Section 6 / Appendix D.4
discussion: splitting strategies and program post-processing.

* ``splitting_comparison`` — the three optimal rewriters differ only in
  where they split the CQ (slices for Lin, balanced tree-decomposition
  subtrees for Log, centroids + tree witnesses for Tw); the paper notes
  none dominates, and this harness measures all three on the same OMQs.
* ``skinny_comparison`` — the Lemma 5 Huffman transformation versus the
  raw program (depth/width trade-off), and the ``Tw*`` inlining of
  Appendix D.4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from ..data.abox import ABox
from ..datalog.analysis import is_skinny
from ..datalog.transform import skinny_transform
from ..engine import PythonEngine
from ..queries.cq import chain_cq
from ..rewriting.api import OMQ, rewrite
from ..rewriting.plan import compile_omq
from .figure2 import SEQUENCES, example11_tbox


@dataclass(frozen=True)
class AblationPoint:
    sequence: str
    atoms: int
    variant: str
    clauses: int
    depth: int
    width: int
    seconds: float
    generated_tuples: int


def splitting_comparison(abox: ABox, sizes: Sequence[int] = (5, 9, 13),
                         sequences: Sequence[str] = tuple(SEQUENCES)
                         ) -> List[AblationPoint]:
    """Lin vs Log vs Tw (vs Tw*) on identical OMQs and data.

    The completed data is loaded and indexed once; every variant then
    evaluates against the same :class:`~repro.engine.PythonEngine` —
    as ``engine.evaluate(plan.ndl)``, the rewriting as written, since
    ``Plan.execute`` inlines ``tw`` into ``tw_star`` by itself.
    """
    tbox = example11_tbox()
    engine = PythonEngine(abox.complete(tbox))
    points: List[AblationPoint] = []
    for sequence in sequences:
        labels = SEQUENCES[sequence]
        for atoms in sizes:
            query = chain_cq(labels[:atoms])
            omq = OMQ(tbox, query)
            for variant in ("lin", "log", "tw", "tw_star"):
                plan = compile_omq(omq, method=variant)
                start = time.perf_counter()
                result = engine.evaluate(plan.ndl)
                elapsed = time.perf_counter() - start
                points.append(AblationPoint(
                    sequence, atoms, variant, plan.rules, plan.depth,
                    plan.width, elapsed, result.generated_tuples))
    return points


def skinny_comparison(abox: ABox, sizes: Sequence[int] = (5, 9, 13)
                      ) -> List[AblationPoint]:
    """The Lemma 5 skinny transformation applied to the Log rewriting:
    equivalence plus the depth/size trade-off."""
    tbox = example11_tbox()
    engine = PythonEngine(abox.complete(tbox))
    labels = SEQUENCES["sequence1"]
    points: List[AblationPoint] = []
    for atoms in sizes:
        query = chain_cq(labels[:atoms])
        omq = OMQ(tbox, query)
        base = rewrite(omq, method="log")
        skinny = skinny_transform(base)
        assert is_skinny(skinny.program)
        for variant, ndl in (("log", base), ("log+skinny", skinny)):
            start = time.perf_counter()
            result = engine.evaluate(ndl)
            elapsed = time.perf_counter() - start
            points.append(AblationPoint(
                "sequence1", atoms, variant, len(ndl), ndl.depth(),
                ndl.width(), elapsed, result.generated_tuples))
    return points
