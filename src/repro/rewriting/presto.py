"""A Presto-style factorised NDL rewriting over complete data instances
(our stand-in for the Presto engine of Rosati & Almatelli 2010).

Tree witnesses are grouped into *clusters* of pairwise-overlapping
witnesses; each cluster gets its own IDB predicate whose clauses
enumerate the independent witness subsets within the cluster, and a
single top clause joins the clusters.  Compared with the plain UCQ
rewriting this shares structure across clusters (the Presto idea of
factorising the rewriting), but within a cluster the enumeration is
still exponential — matching the growth of the Presto column in
Table 1.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Set, Tuple

from ..datalog.program import Clause, Equality, Literal, NDLQuery, Program
from ..datalog.transform import star_transform
from ..ontology.tbox import surrogate_name
from ..queries.cq import CQ, Atom, components
from .tree_witness import TreeWitness, conflict, independent_subsets, tree_witnesses


def presto_rewrite(tbox, query: CQ, over: str = "complete") -> NDLQuery:
    """The factorised tree-witness NDL rewriting of ``(T, q)``."""
    witnesses = tree_witnesses(tbox, query)
    clusters = _clusters(witnesses)
    head = Literal("G", tuple(query.answer_vars))
    clauses: List[Clause] = []

    region_atoms: List[FrozenSet[Atom]] = []
    for cluster in clusters:
        region: Set[Atom] = set()
        for witness in cluster:
            region |= witness.atoms
        region_atoms.append(frozenset(region))

    covered_by_clusters: Set[Atom] = set()
    for region in region_atoms:
        covered_by_clusters |= region

    top_body: List[object] = [Literal(atom.predicate, atom.args)
                              for atom in query.atoms
                              if atom not in covered_by_clusters]
    for index, (cluster, region) in enumerate(zip(clusters, region_atoms)):
        name = f"C{index}"
        interface = _interface_vars(query, region)
        top_body.append(Literal(name, interface))
        for chosen in independent_subsets(cluster):
            covered: Set[Atom] = set()
            for witness in chosen:
                covered |= witness.atoms
            remaining = [atom for atom in sorted(region)
                         if atom not in covered]
            pools = [witness.generators for witness in chosen]
            for roles in itertools.product(*pools):
                body: List[object] = [Literal(atom.predicate, atom.args)
                                      for atom in remaining]
                for witness, role in zip(chosen, roles):
                    if witness.roots:
                        anchor = min(witness.roots)
                        body.append(
                            Literal(surrogate_name(role), (anchor,)))
                        body.extend(
                            Equality(var, anchor)
                            for var in sorted(witness.roots - {anchor}))
                    else:
                        body.append(Literal(surrogate_name(role),
                                            ("_z_root",)))
                clauses.append(Clause(Literal(name, interface), tuple(body)))
    clauses.append(Clause(head, tuple(top_body)))
    result = NDLQuery(Program(clauses), "G", tuple(query.answer_vars))
    if over == "arbitrary":
        result = star_transform(result, tbox)
    return result


def _clusters(witnesses: List[TreeWitness]) -> List[List[TreeWitness]]:
    """Connected components of the conflict graph on tree witnesses."""
    graph: Dict[int, Set[int]] = {i: set() for i in range(len(witnesses))}
    for i in range(len(witnesses)):
        for j in range(i + 1, len(witnesses)):
            if conflict(witnesses[i], witnesses[j]):
                graph[i].add(j)
                graph[j].add(i)
    return [[witnesses[i] for i in sorted(component)]
            for component in sorted(components(graph), key=sorted)]


def _interface_vars(query: CQ, region: FrozenSet[Atom]) -> Tuple[str, ...]:
    """The variables a cluster predicate must expose: those shared with
    the rest of the query or answer variables."""
    region_vars = {var for atom in region for var in atom.args}
    outside_vars = {var for atom in query.atoms if atom not in region
                    for var in atom.args}
    interface = region_vars & (outside_vars | set(query.answer_vars))
    return tuple(sorted(interface))
