"""Tree witnesses (Section 3.4, after [37]).

A tree witness for an OMQ ``(T, q(x))`` is a pair ``t = (tr, ti)`` of
disjoint variable sets (``ti`` nonempty and existential) such that the
atoms ``q_t`` touching ``ti`` can be homomorphically mapped into the
canonical model ``C_{T, {A_rho(a)}}`` with exactly ``tr`` going to the
root ``a``; such ``rho`` are the witness's *generators*.  Intuitively,
``t`` marks a fragment of the query that can be matched entirely inside
the anonymous part of the canonical model below a single individual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..chase.canonical import CanonicalModel, individual
from ..chase.homomorphism import SearchPlan
from ..data.abox import ABox
from ..ontology.tbox import surrogate_name
from ..ontology.terms import Role
from ..queries.cq import CQ, Atom, Variable


@dataclass(frozen=True)
class TreeWitness:
    """A tree witness ``t = (tr, ti)`` with its generating roles."""

    roots: FrozenSet[Variable]      # tr — mapped onto an individual
    interior: FrozenSet[Variable]   # ti — mapped to labelled nulls
    atoms: FrozenSet[Atom]          # q_t
    generators: Tuple[Role, ...]    # the roles rho generating t

    def __str__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return (f"tw(tr={sorted(self.roots)}, ti={sorted(self.interior)}, "
                f"gen={{{gens}}})")


def witness_atoms(query: CQ, interior: FrozenSet[Variable]) -> FrozenSet[Atom]:
    """``q_t``: the atoms of ``q`` with at least one variable in ``ti``."""
    return frozenset(atom for atom in query.atoms
                     if set(atom.args) & interior)


def _connected_existential_subsets(
        query: CQ, containing: Optional[Variable] = None
) -> Iterator[FrozenSet[Variable]]:
    """All connected sets of existential variables (candidate ``ti``),
    or only those with ``containing`` among them."""
    graph = query.gaifman()
    seeds = query.existential_vars
    if containing is not None:
        seeds = seeds & {containing}
    stack = [frozenset({var}) for var in sorted(seeds)]
    seen: Set[FrozenSet[Variable]] = set(stack)
    while stack:
        subset = stack.pop()
        yield subset
        neighbours = {n for v in subset for n in graph.neighbors(v)}
        for cand in sorted(neighbours - subset):
            if cand in query.existential_vars:
                extended = subset | {cand}
                if extended not in seen:
                    seen.add(extended)
                    stack.append(extended)


class WitnessSearch:
    """Tree-witness detection for one ``TBox``: the single-individual
    models ``C_{T, {A_rho(a)}}`` are built once per (letter, depth) and
    shared by every query searched through this object."""

    def __init__(self, tbox):
        self.tbox = tbox
        self._models: Dict[Tuple[Role, int], CanonicalModel] = {}

    def _model(self, role: Role, depth: int) -> CanonicalModel:
        key = (role, depth)
        if key not in self._models:
            self._models[key] = CanonicalModel(
                self.tbox, ABox([(surrogate_name(role), ("a",))]),
                max_depth=depth)
        return self._models[key]

    def _generators(self, roots: FrozenSet[Variable],
                    interior: FrozenSet[Variable],
                    atoms: FrozenSet[Atom]) -> List[Role]:
        """The roles ``rho`` generating ``(tr, ti)``: a homomorphism of
        ``q_t`` into ``C_{T, {A_rho(a)}}`` must send ``tr`` to ``a`` and
        ``ti`` strictly below it."""
        # an atom between a root and an interior variable lands on the
        # edge (a, a.rho), so rho must be below its role
        edges = [Role(atom.predicate, atom.args[0] in interior)
                 for atom in atoms
                 if atom.is_binary and set(atom.args) & roots]
        table = self.tbox.witnesses
        candidates = [role for role in table.letters
                      if table.supers[role].issuperset(edges)]
        if not candidates:
            return []
        plan = SearchPlan(CQ(sorted(atoms), tuple(sorted(roots))),
                          sorted(roots))
        fixed = {var: individual("a") for var in roots}
        generators: List[Role] = []
        for role in candidates:
            model = self._model(role, len(interior) + 1)
            # every interior variable must sit on a labelled null of the
            # branch starting with rho (h^{-1}(a) = tr exactly)
            if any(all(hom[var][1] and hom[var][1][0] == role
                       for var in interior)
                   for hom in plan.run(model, fixed)):
                generators.append(role)
        return generators

    def witnesses(self, query: CQ, require_rooted: bool = False,
                  containing: Optional[Variable] = None
                  ) -> List[TreeWitness]:
        """All tree witnesses of ``(T, q)`` (with ``tr != empty`` when
        ``require_rooted``, with ``containing`` in ``ti`` when given),
        each carrying its generating roles."""
        graph = query.gaifman()
        witnesses: List[TreeWitness] = []
        for interior in _connected_existential_subsets(query, containing):
            roots = frozenset(
                {n for v in interior for n in graph.neighbors(v)} - interior)
            if require_rooted and not roots:
                continue
            atoms = witness_atoms(query, interior)
            if not atoms:
                continue
            generators = self._generators(roots, interior, atoms)
            if generators:
                witnesses.append(TreeWitness(roots, interior, atoms,
                                             tuple(generators)))
        return witnesses


def tree_witnesses(tbox, query: CQ,
                   require_rooted: bool = False) -> List[TreeWitness]:
    """All tree witnesses of ``(T, q)``, see :class:`WitnessSearch`."""
    return WitnessSearch(tbox).witnesses(query, require_rooted)


def conflict(first: TreeWitness, second: TreeWitness) -> bool:
    """Two tree witnesses conflict when their ``q_t`` share an atom
    (they cannot be applied together in one rewriting disjunct)."""
    return bool(first.atoms & second.atoms)


def independent_subsets(witnesses: List[TreeWitness]
                        ) -> Iterator[Tuple[TreeWitness, ...]]:
    """All subsets of pairwise non-conflicting tree witnesses (including
    the empty one) — the disjuncts of the tree-witness UCQ rewriting."""
    def extend(prefix: Tuple[TreeWitness, ...], rest: List[TreeWitness]):
        yield prefix
        for i, cand in enumerate(rest):
            if all(not conflict(cand, chosen) for chosen in prefix):
                yield from extend(prefix + (cand,), rest[i + 1:])

    yield from extend((), witnesses)
