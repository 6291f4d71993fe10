"""Tree witnesses (Section 3.4, after [37]).

A tree witness for an OMQ ``(T, q(x))`` is a pair ``t = (tr, ti)`` of
disjoint variable sets (``ti`` nonempty and existential) such that the
atoms ``q_t`` touching ``ti`` can be homomorphically mapped into the
canonical model ``C_{T, {A_rho(a)}}`` with exactly ``tr`` going to the
root ``a``; such ``rho`` are the witness's *generators*.  Intuitively,
``t`` marks a fragment of the query that can be matched entirely inside
the anonymous part of the canonical model below a single individual.

No model is built: one memoised pass over the query's tree
decomposition, restricted to ``ti``, places ``ti`` on the words of the
``rho``-branch that the TBox's witness table describes.  Each bag keeps
all its local assignments and is asked once per assignment of the
variables it shares with its parent, which is exact for any tree
decomposition (width 1 for tree-shaped queries, min-fill-in otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..ontology.depth import Word
from ..ontology.terms import Role
from ..queries.cq import CQ, Atom, Variable
from ..queries.treedecomp import tree_decomposition


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
        neighbours = {n for v in subset for n in graph[v]}
        for cand in sorted(neighbours - subset):
            if cand in query.existential_vars:
                extended = subset | {cand}
                if extended not in seen:
                    seen.add(extended)
                    stack.append(extended)


class _BranchPass:
    """The generators of every candidate ``(tr, ti)`` of one query."""

    def __init__(self, tbox, query: CQ):
        self.table = table = tbox.witnesses
        self.letters = [(letter, table.supers[letter])
                        for letter in table.letters]
        decomposition = tree_decomposition(query)
        self.bags = decomposition.bags
        self.adjacent = {node: decomposition.neighbours(node)
                         for node in self.bags}
        self.names = {var: {atom.predicate for atom in query.unary_atoms(var)}
                      for var in query.variables}
        # a loop holds on a null exactly when its role is reflexive
        self.looped = {atom.args[0] for atom in query.binary_atoms()
                       if atom.args[0] == atom.args[1]
                       and not tbox.is_reflexive(Role(atom.predicate))}
        roles: Dict[Tuple[Variable, Variable], Set[Role]] = {}
        for atom in query.binary_atoms():
            for pair, back in (atom.args, False), (atom.args[::-1], True):
                roles.setdefault(pair, set()).add(Role(atom.predicate, back))
        # edges[u, v]: roles u -> v, roles v -> u, all of them reflexive
        self.edges = {pair: (frozenset(ahead), frozenset(roles[pair[::-1]]),
                             all(map(tbox.is_reflexive, ahead)))
                      for pair, ahead in roles.items()}

    def generators(self, roots: FrozenSet[Variable],
                   interior: FrozenSet[Variable]) -> List[Role]:
        """The roles ``rho`` generating ``(tr, ti)``: a homomorphism of
        ``q_t`` into ``C_{T, {A_rho(a)}}`` must send ``tr`` to ``a`` and
        ``ti`` strictly below it, on the branch starting with ``rho``,
        explored to depth ``|ti| + 1`` as in the definition."""
        if interior & self.looped:
            return []
        # an atom between a root and an interior variable lands on the
        # edge (a, a.rho), so rho must be below its role
        ends = [(root, var) for root in roots for var in interior
                if (root, var) in self.edges]
        pinned = {var for _, var in ends}
        edges = {role for end in ends for role in self.edges[end][0]}
        candidates = [letter for letter, supers in self.letters
                      if supers >= edges]
        names, depth = self.table.names, len(interior) + 1
        plans: Dict[int, tuple] = {}  # per bag: see _plan
        memo: Dict[tuple, bool] = {}  # per (bag, rho, shared words)

        def fits(node, parent, placed, rho):
            if node not in plans:
                plans[node] = self._plan(node, parent, interior, pinned)
            shared, steps, children = plans[node]
            key = (node, rho) + tuple(placed[var] for var in shared)
            if key not in memo:
                memo[key] = any(
                    all(fits(child, node, local, rho) for child in children)
                    for local in extend(steps, placed, rho))
            return memo[key]

        def extend(steps, placed, rho):
            if not steps:
                yield placed
                return
            var, pin, links = steps[0]
            # the first variable placed before this one proposes words
            if links:
                words = self._around(placed[links[0][0]], links[0][1], depth)
            else:
                words = [(rho,)] if pin else self._branch(rho, depth)
            for word in words:
                if ((not pin or len(word) == 1)
                        and self.names[var] <= names[word[-1]]
                        and all(word in self._around(placed[other], edge,
                                                     depth)
                                for other, edge in links[1:])):
                    placed[var] = word
                    yield from extend(steps[1:], placed, rho)

        first = min(pinned or interior)
        root = next(node for node, bag in self.bags.items() if first in bag)
        return [rho for rho in candidates if fits(root, None, {}, rho)]

    def _plan(self, node, parent, interior, pinned):
        """A bag restricted to ``ti``: the variables shared with its
        parent, the steps ``(var, pinned, edges from placed variables)``
        placing the others, and the child bags meeting ``ti``."""
        bag = self.bags[node] & interior
        shared = bag & self.bags[parent] if parent is not None else set()
        placed, rest, steps = list(shared), sorted(bag - shared), []
        while rest:
            links = {var: tuple((other, self.edges[other, var])
                                for other in placed
                                if (other, var) in self.edges)
                     for var in rest}
            var = next((v for v in rest if links[v]),
                       next((v for v in rest if v in pinned), rest[0]))
            steps.append((var, var in pinned, links[var]))
            rest.remove(var)
            placed.append(var)
        children = [child for child in self.adjacent[node]
                    if child != parent and self.bags[child] & interior]
        return tuple(sorted(shared)), steps, children

    def _around(self, word: Word, edge, depth: int) -> List[Word]:
        """The nulls ``v`` with ``edge(word, v)``: same, parent, child."""
        ahead, back, same = edge
        supers = self.table.supers
        near = [word] if same else []
        if len(word) > 1 and supers[word[-1]] >= back:
            near.append(word[:-1])
        if len(word) < depth:
            near.extend(word + (letter,)
                        for letter in self.table.successors[word[-1]]
                        if supers[letter] >= ahead)
        return near

    def _branch(self, rho: Role, depth: int) -> Iterator[Word]:
        """Every null of the ``rho``-branch down to ``depth``."""
        stack = [(rho,)]
        while stack:
            word = stack.pop()
            yield word
            if len(word) < depth:
                stack.extend(word + (letter,)
                             for letter in self.table.successors[word[-1]])


class WitnessSearch:
    """Tree-witness detection for one ``TBox``: the generators of every
    candidate ``(tr, ti)`` of a query come from one :class:`_BranchPass`
    over the TBox's witness table; no canonical model is built."""

    def __init__(self, tbox):
        self.tbox = tbox

    def witnesses(self, query: CQ, require_rooted: bool = False,
                  containing: Optional[Variable] = None
                  ) -> List[TreeWitness]:
        """All tree witnesses of ``(T, q)`` (with ``tr != empty`` when
        ``require_rooted``, with ``containing`` in ``ti`` when given),
        each carrying its generating roles."""
        graph = query.gaifman()
        kernel = _BranchPass(self.tbox, query)
        witnesses: List[TreeWitness] = []
        for interior in _connected_existential_subsets(query, containing):
            roots = frozenset(
                {n for v in interior for n in graph[v]} - interior)
            if require_rooted and not roots:
                continue
            generators = kernel.generators(roots, interior)
            if generators:
                witnesses.append(TreeWitness(
                    roots, interior, witness_atoms(query, interior),
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
