"""The Tw rewriter (Section 3.4): NDL-rewritings for ``OMQ(inf, 1, l)``
— arbitrary ontologies with bounded-leaf tree-shaped CQs — evaluable in
LOGCFL (Theorem 13).

The CQ is split at a balancing vertex ``z_q`` (Lemma 14) into branch
subqueries; additionally, every tree witness whose interior contains
``z_q`` contributes a clause matching the witness fragment inside the
anonymous part of the canonical model.  Subquery sizes halve at every
step, giving logarithmic depth and a linear weight function — the
skinny-reducibility conditions of Corollary 7.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import networkx as nx

from ..chase.certain import BooleanMatcher, canonical_model_for
from ..data.abox import ABox
from ..datalog.optimize import inline_edb_leaves, inline_single_definition
from ..datalog.program import Clause, Equality, Literal, NDLQuery, Program
from ..datalog.transform import star_transform
from ..ontology.tbox import surrogate_name
from ..queries.cq import CQ, Atom, Variable
from .tree_witness import TreeWitness, WitnessSearch


def tw_rewrite(tbox, query: CQ, over: str = "complete",
               inline: bool = False, simplify: bool = True) -> NDLQuery:
    """The tree-witness NDL-rewriting of ``(T, q)`` of Theorem 13.

    ``simplify`` applies the Appendix A.6.4 display simplification
    (base-case predicates ``G_q(x) <- q(x)`` are substituted into their
    callers); ``inline=True`` applies the stronger ``Tw*``
    post-processing of Appendix D.4 to the raw build instead
    (:func:`~repro.datalog.optimize.inline_single_definition`:
    single-clause predicates used at most twice are substituted away
    until none is left), before the ``*`` transform.  Both are
    selection policies over the one substitution of
    :mod:`repro.datalog.optimize`.
    """
    if not query.is_tree_shaped:
        raise ValueError("the Tw rewriter needs a tree-shaped CQ")
    if not query.is_connected:
        raise ValueError("the Tw rewriter needs a connected CQ")
    builder = _TwBuilder(tbox, query)
    result = builder.build()
    if inline:
        result = inline_single_definition(result)
    elif simplify:
        result = inline_edb_leaves(result)
    if over == "arbitrary":
        result = star_transform(result, tbox)
    return result


def splitting_vertex(query: CQ) -> Variable:
    """A vertex splitting the Gaifman tree into components of size at
    most ``ceil(n/2)`` (Lemma 14); for two-variable queries with an
    existential variable, that variable is chosen, as in Section 3.4."""
    variables = sorted(query.variables)
    if len(variables) == 2 and query.existential_vars:
        return min(query.existential_vars)
    graph = query.gaifman()
    size = len(variables)
    best, best_cost = None, None
    for var in variables:
        rest = graph.subgraph(set(variables) - {var})
        worst = max((len(c) for c in nx.connected_components(rest)),
                    default=0)
        if best_cost is None or worst < best_cost:
            best, best_cost = var, worst
    assert best is not None and best_cost <= -(-size // 2)
    return best


class _TwBuilder:
    def __init__(self, tbox, query: CQ):
        self.tbox = tbox
        self.query = query
        self.clauses: List[Clause] = []
        self.names: Dict[Tuple, str] = {}
        self.built: Set[str] = set()
        self.search = WitnessSearch(tbox)

    def build(self) -> NDLQuery:
        goal = self._define(self.query)
        if self.query.is_boolean:
            self._boolean_root_clauses(goal)
        return NDLQuery(Program(self.clauses), goal,
                        tuple(self.query.answer_vars))

    # -- predicate bookkeeping ----------------------------------------------

    def _name(self, query: CQ) -> str:
        key = (frozenset(query.atoms), query.answer_vars)
        if key not in self.names:
            self.names[key] = f"Q{len(self.names)}"
        return self.names[key]

    def _define(self, query: CQ) -> str:
        """Emit the clauses for ``G_q`` (memoised); returns the name."""
        name = self._name(query)
        if name in self.built:
            return name
        self.built.add(name)
        head = Literal(name, query.answer_vars)
        if not query.existential_vars:
            self.clauses.append(Clause(head, tuple(
                Literal(atom.predicate, atom.args) for atom in query.atoms)))
            return name
        split = splitting_vertex(query)
        self._branch_clause(query, head, split)
        self._witness_clauses(query, head, split)
        return name

    # -- the two clause forms of Section 3.4 -----------------------------------

    def _branch_clause(self, query: CQ, head: Literal,
                       split: Variable) -> None:
        """``G_q(x) <- {atoms at z_q} & G_{q_1}(x_1) & ... & G_{q_n}(x_n)``
        for the branch subqueries hanging off the splitting vertex."""
        graph = query.gaifman()
        body: List[object] = [Literal(atom.predicate, atom.args)
                              for atom in query.atoms
                              if set(atom.args) <= {split}]
        answers = set(query.answer_vars) | {split}
        rest = graph.subgraph(set(query.variables) - {split})
        for component in sorted(nx.connected_components(rest), key=sorted):
            branch_vars = set(component) | {split}
            atoms = [atom for atom in query.atoms
                     if set(atom.args) <= branch_vars
                     and set(atom.args) & set(component)]
            if not atoms:
                continue
            occurring = {var for atom in atoms for var in atom.args}
            branch_answers = tuple(sorted(occurring & answers))
            branch = CQ(atoms, branch_answers)
            body.append(Literal(self._define(branch), branch_answers))
        self.clauses.append(Clause(head, tuple(body)))

    def _witness_clauses(self, query: CQ, head: Literal,
                         split: Variable) -> None:
        """One clause per tree witness ``t`` with ``z_q`` interior and
        ``tr`` nonempty, per generating role:
        ``G_q(x) <- A_rho(z_0) & (z = z_0) & G_{q^t_1} & ...``."""
        for witness in self.search.witnesses(query, require_rooted=True,
                                             containing=split):
            anchor = min(witness.roots)
            remaining = [atom for atom in query.atoms
                         if atom not in witness.atoms]
            component_literals = self._witness_components(
                query, witness, remaining)
            for role in witness.generators:
                body: List[object] = [
                    Literal(surrogate_name(role), (anchor,))]
                body.extend(Equality(var, anchor)
                            for var in sorted(witness.roots - {anchor}))
                body.extend(component_literals)
                self.clauses.append(Clause(head, tuple(body)))

    def _witness_components(self, query: CQ, witness: TreeWitness,
                            remaining: List[Atom]) -> List[Literal]:
        """``G_{q^t_i}`` literals for the connected components of
        ``q`` without ``q_t``."""
        if not remaining:
            return []
        graph = nx.Graph()
        for atom in remaining:
            for var in atom.args:
                graph.add_node(var)
            if atom.is_binary and atom.args[0] != atom.args[1]:
                graph.add_edge(*atom.args)
        answers = set(query.answer_vars) | set(witness.roots)
        literals: List[Literal] = []
        for component in sorted(nx.connected_components(graph), key=sorted):
            atoms = [atom for atom in remaining
                     if set(atom.args) <= set(component)]
            occurring = {var for atom in atoms for var in atom.args}
            component_answers = tuple(sorted(occurring & answers))
            sub = CQ(atoms, component_answers)
            literals.append(Literal(self._define(sub), component_answers))
        return literals

    def _boolean_root_clauses(self, goal: str) -> None:
        """``G_{q_0} <- A(x)`` for every unary predicate ``A`` with
        ``T, {A(a)} |= q_0`` (matches entirely in the anonymous part)."""
        names = set(self.tbox.atomic_concept_names)
        names.update(atom.predicate for atom in self.query.unary_atoms())
        matcher = BooleanMatcher(self.tbox, self.query)
        for name in sorted(names):
            abox = ABox([(name, ("a",))])
            if matcher.holds(canonical_model_for(self.tbox, abox,
                                                 self.query)):
                self.clauses.append(
                    Clause(Literal(goal, ()), (Literal(name, ("x",)),)))
