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

from ..data.abox import ABox
from ..datalog.evaluate import evaluate
from ..datalog.optimize import inline_edb_leaves
from ..datalog.program import Clause, Equality, Literal, NDLQuery, Program
from ..datalog.transform import star_transform
from ..ontology.tbox import surrogate_name
from ..ontology.terms import TOP, Atomic
from ..queries.cq import CQ, Atom, Variable, components, gaifman_graph
from .tree_witness import WitnessSearch


def tw_rewrite(tbox, query: CQ, over: str = "complete",
               simplify: bool = True) -> NDLQuery:
    """The tree-witness NDL-rewriting of ``(T, q)`` of Theorem 13.

    ``simplify`` applies the Appendix A.6.4 display simplification
    (base-case predicates ``G_q(x) <- q(x)`` are substituted into their
    callers).  Appendix D.4's ``Tw*`` is this program after the
    stronger inlining ``Plan.execute`` runs on every plan
    (:func:`repro.datalog.optimize.optimize`).
    """
    if not query.is_tree_shaped:
        raise ValueError("the Tw rewriter needs a tree-shaped CQ")
    if not query.is_connected:
        raise ValueError("the Tw rewriter needs a connected CQ")
    builder = _TwBuilder(tbox, query)
    result = builder.build()
    if simplify:
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
        worst = max((len(c) for c in components(graph, graph.keys() - {var})),
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
        for component in sorted(components(graph, graph.keys() - {split}),
                                key=sorted):
            atoms = [atom for atom in query.atoms
                     if set(atom.args) <= component | {split}
                     and set(atom.args) & component]
            body.append(self._part(atoms, answers))
        self.clauses.append(Clause(head, tuple(body)))

    def _witness_clauses(self, query: CQ, head: Literal,
                         split: Variable) -> None:
        """One clause per tree witness ``t`` with ``z_q`` interior and
        ``tr`` nonempty, per generating role:
        ``G_q(x) <- A_rho(z_0) & (z = z_0) & G_{q^t_1} & ...``, with a
        ``G_{q^t_i}`` per connected component of ``q`` without ``q_t``."""
        for witness in self.search.witnesses(query, require_rooted=True,
                                             containing=split):
            anchor = min(witness.roots)
            remaining = [atom for atom in query.atoms
                         if atom not in witness.atoms]
            answers = set(query.answer_vars) | witness.roots
            parts = [self._part([atom for atom in remaining
                                 if set(atom.args) <= component], answers)
                     for component in sorted(
                         components(gaifman_graph(remaining)), key=sorted)]
            for role in witness.generators:
                body: List[object] = [
                    Literal(surrogate_name(role), (anchor,))]
                body.extend(Equality(var, anchor)
                            for var in sorted(witness.roots - {anchor}))
                body.extend(parts)
                self.clauses.append(Clause(head, tuple(body)))

    def _part(self, atoms: List[Atom], answers: Set[Variable]) -> Literal:
        """``G_p(y)`` for the subquery ``p`` of ``atoms`` whose answer
        variables are those of ``answers`` it mentions."""
        occurring = {var for atom in atoms for var in atom.args}
        part_answers = tuple(sorted(occurring & answers))
        return Literal(self._define(CQ(atoms, part_answers)), part_answers)

    def _boolean_root_clauses(self, goal: str) -> None:
        """``G_{q_0} <- A(x)`` for every unary predicate ``A`` with
        ``T, {A(a)} |= q_0``, decided for every ``A`` (the TBox's concept
        names, surrogates included, and the query's unary predicates) in
        one evaluation over ``{A(A) : A}``, with no canonical model.  No
        binary fact joins two individuals, so a match of the connected
        ``q_0`` lies in the model of one ``{A(a)}``, and either

        (a) touches ``a``: the clauses built so far find these.  Each
            goal clause binds its first body variable to ``a`` (the
            split variable, or the witness anchor), so with that
            variable as the goal's argument one evaluation answers
            every such ``A``; or
        (b) lies among the nulls, below a topmost one ``a.w.rho``.  It
            satisfies ``A_{rho-}``, and the model of ``{A_{rho-}(s)}``
            maps into its subtree and back, so ``A`` holds iff
            ``A_{rho-}`` does for a first letter ``rho`` forced at
            ``A``: the least fixpoint of that rule over (a).
        """
        names = set(self.tbox.atomic_concept_names)
        names.update(atom.predicate for atom in self.query.unary_atoms())
        anchored = [clause if clause.head.predicate != goal else Clause(
            Literal(goal, (clause.body_literals[0].args[0],)), clause.body)
            for clause in self.clauses]
        data = ABox([(name, (name,)) for name in names]).complete(self.tbox)
        holds = {row[0] for row in evaluate(
            NDLQuery(Program(anchored), goal, ("x",)), data).answers}
        initial = self.tbox.witnesses.initial
        forced = {name: initial.get(Atomic(name), initial.get(TOP, ()))
                  for name in names}
        grown = True
        while grown:
            grown = False
            for name in sorted(names - holds):
                if any(surrogate_name(role.inverse()) in holds
                       for role in forced[name]):
                    holds.add(name)
                    grown = True
        for name in sorted(holds):
            self.clauses.append(
                Clause(Literal(goal, ()), (Literal(name, ("x",)),)))
