"""Shared fixtures/utilities for the rewriting tests, the brute-force
oracle the witness kernel is held to, and the full-scan delete delta
the incremental one is held to."""

import hashlib
import os
import random

from hypothesis import HealthCheck, settings

from repro.data import ABox
from repro.datalog.program import Clause, Literal
from repro.ontology import TBox
from repro.ontology.tbox import surrogate_name
from repro.ontology.terms import TOP, Atomic, Exists, Role
from repro.queries import CQ
from repro.rewriting.tree_witness import TreeWitness
from repro.rewriting.tw import _TwBuilder


def hypothesis_settings(max_examples: int) -> settings:
    """The one hypothesis ``settings`` every property suite uses.

    ``max_examples`` is the suite's full-depth budget; setting
    ``REPRO_HYPOTHESIS_PROFILE=ci`` caps it (CI trades depth for
    wall clock, local runs keep the full budget).
    """
    profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default")
    if profile == "ci":
        max_examples = min(max_examples, 8)
    elif profile != "default":
        raise ValueError(
            f"unknown REPRO_HYPOTHESIS_PROFILE {profile!r}; "
            "expected 'default' or 'ci'")
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def example11_tbox() -> TBox:
    """The ontology of Example 11 / Section 6."""
    return TBox.parse("roles: P, R, S\nP <= S\nP <= R-")


def deep_tbox() -> TBox:
    """A depth-2 ontology exercising longer witness words."""
    return TBox.parse("""
        roles: P, Q, R, S
        A <= EP
        EP- <= EQ
        EQ- <= B
        P <= R
        Q <= S
    """)


def infinite_tbox() -> TBox:
    """An infinite-depth ontology (for the Tw rewriter)."""
    return TBox.parse("""
        roles: P, R
        A <= EP
        EP- <= A
        P <= R
    """)


def random_data(seed: int, individuals: int = 6, atoms: int = 18,
                unary=("A", "B", "A_P", "A_P-", "A_Q", "A_Q-"),
                binary=("P", "Q", "R", "S")) -> ABox:
    """A reproducible random data instance."""
    rng = random.Random(seed)
    abox = ABox()
    names = [f"n{i}" for i in range(individuals)]
    for _ in range(atoms):
        use_unary = unary and (not binary or rng.random() < 0.35)
        if use_unary:
            abox.add(rng.choice(list(unary)), rng.choice(names))
        else:
            abox.add(rng.choice(list(binary)), rng.choice(names),
                     rng.choice(names))
    return abox


def full_scan_delete_delta(tbox, abox_after, completed, deleted):
    """``repro.service.updates.completed_delete_delta`` as it was before
    the per-individual adjacency: the support set is every atom of the
    whole ABox that mentions an affected individual, and it is completed
    outright.  The reference the narrowed version is held to."""
    deleted = list(deleted)
    affected = {constant for _, args in deleted for constant in args}
    candidates = ABox(deleted).complete(tbox)
    support = ABox(atom for atom in abox_after.atoms()
                   if affected.intersection(atom[1]))
    still_entailed = support.complete(tbox)
    return [atom for atom in candidates.atoms()
            if atom not in still_entailed and atom in completed]


# -- the brute-force witness oracle ------------------------------------------
#
# The algorithms the witness kernel replaced, kept as its reference:
# nothing is precomputed per TBox (every successor set is re-derived
# from entailment checks), every unfixed query variable ranges over the
# whole bounded domain, tree witnesses try every connected existential
# subset against every non-reflexive role, and a Boolean match scans
# ``elements()`` of the data model and of every letter's state model.
# tests/test_witness_kernel.py holds src/ to these.


def brute_successor_roles(tbox, role):
    """Roles that may follow ``role`` in a word of ``W_T``, from the
    definition."""
    return [candidate for candidate in sorted(tbox.roles)
            if not tbox.is_reflexive(candidate)
            and tbox.entails_concept(Exists(role.inverse()),
                                     Exists(candidate))
            and not tbox.entails_role(role, candidate.inverse())]


class BruteModel:
    """The canonical model up to ``max_depth``, materialised eagerly."""

    def __init__(self, tbox, abox, max_depth):
        self.tbox, self.abox, self.max_depth = tbox, abox, max_depth
        self.concepts = {constant: set(tbox.concept_supers(TOP))
                         for constant in abox.individuals}
        for predicate in abox.unary_predicates:
            for constant in abox.unary(predicate):
                self.concepts[constant] |= tbox.concept_supers(
                    Atomic(predicate))
        for predicate in abox.binary_predicates:
            role = Role(predicate)
            for first, second in abox.binary(predicate):
                self.concepts[first] |= tbox.concept_supers(Exists(role))
                self.concepts[second] |= tbox.concept_supers(
                    Exists(role.inverse()))
        self.domain = []
        stack = [(constant, ()) for constant in sorted(abox.individuals)]
        while stack:
            element = stack.pop()
            self.domain.append(element)
            stack.extend(self.children(element))

    def children(self, element):
        constant, word = element
        if len(word) >= self.max_depth:
            return []
        if word:
            letters = brute_successor_roles(self.tbox, word[-1])
        else:
            letters = [role for role in sorted(self.tbox.roles)
                       if not self.tbox.is_reflexive(role)
                       and Exists(role) in self.concepts[constant]]
        return [(constant, word + (letter,)) for letter in letters]

    def holds(self, atom, assignment) -> bool:
        tbox = self.tbox
        if len(atom.args) == 1:
            constant, word = assignment[atom.args[0]]
            if not word:
                return Atomic(atom.predicate) in self.concepts[constant]
            return tbox.entails_concept(Exists(word[-1].inverse()),
                                        Atomic(atom.predicate))
        role = Role(atom.predicate)
        first, second = (assignment[arg] for arg in atom.args)
        if not first[1] and not second[1]:
            if self.abox.has_role(role, first[0], second[0]) or any(
                    self.abox.has_role(sub, first[0], second[0])
                    for sub in tbox.roles if tbox.entails_role(sub, role)):
                return True
        if first == second:
            return tbox.is_reflexive(role)
        if first[0] != second[0]:
            return False
        if second[1][:-1] == first[1] and second[1]:
            return tbox.entails_role(second[1][-1], role)
        if first[1][:-1] == second[1] and first[1]:
            return tbox.entails_role(first[1][-1].inverse(), role)
        return False


def brute_homomorphisms(model, query, fixed=None):
    """Every homomorphism of ``query`` into ``model`` extending
    ``fixed``; unfixed variables range over the full domain."""
    fixed = dict(fixed or {})
    order = sorted(fixed) + sorted(query.variables - set(fixed))
    position = {var: i for i, var in enumerate(order)}
    checks = [[] for _ in order]
    for atom in query.atoms:
        checks[max(position[arg] for arg in atom.args)].append(atom)
    assignment = {}

    def extend(index):
        if index == len(order):
            yield dict(assignment)
            return
        var = order[index]
        for candidate in ([fixed[var]] if var in fixed else model.domain):
            assignment[var] = candidate
            if all(model.holds(atom, assignment) for atom in checks[index]):
                yield from extend(index + 1)
            del assignment[var]

    return extend(0)


def _brute_has_match(model, query, fixed=None) -> bool:
    return next(brute_homomorphisms(model, query, fixed), None) is not None


def brute_boolean_holds(tbox, abox, query, model) -> bool:
    """``T, A |= q`` for a Boolean connected CQ: a match in the data
    model or in the state model of a reachable letter, found by
    scanning their whole domains."""
    if _brute_has_match(model, query):
        return True
    stack = [role for role in sorted(tbox.roles)
             if not tbox.is_reflexive(role)
             and any(Exists(role) in concepts
                     for concepts in model.concepts.values())]
    reachable = set(stack)
    while stack:
        for succ in brute_successor_roles(tbox, stack.pop()):
            if succ not in reachable:
                reachable.add(succ)
                stack.append(succ)
    bound = max(1, len(query.variables))
    return any(
        _brute_has_match(BruteModel(tbox, ABox(
            [(surrogate_name(letter.inverse()), ("_state",))]), bound),
            query)
        for letter in sorted(reachable))


def brute_is_certain_answer(tbox, abox, query, candidate) -> bool:
    """``T, A |= q(candidate)`` by brute force."""
    if any(constant not in abox.individuals for constant in candidate):
        return False
    assignment = dict(zip(query.answer_vars, candidate))
    model = BruteModel(tbox, abox, max(1, len(query.variables)))
    for component in query.connected_components():
        answers = tuple(v for v in query.answer_vars if v in component)
        sub = query.restrict_to(component, answers)
        if answers:
            fixed = {var: (assignment[var], ()) for var in answers}
            if not _brute_has_match(model, sub, fixed):
                return False
        elif not brute_boolean_holds(tbox, abox, sub, model):
            return False
    return True


def brute_tree_witnesses(tbox, query, require_rooted=False):
    """All tree witnesses as ``(roots, interior, atoms, generators)``:
    every connected existential subset against every non-reflexive
    role."""
    graph = query.gaifman()
    stack = [frozenset({var}) for var in sorted(query.existential_vars)]
    seen = set(stack)
    found = set()
    while stack:
        interior = stack.pop()
        border = {n for v in interior for n in graph[v]} - interior
        for var in border & query.existential_vars:
            if interior | {var} not in seen:
                seen.add(interior | {var})
                stack.append(interior | {var})
        roots = frozenset(border)
        atoms = frozenset(atom for atom in query.atoms
                          if set(atom.args) & interior)
        if not atoms or (require_rooted and not roots):
            continue
        sub = CQ(sorted(atoms), tuple(sorted(roots)))
        generators = []
        for role in sorted(tbox.roles):
            if tbox.is_reflexive(role):
                continue
            model = BruteModel(tbox, ABox([(surrogate_name(role), ("a",))]),
                               len(interior) + 1)
            fixed = {var: ("a", ()) for var in roots}
            if any(all(hom[var][1] and hom[var][1][0] == role
                       for var in interior)
                   for hom in brute_homomorphisms(model, sub, fixed)):
                generators.append(role)
        if generators:
            found.add((roots, interior, atoms, tuple(generators)))
    return found


class _BruteWitnessSearch:
    def __init__(self, tbox):
        self.tbox = tbox

    def witnesses(self, query, require_rooted=False, containing=None):
        return [TreeWitness(*parts) for parts in sorted(
            brute_tree_witnesses(self.tbox, query, require_rooted),
            key=lambda parts: sorted(parts[1]))
            if containing is None or containing in parts[1]]


class _BruteTwBuilder(_TwBuilder):
    """The Tw construction over the brute-force witness search and
    Boolean match."""

    def __init__(self, tbox, query):
        super().__init__(tbox, query)
        self.search = _BruteWitnessSearch(tbox)

    def _boolean_root_clauses(self, goal):
        names = set(self.tbox.atomic_concept_names)
        names.update(atom.predicate for atom in self.query.unary_atoms())
        for name in sorted(names):
            if brute_is_certain_answer(self.tbox, ABox([(name, ("a",))]),
                                       self.query, ()):
                self.clauses.append(
                    Clause(Literal(goal, ()), (Literal(name, ("x",)),)))


def brute_tw_rewrite(tbox, query):
    """The unsimplified Tw rewriting, built over the oracle."""
    return _BruteTwBuilder(tbox, query).build()


def canonical_program(ndl) -> str:
    """A digest of an NDL query that ignores IDB predicate names and the
    order of clauses and of body atoms (variable names are kept: the
    unsimplified Tw rewriting uses the query's own)."""
    program = ndl.program
    digests = {}

    def digest(predicate):
        if predicate not in program.idb_predicates:
            return predicate
        if predicate not in digests:
            clauses = sorted(
                f"({', '.join(clause.head.args)}) <- " + " & ".join(sorted(
                    f"{digest(atom.predicate)}({', '.join(atom.args)})"
                    if isinstance(atom, Literal) else str(atom)
                    for atom in clause.body))
                for clause in program.clauses_for(predicate))
            digests[predicate] = hashlib.sha256(
                "\n".join(clauses).encode()).hexdigest()[:16]
        return digests[predicate]

    return digest(ndl.goal)
