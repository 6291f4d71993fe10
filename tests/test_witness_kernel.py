"""The witness kernel against the brute force it replaced.

``tests/helpers.py`` keeps the old algorithms (successor sets re-derived
from entailment on every use, full-domain homomorphism search, every
connected existential subset against every role, ``elements()`` scans
for the Boolean match); here random TBoxes and CQs hold the per-TBox
witness table, the anchored search and the pre-filtered tree-witness
enumeration to them, and count-based guards pin *how* the kernel gets
there (no wall clock).
"""

import ast
import itertools
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chase import CanonicalModel, certain_answers, is_certain_answer
from repro.chase.homomorphism import SearchPlan
from repro.data import ABox
from repro.hardness import (
    dagger_tbox,
    ddagger_tbox,
    sat_query,
    tokenize,
    word_query,
)
from repro.ontology import TBox, depth
from repro.ontology.axioms import ConceptInclusion, Reflexivity, RoleInclusion
from repro.ontology.terms import Atomic, Exists, Role
from repro.queries import CQ, Atom, chain_cq
from repro import rewriting
from repro.rewriting import tree_witnesses, tw_rewrite
from repro.rewriting.tree_witness import WitnessSearch
from repro.rewriting.tw import _TwBuilder

from .helpers import (
    brute_is_certain_answer,
    brute_successor_roles,
    brute_tree_witnesses,
    brute_tw_rewrite,
    canonical_program,
    example11_tbox,
    hypothesis_settings,
)

ROLE_NAMES = ("P", "Q")
CONCEPT_NAMES = ("A", "B")
ROLES = [Role(name, inverted) for name in ROLE_NAMES
         for inverted in (False, True)]
CONCEPTS = ([Atomic(name) for name in CONCEPT_NAMES]
            + [Exists(role) for role in ROLES])

SETTINGS = hypothesis_settings(60)


@st.composite
def tboxes(draw):
    """Role inclusions (with inverses), reflexive roles and concept
    inclusions with existentials on either side: finite and infinite
    depth both occur."""
    axioms = []
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(["ci", "ci", "ci", "ri", "ri", "refl"]))
        if kind == "ci":
            # existentials on the right are what grows the anonymous part
            rhs = CONCEPTS[2:] if draw(st.booleans()) else CONCEPTS
            axioms.append(ConceptInclusion(draw(st.sampled_from(CONCEPTS)),
                                           draw(st.sampled_from(rhs))))
        elif kind == "ri":
            axioms.append(RoleInclusion(draw(st.sampled_from(ROLES)),
                                        draw(st.sampled_from(ROLES))))
        else:
            axioms.append(Reflexivity(draw(st.sampled_from(ROLES))))
    return TBox(axioms)


@st.composite
def queries(draw, tree_shaped=False):
    """A connected CQ on 1-4 variables, Boolean or rooted; unless
    ``tree_shaped`` it may carry loops ``P(z, z)`` and cycles."""
    size = draw(st.integers(1 if not tree_shaped else 2, 4))
    variables = [f"v{i}" for i in range(size)]
    atoms = []
    for i in range(1, size):
        pair = (variables[draw(st.integers(0, i - 1))], variables[i])
        if draw(st.booleans()):
            pair = pair[::-1]
        atoms.append(Atom(draw(st.sampled_from(ROLE_NAMES)), pair))
    if not tree_shaped:
        for _ in range(draw(st.integers(0, 2))):
            atoms.append(Atom(draw(st.sampled_from(ROLE_NAMES)),
                              (draw(st.sampled_from(variables)),
                               draw(st.sampled_from(variables)))))
    for var in variables:
        if draw(st.integers(0, 2)) == 0 or (size == 1 and not atoms):
            atoms.append(Atom(draw(st.sampled_from(CONCEPT_NAMES)), (var,)))
    answers = tuple(variables[:draw(st.integers(0, min(2, size)))])
    return CQ(atoms, answers)


@st.composite
def aboxes(draw):
    abox = ABox()
    names = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            abox.add(draw(st.sampled_from(
                CONCEPT_NAMES + ("A_P", "A_P-", "A_Q", "A_Q-"))),
                draw(st.sampled_from(names)))
        else:
            abox.add(draw(st.sampled_from(ROLE_NAMES)),
                     draw(st.sampled_from(names)),
                     draw(st.sampled_from(names)))
    return abox


def as_parts(witnesses):
    return {(w.roots, w.interior, w.atoms, w.generators) for w in witnesses}


#: (ontology, query body, data) — cases the random draw seldom reaches
HANDPICKED = [
    # the only match is anonymous and the unary atom sits on its top
    ("roles: P\nA <= EP\nEP- <= B", "B(x)", "A(c)"),
    # the top is the P-null, the match continues below it
    ("roles: P, Q\nA <= EP\nEP- <= EQ\nEQ- <= B", "Q(x, y), B(y)",
     "A(c)"),
    # infinite depth: the match may start at any level
    ("roles: P\nA <= EP\nEP- <= A\nEP- <= B",
     "P(x, y), P(y, z), B(x), A(z)", "A(c)"),
    # a reflexive role loops on a null; P- may not follow P
    ("roles: P, W\nrefl(W)\nA <= EP", "W(x, x), P(y, x), P(y, z)",
     "A(c)"),
    # the parent is the witness: Q(x, y) folds back over P(y, x)
    ("roles: P, Q\nP <= Q-\nA <= EP\nEP- <= EQ",
     "P(x, y), Q(y, z), A(z)", "A(c), B(d)"),
    # a cycle needs the data; a null cannot close it
    ("roles: P, Q\nA <= EP\nEP- <= EQ", "P(x, y), Q(y, z), P(z, x)",
     "A(c), P(c, d), Q(d, e), P(e, c)"),
]


@st.composite
def larger_queries(draw, cyclic=False):
    """A connected CQ on 5-7 variables with 1-2 answer variables: a
    tree, or (``cyclic``) a cycle of 3-5 variables with a pendant path
    (treewidth 2)."""
    size = draw(st.integers(5, 7))
    variables = [f"v{i}" for i in range(size)]
    if cyclic:
        # the path ends in an answer variable, so the whole cycle can
        # be interior
        length = draw(st.integers(3, min(5, size - 1)))
        pairs = [(variables[i], variables[(i + 1) % length])
                 for i in range(length)]
        pairs += [(variables[i - 1], variables[i])
                  for i in range(length, size)]
        answers = {variables[-1]}
    else:
        pairs = [(variables[draw(st.integers(0, i - 1))], variables[i])
                 for i in range(1, size)]
        answers = {draw(st.sampled_from(variables))}
    atoms = [Atom(draw(st.sampled_from(ROLE_NAMES)),
                  pair[::-1] if draw(st.booleans()) else pair)
             for pair in pairs]
    # a cycle of one predicate in one direction is what a pass that
    # checks only a spanning tree folds onto a chain of nulls
    if cyclic and draw(st.booleans()):
        atoms[:length] = [Atom(atoms[0].predicate, pair)
                          for pair in pairs[:length]]
    for var in variables:
        if draw(st.integers(0, 3)) == 0:
            atoms.append(Atom(draw(st.sampled_from(CONCEPT_NAMES)), (var,)))
    answers.add(draw(st.sampled_from(variables)))
    return CQ(atoms, sorted(answers))


def assert_witnesses_are_brute(tbox, query):
    """Every variant of the search equals the brute force: all tree
    witnesses, the rooted ones, and those containing each variable."""
    brute = brute_tree_witnesses(tbox, query)
    assert as_parts(tree_witnesses(tbox, query)) == brute
    assert as_parts(tree_witnesses(tbox, query, require_rooted=True)) == {
        parts for parts in brute if parts[0]}
    search = WitnessSearch(tbox)
    for var in sorted(query.existential_vars):
        assert as_parts(search.witnesses(query, containing=var)) == {
            parts for parts in brute if var in parts[1]}
        assert as_parts(search.witnesses(query, require_rooted=True,
                                         containing=var)) == {
            parts for parts in brute if parts[0] and var in parts[1]}


#: a P-chain of nulls under every P-null: a pass that checks only a
#: spanning tree of q_t folds the cycle onto the chain and reports a
#: false P-generator
CYCLES = ["P(x, y), P(y, z), P(x, z)",
          "P(u, x), P(x, y), P(y, z), P(x, z)"]


@pytest.mark.parametrize("body", CYCLES)
def test_cycles_match_the_brute_force(body):
    tbox = TBox.parse("roles: P\nA <= EP\nEP- <= EP")
    first = min(CQ.parse(body).variables)
    for answers in ([], [first]):
        assert_witnesses_are_brute(tbox, CQ.parse(body, answer_vars=answers))


class TestLargerQueries:
    """Tree-shaped and treewidth-2 queries of 5-7 variables: the one
    pass over the restricted tree decomposition against the brute
    force, on TBoxes with a nonempty anonymous part (finite or infinite
    depth, reflexive roles among them)."""

    @hypothesis_settings(20)
    @given(tbox=tboxes().filter(lambda tbox: tbox.witnesses.depth),
           query=larger_queries())
    def test_tree_shaped(self, tbox, query):
        assert_witnesses_are_brute(tbox, query)

    @hypothesis_settings(20)
    @given(tbox=tboxes().filter(lambda tbox: tbox.witnesses.depth),
           query=larger_queries(cyclic=True))
    def test_treewidth_two(self, tbox, query):
        assert_witnesses_are_brute(tbox, query)


class TestAgainstBruteForce:
    @SETTINGS
    @given(tbox=tboxes())
    def test_witness_table(self, tbox):
        table = tbox.witnesses
        assert table.roles == tuple(sorted(tbox.roles))
        assert set(table.letters) == {
            role for role in tbox.roles if not tbox.is_reflexive(role)}
        for letter in table.letters:
            assert list(depth.successor_roles(tbox, letter)) == \
                brute_successor_roles(tbox, letter)
            assert table.names[letter] == {
                name for name in tbox.atomic_concept_names
                if tbox.entails_concept(Exists(letter.inverse()),
                                        Atomic(name))}
        for concept in tbox.saturation.concepts:
            assert list(tbox.initial_roles(concept)) == [
                role for role in sorted(tbox.roles)
                if not tbox.is_reflexive(role)
                and tbox.entails_concept(concept, Exists(role))]
        for role in tbox.roles:
            assert tbox.role_subs(role) == {
                sub for sub in tbox.roles if tbox.entails_role(sub, role)}
        for concept in tbox.saturation.concepts:
            assert tbox.concept_subs(concept) == {
                sub for sub in tbox.saturation.concepts
                if concept in tbox.concept_supers(sub)}

    @SETTINGS
    @given(tbox=tboxes(), query=queries())
    def test_tree_witnesses(self, tbox, query):
        brute = brute_tree_witnesses(tbox, query)
        assert as_parts(tree_witnesses(tbox, query)) == brute
        rooted = {parts for parts in brute if parts[0]}
        assert as_parts(tree_witnesses(tbox, query,
                                       require_rooted=True)) == rooted
        search = WitnessSearch(tbox)
        for var in sorted(query.variables):
            assert as_parts(search.witnesses(query, containing=var)) == {
                parts for parts in brute if var in parts[1]}

    @SETTINGS
    @given(tbox=tboxes(), query=queries(), abox=aboxes())
    def test_certain_answers(self, tbox, query, abox):
        expected = {
            candidate for candidate in itertools.product(
                sorted(abox.individuals), repeat=len(query.answer_vars))
            if brute_is_certain_answer(tbox, abox, query, candidate)}
        for candidate in itertools.product(sorted(abox.individuals),
                                           repeat=len(query.answer_vars)):
            assert is_certain_answer(tbox, abox, query, candidate) == \
                (candidate in expected)
        assert certain_answers(tbox, abox, query) == expected

    @pytest.mark.parametrize("ontology, body, data", HANDPICKED)
    def test_handpicked(self, ontology, body, data):
        tbox, abox = TBox.parse(ontology), ABox.parse(data)
        boolean = CQ.parse(body)
        assert as_parts(tree_witnesses(tbox, boolean)) == \
            brute_tree_witnesses(tbox, boolean)
        assert is_certain_answer(tbox, abox, boolean, ()) == \
            brute_is_certain_answer(tbox, abox, boolean, ())
        rooted = CQ.parse(body, answer_vars=["x"])
        assert certain_answers(tbox, abox, rooted) == {
            (constant,) for constant in abox.individuals
            if brute_is_certain_answer(tbox, abox, rooted, (constant,))}
        for query in (boolean, rooted):
            if query.is_tree_shaped:
                assert canonical_program(
                    tw_rewrite(tbox, query, simplify=False)) == \
                    canonical_program(brute_tw_rewrite(tbox, query))

    @SETTINGS
    @given(tbox=tboxes(), query=queries(tree_shaped=True))
    def test_tw_program(self, tbox, query):
        assert canonical_program(tw_rewrite(tbox, query, simplify=False)) \
            == canonical_program(brute_tw_rewrite(tbox, query))


#: compile-cold's three gadgets: the digest of the unsimplified Tw
#: program (IDB names and clause order factored out) and its size, as
#: produced by the brute force at the commit that introduced the kernel
GADGETS = {
    "sat2": (lambda: (dagger_tbox(), sat_query([[1, 2], [-1]])),
             "4be29a9ce1f4a232", 27),
    "sat4": (lambda: (dagger_tbox(), sat_query(
        [[1, 2, 3], [-1, 2], [-2, 3], [-3, 1]])), "d23dd1a06e548fff", 77),
    "word[a1b1]": (lambda: (ddagger_tbox(), word_query(tokenize("[a1b1]"))),
                   "9b975995480b6396", 28),
}


@pytest.mark.parametrize("label", sorted(GADGETS))
def test_gadget_programs_are_pinned(label):
    build, digest, clauses = GADGETS[label]
    ndl = tw_rewrite(*build(), simplify=False)
    assert (canonical_program(ndl), len(ndl.program.clauses)) == \
        (digest, clauses)


#: compile-cold's nine Example 11 chains under ``tw`` (the Section 6
#: sequences at prefixes 5, 9, 15): the digest of the unsimplified Tw
#: program and its size, as produced by the per-role model search the
#: one-pass witness kernel replaced
CHAINS = {
    "sequence1[:5]": ("RRSRS", "1ecd8dfe18c4db2c", 12),
    "sequence1[:9]": ("RRSRSRSRR", "754aefaf52d4ddb5", 30),
    "sequence1[:15]": ("RRSRSRSRRSRRSSR", "f44ad043aa2735f2", 53),
    "sequence2[:5]": ("SRRRR", "87c4d0715b2ad565", 10),
    "sequence2[:9]": ("SRRRRRSRS", "238ca8994b289710", 21),
    "sequence2[:15]": ("SRRRRRSRSRRRRRR", "094174e40711c851", 41),
    "sequence3[:5]": ("SRRSS", "69d9c455977f5232", 11),
    "sequence3[:9]": ("SRRSSRSRS", "37e7ca3e7c0c71b8", 23),
    "sequence3[:15]": ("SRRSSRSRSRRSRRS", "56871983988b0f53", 56),
}


def pinned_omq(label):
    """The ``(tbox, query)`` of a ``GADGETS`` or ``CHAINS`` entry."""
    if label in GADGETS:
        return GADGETS[label][0]()
    return example11_tbox(), chain_cq(CHAINS[label][0])


@pytest.mark.parametrize("label", sorted(CHAINS))
def test_chain_programs_are_pinned(label):
    _, digest, clauses = CHAINS[label]
    ndl = tw_rewrite(*pinned_omq(label), simplify=False)
    assert (canonical_program(ndl), len(ndl.program.clauses)) == \
        (digest, clauses)


class TestHowTheKernelWorks:
    """Counts, not clocks: what a cold gadget compile may derive."""

    @pytest.mark.parametrize("label", sorted(GADGETS))
    def test_successors_derived_once_per_letter(self, label, monkeypatch):
        derived = Counter()
        original = depth._successors

        def counting(saturation, initial, letter):
            derived[(id(saturation), letter)] += 1
            return original(saturation, initial, letter)

        monkeypatch.setattr(depth, "_successors", counting)
        tbox, query = GADGETS[label][0]()
        tw_rewrite(tbox, query)
        tbox.depth()
        assert derived and max(derived.values()) == 1
        assert {letter for _, letter in derived} == set(
            tbox.witnesses.letters)

    @pytest.mark.parametrize("label", sorted(GADGETS))
    def test_boolean_root_clauses_never_scan_the_domain(self, label,
                                                        monkeypatch):
        scans = []
        inside = []
        original_elements = CanonicalModel.elements
        original_root = _TwBuilder._boolean_root_clauses

        def elements(model):
            if inside:
                scans.append(model)
            return original_elements(model)

        def root_clauses(builder, goal):
            inside.append(goal)
            try:
                return original_root(builder, goal)
            finally:
                inside.pop()

        monkeypatch.setattr(CanonicalModel, "elements", elements)
        monkeypatch.setattr(_TwBuilder, "_boolean_root_clauses",
                            root_clauses)
        tbox, query = GADGETS[label][0]()
        tw_rewrite(tbox, query)
        assert scans == []

    @pytest.mark.parametrize("label", sorted(GADGETS) + ["sequence1[:15]"])
    def test_witness_search_builds_no_model_and_no_search(self, label,
                                                          monkeypatch):
        built = Counter()
        searches = []
        inside = []
        original_witnesses = WitnessSearch.witnesses

        def witnesses(search, *args, **kwargs):
            searches.append(search)
            inside.append(search)
            try:
                return original_witnesses(search, *args, **kwargs)
            finally:
                inside.pop()

        def counting(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                if inside:
                    built[cls.__name__] += 1
                original(self, *args, **kwargs)
            return init

        for cls in (CanonicalModel, SearchPlan):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        monkeypatch.setattr(WitnessSearch, "witnesses", witnesses)
        tw_rewrite(*pinned_omq(label))
        assert searches and built == Counter()

    @pytest.mark.parametrize("label", sorted(GADGETS))
    def test_whole_rewrite_builds_no_model_and_no_search(self, label,
                                                         monkeypatch):
        # the Boolean root clauses included: one evaluation decides them
        built = Counter()

        def counting(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                built[cls.__name__] += 1
                original(self, *args, **kwargs)
            return init

        for cls in (CanonicalModel, SearchPlan):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        tbox, query = GADGETS[label][0]()
        assert query.is_boolean
        tw_rewrite(tbox, query)
        assert built == Counter()

    def test_rewriters_import_nothing_from_the_chase(self):
        package = Path(rewriting.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    assert not module.startswith(("..chase", "repro.chase")), \
                        f"{path.name} imports {module}"

    def test_table_is_per_tbox(self):
        first, second = dagger_tbox(), dagger_tbox()
        assert first.witnesses is first.witnesses
        assert first.witnesses is not second.witnesses
        assert first.witnesses.depth is math.inf

    def test_results_cannot_be_mutated(self):
        tbox = ddagger_tbox()
        letter = Role("g1")
        before = depth.successor_roles(tbox, letter)
        assert before and isinstance(before, tuple)
        for result in (before, tbox.successor_roles(letter),
                       tbox.initial_roles(Atomic("D"))):
            with pytest.raises((TypeError, AttributeError)):
                result.append(Role("g2"))
            with pytest.raises(TypeError):
                result[0] = Role("g2")
        with pytest.raises(TypeError):
            depth.successor_graph(tbox)[letter] = ()
        with pytest.raises(TypeError):
            tbox.witnesses.names[letter] = frozenset()
        with pytest.raises(AttributeError):
            tbox.witnesses.letters = ()
        assert depth.successor_roles(tbox, letter) == before
