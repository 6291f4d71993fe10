"""Data instances (ABoxes): finite sets of unary and binary ground atoms."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from ..ontology.terms import TOP, Atomic, Exists, Role

Constant = str
GroundAtom = Tuple[str, Tuple[Constant, ...]]


def individual_concepts(tbox, abox: "ABox") -> Dict[Constant, Set]:
    """The basic concepts ``tau`` with ``T, A |= tau(a)`` for every
    ``a`` in ``ind(A)``.  OWL 2 QL axioms have single atoms on the left,
    so this is one pass over the data through the concept hierarchy."""
    top_supers = tbox.concept_supers(TOP)
    entailed: Dict[Constant, Set] = {
        constant: set(top_supers) for constant in abox._occurrences}
    for predicate, constants in abox._unary.items():
        supers = tbox.concept_supers(Atomic(predicate))
        for constant in constants:
            entailed[constant].update(supers)
    for predicate, pairs in abox._binary.items():
        role = Role(predicate)
        forward = tbox.concept_supers(Exists(role))
        backward = tbox.concept_supers(Exists(role.inverse()))
        for first, second in pairs:
            entailed[first].update(forward)
            entailed[second].update(backward)
    return entailed


class ABox:
    """A data instance ``A``: unary atoms ``A(a)`` and binary ``P(a, b)``.

    The class also offers the derived views used in Section 2:
    ``rho(a, b) in A`` for roles (``P(a, b)`` for direct roles and
    ``P(b, a)`` for inverses) and completion w.r.t. a TBox.
    """

    def __init__(self, atoms: Iterable[GroundAtom] = ()):
        self._unary: Dict[str, Set[Constant]] = {}
        self._binary: Dict[str, Set[Tuple[Constant, Constant]]] = {}
        #: constant -> number of argument positions it fills; the keys
        #: are ``ind(A)``, and counting makes removal O(1) per atom
        self._occurrences: Dict[Constant, int] = {}
        #: constant -> the atoms mentioning it; see :meth:`around`
        self._around: Optional[Dict[Constant, Set[GroundAtom]]] = None
        for predicate, args in atoms:
            self.add(predicate, *args)

    # -- construction -----------------------------------------------------

    def add(self, predicate: str, *args: Constant) -> None:
        """Add a ground atom ``predicate(args)`` (idempotent)."""
        if len(args) == 1:
            relation = self._unary.setdefault(predicate, set())
            if args[0] in relation:
                return
            relation.add(args[0])
        elif len(args) == 2:
            relation = self._binary.setdefault(predicate, set())
            if tuple(args) in relation:
                return
            relation.add(tuple(args))
        else:
            raise ValueError("ABox atoms must be unary or binary")
        for constant in args:
            self._occurrences[constant] = \
                self._occurrences.get(constant, 0) + 1
        if self._around is not None:
            self._link((predicate, tuple(args)))

    def discard(self, predicate: str, *args: Constant) -> bool:
        """Remove a ground atom; ``True`` if it was present.

        Constants that no longer occur in any atom leave
        :attr:`individuals`, so an updated ABox is indistinguishable
        from one freshly built over the remaining atoms (the invariant
        the incremental-update layer of :mod:`repro.service` relies
        on).
        """
        if len(args) == 1:
            relation = self._unary.get(predicate)
            present = relation is not None and args[0] in relation
            if present:
                relation.discard(args[0])
                if not relation:
                    del self._unary[predicate]
        elif len(args) == 2:
            relation = self._binary.get(predicate)
            present = relation is not None and tuple(args) in relation
            if present:
                relation.discard(tuple(args))
                if not relation:
                    del self._binary[predicate]
        else:
            raise ValueError("ABox atoms must be unary or binary")
        if present:
            for constant in args:
                remaining = self._occurrences[constant] - 1
                if remaining:
                    self._occurrences[constant] = remaining
                else:
                    del self._occurrences[constant]
            if self._around is not None:
                atom = (predicate, tuple(args))
                for constant in set(args):
                    atoms = self._around[constant]
                    atoms.discard(atom)
                    if not atoms:
                        del self._around[constant]
        return present

    @classmethod
    def parse(cls, text: str) -> "ABox":
        """Parse atoms like ``A(a), P(a, b)`` (comma/newline separated)."""
        import re

        abox = cls()
        pattern = re.compile(
            r"([A-Za-z_][\w'\-]*)\(\s*([\w'.]+)\s*(?:,\s*([\w'.]+)\s*)?\)")
        for match in pattern.finditer(text):
            predicate, first, second = match.groups()
            if second is None:
                abox.add(predicate, first)
            else:
                abox.add(predicate, first, second)
        return abox

    # -- access -----------------------------------------------------------

    @property
    def individuals(self) -> FrozenSet[Constant]:
        """``ind(A)``."""
        return frozenset(self._occurrences)

    def has_individual(self, constant: Constant) -> bool:
        return constant in self._occurrences

    def around(self, constant: Constant) -> FrozenSet[GroundAtom]:
        """The atoms mentioning ``constant``.  The adjacency behind it is
        built by the first call, so only an ABox that is updated pays
        for it, and ``add``/``discard`` keep it from then on."""
        if self._around is None:
            self._around = {}
            for predicate, constants in self._unary.items():
                for member in constants:
                    self._link((predicate, (member,)))
            for predicate, pairs in self._binary.items():
                for pair in pairs:
                    self._link((predicate, pair))
        return frozenset(self._around.get(constant, ()))

    def _link(self, atom: GroundAtom) -> None:
        for constant in set(atom[1]):
            self._around.setdefault(constant, set()).add(atom)

    @property
    def unary_predicates(self) -> FrozenSet[str]:
        return frozenset(self._unary)

    @property
    def binary_predicates(self) -> FrozenSet[str]:
        return frozenset(self._binary)

    def unary(self, predicate: str) -> FrozenSet[Constant]:
        return frozenset(self._unary.get(predicate, ()))

    def binary(self, predicate: str) -> FrozenSet[Tuple[Constant, Constant]]:
        return frozenset(self._binary.get(predicate, ()))

    def has_unary(self, predicate: str, constant: Constant) -> bool:
        return constant in self._unary.get(predicate, ())

    def has_binary(self, predicate: str, first: Constant,
                   second: Constant) -> bool:
        return (first, second) in self._binary.get(predicate, ())

    def has_role(self, role: Role, first: Constant, second: Constant) -> bool:
        """``role(first, second) in A`` in the paper's derived sense."""
        if role.inverted:
            return self.has_binary(role.name, second, first)
        return self.has_binary(role.name, first, second)

    def role_pairs(self, role: Role) -> Iterator[Tuple[Constant, Constant]]:
        """All pairs ``(a, b)`` with ``role(a, b) in A``."""
        pairs = self._binary.get(role.name, ())
        if role.inverted:
            return ((second, first) for first, second in pairs)
        return iter(pairs)

    def atoms(self) -> Iterator[GroundAtom]:
        for predicate, constants in sorted(self._unary.items()):
            for constant in sorted(constants):
                yield (predicate, (constant,))
        for predicate, pairs in sorted(self._binary.items()):
            for pair in sorted(pairs):
                yield (predicate, pair)

    def __len__(self) -> int:
        return (sum(len(v) for v in self._unary.values())
                + sum(len(v) for v in self._binary.values()))

    def __contains__(self, atom: GroundAtom) -> bool:
        predicate, args = atom
        if len(args) == 1:
            return self.has_unary(predicate, args[0])
        return self.has_binary(predicate, *args)

    def __repr__(self) -> str:
        return (f"ABox({len(self)} atoms, "
                f"{len(self._occurrences)} individuals)")

    # -- completion ---------------------------------------------------------

    def complete(self, tbox) -> "ABox":
        """The completion of ``A`` for ``T`` (Section 2): the closure of
        the data under all entailed ground atoms over ``ind(A)``.

        Since OWL 2 QL axioms have single atoms on the left, completion is
        a single pass over the data through the concept/role hierarchies.
        """
        completed = ABox()
        for predicate, pairs in self._binary.items():
            for sup in tbox.role_supers(Role(predicate)):
                for first, second in pairs:
                    if sup.inverted:
                        completed.add(sup.name, second, first)
                    else:
                        completed.add(sup.name, first, second)
        for role in tbox.roles:
            if tbox.is_reflexive(role) and not role.inverted:
                for individual in self._occurrences:
                    completed.add(role.name, individual, individual)
        for individual, concepts in individual_concepts(tbox, self).items():
            for concept in concepts:
                if isinstance(concept, Atomic):
                    completed.add(concept.name, individual)
        # keep any data predicates outside the ontology signature
        for predicate, constants in self._unary.items():
            for constant in constants:
                completed.add(predicate, constant)
        for predicate, pairs in self._binary.items():
            for pair in pairs:
                completed.add(predicate, *pair)
        return completed

    def is_complete_for(self, tbox) -> bool:
        """True if ``A`` already contains every entailed ground atom."""
        completed = self.complete(tbox)
        return len(completed) == len(self)
