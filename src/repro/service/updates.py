"""Incremental ABox updates: patch loaded engines instead of reloading.

An :class:`~repro.rewriting.api.AnswerSession` owns up to three loaded
copies of a data instance per variant (interned/indexed Python
database, two SQLite modes) plus one cached completion per TBox.
Reloading all of that on every data change would forfeit exactly the
amortisation the session exists for, so this module computes *atom
level deltas* once and pushes them everywhere:

* the raw ABox is mutated in place (``add``/``discard``);
* each cached completion is patched with its own delta.  OWL 2 QL
  completion is a per-atom closure (axioms have single atoms on the
  left), so ``complete(A ∪ Δ) = complete(A) ∪ complete(Δ)`` and the
  insert delta is just the completion of the inserted atoms.  For
  deletion, an entailed atom survives iff a remaining atom at its own
  individuals re-derives it, so only those are looked at, never the
  whole instance;
* each loaded :class:`~repro.engine.backends.Engine` receives the
  per-variant delta via :meth:`~repro.engine.backends.Engine.apply_delta`
  (insertions and deletions patch the touched buckets of the memoised
  hash indexes in place).

Deletions are applied before insertions throughout.  The correctness
contract — answers after an update equal a from-scratch load of the
final ABox, on every engine — is enforced by
``tests/test_service_updates.py``.

This module is the ``patch`` stage of a served update and nothing
more: the sequence around it (epoch, store, standing queries, and what
a failure of each costs) is :meth:`repro.service.dataset.Dataset.apply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..data.abox import ABox, Constant, GroundAtom
from ..ontology.terms import TOP, Atomic, Exists, Role

RowsByPredicate = Dict[str, List[Tuple[str, ...]]]


@dataclass
class UpdateDelta:
    """The shape of one update, as standing-query maintenance needs it.

    ``atoms`` are every effective base atom the update touched —
    inserts and deletes together.  ``completed_changed`` maps ``id(tbox)`` to the *exact* set of
    predicates whose extension changed in that cached completion;
    variants without an entry fall back to a sound over-approximation
    (the completion of the touched atoms).
    """

    atoms: List[GroundAtom] = field(default_factory=list)
    #: Any deletions applied (inserts alone keep every variant
    #: monotone).
    deletes: bool = False
    #: ``id(tbox) -> frozenset of predicate names`` whose extension
    #: changed in that completion (exact; an empty set means the
    #: completion provably did not change).
    completed_changed: Dict[int, FrozenSet[str]] = field(
        default_factory=dict)
    #: Whether the active domain gained or lost individuals.
    adom_changed: bool = False

    @property
    def raw_changed(self) -> FrozenSet[str]:
        """Predicates whose raw extension (may have) changed."""
        return frozenset(predicate for predicate, _ in self.atoms)

    @property
    def empty(self) -> bool:
        return not self.atoms and not self.adom_changed


@dataclass
class UpdateResult:
    """What one :func:`apply_update` call actually changed."""

    #: Effective base-atom insertions/deletions (requested atoms that
    #: were absent/present, respectively).
    inserted: int = 0
    deleted: int = 0
    #: Entailed atoms added to / removed from cached completions.
    completion_inserted: int = 0
    completion_deleted: int = 0
    #: Loaded engines that received a delta.
    backends_updated: int = 0
    #: The dataset's epoch after this update (set by the service layer;
    #: ``None`` for bare-session updates, which have no epoch).
    epoch: Optional[int] = None
    #: The change in the shape maintenance consumes (never on the wire).
    delta: Optional[UpdateDelta] = None

    def as_dict(self) -> Dict[str, int]:
        payload = {"inserted": self.inserted, "deleted": self.deleted,
                   "completion_inserted": self.completion_inserted,
                   "completion_deleted": self.completion_deleted,
                   "backends_updated": self.backends_updated}
        if self.epoch is not None:
            payload["epoch"] = self.epoch
        return payload


def _dedup(atoms: Iterable[GroundAtom]) -> List[GroundAtom]:
    seen: Set[GroundAtom] = set()
    unique: List[GroundAtom] = []
    for predicate, args in atoms:
        atom = (predicate, tuple(args))
        if atom not in seen:
            seen.add(atom)
            unique.append(atom)
    return unique


def rows_by_predicate(atoms: Iterable[GroundAtom]) -> RowsByPredicate:
    """Group ``(predicate, args)`` atoms into the engine-delta shape."""
    rows: RowsByPredicate = {}
    for predicate, args in atoms:
        rows.setdefault(predicate, []).append(tuple(args))
    return rows


def completed_insert_delta(tbox, completed: ABox,
                           inserted: Iterable[GroundAtom]
                           ) -> List[GroundAtom]:
    """Atoms the completion gains when ``inserted`` joins the data.

    By distributivity of the single-pass OWL 2 QL completion over
    unions, this is the completion of the inserted atoms alone, minus
    what the completion already contains.
    """
    delta = ABox(inserted).complete(tbox)
    return [atom for atom in delta.atoms() if atom not in completed]


def completed_delete_delta(tbox, abox_after: ABox, completed: ABox,
                           deleted: Iterable[GroundAtom]
                           ) -> List[GroundAtom]:
    """Atoms the completion loses when ``deleted`` leaves the data.

    ``abox_after`` is the raw ABox *after* the base deletions.  Every
    candidate casualty lies in the completion of the deleted atoms.  It
    survives iff a remaining atom at its own individuals derives it: a
    unary ``A(c)`` needs a basic concept ``c`` still has, a binary
    ``P(a, b)`` an atom on the pair, or ``a = b`` still an individual
    and ``P`` reflexive.  Nothing else is scanned or completed.
    """
    concepts: Dict[Constant, FrozenSet] = {}
    lost = []
    for atom in ABox(deleted).complete(tbox).atoms():
        if atom not in completed or atom in abox_after:
            continue
        predicate, args = atom
        if len(args) == 1:
            if args[0] not in concepts:
                concepts[args[0]] = _concepts_at(tbox, abox_after, args[0])
            survives = Atomic(predicate) in concepts[args[0]]
        else:
            role = Role(predicate)
            survives = any(abox_after.has_role(sub, *args)
                           for sub in tbox.role_subs(role)) or (
                args[0] == args[1] and abox_after.has_individual(args[0])
                and tbox.is_reflexive(role))
        if not survives:
            lost.append(atom)
    return lost


def _concepts_at(tbox, abox: ABox, constant: Constant) -> FrozenSet:
    """The basic concepts ``tau`` with ``T, A |= tau(constant)``, each
    distinct one looked up once (none once ``constant`` left ind(A))."""
    around = abox.around(constant)
    names, roles = set(), set()
    for predicate, args in around:
        if len(args) == 1:
            names.add(predicate)
            continue
        if args[0] == constant:
            roles.add((predicate, False))
        if args[1] == constant:
            roles.add((predicate, True))
    entailed = set(tbox.concept_supers(TOP)) if around else set()
    for name in names:
        entailed.update(tbox.concept_supers(Atomic(name)))
    for name, inverted in roles:
        entailed.update(tbox.concept_supers(Exists(Role(name, inverted))))
    return frozenset(entailed)


def apply_update(abox: ABox, completions: Dict[int, Tuple[object, ABox]],
                 sessions: Iterable,
                 inserts: Iterable[GroundAtom] = (),
                 deletes: Iterable[GroundAtom] = ()) -> UpdateResult:
    """Apply one update to an ABox, its completions and its sessions.

    ``completions`` is the (possibly shared) completion table of the
    sessions — ``id(tbox) -> (tbox, completed ABox)`` — and
    ``sessions`` every :class:`~repro.rewriting.api.AnswerSession`
    whose loaded backends must be patched.  All sessions must be built
    over ``abox`` and share ``completions`` (the service's pool
    invariant); none may be answering concurrently.
    """
    result = UpdateResult(delta=UpdateDelta())
    raw_deletes: RowsByPredicate = {}
    raw_inserts: RowsByPredicate = {}
    completed_deletes: Dict[int, RowsByPredicate] = {}
    completed_inserts: Dict[int, RowsByPredicate] = {}
    deletes, inserts = _dedup(deletes), _dedup(inserts)
    # the active domain can change only at the update's constants
    was_individual = {constant: abox.has_individual(constant)
                      for _, args in deletes + inserts for constant in args}

    effective_deletes = [atom for atom in deletes if atom in abox]
    if effective_deletes:
        for predicate, args in effective_deletes:
            abox.discard(predicate, *args)
        raw_deletes = rows_by_predicate(effective_deletes)
        result.deleted = len(effective_deletes)
        for key, (tbox, completed) in completions.items():
            delta = completed_delete_delta(tbox, abox, completed,
                                           effective_deletes)
            for predicate, args in delta:
                completed.discard(predicate, *args)
            completed_deletes[key] = rows_by_predicate(delta)
            result.completion_deleted += len(delta)

    effective_inserts = [atom for atom in inserts if atom not in abox]
    if effective_inserts:
        for predicate, args in effective_inserts:
            abox.add(predicate, *args)
        raw_inserts = rows_by_predicate(effective_inserts)
        result.inserted = len(effective_inserts)
        for key, (tbox, completed) in completions.items():
            delta = completed_insert_delta(tbox, completed,
                                           effective_inserts)
            for predicate, args in delta:
                completed.add(predicate, *args)
            completed_inserts[key] = rows_by_predicate(delta)
            result.completion_inserted += len(delta)

    adom_add = sorted(constant for constant, was in was_individual.items()
                      if not was and abox.has_individual(constant))
    adom_remove = sorted(constant for constant, was in was_individual.items()
                         if was and not abox.has_individual(constant))

    result.delta.atoms = effective_deletes + effective_inserts
    result.delta.deletes = bool(effective_deletes)
    result.delta.adom_changed = bool(adom_add or adom_remove)
    for key in completions:
        changed = set(completed_inserts.get(key, ()))
        changed.update(completed_deletes.get(key, ()))
        result.delta.completed_changed[key] = frozenset(changed)

    for session in sessions:
        # extra_relations keep their constants in the active domain
        # regardless of what the ABox update removed
        pinned = session.pinned_constants()
        session_adom_remove = ([c for c in adom_remove if c not in pinned]
                               if pinned else adom_remove)
        for (_, variant), backend in session.loaded_backends():
            if variant == "raw":
                backend_inserts: RowsByPredicate = raw_inserts
                backend_deletes: RowsByPredicate = raw_deletes
            else:
                key = variant[1]
                backend_inserts = completed_inserts.get(key, {})
                backend_deletes = completed_deletes.get(key, {})
            if (backend_inserts or backend_deletes
                    or adom_add or session_adom_remove):
                backend.apply_delta(backend_inserts, backend_deletes,
                                    adom_add=adom_add,
                                    adom_remove=session_adom_remove)
                result.backends_updated += 1
    return result
