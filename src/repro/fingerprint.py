"""Canonical fingerprints of TBoxes, CQs and OMQs.

One fingerprint code path shared by every layer that needs identity up
to renaming: :meth:`repro.rewriting.api.OMQ.fingerprint`, the
:class:`~repro.service.cache.RewritingCache` keys and
:class:`~repro.rewriting.plan.Plan` fingerprints all resolve here.

Two OMQs that differ only by a bijective renaming of query variables
(answer tuple order preserved) fingerprint identically, and the cached
NDL program of one answers the other — NDL evaluation returns constant
tuples positioned by the answer tuple, which renaming does not move.
Distinct queries can never collide: the encoding contains the full
atom set.
"""

from __future__ import annotations

import hashlib
import threading
from itertools import permutations, product
from math import factorial
from typing import Dict, Iterable, List, Tuple
from weakref import WeakKeyDictionary

from .queries.cq import CQ

#: Ceiling on the candidate variable orderings tried while
#: canonicalising a CQ.  Queries whose existential variables form
#: larger symmetric groups fall back to a name-dependent (still
#: deterministic and collision-free) ordering: isomorphic variants may
#: then miss each other in the cache, but never alias distinct queries.
PERMUTATION_LIMIT = 720

_tbox_fingerprints: "WeakKeyDictionary" = WeakKeyDictionary()
_tbox_lock = threading.Lock()


def tbox_fingerprint(tbox) -> str:
    """A digest of the ontology's user axioms (order-insensitive)."""
    with _tbox_lock:
        cached = _tbox_fingerprints.get(tbox)
        if cached is None:
            text = "\n".join(sorted(str(axiom)
                                    for axiom in tbox.user_axioms))
            cached = hashlib.sha256(text.encode()).hexdigest()
            _tbox_fingerprints[tbox] = cached
        return cached


def _signature(cq: CQ, var: str, answer_codes: Dict[str, int]) -> Tuple:
    """A renaming-invariant local description of ``var``.

    Two variables with different signatures cannot be exchanged by any
    isomorphism fixing the answer tuple, so signatures both order the
    canonical search and prune its permutation space.
    """
    items: List[Tuple] = []
    for atom in cq.atoms:
        if var not in atom.args:
            continue
        description = tuple(
            ("a", answer_codes[arg]) if arg in answer_codes
            else ("self",) if arg == var else ("e",)
            for arg in atom.args)
        items.append((atom.predicate, description))
    return tuple(sorted(items))


def _encode(cq: CQ, codes: Dict[str, int]) -> Tuple:
    atoms = tuple(sorted(
        (atom.predicate, tuple(codes[arg] for arg in atom.args))
        for atom in cq.atoms))
    return (tuple(codes[v] for v in cq.answer_vars), atoms)


_cq_fingerprints: "WeakKeyDictionary" = WeakKeyDictionary()
_cq_lock = threading.Lock()


def cq_fingerprint(cq: CQ) -> Tuple:
    """A canonical encoding of ``cq`` up to variable renaming.

    Answer variables are pinned in answer-tuple order; existential
    variables are assigned the remaining codes by the lexicographically
    smallest resulting encoding (searched within signature classes,
    capped by :data:`PERMUTATION_LIMIT`).  Equal fingerprints imply the
    queries are isomorphic — the encoding contains the full atom set,
    so distinct queries can never collide.

    Memoised per CQ object (the canonical search is the expensive
    part, and a serving request fingerprints the same CQ more than
    once: the cache-hit probe, then the key of the cache lookup).
    """
    with _cq_lock:
        cached = _cq_fingerprints.get(cq)
    if cached is not None:
        return cached
    fingerprint = _cq_fingerprint(cq)
    with _cq_lock:
        _cq_fingerprints[cq] = fingerprint
    return fingerprint


def _cq_fingerprint(cq: CQ) -> Tuple:
    answer_codes: Dict[str, int] = {}
    for var in cq.answer_vars:
        answer_codes.setdefault(var, len(answer_codes))
    evars = sorted(v for v in cq.variables if v not in answer_codes)
    if not evars:
        return _encode(cq, answer_codes)
    groups: Dict[Tuple, List[str]] = {}
    for var in evars:
        groups.setdefault(_signature(cq, var, answer_codes),
                          []).append(var)
    ordered_groups = [groups[s] for s in sorted(groups)]
    candidates = 1
    for group in ordered_groups:
        candidates *= factorial(len(group))
    base = len(answer_codes)

    def encode_order(order: Iterable[str]) -> Tuple:
        codes = dict(answer_codes)
        for offset, var in enumerate(order):
            codes[var] = base + offset
        return _encode(cq, codes)

    if candidates > PERMUTATION_LIMIT:
        return encode_order(v for group in ordered_groups
                            for v in sorted(group))
    best = None
    for combo in product(*(permutations(g) for g in ordered_groups)):
        encoded = encode_order(v for group in combo for v in group)
        if best is None or encoded < best:
            best = encoded
    return best


def omq_fingerprint(omq) -> str:
    """A stable hex digest of an OMQ, canonical up to variable renaming.

    The digest combines :func:`tbox_fingerprint` and
    :func:`cq_fingerprint`; isomorphic OMQs (same ontology, renamed
    query variables) share it, distinct OMQs never do.
    """
    text = f"{tbox_fingerprint(omq.tbox)}\n{cq_fingerprint(omq.query)!r}"
    return hashlib.sha256(text.encode()).hexdigest()
