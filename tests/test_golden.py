"""Golden-answer regression fixtures.

Each case is a (TBox, ABox, queries) triple drawn from the suite's
example ontologies; its sorted certain answers are snapshotted in
``tests/golden/<case>.json``.  The tests assert that every engine
(``python``, ``sql``) reproduces the snapshots
byte-for-byte — the broadest cheap tripwire against a rewriting or
evaluation regression.

Regenerate deliberately with ``pytest tests/test_golden.py
--update-golden`` after a change that legitimately alters answers
(there should be almost none), and review the diff like code.
"""

import json
import pathlib

import pytest

from repro import ENGINES, OMQ, AnswerSession
from repro.data import ABox
from repro.queries import CQ, chain_cq
from repro.service import OMQService

from .helpers import deep_tbox, example11_tbox, infinite_tbox, random_data

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Binary predicates each case's update script may touch (must be
#: declared roles of the case's ontology).
_SCRIPT_ROLES = {"example11": ("P", "R", "S"),
                 "deep": ("P", "Q"),
                 "infinite": ("P", "R")}


def _update_script(case):
    """A fixed two-step insert/delete script in the case's vocabulary
    (the second step deletes what the first inserted, so both delta
    directions are pinned)."""
    first, last = _SCRIPT_ROLES[case][0], _SCRIPT_ROLES[case][-1]
    return (
        {"insert": ((first, ("g1", "g2")), (last, ("n0", "g1"))),
         "delete": ()},
        {"insert": ((last, ("g2", "n1")),),
         "delete": ((first, ("g1", "g2")),)},
    )


def _apply_script(abox, script):
    """The script folded into a fresh ABox (the from-scratch oracle
    for the post-update snapshots; deletions apply first, matching
    ``OMQService.update``)."""
    atoms = set(abox.atoms())
    for step in script:
        atoms -= set(step["delete"])
        atoms |= set(step["insert"])
    updated = ABox()
    for predicate, args in sorted(atoms):
        updated.add(predicate, *args)
    return updated


def _cases():
    """name -> (tbox, abox, {query-name: CQ})."""
    return {
        "example11": (
            example11_tbox(), random_data(1),
            {"chain-RS": chain_cq("RS"),
             "chain-RSR": chain_cq("RSR"),
             "unary-AP": CQ.parse("A_P(x)", answer_vars=["x"]),
             "boolean-R": CQ.parse("R(x, y)", answer_vars=[]),
             "disconnected": CQ.parse("R(x, y), S(u, v)",
                                      answer_vars=["x", "u"])}),
        "deep": (
            deep_tbox(), random_data(7, atoms=24),
            {"chain-RS": chain_cq("RS"),
             "unary-B": CQ.parse("B(x)", answer_vars=["x"]),
             "pair-RQ": CQ.parse("R(x, y), S(y, z)",
                                 answer_vars=["x", "z"])}),
        "infinite": (
            infinite_tbox(), random_data(3, atoms=20,
                                         unary=("A", "A_P", "A_P-"),
                                         binary=("P", "R")),
            {"role-R": CQ.parse("R(x, y)", answer_vars=["x", "y"]),
             "chain-RR": chain_cq("RR")}),
    }


def _snapshot(tbox, abox, queries, engine: str):
    """Sorted answers for every query, via one loaded session."""
    answers = {}
    with AnswerSession(abox, engine=engine) as session:
        for name, query in sorted(queries.items()):
            result = session.answer(OMQ(tbox, query))
            answers[name] = sorted(list(row) for row in result.answers)
    return answers


@pytest.mark.parametrize("case", sorted(_cases()))
def test_golden_answers(case, update_golden):
    tbox, abox, queries = _cases()[case]
    path = GOLDEN_DIR / f"{case}.json"
    produced = _snapshot(tbox, abox, queries, "python")
    script = _update_script(case)
    # the post-update snapshot is always blessed *from scratch* — the
    # incremental maintenance under test never blesses itself
    post_produced = _snapshot(tbox, _apply_script(abox, script),
                              queries, "python")

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        payload = {"queries": {name: {"query": str(queries[name]),
                                      "answers": produced[name],
                                      "post_update": post_produced[name]}
                               for name in sorted(queries)}}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")

    assert path.exists(), (
        f"missing golden file {path.name}; generate it with "
        "pytest tests/test_golden.py --update-golden")
    golden = json.loads(path.read_text())
    expected = {name: entry["answers"]
                for name, entry in golden["queries"].items()}
    assert produced == expected
    expected_post = {name: entry["post_update"]
                     for name, entry in golden["queries"].items()}
    assert post_produced == expected_post

    # every engine must reproduce the snapshot exactly
    for engine in ENGINES:
        if engine == "python":
            continue
        assert _snapshot(tbox, abox, queries, engine) == expected, engine

    # incremental maintenance must land on the same post-update
    # snapshot: subscribe every query, replay the script as live
    # updates, compare the delta-maintained sets against the
    # from-scratch blessing
    service = OMQService()
    try:
        tbox2, abox2, queries2 = _cases()[case]
        service.register_dataset("g", abox2)
        subs = {name: service.subscribe("g", OMQ(tbox2, query))
                for name, query in sorted(queries2.items())}
        for step in _update_script(case):
            service.update("g", inserts=step["insert"],
                           deletes=step["delete"])
        for name, sub in subs.items():
            maintained = sorted(list(row) for row in sub.answers)
            assert maintained == expected_post[name], name
    finally:
        service.close()


def test_golden_files_match_cases():
    """Every golden file belongs to a live case (no orphans rotting)."""
    if not GOLDEN_DIR.exists():
        pytest.skip("golden files not generated yet")
    names = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert names == set(_cases())
