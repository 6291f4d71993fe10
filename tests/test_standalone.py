"""The package runs on the standard library alone.

A fresh interpreter with ``networkx`` made unimportable imports
``repro``, compiles and executes the 30 OMQs of
``tests/test_rewriting_text.py`` (the compile-cold set) and one
non-tree ``log`` case; its rewritings must be the pinned ones and its
answers the oracle's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import CQ, ABox, certain_answers, chain_cq
from repro.data.generator import erdos_renyi_abox
from repro.experiments import SEQUENCES
from repro.hardness import in_hardest_language, is_satisfiable, tokenize

from .helpers import example11_tbox
from .test_rewriting_text import PINNED

ROOT = Path(__file__).resolve().parents[1]

#: a query of treewidth 2 (its ``log`` plan needs the min-fill path),
#: its answer variables and data it has an answer on
CYCLIC = ("R(x, y), S(y, z), R(z, x), S(z, w)", ["x", "w"],
          "R(a, b), S(b, c), R(c, a), S(c, d), A_P(c), P(d, a)")

SCRIPT = """
import hashlib, json, sys
sys.modules["networkx"] = None  # any import of it now raises
import repro
from repro import CQ, OMQ, ABox
from repro.data.generator import erdos_renyi_abox
from tests.helpers import example11_tbox
from tests.test_rewriting_text import PINNED, _omq

body, answers, cyclic = json.loads(sys.argv[1])
chains = erdos_renyi_abox(16, 0.15, 0.2, seed=1)
found = {}
omqs = [(label,) + _omq(label) for label in PINNED]
omqs.append(("cyclic/log", OMQ(example11_tbox(), CQ.parse(body, answers)),
              "log"))
for label, omq, method in omqs:
    plan = repro.compile(omq, method=method)
    data = (ABox.parse("A(a)") if label[:3] in ("sat", "wor") else
            ABox.parse(cyclic) if label == "cyclic/log" else chains)
    found[label] = (plan.rules,
                    hashlib.sha256(str(plan.ndl).encode()).hexdigest()[:16],
                    sorted(plan.execute(data).answers))
print(json.dumps({"found": found,
                  "networkx": sys.modules.get("networkx", 0) is not None}))
"""


def test_compiles_and_executes_without_networkx():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(CYCLIC)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["networkx"] is False
    found = report["found"]
    assert {label: tuple(found[label][:2]) for label in PINNED} == PINNED
    assert found["cyclic/log"][2] == [["a", "d"]]
    tbox = example11_tbox()
    chains = erdos_renyi_abox(16, 0.15, 0.2, seed=1)
    expected = {}
    for label, (_, _, rows) in found.items():
        source = label.split("/")[0]
        if source.startswith("sat"):
            clauses = ([[1, 2], [-1]] if source == "sat2" else
                       [[1, 2, 3], [-1, 2], [-2, 3], [-3, 1]])
            holds = is_satisfiable(clauses)
        elif source.startswith("word"):
            holds = in_hardest_language(tokenize(source[4:]))
        else:
            if source == "cyclic":
                query, data = CQ.parse(*CYCLIC[:2]), ABox.parse(CYCLIC[2])
            else:
                name, prefix = source.rstrip("]").split("[:")
                query = chain_cq(SEQUENCES[name][:int(prefix)])
                data = chains
            if source not in expected:
                expected[source] = sorted(
                    list(row) for row in certain_answers(tbox, data, query))
            assert rows == expected[source], label
            continue
        assert rows == ([[]] if holds else []), label
