"""Query rewriting: the three optimal NDL rewriters, the baselines and
the cost-based adaptive strategy of Section 6.  Appendix D.4's ``Tw*``
is no rewriter of its own: it is what a ``tw`` plan runs once
specialised to the data (:meth:`Plan.specialised`)."""

from .adaptive import (
    AdaptiveChoice,
    DataStatistics,
    adaptive_rewrite,
    answer_adaptive,
    estimate_cost,
)
from .api import (
    ENGINES,
    METHODS,
    OMQ,
    AnswerSession,
    answer,
    resolve_method,
    rewrite,
)
from .lin import lin_rewrite
from .log import log_rewrite
from .pe_rewriter import pe_rewrite
from .perfectref import perfectref_rewrite
from .plan import (
    Answers,
    AnswerOptions,
    Plan,
    compile_omq,
    format_explain,
)
from .presto import presto_rewrite
from .tree_witness import TreeWitness, tree_witnesses
from .tw import splitting_vertex, tw_rewrite
from .ucq import ucq_rewrite

__all__ = [
    "AdaptiveChoice",
    "AnswerOptions",
    "Answers",
    "AnswerSession",
    "DataStatistics",
    "ENGINES",
    "METHODS",
    "OMQ",
    "Plan",
    "TreeWitness",
    "adaptive_rewrite",
    "answer",
    "answer_adaptive",
    "compile_omq",
    "estimate_cost",
    "format_explain",
    "resolve_method",
    "lin_rewrite",
    "log_rewrite",
    "pe_rewrite",
    "perfectref_rewrite",
    "presto_rewrite",
    "rewrite",
    "splitting_vertex",
    "tree_witnesses",
    "tw_rewrite",
    "ucq_rewrite",
]
