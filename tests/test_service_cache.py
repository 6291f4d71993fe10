"""Tests for the rewriting cache (``repro.service.cache``): canonical
fingerprints up to variable renaming, LRU behaviour and statistics.
"""

import threading

import pytest

from repro import CQ, OMQ, AnswerOptions, chain_cq
from repro.rewriting import AnswerSession, rewrite
from repro.service.cache import (
    RewritingCache,
    cq_fingerprint,
    tbox_fingerprint,
)

from .helpers import example11_tbox, random_data


# -- fingerprints -----------------------------------------------------------


class TestCQFingerprint:
    def test_renamed_variables_collide(self):
        original = CQ.parse("R(x,y), S(y,z)", answer_vars=["x"])
        renamed = CQ.parse("R(u,v), S(v,w)", answer_vars=["u"])
        assert cq_fingerprint(original) == cq_fingerprint(renamed)

    def test_atom_order_is_irrelevant(self):
        first = CQ.parse("R(x,y), S(y,z)", answer_vars=["x"])
        second = CQ.parse("S(y,z), R(x,y)", answer_vars=["x"])
        assert cq_fingerprint(first) == cq_fingerprint(second)

    def test_different_shape_distinguished(self):
        chain = CQ.parse("R(x,y), S(y,z)", answer_vars=["x"])
        fork = CQ.parse("R(x,y), S(z,y)", answer_vars=["x"])
        assert cq_fingerprint(chain) != cq_fingerprint(fork)

    def test_answer_variable_position_matters(self):
        head = CQ.parse("R(x,y)", answer_vars=["x"])
        tail = CQ.parse("R(x,y)", answer_vars=["y"])
        both = CQ.parse("R(x,y)", answer_vars=["x", "y"])
        swapped = CQ.parse("R(x,y)", answer_vars=["y", "x"])
        fingerprints = {cq_fingerprint(q)
                        for q in (head, tail, both, swapped)}
        assert len(fingerprints) == 4

    def test_boolean_vs_open_query(self):
        boolean = CQ.parse("R(x,y)")
        open_query = CQ.parse("R(x,y)", answer_vars=["x"])
        assert cq_fingerprint(boolean) != cq_fingerprint(open_query)

    def test_symmetric_query_canonicalised(self):
        # two interchangeable existential branches: any renaming of the
        # branches must reach the same canonical form
        star = CQ.parse("R(x,y), R(x,z)", answer_vars=["x"])
        flipped = CQ.parse("R(x,z), R(x,y)", answer_vars=["x"])
        other_names = CQ.parse("R(x,b), R(x,a)", answer_vars=["x"])
        assert cq_fingerprint(star) == cq_fingerprint(flipped)
        assert cq_fingerprint(star) == cq_fingerprint(other_names)

    def test_self_loop_distinguished_from_edge(self):
        loop = CQ.parse("R(x,x)", answer_vars=["x"])
        edge = CQ.parse("R(x,y)", answer_vars=["x"])
        assert cq_fingerprint(loop) != cq_fingerprint(edge)

    def test_unary_atoms_participate(self):
        plain = CQ.parse("R(x,y)", answer_vars=["x"])
        tagged = CQ.parse("R(x,y), A(y)", answer_vars=["x"])
        assert cq_fingerprint(plain) != cq_fingerprint(tagged)


class TestTBoxFingerprint:
    def test_equal_ontologies_share_fingerprint(self):
        first = example11_tbox()
        second = example11_tbox()
        assert first is not second
        assert tbox_fingerprint(first) == tbox_fingerprint(second)

    def test_axiom_order_is_irrelevant(self):
        from repro import TBox

        forward = TBox.parse("roles: P, R\nP <= R\nA <= EP")
        backward = TBox.parse("roles: P, R\nA <= EP\nP <= R")
        assert tbox_fingerprint(forward) == tbox_fingerprint(backward)

    def test_different_ontologies_differ(self):
        from repro import TBox

        assert (tbox_fingerprint(example11_tbox())
                != tbox_fingerprint(TBox.parse("roles: P\nA <= EP")))


# -- the LRU cache ----------------------------------------------------------


class TestRewritingCache:
    def test_get_or_compute_fills_once(self):
        cache = RewritingCache(maxsize=4)
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        calls = []

        def compute():
            calls.append(1)
            return rewrite(omq, method="lin")

        key = cache.key(omq, AnswerOptions(method="lin"))
        first = cache.get_or_compute(key, compute)
        second = cache.get_or_compute(key, compute)
        assert first is second
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_renamed_query_hits(self):
        cache = RewritingCache()
        tbox = example11_tbox()
        original = OMQ(tbox, CQ.parse("R(x,y), S(y,z)", answer_vars=["x"]))
        renamed = OMQ(tbox, CQ.parse("R(a,b), S(b,c)", answer_vars=["a"]))
        assert (cache.key(original, AnswerOptions())
                == cache.key(renamed, AnswerOptions()))

    def test_method_and_magic_partition_keys(self):
        cache = RewritingCache()
        omq = OMQ(example11_tbox(), chain_cq("RS"))
        keys = {cache.key(omq, AnswerOptions(method="lin")),
                cache.key(omq, AnswerOptions(method="log")),
                cache.key(omq, AnswerOptions(method="lin",
                                             over="arbitrary"))}
        assert len(keys) == 3

    def test_lru_eviction(self):
        cache = RewritingCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1     # refresh "a": "b" is now LRU
        cache.put(("c",), 3)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="positive"):
            RewritingCache(maxsize=0)

    def test_thread_safety_smoke(self):
        cache = RewritingCache(maxsize=8)
        errors = []

        def worker(worker_id):
            try:
                for i in range(200):
                    key = ("k", (worker_id + i) % 16)
                    cache.get_or_compute(key, lambda: i)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8


# -- session integration ----------------------------------------------------


class TestSessionCacheIntegration:
    def test_session_uses_injected_cache(self):
        cache = RewritingCache()
        tbox = example11_tbox()
        abox = random_data(3)
        with AnswerSession(abox, rewriting_cache=cache) as session:
            baseline = session.answer(OMQ(tbox, chain_cq("RS")))
            again = session.answer(OMQ(tbox, chain_cq("RS")))
        assert baseline.answers == again.answers
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_cached_answers_match_uncached(self):
        cache = RewritingCache()
        tbox = example11_tbox()
        abox = random_data(4)
        omqs = [OMQ(tbox, chain_cq(labels)) for labels in ("RS", "SRR")]
        with AnswerSession(abox) as plain, \
                AnswerSession(abox, rewriting_cache=cache) as cached:
            for omq in omqs:
                for method in ("lin", "log", "tw"):
                    for _ in range(2):
                        assert (cached.answer(omq, method=method).answers
                                == plain.answer(omq, method=method).answers)

    def test_magic_flag_cached_separately(self):
        cache = RewritingCache()
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        with AnswerSession(random_data(5), rewriting_cache=cache) as session:
            plain = session.answer(omq, method="lin")
            arbitrary = session.answer(omq, method="lin",
                                       over="arbitrary")
        assert plain.answers == arbitrary.answers
        assert len(cache) == 2

    def test_data_dependent_stages_bypass_cache(self):
        cache = RewritingCache()
        tbox = example11_tbox()
        omq = OMQ(tbox, chain_cq("RS"))
        with AnswerSession(random_data(6), rewriting_cache=cache) as session:
            session.answer(omq, method="adaptive")
        assert len(cache) == 0
