"""Tests for incremental document additions (main + delta DIL)."""

import pytest

from repro.config import StorageParams
from repro.errors import IndexError_, IndexNotBuiltError
from repro.index.builder import IndexBuilder
from repro.index.dil import DILIndex
from repro.index.incremental import (
    IncrementalDILIndex,
    approximate_scores,
    postings_for_documents,
)
from repro.query.dil_eval import DILEvaluator
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListFile
from repro.xmlmodel.graph import CollectionGraph
from repro.xmlmodel.parser import parse_xml


def fresh_index():
    graph = CollectionGraph()
    for i, text in enumerate(["alpha beta shared", "gamma shared", "alpha delta"]):
        graph.add_document(parse_xml(f"<d><p>{text}</p></d>", doc_id=i))
    graph.finalize()
    builder = IndexBuilder(graph)
    index = IncrementalDILIndex()
    index.build(builder.direct_postings)
    return index, builder


def new_documents(texts, start_id):
    return [
        parse_xml(f"<d><p>{text}</p></d>", doc_id=start_id + i)
        for i, text in enumerate(texts)
    ]


class TestBasics:
    def test_queries_before_any_addition(self):
        index, _ = fresh_index()
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert {r.dewey.doc_id for r in results} == {0, 2}

    def test_added_documents_become_searchable(self):
        index, builder = fresh_index()
        docs = new_documents(["alpha fresh words"], start_id=10)
        index.add_documents(docs, reference=builder.elemranks)
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert 10 in {r.dewey.doc_id for r in results}
        assert DILEvaluator(index).evaluate(["fresh"], m=10)

    def test_conjunctive_across_main_and_delta_boundary(self):
        index, builder = fresh_index()
        index.add_documents(
            new_documents(["alpha beta together again"], 20),
            reference=builder.elemranks,
        )
        results = DILEvaluator(index).evaluate(["alpha", "beta"], m=10)
        doc_ids = {r.dewey.doc_id for r in results}
        assert {0, 20} <= doc_ids

    def test_multiple_addition_batches(self):
        index, builder = fresh_index()
        index.add_documents(new_documents(["epsilon one"], 10), reference=builder.elemranks)
        index.add_documents(new_documents(["epsilon two"], 11), reference=builder.elemranks)
        results = DILEvaluator(index).evaluate(["epsilon"], m=10)
        assert {r.dewey.doc_id for r in results} == {10, 11}
        assert index.delta_size > 0

    def test_doc_id_monotonicity_enforced(self):
        index, builder = fresh_index()
        with pytest.raises(IndexError_):
            index.add_documents(new_documents(["x"], 0), reference=builder.elemranks)

    def test_requires_build_first(self):
        index = IncrementalDILIndex()
        with pytest.raises(IndexNotBuiltError):
            index.add_documents(new_documents(["x"], 5))
        with pytest.raises(IndexNotBuiltError):
            index.cursor("x")

    def test_list_length_and_keywords_include_delta(self):
        index, builder = fresh_index()
        before = index.list_length("alpha")
        index.add_documents(new_documents(["alpha"], 30), reference=builder.elemranks)
        assert index.list_length("alpha") == before + 1
        assert "alpha" in index.keywords()


class TestDeletesAndMerge:
    def test_delete_spans_main_and_delta(self):
        index, builder = fresh_index()
        index.add_documents(new_documents(["alpha late"], 40), reference=builder.elemranks)
        index.delete_document(0)
        index.delete_document(40)
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert {r.dewey.doc_id for r in results} == {2}

    def test_merge_compacts_and_preserves_results(self):
        index, builder = fresh_index()
        index.add_documents(
            new_documents(["alpha beta merged"], 50), reference=builder.elemranks
        )
        before = {
            (str(r.dewey), round(r.rank, 9))
            for r in DILEvaluator(index).evaluate(["alpha", "beta"], m=100)
        }
        index.merge()
        assert index.delta is None
        assert index.delta_size == 0
        after = {
            (str(r.dewey), round(r.rank, 9))
            for r in DILEvaluator(index).evaluate(["alpha", "beta"], m=100)
        }
        assert before == after

    def test_merge_reclaims_tombstones(self):
        index, builder = fresh_index()
        index.delete_document(0)
        bytes_before = index.inverted_list_bytes
        index.merge()
        assert index.inverted_list_bytes < bytes_before
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert {r.dewey.doc_id for r in results} == {2}


class TestScoreApproximation:
    def test_depth_average_scores(self):
        _, builder = fresh_index()
        docs = new_documents(["brand new thing"], 60)
        scores = approximate_scores(docs, builder.elemranks)
        roots = [d.root.dewey for d in docs]
        reference_roots = [
            v for k, v in builder.elemranks.items() if k.depth == 0
        ]
        expected = sum(reference_roots) / len(reference_roots)
        assert scores[roots[0]] == pytest.approx(expected)

    def test_empty_reference_gives_zero(self):
        docs = new_documents(["thing"], 0)
        scores = approximate_scores(docs, {})
        assert all(v == 0.0 for v in scores.values())

    def test_postings_for_documents(self):
        docs = new_documents(["one two", "two three"], 70)
        scores = approximate_scores(docs, {})
        postings = postings_for_documents(docs, scores)
        assert len(postings["two"]) == 2
        deweys = [p.dewey for p in postings["two"]]
        assert deweys == sorted(deweys)


class TestIncrementalEquivalence:
    """Property: incremental additions must be indistinguishable from a
    full rebuild over the same documents (given the same scores)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_rebuild(self, seed):
        import random

        from conftest import VOCAB, random_xml

        rng = random.Random(seed)
        initial, added = [], []
        for doc_id in range(4):
            initial.append(parse_xml(random_xml(rng), doc_id=doc_id))
        for doc_id in range(4, 7):
            added.append(parse_xml(random_xml(rng), doc_id=doc_id))

        # Full rebuild over everything (ground truth).
        full_graph = CollectionGraph()
        for doc in initial + added:
            full_graph.add_document(doc)
        full_graph.finalize()
        full_builder = IndexBuilder(full_graph)
        full = DILEvaluator(full_builder.build_dil())

        # Incremental: initial build + delta additions with the SAME scores
        # the full build computed (isolates index mechanics from ElemRank
        # staleness).
        initial_graph = CollectionGraph()
        for doc in initial:
            initial_graph.add_document(doc)
        initial_graph.finalize()
        incremental = IncrementalDILIndex()
        from repro.index.postings import extract_direct_postings

        incremental.build(
            extract_direct_postings(initial_graph, full_builder.elemranks)
        )
        incremental.add_documents(added, scores=full_builder.elemranks)
        inc = DILEvaluator(incremental)

        for keywords in [["alpha", "beta"], ["gamma"], ["alpha", "beta", "gamma"]]:
            want = [
                (str(r.dewey), round(r.rank, 8))
                for r in full.evaluate(keywords, m=1000)
            ]
            got = [
                (str(r.dewey), round(r.rank, 8))
                for r in inc.evaluate(keywords, m=1000)
            ]
            assert got == want


class TestChainedCursor:
    def test_empty_chain(self):
        from repro.index.incremental import ChainedCursor

        cursor = ChainedCursor([None, None])
        assert cursor.eof
        with pytest.raises(IndexError_):
            cursor.peek()

    def test_skips_exhausted_segments(self):
        from repro.config import StorageParams
        from repro.index.incremental import ChainedCursor
        from repro.storage.disk import SimulatedDisk
        from repro.storage.listfile import ListCursor, ListFile

        disk = SimulatedDisk(StorageParams(page_size=128))
        empty = ListFile.write(disk, [])
        full = ListFile.write(disk, [b"a", b"b"])
        cursor = ChainedCursor([ListCursor(empty), ListCursor(full)])
        assert cursor.peek() == b"a"
        assert cursor.next() == b"a"
        assert cursor.next() == b"b"
        assert cursor.eof

    def test_three_segments_in_order(self):
        from repro.config import StorageParams
        from repro.index.incremental import ChainedCursor
        from repro.storage.disk import SimulatedDisk
        from repro.storage.listfile import ListCursor, ListFile

        disk = SimulatedDisk(StorageParams(page_size=128))
        files = [ListFile.write(disk, [bytes([65 + i])]) for i in range(3)]
        cursor = ChainedCursor([ListCursor(f) for f in files])
        out = []
        while not cursor.eof:
            out.append(cursor.next())
        assert out == [b"A", b"B", b"C"]


def _drain(cursor):
    records = []
    while cursor is not None and not cursor.eof:
        records.append(cursor.next())
    return records


def _answers(index, keywords):
    return [
        (r.dewey, r.rank) for r in DILEvaluator(index).evaluate(keywords, m=1000)
    ]


class TestWritePath:
    """The persistent delta, checked against a bulk-built DIL index over
    the same postings after every step of a seeded add/delete/merge run."""

    # Small pages, so delta lists outgrow their last page and relocate.
    PARAMS = StorageParams(page_size=256)
    QUERIES = [["alpha"], ["alpha", "beta"], ["gamma", "delta", "epsilon"]]

    def _check(self, index, expected, deleted):
        reference = DILIndex(self.PARAMS)
        reference.build(expected)
        for doc_id in deleted:
            reference.delete_document(doc_id)
        for keyword in expected:
            assert _drain(index.cursor(keyword)) == _drain(reference.cursor(keyword))
        assert sorted(index.keywords()) == sorted(expected)
        for keywords in self.QUERIES:
            assert _answers(index, keywords) == _answers(reference, keywords)
        if index.delta is not None:
            # Every delta list holds exactly the pages a bulk write would.
            for keyword, list_file in index.delta.lists.items():
                fresh = ListFile.write(
                    SimulatedDisk(self.PARAMS),
                    list(list_file.scan()),
                )
                assert [index.delta.disk.pages[p] for p in list_file.page_ids] == [
                    fresh.disk.pages[p] for p in fresh.page_ids
                ]

    @pytest.mark.parametrize("seed", range(4))
    def test_adds_delete_merge_match_bulk_dil(self, seed):
        import random

        from conftest import random_xml

        rng = random.Random(seed)
        graph = CollectionGraph()
        for doc_id in range(5):
            graph.add_document(parse_xml(random_xml(rng), doc_id=doc_id))
        graph.finalize()
        builder = IndexBuilder(graph)
        index = IncrementalDILIndex(self.PARAMS)
        index.build(builder.direct_postings)
        expected = {k: list(v) for k, v in builder.direct_postings.items()}
        deleted = set()
        next_id = 5
        for step in range(12):
            batch = [
                parse_xml(random_xml(rng), doc_id=next_id + i)
                for i in range(1 if step % 2 else 3)
            ]
            next_id += len(batch)
            scores = approximate_scores(batch, builder.elemranks)
            index.add_documents(batch, scores=scores)
            for keyword, postings in postings_for_documents(batch, scores).items():
                expected.setdefault(keyword, []).extend(postings)
            if step == 4:
                index.delete_document(2)
                index.delete_document(next_id - 1)
                deleted |= {2, next_id - 1}
            self._check(index, expected, deleted)
            if step == 7:
                index.merge()
                expected = {
                    keyword: kept
                    for keyword, postings in expected.items()
                    if (kept := [
                        p for p in postings if p.dewey.doc_id not in deleted
                    ])
                }
                deleted = set()
                assert index.delta is None
                self._check(index, expected, deleted)
        assert index.delta is not None and index.delta_size > 0

    def test_delta_disk_does_not_leak_pages(self):
        import random

        from conftest import random_xml

        _, builder = fresh_index()
        index = IncrementalDILIndex(self.PARAMS)
        index.build(builder.direct_postings)
        rng = random.Random(7)
        relocated = False
        delta_ids = set()
        for doc_id in range(3, 203):
            index.add_documents(
                [parse_xml(random_xml(rng), doc_id=doc_id)],
                reference=builder.elemranks,
            )
            delta_ids.add(id(index.delta))
            disk = index.delta.disk
            live = sum(f.num_pages for f in index.delta.lists.values())
            assert disk.num_pages - disk.num_free_pages == live
            relocated = relocated or disk.num_free_pages > 0
        assert relocated
        assert len(delta_ids) == 1  # one delta, updated in place
        # Appends and relocations are writes: they charge no reads.
        assert disk.stats.page_reads == 0 and disk.stats.cache_hits == 0
        # Freed pages are reused: the file is far smaller than the pages
        # every relocation would have cost without reuse.
        assert index.delta.disk.stats.page_writes > index.delta.disk.num_pages

    def test_append_keeps_written_page_in_buffer_pool(self):
        index, builder = fresh_index()
        index.add_documents(new_documents(["alpha one"], 10), reference=builder.elemranks)
        disk = index.delta.disk
        disk.drop_cache()
        index.add_documents(new_documents(["alpha two"], 11), reference=builder.elemranks)
        disk.reset_stats()
        assert [p.dewey.doc_id for p in index.delta.scan("alpha")] == [10, 11]
        assert disk.stats.page_reads == 0 and disk.stats.cache_hits == 1
