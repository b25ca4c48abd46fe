"""Unit tests for the collection graph: element table, IDREF/XLink
resolution, document management."""

import pytest

from repro.errors import DocumentNotFoundError
from repro.xmlmodel.graph import CollectionGraph
from repro.xmlmodel.parser import parse_xml


def make_graph(*sources, uris=None):
    graph = CollectionGraph()
    for i, source in enumerate(sources):
        uri = uris[i] if uris else f"doc{i}"
        graph.add_document(parse_xml(source, doc_id=i, uri=uri))
    graph.finalize()
    return graph


class TestElementTable:
    def test_dense_index_covers_all_elements(self, figure1_graph):
        graph = figure1_graph
        assert len(graph.elements) == graph.documents[5].num_elements
        for i, element in enumerate(graph.elements):
            assert graph.index_of[element.dewey] == i

    def test_parent_index(self, figure1_graph):
        graph = figure1_graph
        for i, element in enumerate(graph.elements):
            if element.parent is None:
                assert graph.parent_index[i] == -1
            else:
                assert graph.elements[graph.parent_index[i]] is element.parent

    def test_counts(self, figure1_graph):
        graph = figure1_graph
        for i, element in enumerate(graph.elements):
            assert graph.children_count[i] == element.num_subelements
        assert graph.num_documents == 1
        assert all(
            count == graph.documents[5].num_elements
            for count in graph.doc_element_count
        )

    def test_element_by_dewey(self, figure1_graph):
        graph = figure1_graph
        subsection = graph.documents[5].root.find_first("subsection")
        assert graph.element_by_dewey(subsection.dewey) is subsection


class TestIdrefResolution:
    def test_intra_document_ref(self, figure1_graph):
        graph = figure1_graph
        assert graph.resolution.idrefs_resolved == 1
        cite = graph.documents[5].root.find_first("cite")
        paper2 = [
            e for e in graph.documents[5].iter_elements()
            if e.tag == "paper" and e.attribute("id") == "2"
        ][0]
        edges = [
            (graph.elements[s], graph.elements[t])
            for s, t in graph.hyperlink_edges
        ]
        assert (cite, paper2) in edges

    def test_dangling_idref_counted(self):
        graph = make_graph('<a><x ref="nothing"/></a>')
        assert graph.resolution.idrefs_dangling == 1
        assert "nothing" in graph.resolution.dangling_targets
        assert graph.hyperlink_edges == []

    def test_multivalue_idrefs(self):
        graph = make_graph('<a><p id="1"/><p id="2"/><x ref="1 2"/></a>')
        assert graph.resolution.idrefs_resolved == 2


class TestXlinkResolution:
    def test_interdocument_link(self):
        graph = make_graph(
            '<a><cite xlink="doc1"/></a>', "<b>target</b>"
        )
        assert graph.resolution.xlinks_resolved == 1
        src, dst = graph.hyperlink_edges[0]
        assert graph.elements[dst].tag == "b"

    def test_fragment_link(self):
        graph = make_graph(
            '<a><cite xlink="doc1#sec2"/></a>',
            '<b><s id="sec1"/><s id="sec2"/></b>',
        )
        assert graph.resolution.xlinks_resolved == 1
        _, dst = graph.hyperlink_edges[0]
        assert graph.elements[dst].attribute("id") == "sec2"

    def test_dangling_uri_and_fragment(self):
        graph = make_graph(
            '<a><c xlink="nowhere"/><c xlink="doc1#missing"/></a>', "<b/>"
        )
        assert graph.resolution.xlinks_dangling == 2

    def test_figure1_xlink_dangles_without_target(self, figure1_graph):
        # '/paper/xmlql/' names a document that is not in the collection.
        assert figure1_graph.resolution.xlinks_dangling == 1

    def test_out_hyperlink_counts(self):
        graph = make_graph(
            '<a><c xlink="doc1"/><c xlink="doc1"/></a>', "<b/>"
        )
        source_index = [
            i for i, e in enumerate(graph.elements) if e.tag == "c"
        ]
        counts = [graph.out_hyperlink_count[i] for i in source_index]
        assert sorted(counts) == [1, 1]


class TestDocumentManagement:
    def test_duplicate_doc_id_rejected(self):
        graph = CollectionGraph()
        graph.add_document(parse_xml("<a/>", doc_id=1))
        with pytest.raises(DocumentNotFoundError):
            graph.add_document(parse_xml("<b/>", doc_id=1))

    def test_remove_document(self):
        graph = make_graph("<a/>", "<b/>")
        removed = graph.remove_document(0)
        assert removed.root.tag == "a"
        graph.finalize()
        assert graph.num_documents == 1
        with pytest.raises(DocumentNotFoundError):
            graph.remove_document(0)

    def test_remove_clears_uri_mapping(self):
        graph = make_graph("<a/>", "<b/>")
        graph.remove_document(0)
        assert graph.document_by_uri("doc0") is None
        assert graph.document_by_uri("doc1") is not None

    def test_finalize_idempotent(self):
        graph = make_graph('<a><c xlink="doc1"/></a>', "<b/>")
        edges_before = list(graph.hyperlink_edges)
        graph.finalize()
        assert graph.hyperlink_edges == edges_before

    def test_lazy_finalize_through_num_elements(self):
        graph = CollectionGraph()
        graph.add_document(parse_xml("<a><b/></a>", doc_id=0))
        assert not graph.finalized
        assert graph.num_elements == 2
        assert graph.finalized


def _tables(graph):
    return (
        [id(element) for element in graph.elements],
        [document.doc_id for document in graph.element_doc],
        dict(graph.index_of),
        list(graph.parent_index),
        list(graph.children_count),
        list(graph.doc_element_count),
        list(graph.hyperlink_edges),
        list(graph.out_hyperlink_count),
        graph.resolution,
    )


APPEND_SOURCES = [
    ('<a id="top"><r ref="top"/><c xlink="doc1"/></a>', "doc0"),
    ('<b><s id="s1">one</s><c xlink="doc0#top"/><c xlink="doc9"/></b>', "doc1"),
    ('<c><r idref="s1 nope"/><l xlink="doc1#s1"/><l xlink="doc2"/></c>', "doc2"),
    ("<d><e><f>deep</f></e></d>", ""),
    ('<e><l xlink="doc0"/><l xlink="doc4"/></e>', "doc4"),
]


class TestAppendFinalize:
    def _appended(self, sources):
        """Finalize after every add; returns the graph and whether each
        finalize kept the tables (extended them) or rebuilt them."""
        graph = CollectionGraph()
        extended = []
        for doc_id, (source, uri) in enumerate(sources):
            graph.add_document(parse_xml(source, doc_id=doc_id, uri=uri))
            before = graph.elements
            graph.finalize()
            extended.append(graph.elements is before)
        return graph, extended

    def test_appends_equal_one_full_finalize(self):
        graph, extended = self._appended(APPEND_SOURCES)
        # doc1 resolves doc0's dangling XLink, so only it rebuilds.
        assert extended == [False, False, True, True, True]
        full = make_graph(*(s for s, _ in APPEND_SOURCES),
                          uris=[u for _, u in APPEND_SOURCES])
        # Parsed separately, so compare element identities by Dewey ID.
        assert [e.dewey for e in graph.elements] == [e.dewey for e in full.elements]
        assert _tables(graph)[1:] == _tables(full)[1:]
        assert graph.resolution.xlinks_resolved > 0
        assert graph.resolution.idrefs_dangling == 2  # IDREFs stay in-document

    def test_new_document_resolving_a_dangling_xlink_rebuilds(self):
        sources = APPEND_SOURCES + [("<z>late target</z>", "doc9")]
        graph, extended = self._appended(sources)
        assert extended[-1] is False
        full = CollectionGraph()
        for doc_id, document in sorted(graph.documents.items()):
            full.add_document(document)
        full.finalize()
        assert _tables(graph) == _tables(full)
        target = graph.index_of[graph.documents[5].root.dewey]
        assert target in {dst for _src, dst in graph.hyperlink_edges}

    def test_batch_append_and_idempotent_refinalize(self):
        graph = CollectionGraph()
        for doc_id, (source, uri) in enumerate(APPEND_SOURCES[:2]):
            graph.add_document(parse_xml(source, doc_id=doc_id, uri=uri))
        graph.finalize()
        for doc_id, (source, uri) in enumerate(APPEND_SOURCES[2:], start=2):
            graph.add_document(parse_xml(source, doc_id=doc_id, uri=uri))
        before = graph.elements
        graph.finalize()
        assert graph.elements is before
        snapshot = _tables(graph)
        graph.finalize()
        assert _tables(graph) == snapshot
        full = CollectionGraph()
        for _doc_id, document in sorted(graph.documents.items()):
            full.add_document(document)
        full.finalize()
        assert _tables(graph) == _tables(full)

    def test_out_of_order_id_or_removal_rebuilds(self):
        graph = CollectionGraph()
        graph.add_document(parse_xml("<a>x</a>", doc_id=5, uri="doc5"))
        graph.finalize()
        graph.add_document(parse_xml("<b>y</b>", doc_id=2, uri="doc2"))
        before = graph.elements
        graph.finalize()
        assert graph.elements is not before
        assert [e.dewey.doc_id for e in graph.elements] == [2, 5]
        graph.remove_document(2)
        graph.add_document(parse_xml("<c>z</c>", doc_id=9))
        before = graph.elements
        graph.finalize()
        assert graph.elements is not before
        assert [e.dewey.doc_id for e in graph.elements] == [5, 9]
