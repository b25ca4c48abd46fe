"""The hyperlinked document collection graph G = (N, CE, HE) (Section 2.1).

A :class:`CollectionGraph` aggregates parsed documents into the paper's
graph: nodes are the XML elements of every document, containment edges are
implicit in the trees, and hyperlink edges are resolved here from two
sources:

* **IDREFs** — ``ref``/``idref`` attributes pointing at the ``id`` attribute
  of another element *in the same document* (paper Figure 1, line 21);
* **XLinks** — ``xlink``/``href`` attributes naming another *document* by
  URI, optionally with an ``#fragment`` selecting an element by ``id``
  (Figure 1, line 22).  HTML ``<a href>`` links arrive through the same
  mechanism via the pseudo-elements produced by the HTML front-end.

The graph also assigns every element a dense integer index so the ElemRank
power iteration can run over flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import DocumentNotFoundError
from .dewey import DeweyId
from .nodes import Document, Element

#: Attribute tags interpreted as intra-document references.
IDREF_TAGS = frozenset({"ref", "idref", "idrefs"})
#: Attribute tags interpreted as inter-document references.
XLINK_TAGS = frozenset({"xlink", "href", "xlink:href"})


@dataclass
class LinkResolution:
    """Statistics from hyperlink resolution, for diagnostics and tests."""

    idrefs_resolved: int = 0
    idrefs_dangling: int = 0
    xlinks_resolved: int = 0
    xlinks_dangling: int = 0
    dangling_targets: List[str] = field(default_factory=list)


class CollectionGraph:
    """All documents of a collection plus resolved hyperlink edges.

    Usage::

        graph = CollectionGraph()
        graph.add_document(doc)
        graph.finalize()          # resolves links, builds the index arrays
    """

    def __init__(self) -> None:
        self.documents: Dict[int, Document] = {}
        self._by_uri: Dict[str, Document] = {}
        self._finalized = False
        # Documents added since the last finalize(), or None when the
        # tables must be rebuilt from scratch (never built, or a removal).
        self._appended: Optional[List[Document]] = None
        # URIs that some resolved XLink named without finding a document.
        self._dangling_uris: Set[str] = set()
        # Dense element table, built by finalize():
        self.elements: List[Element] = []
        self.element_doc: List[Document] = []
        self.index_of: Dict[DeweyId, int] = {}
        self.parent_index: List[int] = []          # -1 for document roots
        self.children_count: List[int] = []        # N_c(u)
        self.doc_element_count: List[int] = []     # N_de(u)
        self.hyperlink_edges: List[Tuple[int, int]] = []
        self.out_hyperlink_count: List[int] = []   # N_h(u)
        self.resolution = LinkResolution()

    def __setstate__(self, state: dict) -> None:
        state.setdefault("_appended", None)  # pickles from before appends
        state.setdefault("_dangling_uris", set())
        self.__dict__.update(state)

    # -- population --------------------------------------------------------------

    def add_document(self, document: Document) -> None:
        """Register a parsed document (unique doc id required)."""
        if document.doc_id in self.documents:
            raise DocumentNotFoundError(
                f"duplicate document id {document.doc_id}"
            )
        self.documents[document.doc_id] = document
        if document.uri:
            self._by_uri.setdefault(document.uri, document)
        if self._appended is not None:
            self._appended.append(document)
        self._finalized = False

    def remove_document(self, doc_id: int) -> Document:
        """Unregister and return a document by id."""
        try:
            document = self.documents.pop(doc_id)
        except KeyError:
            raise DocumentNotFoundError(f"no document with id {doc_id}") from None
        if document.uri and self._by_uri.get(document.uri) is document:
            del self._by_uri[document.uri]
        self._appended = None
        self._finalized = False
        return document

    def document_by_uri(self, uri: str) -> Optional[Document]:
        """The document registered under a URI, if any."""
        return self._by_uri.get(uri)

    # -- aggregate counts ----------------------------------------------------------

    @property
    def num_documents(self) -> int:
        """``N_d``."""
        return len(self.documents)

    @property
    def num_elements(self) -> int:
        """``N_e``."""
        self._require_finalized()
        return len(self.elements)

    # -- finalization ----------------------------------------------------------------

    def finalize(self) -> None:
        """Build the dense element table and resolve hyperlinks.

        Idempotent; must be re-run after documents are added or removed.
        When the only change since the last run is added documents whose
        ids exceed every finalized one, and none of them carries a URI
        that an earlier XLink failed to resolve, the tables are extended
        in place: those documents' elements and links come last in a full
        rebuild too, so the result is identical.  Anything else rebuilds
        from scratch.
        """
        appended = self._appended
        if appended is None or not self._extends_tables(appended):
            self._reset_tables()
            appended = list(self.documents.values())
        appended.sort(key=lambda document: document.doc_id)
        first_edge = len(self.hyperlink_edges)
        for document in appended:
            self._add_elements(document)
        for document in appended:
            self._resolve_links(document)
        self.out_hyperlink_count.extend(
            [0] * (len(self.elements) - len(self.out_hyperlink_count))
        )
        for src, _dst in self.hyperlink_edges[first_edge:]:
            self.out_hyperlink_count[src] += 1
        self._appended = []
        self._finalized = True

    def _extends_tables(self, appended: List[Document]) -> bool:
        """True when the documents can go after the finalized tables."""
        last = self.element_doc[-1].doc_id if self.element_doc else -1
        return all(
            document.doc_id > last
            and not (document.uri and document.uri in self._dangling_uris)
            for document in appended
        )

    def _reset_tables(self) -> None:
        self.elements = []
        self.element_doc = []
        self.index_of = {}
        self.parent_index = []
        self.children_count = []
        self.doc_element_count = []
        self.hyperlink_edges = []
        self.out_hyperlink_count = []
        self.resolution = LinkResolution()
        self._dangling_uris = set()

    def _add_elements(self, document: Document) -> None:
        count = document.num_elements
        for element in document.iter_elements():
            index = len(self.elements)
            self.index_of[element.dewey] = index
            self.elements.append(element)
            self.element_doc.append(document)
            self.children_count.append(element.num_subelements)
            self.doc_element_count.append(count)
            if element.parent is None:
                self.parent_index.append(-1)
            else:
                # Parents precede children in pre-order, so the parent's
                # index is already assigned.
                self.parent_index.append(self.index_of[element.parent.dewey])

    def _resolve_links(self, document: Document) -> None:
        stats = self.resolution
        id_targets = document.elements_with_id_attribute()
        for element in document.iter_elements():
            if not element.from_attribute:
                continue
            tag = element.tag.lower()
            if tag in IDREF_TAGS:
                self._resolve_idref(element, id_targets, stats)
            elif tag in XLINK_TAGS:
                self._resolve_xlink(element, stats)

    def _link_source(self, attribute_element: Element) -> Element:
        """The logical source of a link is the element carrying the attribute."""
        return attribute_element.parent or attribute_element

    def _resolve_idref(
        self,
        attribute_element: Element,
        id_targets: Dict[str, Element],
        stats: LinkResolution,
    ) -> None:
        raw = " ".join(v.text for v in attribute_element.value_children())
        source = self._link_source(attribute_element)
        for token in raw.split():
            target = id_targets.get(token)
            if target is None:
                stats.idrefs_dangling += 1
                stats.dangling_targets.append(token)
                continue
            self.hyperlink_edges.append(
                (self.index_of[source.dewey], self.index_of[target.dewey])
            )
            stats.idrefs_resolved += 1

    def _resolve_xlink(
        self, attribute_element: Element, stats: LinkResolution
    ) -> None:
        raw = " ".join(v.text for v in attribute_element.value_children()).strip()
        if not raw:
            return
        source = self._link_source(attribute_element)
        uri, _, fragment = raw.partition("#")
        target_doc = self._by_uri.get(uri)
        if target_doc is None:
            stats.xlinks_dangling += 1
            stats.dangling_targets.append(raw)
            self._dangling_uris.add(uri)
            return
        target: Optional[Element] = target_doc.root
        if fragment:
            target = target_doc.elements_with_id_attribute().get(fragment)
            if target is None:
                stats.xlinks_dangling += 1
                stats.dangling_targets.append(raw)
                return
        self.hyperlink_edges.append(
            (self.index_of[source.dewey], self.index_of[target.dewey])
        )
        stats.xlinks_resolved += 1

    # -- element access -----------------------------------------------------------

    def element_by_dewey(self, dewey: DeweyId) -> Optional[Element]:
        """Look up an element across the collection by Dewey ID."""
        self._require_finalized()
        index = self.index_of.get(dewey)
        return None if index is None else self.elements[index]

    def iter_documents(self) -> Iterator[Document]:
        """Documents in ascending doc-id order."""
        for doc_id in sorted(self.documents):
            yield self.documents[doc_id]

    def _require_finalized(self) -> None:
        if not self._finalized:
            self.finalize()

    @property
    def finalized(self) -> bool:
        return self._finalized
