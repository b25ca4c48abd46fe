"""Incremental document additions: a main + delta DIL pair (Section 4.5).

The paper handles document-granularity updates "exactly like in traditional
inverted lists [7][34]": new documents accumulate in a small side index
that queries consult alongside the main index, and a periodic merge folds
the side index into the main one.  This module implements that scheme for
the Dewey family:

* the **main** index is an ordinary bulk-built :class:`DILIndex`;
* the first addition creates one **delta** :class:`DILIndex` that lives
  until :meth:`IncrementalDILIndex.merge`.  Each addition encodes only the
  new documents' postings and appends them to the delta lists of the
  keywords they contain (:meth:`DILIndex.append`): a list whose last page
  has room is rewritten in place, a full one moves to a fresh run of
  pages and its old pages are reused.  An addition therefore costs
  O(new documents), and the delta's buffer pool survives it;
* a query cursor chains main-then-delta.  Because document ids are assigned
  monotonically, every delta Dewey ID is strictly greater than every main
  Dewey ID, so the chained stream stays globally Dewey-ordered and the
  standard single-pass merge works unchanged;
* :meth:`merge` compacts everything into a fresh main index (also
  reclaiming tombstoned documents' postings).

ElemRank is computed offline in XRANK (Figure 2), so newly added documents
cannot have exact link-based scores until the next offline recomputation.
:func:`approximate_scores` supplies the standard stop-gap: a new element is
scored with the corpus average ElemRank at its depth — stale but unbiased —
and :meth:`merge` is the point where a caller would recompute exactly.
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import StorageParams
from ..errors import IndexError_, IndexNotBuiltError
from ..storage.disk import SimulatedDisk
from ..storage.listfile import ListCursor
from ..xmlmodel.dewey import DeweyId
from ..xmlmodel.nodes import Document
from .dil import DILIndex
from .postings import (
    Posting,
    PostingMap,
    attach_scores,
    extract_document_raw_postings,
    merge_raw_postings,
)

logger = logging.getLogger(__name__)


def depth_averages(
    reference: Dict[DeweyId, float]
) -> Tuple[Dict[int, float], float]:
    """Mean ElemRank per Dewey depth, plus the overall mean as fallback."""
    by_depth: Dict[int, List[float]] = {}
    for dewey, score in reference.items():
        by_depth.setdefault(dewey.depth, []).append(score)
    averages = {
        depth: sum(scores) / len(scores) for depth, scores in by_depth.items()
    }
    fallback = (
        sum(reference.values()) / len(reference) if reference else 0.0
    )
    return averages, fallback


def approximate_scores(
    documents: Iterable[Document],
    reference: Dict[DeweyId, float],
    averages: Optional[Tuple[Dict[int, float], float]] = None,
) -> Dict[DeweyId, float]:
    """Depth-average ElemRank approximation for not-yet-ranked documents.

    ``averages`` is :func:`depth_averages` of ``reference``, when the
    caller already has it.
    """
    by_depth, fallback = averages or depth_averages(reference)
    out: Dict[DeweyId, float] = {}
    for document in documents:
        for element in document.iter_elements():
            out[element.dewey] = by_depth.get(element.dewey.depth, fallback)
    return out


def postings_for_documents(
    documents: Iterable[Document], scores: Dict[DeweyId, float]
) -> PostingMap:
    """Direct postings for a batch of new documents."""
    per_document = [
        (document.doc_id, extract_document_raw_postings(document))
        for document in documents
    ]
    return attach_scores(merge_raw_postings(per_document), scores)


class ChainedCursor:
    """Concatenates main and delta cursors (ListCursor interface)."""

    def __init__(self, cursors: List[Optional[ListCursor]]):
        self._cursors = [c for c in cursors if c is not None]
        self._index = 0
        self._skip_exhausted()

    def _skip_exhausted(self) -> None:
        while self._index < len(self._cursors) and self._cursors[self._index].eof:
            self._index += 1

    @property
    def eof(self) -> bool:
        return self._index >= len(self._cursors)

    def peek(self) -> bytes:
        """Head record without consuming it."""
        if self.eof:
            raise IndexError_("peek past end of chained cursor")
        return self._cursors[self._index].peek()

    def next(self) -> bytes:
        """Consume and return the head record."""
        record = self._cursors[self._index].next()
        self._skip_exhausted()
        return record


class IncrementalDILIndex:
    """A DIL index that accepts document additions between full rebuilds.

    Duck-types the :class:`DILIndex` query surface (``cursor``,
    ``has_keyword``, ``list_length``, ``deleted_docs``), so
    :class:`~repro.query.dil_eval.DILEvaluator` and
    :class:`~repro.query.disjunctive.DisjunctiveEvaluator` work on it
    unchanged.
    """

    kind = "dil-incremental"

    def __init__(self, storage_params: Optional[StorageParams] = None):
        self._storage_params = storage_params
        self.main = DILIndex(storage_params)
        self.delta: Optional[DILIndex] = None
        self.max_doc_id = -1
        self.deleted_docs = self.main.deleted_docs
        # (reference, depth_averages(reference)) for the last reference
        # seen, so repeated additions do not re-average the whole corpus.
        self._averages: Optional[tuple] = None

    def __setstate__(self, state: dict) -> None:
        # Pickles from before the persistent delta kept every delta
        # posting in memory; their delta index is still a valid DILIndex.
        state.pop("_delta_postings", None)
        state.setdefault("_averages", None)
        self.__dict__.update(state)

    # -- DILIndex surface ----------------------------------------------------------

    @property
    def built(self) -> bool:
        return self.main.built

    def _require_built(self) -> None:
        if not self.main.built:
            raise IndexNotBuiltError("incremental index has not been built")

    def _parts(self) -> List[DILIndex]:
        return [self.main] if self.delta is None else [self.main, self.delta]

    def disks(self) -> List[SimulatedDisk]:
        """The main index's disk, then the delta's once it exists."""
        return [part.disk for part in self._parts()]

    def build(self, postings: PostingMap) -> None:
        """Bulk-build the main index; clears any delta."""
        self.main.build(postings)
        self.deleted_docs = self.main.deleted_docs
        self.delta = None
        self.max_doc_id = self._max_doc_id(postings)

    @staticmethod
    def _max_doc_id(postings: PostingMap) -> int:
        doc_ids = [
            p.dewey.doc_id for plist in postings.values() for p in plist
        ]
        return max(doc_ids) if doc_ids else -1

    def keywords(self):
        """Keywords across main and delta."""
        merged = set()
        for part in self._parts():
            merged.update(part.keywords())
        return merged

    def has_keyword(self, keyword: str) -> bool:
        """True when main or delta indexes the keyword."""
        return any(part.has_keyword(keyword) for part in self._parts())

    def list_length(self, keyword: str) -> int:
        """Total postings across main and delta."""
        return sum(part.list_length(keyword) for part in self._parts())

    def cursor(self, keyword: str) -> Optional[ChainedCursor]:
        """Dewey-ordered cursor chaining main then delta."""
        self._require_built()
        chained = ChainedCursor([part.cursor(keyword) for part in self._parts()])
        if not chained.eof or self.has_keyword(keyword):
            return chained
        return None

    def delete_document(self, doc_id: int) -> None:
        """Tombstone a document across main and delta."""
        self._require_built()
        self.deleted_docs.add(doc_id)

    # -- additions ---------------------------------------------------------------------

    def add_documents(
        self,
        documents: List[Document],
        scores: Optional[Dict[DeweyId, float]] = None,
        reference: Optional[Dict[DeweyId, float]] = None,
    ) -> None:
        """Index new documents without rebuilding the main index.

        Document ids must exceed every id already indexed (the engine's
        monotone id assignment guarantees this); that invariant is what
        keeps chained cursors Dewey-ordered and lets the delta lists grow
        by appending.
        """
        self._require_built()
        if not documents:
            return
        smallest = min(d.doc_id for d in documents)
        if smallest <= self.max_doc_id:
            raise IndexError_(
                f"new document ids must exceed {self.max_doc_id}, got {smallest}"
            )
        if scores is None:
            reference = reference or {}
            if self._averages is None or self._averages[0] is not reference:
                self._averages = (reference, depth_averages(reference))
            scores = approximate_scores(
                documents, reference, averages=self._averages[1]
            )
        if self.delta is None:
            self.delta = DILIndex(self._storage_params)
            self.delta.disk.fault_plan = self.main.disk.fault_plan
            self.delta.build({})
        self.delta.append(postings_for_documents(documents, scores))
        self.max_doc_id = max(d.doc_id for d in documents)
        logger.info(
            "added %d documents incrementally; delta now holds %d postings",
            len(documents),
            self.delta_size,
        )

    @property
    def delta_size(self) -> int:
        return 0 if self.delta is None else self.delta.num_postings

    # -- compaction ---------------------------------------------------------------------

    def merge(self) -> None:
        """Fold the delta into the main index in place, dropping tombstones.

        Old list pages are freed first so the rebuild reuses them
        (:meth:`SimulatedDisk.allocate_run`), keeping the main disk compact
        across repeated merge cycles.
        """
        self._require_built()
        combined: PostingMap = {}
        for keyword in sorted(self.keywords()):
            postings: List[Posting] = [
                p
                for part in self._parts()
                for p in part.scan(keyword)
                if p.dewey.doc_id not in self.deleted_docs
            ]
            if postings:
                combined[keyword] = postings
        self.main.free_all_lists()
        self.main.build(combined)
        self.main.deleted_docs.clear()
        logger.info(
            "merged delta into main: %d keywords, %d bytes of lists, "
            "%d free pages remain",
            len(combined),
            self.main.inverted_list_bytes,
            self.main.disk.num_free_pages,
        )
        self.deleted_docs = self.main.deleted_docs
        self.delta = None

    # -- accounting ------------------------------------------------------------------------

    @property
    def inverted_list_bytes(self) -> int:
        return sum(part.inverted_list_bytes for part in self._parts())

    @property
    def index_bytes(self) -> Optional[int]:
        return None
