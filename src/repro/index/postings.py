"""Posting records: the entries of every inverted-list flavour.

A posting ties a keyword occurrence set to one element (paper Figure 4):
the element's Dewey ID, its ElemRank, and ``posList`` — the sorted global
word positions at which the keyword occurs.  The Dewey-family indexes (DIL,
RDIL, HDIL) store postings only for elements that *directly* contain the
keyword; the naive baselines additionally store a posting for every
ancestor, with the descendants' positions merged in — precisely the
replication that inflates their space in Table 1.

The binary layout is ``dewey || float32 rank || delta-varint posList``,
measured identically across all index flavours so the Table 1 comparison is
apples-to-apples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..errors import StorageError
from ..storage.records import RecordReader, RecordWriter
from ..xmlmodel.dewey import DeweyId, encode_varint
from ..xmlmodel.graph import CollectionGraph

_FLOAT32 = struct.Struct("<f")


def _put_uints(out: bytearray, values) -> None:
    """Append non-negative varints; a value below 128 is its own byte."""
    for value in values:
        if value < 0x80:
            out.append(value)
        else:
            out += encode_varint(value)


@dataclass(frozen=True)
class Posting:
    """One inverted-list entry."""

    dewey: DeweyId
    elemrank: float
    positions: Tuple[int, ...]

    def encode(self) -> bytes:
        """Serialize as dewey + float32 rank + delta posList.

        One pass into one buffer, byte-identical to composing
        ``RecordWriter.dewey/float32/uint_list``.
        """
        components = self.dewey.components
        gaps = [len(self.positions)]
        previous = 0
        for position in self.positions:
            if position < previous:
                raise StorageError("uint_list requires a sorted list")
            gaps.append(position - previous)
            previous = position
        out = bytearray()
        _put_uints(out, (len(components), *components))
        out += _FLOAT32.pack(self.elemrank)
        _put_uints(out, gaps)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Posting":
        reader = RecordReader(data)
        dewey = reader.dewey()
        elemrank = reader.float32()
        positions = tuple(reader.uint_list())
        return cls(dewey, elemrank, positions)

    @classmethod
    def decode_payload(cls, dewey: DeweyId, payload: bytes) -> "Posting":
        """Decode a posting whose Dewey ID is stored separately (B+-trees)."""
        reader = RecordReader(payload)
        elemrank = reader.float32()
        positions = tuple(reader.uint_list())
        return cls(dewey, elemrank, positions)

    def encode_payload(self) -> bytes:
        """Encode rank + posList only (the Dewey ID is the B+-tree key)."""
        writer = RecordWriter()
        writer.float32(self.elemrank)
        writer.uint_list(list(self.positions))
        return writer.getvalue()


#: keyword -> postings sorted by Dewey ID.
PostingMap = Dict[str, List[Posting]]

#: keyword -> (dewey, positions) pairs: a posting skeleton before scores
#: are attached.  This is the unit the parallel build pipeline ships
#: between processes — it depends only on one document's content, never on
#: the global link graph, which is what makes shard outputs order
#: independent and their merge associative.
RawPostingMap = Dict[str, List[Tuple[DeweyId, Tuple[int, ...]]]]


def extract_document_raw_postings(document) -> RawPostingMap:
    """Per-keyword (dewey, positions) skeletons for *one* document.

    Pre-order traversal visits elements in Dewey order, so each keyword's
    list comes out sorted by ID with no extra sort; keyword insertion order
    is first-occurrence order within the document.  Pure per-document
    computation: safe to run in any worker process, in any order.
    """
    raw: RawPostingMap = {}
    for element in document.iter_elements():
        by_word: Dict[str, List[int]] = {}
        for word, position in element.direct_words():
            by_word.setdefault(word, []).append(position)
        if not by_word:
            continue
        for word, positions in by_word.items():
            positions.sort()
            raw.setdefault(word, []).append((element.dewey, tuple(positions)))
    return raw


def merge_raw_postings(
    per_document: List[Tuple[int, RawPostingMap]]
) -> RawPostingMap:
    """Fold per-document skeletons into one map, in ascending doc-id order.

    Concatenation in ascending doc-id order reproduces exactly what a
    single pass over the whole collection would produce (Dewey IDs of
    different documents never interleave), so the merge is associative:
    any shard partition folds to the same result.
    """
    merged: RawPostingMap = {}
    for _doc_id, raw in sorted(per_document, key=lambda pair: pair[0]):
        for word, entries in raw.items():
            merged.setdefault(word, []).extend(entries)
    return merged


def attach_scores(
    raw: RawPostingMap,
    elemranks: Dict[DeweyId, float],
    score_overrides=None,
) -> PostingMap:
    """Turn posting skeletons into scored postings.

    Scores need the *global* link graph (ElemRank) or corpus statistics
    (tf-idf), so this runs once after the merge — never inside a worker.
    ``score_overrides`` optionally maps ``(dewey components, keyword)`` to a
    per-keyword score (e.g. tf-idf weights); where present it replaces the
    element's ElemRank in the posting — the hook Section 4 describes for
    "other ways of ranking XML elements".
    """
    postings: PostingMap = {}
    for word, entries in raw.items():
        scored: List[Posting] = []
        for dewey, positions in entries:
            score = elemranks.get(dewey, 0.0)
            if score_overrides is not None:
                score = score_overrides.get((dewey.components, word), score)
            scored.append(Posting(dewey, score, positions))
        postings[word] = scored
    return postings


def extract_direct_postings(
    graph: CollectionGraph,
    elemranks: Dict[DeweyId, float],
    score_overrides=None,
) -> PostingMap:
    """Build per-keyword postings for elements that *directly* contain them.

    The sequential path through the same two phases the parallel build
    uses: per-document skeleton extraction (in ascending doc-id order, so
    each keyword's posting list comes out Dewey-sorted with no extra sort)
    followed by score attachment.  Keeping one code path is what lets
    ``build(workers=k)`` promise byte-identical output for every ``k``.
    """
    per_document = [
        (document.doc_id, extract_document_raw_postings(document))
        for document in graph.iter_documents()
    ]
    return attach_scores(
        merge_raw_postings(per_document), elemranks, score_overrides
    )


def expand_to_naive_postings(
    direct: PostingMap, elemranks: Dict[DeweyId, float]
) -> PostingMap:
    """Replicate every posting onto all ancestors (the naive index of 4.1).

    For each keyword, every element that directly or indirectly contains it
    receives a posting whose posList merges all descendant occurrences —
    this is the redundancy the Dewey encoding eliminates.
    """
    naive: PostingMap = {}
    for word, posting_list in direct.items():
        merged: Dict[DeweyId, List[int]] = {}
        for posting in posting_list:
            merged.setdefault(posting.dewey, []).extend(posting.positions)
            for ancestor in posting.dewey.ancestors():
                merged.setdefault(ancestor, []).extend(posting.positions)
        entries = []
        for dewey in sorted(merged):
            positions = tuple(sorted(merged[dewey]))
            entries.append(Posting(dewey, elemranks.get(dewey, 0.0), positions))
        naive[word] = entries
    return naive


def rank_order(postings: List[Posting]) -> List[Posting]:
    """Order postings by descending ElemRank, Dewey ID as the tiebreak."""
    return [postings[i] for i in rank_order_indices(postings)]


def rank_order_indices(postings: List[Posting]) -> List[int]:
    """Positions of ``postings`` in :func:`rank_order`."""
    return sorted(
        range(len(postings)),
        key=lambda i: (-postings[i].elemrank, postings[i].dewey.components),
    )


def iter_decoded(records: Iterator[bytes]) -> Iterator[Posting]:
    """Decode a raw record stream into postings."""
    for record in records:
        yield Posting.decode(record)
