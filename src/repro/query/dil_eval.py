"""DIL query processing (paper Section 4.2.2, Figure 5).

A single sequential pass over the query keywords' Dewey-ordered inverted
lists: merge by Dewey ID, maintain the Dewey stack, and keep the top-m
results in a bounded heap.  Cost is dominated by the full sequential scan of
every keyword's list — flat in the number of requested results ``m`` and in
keyword correlation, which is exactly why DIL wins on uncorrelated keywords
(Figure 11) and loses to RDIL on correlated ones (Figure 10).

The single-keyword query is the paper's "(simple) special case": every
posting is its own most-specific result with rank ``ElemRank`` (proximity of
one keyword is 1), so the pass reduces to a top-m selection over the list.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import RankingParams
from ..index.dil import DILIndex
from ..obs import NOOP_SPAN
from ..obs.profile import active_profile
from ..storage.iostats import total_io
from .merge import conjunctive_merge
from .results import QueryResult, ResultHeap, validate_query
from .streams import PostingStream


class DILEvaluator:
    """Evaluates conjunctive keyword queries against a :class:`DILIndex`.

    ``list_cache`` (optional, attached by the serving layer) is a
    :class:`repro.service.cache.GenerationalLRU` holding decoded posting
    lists; when present, hot lists are decoded once and reused across
    queries instead of being re-read from the simulated disk.
    """

    def __init__(self, index: DILIndex, params: Optional[RankingParams] = None):
        self.index = index
        self.params = params or RankingParams()
        self.list_cache = None

    def _stream(self, keyword: str) -> PostingStream:
        if self.list_cache is not None:
            postings = _profiled_get_or_load(
                self.list_cache,
                (self.index.kind, "full", keyword),
                lambda: _drain_cursor(self.index.cursor(keyword)),
            )
            return PostingStream.from_decoded(postings, self.index.deleted_docs)
        return PostingStream.from_cursor(
            self.index.cursor(keyword), self.index.deleted_docs
        )

    def _traced_stream(self, keyword: str, span) -> PostingStream:
        """One keyword's stream, reporting its load I/O into ``span``.

        With a list cache attached, ``get_or_load`` decodes the whole
        list eagerly, so the I/O delta captured here is the real cost of
        a cache miss (and an empty delta *is* the cache hit); without a
        cache, cursors read lazily during the merge and the per-list
        span records structure only.
        """
        with span.child("postings", keyword=keyword) as list_span:
            before = (
                total_io(self.index.disks()) if list_span.recording else None
            )
            stream = self._stream(keyword)
            if before is not None:
                list_span.attach_io(
                    total_io(self.index.disks()).delta_since(before)
                )
        return stream

    def evaluate(
        self,
        keywords: Sequence[str],
        m: int = 10,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        span=None,
    ) -> List[QueryResult]:
        """Top-m results for the conjunctive query ``keywords``.

        ``weights`` optionally scales each keyword's contribution to the
        overall rank (one positive weight per keyword).  ``deadline`` is an
        optional ``poll() -> bool`` object; on expiry the partial top-m
        found so far is returned (the serving layer flags it degraded).
        ``span`` (optional) receives per-posting-list child spans.
        """
        validate_query(keywords, m, weights)
        self.index._require_built()
        span = span or NOOP_SPAN

        if len(keywords) == 1:
            scale = weights[0] if weights else 1.0
            return self._evaluate_single(
                keywords[0], m, scale, deadline, span=span
            )

        streams = [
            self._traced_stream(keyword, span) for keyword in keywords
        ]
        heap = ResultHeap(m)
        for result in conjunctive_merge(
            streams,
            self.params,
            list(weights) if weights else None,
            deadline=deadline,
        ):
            heap.add(result)
        return heap.results()

    def _evaluate_single(
        self, keyword: str, m: int, scale: float = 1.0, deadline=None,
        span=NOOP_SPAN,
    ) -> List[QueryResult]:
        stream = self._traced_stream(keyword, span)
        heap = ResultHeap(m)
        while not stream.eof:
            if deadline is not None and deadline.poll():
                break
            posting = stream.next()
            heap.add(
                QueryResult(
                    rank=posting.elemrank * scale,
                    dewey=posting.dewey,
                    keyword_ranks=(posting.elemrank,),
                )
            )
        return heap.results()


def _profiled_get_or_load(cache, key, loader):
    """``cache.get_or_load`` with per-query hit/miss attribution.

    The generational cache's own counters are cumulative across every
    query and thread; the active :class:`~repro.obs.profile.
    QueryProfile` wants *this* query's share, so the miss is detected by
    observing whether the loader actually ran.
    """
    profile = active_profile()
    if profile is None:
        return cache.get_or_load(key, loader)
    loaded = []

    def counting_loader():
        loaded.append(True)
        return loader()

    value = cache.get_or_load(key, counting_loader)
    if loaded:
        profile.list_cache_misses += 1
    else:
        profile.list_cache_hits += 1
    return value


def _drain_cursor(cursor) -> List:
    """Decode a whole inverted list (the posting-list cache's loader).

    Deliberately deadline-free: a partially drained list must never land
    in the generational cache (later queries would silently see a
    truncated index), so the loader runs to completion and the *consumer*
    of the cached list polls the deadline instead.
    """
    from ..index.postings import Posting

    postings: List = []
    if cursor is None:
        return postings
    while not cursor.eof:  # repro: ignore[deadline-discipline]
        postings.append(Posting.decode(cursor.next()))
    return postings
