"""Inverted-list files: sequences of records on consecutive disk pages.

An inverted list lives in a run of *consecutive* page ids, so a full scan
is classified as sequential I/O by the simulated disk — the property that
makes DIL's single-pass merge cheap.  Bulk-built lists are written once;
an incremental delta list grows by :meth:`ListFile.append`, which keeps
the same page layout a bulk write of all its records would produce.
Records are opaque ``bytes`` at this layer; :mod:`repro.index.postings`
defines their content.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..errors import StorageError
from ..xmlmodel.dewey import decode_varint, encode_varint
from .disk import SimulatedDisk
from .records import PAGE_HEADER_BOUND, pack_into_pages, unpack_page


class ListFile:
    """One on-disk inverted list.

    Attributes:
        disk: the simulated disk holding the pages.
        page_ids: consecutive page ids, in list order.
        num_records: number of records across all pages.
        byte_size: exact serialized size (records + page headers).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        page_ids: List[int],
        num_records: int,
        byte_size: int,
        page_boundaries: Optional[List[int]] = None,
    ):
        self.disk = disk
        self.page_ids = page_ids
        self.num_records = num_records
        self.byte_size = byte_size
        #: index of the first record on each page (parallel to page_ids)
        self.page_boundaries = page_boundaries or []

    @classmethod
    def write(
        cls, disk: SimulatedDisk, records: List[bytes], owner: str = ""
    ) -> "ListFile":
        """Persist ``records`` onto freshly allocated consecutive pages.

        ``owner`` labels the pages with their owning structure (e.g.
        ``"dil:xql"``) so a :class:`~repro.errors.CorruptPageError` can
        name the inverted list it hit.
        """
        list_file = cls(disk, [], 0, 0)
        list_file._store([frame_record(record) for record in records], owner)
        return list_file

    def _store(self, framed: List[bytes], owner: str) -> None:
        """Pack framed records onto a fresh consecutive run of pages."""
        pages, boundaries = pack_into_pages(framed, self.disk.page_size)
        page_ids = self.disk.allocate_run(pages, owner=owner)
        for first, second in zip(page_ids, page_ids[1:]):
            if second != first + 1:
                raise StorageError("list pages were not allocated consecutively")
        self.page_ids = page_ids
        self.num_records = len(framed)
        self.byte_size = sum(len(page) for page in pages)
        self.page_boundaries = boundaries

    def append(self, records: List[bytes], owner: str = "") -> None:
        """Add ``records`` after the list's last record.

        When they all fit the last page under the packing rule of
        :func:`~repro.storage.records.pack_into_pages`, that page is
        rewritten in place (``disk.write``, so it stays in the buffer
        pool).  Otherwise the list's pages are freed and the whole list
        is repacked onto a fresh consecutive run, which may reuse freed
        pages.  Either way the pages hold exactly the bytes a bulk
        :meth:`write` of every record would.  The old pages are taken
        with ``disk.read_for_update``: like every write, an append costs
        no simulated read time.
        """
        if not records:
            return
        framed = [frame_record(record) for record in records]
        if self.page_ids:
            last = self.page_ids[-1]
            page = self.disk.read_for_update(last)
            count, reader = unpack_page(page)
            body = page[reader.offset :]
            added = sum(len(record) for record in framed)
            if len(body) + added + PAGE_HEADER_BOUND <= self.disk.page_size:
                rewritten = (
                    encode_varint(count + len(framed)) + body + b"".join(framed)
                )
                self.disk.write(last, rewritten, owner=owner)
                self.num_records += len(framed)
                self.byte_size += len(rewritten) - len(page)
                return
            old = self._records(self.disk.read_for_update)
            framed = [frame_record(record) for record in old] + framed
            for page_id in self.page_ids:
                self.disk.free(page_id)
        self._store(framed, owner)

    @property
    def num_pages(self) -> int:
        return len(self.page_ids)

    def scan(self) -> Iterator[bytes]:
        """Yield every record in order, charging sequential page reads."""
        return self._records(self.disk.read)

    def _records(self, read) -> Iterator[bytes]:
        for page_id in self.page_ids:
            page = read(page_id)
            count, reader = unpack_page(page)
            offset = reader.offset
            for _ in range(count):
                record, offset = _read_record(page, offset)
                yield record

    def scan_page(self, page_id: int) -> Iterator[bytes]:
        """Yield the records of one page (used by B+-trees over external leaves)."""
        page = self.disk.read(page_id)
        count, reader = unpack_page(page)
        offset = reader.offset
        for _ in range(count):
            record, offset = _read_record(page, offset)
            yield record


def _read_record(page: bytes, offset: int) -> Tuple[bytes, int]:
    """Records inside pages are length-prefixed; return (body, next offset)."""
    length, offset = decode_varint(page, offset)
    end = offset + length
    if end > len(page):
        raise StorageError("truncated record in list page")
    return page[offset:end], end


def frame_record(body: bytes) -> bytes:
    """Length-prefix a record body for storage in a list page."""
    length = len(body)
    if length < 0x80:  # one-byte varint: almost every posting
        return bytes((length,)) + body
    return encode_varint(length) + body


class ListCursor:
    """A pull-based cursor over a :class:`ListFile` (peek / next / eof).

    The DIL merge needs to look at the head record of n lists repeatedly;
    this cursor decodes lazily, one page at a time.
    """

    def __init__(self, list_file: ListFile):
        self._iterator = list_file.scan()
        self._head: Optional[bytes] = None
        self._eof = False
        self._advance()

    def _advance(self) -> None:
        try:
            self._head = next(self._iterator)
        except StopIteration:
            self._head = None
            self._eof = True

    @property
    def eof(self) -> bool:
        return self._eof

    def peek(self) -> bytes:
        """Head record without consuming it."""
        if self._eof or self._head is None:
            raise StorageError("peek past end of list")
        return self._head

    def next(self) -> bytes:
        """Consume and return the head record."""
        record = self.peek()
        self._advance()
        return record
