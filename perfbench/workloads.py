"""The benchmark's three seeded workloads.

Each workload turns a seed into generated XML sources and per-client
operation lists, sets the program up from those sources (the part timed
as ``setup_s``), executes one operation at a time for a client thread,
and checks every recorded answer against an oracle after the timed phase.

Why these three (each stresses layers the others leave idle):

* ``dblp_probe`` -- in-process :class:`XRankService` over HDIL with its
  default caches and one client; 2-3 keyword queries from planted
  correlated groups, never repeated.  HDIL starts every query in RDIL
  mode, so B+-tree longest-common-prefix probes, leaf-page decode and
  Dewey decode do the work; the correlated lists fit the 256-page buffer
  pool, so the workload is CPU-bound.  Transport, the result cache, the
  cluster and writes do nothing here.  Being pure interpreter CPU, its
  timings follow the machine's speed, so BENCHMARK.json does not gate it.
* ``http_mixed`` -- one node over real HTTP with keep-alive clients;
  Zipf-skewed reads over a small set of frequent-word pairs (the result
  cache answers a share) and about one ``/add`` in 40 operations onto a
  ``dil-incremental`` index that the reads target.  Transport, JSON,
  admission, the read/write lock, both caches and their generation
  invalidation, and the incremental write path do the work.
* ``cluster_scan`` -- a 2-shard :class:`LocalCluster` over HTTP with one
  client and no repeated query; keyword pairs from the frequent third of
  the vocabulary plus planted low-correlation pairs.  HDIL falls back to
  DIL-mode scans of lists that exceed the buffer pool, so simulated I/O
  is non-zero; fan-out, per-shard RPC and the merge do the work.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.local import LocalCluster
from repro.cluster.verify import compare_responses, single_node_oracle
from repro.cluster.worker import specs_from_sources
from repro.datasets.dblp import generate_dblp
from repro.datasets.textgen import PlantedKeywords
from repro.engine import XRankEngine
from repro.service.client import ServiceClient
from repro.service.core import XRankService
from repro.service.server import make_server
from repro.storage.iostats import IOStats

#: Results requested per search (the paper's default top-m).
M = 10


@dataclass(frozen=True)
class Op:
    """One client operation: a search, or an ``add`` of one XML document."""

    kind: str
    text: str
    uri: str = ""


@dataclass
class Record:
    """One executed operation: what was asked, how long it took, the answer."""

    op: Op
    hits: Optional[list] = None
    generation: int = 0
    degraded: bool = False
    error: Optional[str] = None
    seconds: float = 0.0


def _normalise(hits: List[dict]) -> List[dict]:
    """Hit dicts exactly as they look after a JSON round trip."""
    return json.loads(json.dumps(hits))


def _dblp(num_papers: int, seed: int, planted: Optional[PlantedKeywords]):
    corpus = generate_dblp(num_papers, seed=seed, planted=planted)
    pairs = [(source, f"paper{i}") for i, source in enumerate(corpus.sources)]
    return corpus, pairs


def _document_words(corpus) -> List[set]:
    return [
        {word for element in document.iter_elements()
         for word, _position in element.direct_words()}
        for document in corpus.graph.iter_documents()
    ]


def _sum_io(stats: Sequence[IOStats]) -> IOStats:
    total = IOStats()
    for item in stats:
        total = total + item
    return total


def _index_bytes(index) -> int:
    return index.inverted_list_bytes + (index.index_bytes or 0)


#: The frequent third of the vocabulary is cut into this many
#: document-frequency bands; consecutive pairs walk every (band, band)
#: combination in turn, so any prefix samples list lengths in the same
#: proportions whatever the seed.
BANDS = 12


def vocabulary_postings(corpus) -> Dict[str, set]:
    """The documents each vocabulary word occurs in."""
    postings: Dict[str, set] = {}
    for doc_id, words in enumerate(_document_words(corpus)):
        for word in words:
            postings.setdefault(word, set()).add(doc_id)
    # Tag and attribute names (attributes are elements too) are markup,
    # not vocabulary.
    markup = {
        element.tag
        for document in corpus.graph.iter_documents()
        for element in document.iter_elements()
    }
    return {
        word: docs for word, docs in postings.items()
        if word.isalpha() and word not in markup
    }


def frequent_pairs(postings: Dict[str, set], rng):
    """Distinct keyword pairs from the top third of the vocabulary by
    document frequency that share a document (a non-empty answer)."""
    vocabulary = sorted(postings, key=lambda w: (-len(postings[w]), w))
    frequent = vocabulary[: len(vocabulary) // 3]
    width = len(frequent) // BANDS
    bands = [frequent[i * width : (i + 1) * width] for i in range(BANDS)]
    seen = set()
    for number in itertools.count():
        first = bands[number % BANDS]
        second = bands[(number // BANDS) % BANDS]
        while True:
            a, b = rng.choice(first), rng.choice(second)
            if a != b and (a, b) not in seen and postings[a] & postings[b]:
                break
        seen.add((a, b))
        yield f"{a} {b}"


class Workload:
    """Inputs made from a seed plus the hooks the runner calls."""

    name = ""
    clients = 1
    #: Whether per-query cost profiles can be collected (traced run).
    profiles_supported = True

    def __init__(self, seed: int, ops_per_client: int):
        self.seed = seed
        self.ops_per_client = ops_per_client
        self.sources: List[Tuple[str, str]] = []
        self.ops: List[List[Op]] = []
        self.info: Dict[str, object] = {}

    @property
    def source_bytes(self) -> int:
        return sum(len(source.encode("utf-8")) for source, _ in self.sources)

    def describe(self) -> Dict[str, object]:
        return {
            "documents": len(self.sources),
            "source_bytes": self.source_bytes,
            "ops_per_client": self.ops_per_client,
            **self.info,
        }

    # Hooks implemented per workload: setup/teardown, one client's
    # connection, one operation, counters after the run, the oracle.
    def setup(self):
        raise NotImplementedError

    def teardown(self, system) -> None:
        raise NotImplementedError

    def connect(self, system):
        return None

    def disconnect(self, handle) -> None:
        pass

    def execute(self, system, handle, op: Op) -> Record:
        raise NotImplementedError

    def services(self, system) -> List[XRankService]:
        raise NotImplementedError

    def io_stats(self, system) -> IOStats:
        return _sum_io([service.io_totals() for service in self.services(system)])

    def indexes(self, system) -> list:
        return [
            service.engine.index(kind)
            for service in self.services(system)
            for kind in service.kinds
        ]

    def index_bytes(self, system) -> int:
        return sum(_index_bytes(index) for index in self.indexes(system))

    def index_pages(self, system) -> int:
        """Pages on the largest index disk (each disk has its own pool)."""
        return max(index.disk.num_pages for index in self.indexes(system))

    def check(self, records: List[Record]) -> List[str]:
        raise NotImplementedError


class DblpProbe(Workload):
    name = "dblp_probe"
    # One client: the workload is CPU-bound in one process, so a second
    # thread would only queue on the interpreter lock.
    clients = 1
    papers = 400
    groups = 12
    group_size = 6

    def __init__(self, seed: int, ops_per_client: int):
        super().__init__(seed, ops_per_client)
        planted = PlantedKeywords.default(
            num_groups=self.groups, group_size=self.group_size
        )
        _corpus, self.sources = _dblp(self.papers, seed, planted)
        rng = random.Random(seed)
        per_group = []
        for group in planted.correlated_groups:
            queries = [
                " ".join(words)
                for size in (2, 3)
                for words in itertools.permutations(group, size)
            ]
            rng.shuffle(queries)
            per_group.append(queries)
        rng.shuffle(per_group)
        # Round-robin over the groups: any prefix of the stream samples
        # every group evenly, whatever the seed.
        queries = [q for batch in zip(*per_group) for q in batch]
        queries = queries[: self.clients * ops_per_client]
        self.ops = [
            [Op("search", q) for q in queries[client :: self.clients]]
            for client in range(self.clients)
        ]
        self.info = {"distinct_queries": len(queries), "kind": "hdil"}

    def setup(self):
        engine = XRankEngine()
        engine.build(kinds=("hdil",), corpus=self.sources)
        return XRankService(engine, kinds=("hdil",))

    def teardown(self, system) -> None:
        pass

    def services(self, system):
        return [system]

    def execute(self, system, handle, op):
        response = system.search(op.text, m=M)
        return Record(op, response.hits, response.generation, response.degraded)

    def check(self, records):
        # DIL, RDIL and HDIL answers are bit-identical, so a DIL engine
        # over the same sources is the oracle for HDIL's answers.
        oracle = XRankEngine()
        oracle.build(kinds=("dil",), corpus=self.sources)
        problems = []
        for record in records:
            if record.hits is None:
                continue
            expected = [h.to_dict() for h in oracle.search(
                record.op.text, m=M, kind="dil"
            )]
            actual = [h.to_dict() for h in record.hits]
            if expected != actual:
                problems.append(f"{self.name}: {record.op.text!r} differs from DIL")
        return problems


class HttpMixed(Workload):
    name = "http_mixed"
    clients = 2
    papers = 300
    kind = "dil-incremental"
    #: One operation in ``write_every`` of the writing client is an /add,
    #: so with two clients about one operation in 40 is a write.
    write_every = 20
    zipf_exponent = 1.1
    distinct_queries = 72
    # XRankService sums index.disk over its indexes when profiling, and
    # IncrementalDILIndex has no disk attribute, so profiling fails here.
    profiles_supported = False

    def __init__(self, seed: int, ops_per_client: int):
        super().__init__(seed, ops_per_client)
        writes = ops_per_client // self.write_every
        corpus, pairs = _dblp(self.papers + writes, seed, planted=None)
        self.sources, self.write_sources = pairs[: self.papers], pairs[self.papers :]
        rng = random.Random(seed)
        postings = vocabulary_postings(corpus)
        pairs = list(itertools.islice(frequent_pairs(postings, rng), self.distinct_queries))
        # A result-cache miss costs about the two lists' lengths.  Each
        # popularity rank takes the pair at a fixed position of that cost
        # order (a fixed shuffle, the same for every seed), so the hot
        # queries' misses, which set p95 and the simulated I/O, cost about
        # the same whatever the seed.
        by_cost = sorted(
            pairs, key=lambda q: (sum(len(postings[w]) for w in q.split()), q)
        )
        positions = random.Random(0).sample(range(len(by_cost)), len(by_cost))
        queries = [by_cost[position] for position in positions]
        weights = [1.0 / (rank + 1) ** self.zipf_exponent for rank in range(len(queries))]
        pending = iter(self.write_sources)
        self.ops = []
        for client in range(self.clients):
            ops = []
            for number in range(ops_per_client):
                # Client 0 issues every write, so writes land in a fixed order.
                if client == 0 and number % self.write_every == self.write_every - 1:
                    source, uri = next(pending)
                    ops.append(Op("add", source, uri))
                else:
                    ops.append(Op("search", rng.choices(queries, weights)[0]))
            self.ops.append(ops)
        self.info = {"distinct_queries": len(queries), "kind": self.kind}

    def setup(self):
        engine = XRankEngine()
        engine.build(kinds=(self.kind,), corpus=self.sources)
        service = XRankService(engine, kinds=(self.kind,))
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return _HttpSystem(service, server, thread)

    def teardown(self, system) -> None:
        system.server.shutdown()
        system.server.server_close()
        system.thread.join(timeout=10)

    def connect(self, system):
        host, port = system.server.server_address[:2]
        return ServiceClient(host, port, pool_size=1)

    def disconnect(self, handle) -> None:
        handle.close()

    def services(self, system):
        return [system.service]

    def execute(self, system, handle, op):
        if op.kind == "add":
            reply = handle.add_xml(op.text, uri=op.uri)
            # Each add replaces the index's delta, which has a disk of
            # its own; keep every delta so its reads are counted.
            system.deltas.append(system.service.engine.index(self.kind).delta)
            return Record(op, generation=int(reply["generation"]))
        payload = handle.search(op.text, m=M, kind=self.kind)
        return Record(
            op, payload["results"], int(payload["generation"]), payload["degraded"]
        )

    def _disks(self, system):
        index = system.service.engine.index(self.kind)
        deltas = {id(d): d for d in system.deltas + [index.delta] if d is not None}
        return [index.main.disk] + [d.disk for d in deltas.values()]

    def io_stats(self, system) -> IOStats:
        # IncrementalDILIndex has no disk of its own (its main and delta
        # DIL indexes do), so XRankService.io_totals() cannot sum it.
        return _sum_io([disk.stats for disk in self._disks(system)])

    def index_pages(self, system) -> int:
        return self._disks(system)[0].num_pages

    def check(self, records):
        # Replay the writes in order on a fresh engine; each read is
        # checked against the oracle at the generation it reported.
        oracle = XRankEngine()
        oracle.build(kinds=(self.kind,), corpus=self.sources)
        writes = [r for r in records if r.op.kind == "add" and r.error is None]
        reads = sorted(
            (r for r in records if r.op.kind == "search" and r.hits is not None),
            key=lambda r: r.generation,
        )
        problems = []
        pending = iter(writes)
        expected_cache: Dict[str, List[dict]] = {}
        for read in reads:
            while oracle.generation < read.generation:
                write = next(pending, None)
                if write is None:
                    return problems + [
                        f"{self.name}: read at generation {read.generation} "
                        f"is past the last replayed write"
                    ]
                oracle.add_xml_incremental(write.op.text, uri=write.op.uri)
                expected_cache.clear()
                if oracle.generation != write.generation:
                    return problems + [
                        f"{self.name}: write landed at generation "
                        f"{write.generation}, replay at {oracle.generation}"
                    ]
            if oracle.generation != read.generation:
                problems.append(
                    f"{self.name}: read at generation {read.generation} "
                    f"precedes the oracle's {oracle.generation}"
                )
                continue
            if read.op.text not in expected_cache:
                expected_cache[read.op.text] = _normalise([
                    h.to_dict() for h in oracle.search(
                        read.op.text, m=M, kind=self.kind
                    )
                ])
            if expected_cache[read.op.text] != read.hits:
                problems.append(
                    f"{self.name}: {read.op.text!r} at generation "
                    f"{read.generation} differs from the replay"
                )
        return problems


@dataclass
class _HttpSystem:
    service: XRankService
    server: object
    thread: threading.Thread
    deltas: list = field(default_factory=list)


class ClusterScan(Workload):
    name = "cluster_scan"
    clients = 1
    papers = 400
    shards = 2
    kinds = ("hdil",)
    #: One query in ``low_corr_every`` is a planted low-correlation pair.
    low_corr_every = 10

    def __init__(self, seed: int, ops_per_client: int):
        super().__init__(seed, ops_per_client)
        planted = PlantedKeywords.default()
        planted.independent_keywords = [f"uncorr{i}" for i in range(10)]
        corpus, self.sources = _dblp(self.papers, seed, planted)
        rng = random.Random(seed)
        low_corr = [
            f"{a} {b}"
            for a, b in itertools.permutations(planted.independent_keywords, 2)
            # Keywords sharing a stripe are planted in the same documents.
            if int(a[6:]) % planted.stripes != int(b[6:]) % planted.stripes
        ]
        rng.shuffle(low_corr)
        frequent = frequent_pairs(vocabulary_postings(corpus), rng)
        queries = []
        for number in range(ops_per_client):
            if number % self.low_corr_every == 0 and low_corr:
                queries.append(low_corr.pop())
            else:
                queries.append(next(frequent))
        self.ops = [[Op("search", q) for q in queries]]
        self.info = {
            "distinct_queries": len(set(queries)),
            "kind": "hdil",
            "shards": self.shards,
        }

    def setup(self):
        return LocalCluster.from_sources(
            self.sources, num_shards=self.shards, kinds=self.kinds
        ).start()

    def teardown(self, system) -> None:
        system.stop()

    def services(self, system):
        return [worker.service for group in system.workers for worker in group]

    def execute(self, system, handle, op):
        response = system.search(op.text, m=M)
        return Record(
            op, response.hits, response.generation,
            response.degraded or bool(response.missing_shards),
        )

    def check(self, records):
        # The cluster must match one node over the whole corpus, and DIL
        # must match HDIL; a single-node DIL oracle checks both at once.
        oracle = single_node_oracle(specs_from_sources(self.sources), kinds=("dil",))
        problems = []
        for record in records:
            if record.hits is None:
                continue
            expected = oracle.search(record.op.text, m=M, kind="dil").to_dict()
            problems.extend(compare_responses(
                expected, {"results": record.hits}, f"{self.name}: {record.op.text!r}"
            ))
        return problems


WORKLOADS = {w.name: w for w in (DblpProbe, HttpMixed, ClusterScan)}
