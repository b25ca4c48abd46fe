"""Cross-evaluator agreement: DIL, RDIL and HDIL must return the same
top-m results (the paper's three structures answer identical queries), and
DIL must match the brute-force reference."""

import itertools
import random

import pytest

from dataclasses import replace

from repro.bench.harness import BENCH_STORAGE
from repro.config import HDILParams, RankingParams, StorageParams
from repro.errors import QueryError
from repro.index.builder import IndexBuilder
from repro.query.dil_eval import DILEvaluator
from repro.query.hdil_eval import HDILEvaluator, HDILTrace
from repro.query.rdil_eval import RDILEvaluator

from conftest import VOCAB, random_graph, reference_results


def build_evaluators(graph, ranking=None, hdil_params=None, storage=None):
    ranking = ranking or RankingParams()
    builder = IndexBuilder(graph, storage_params=storage)
    return {
        "dil": DILEvaluator(builder.build_dil(), ranking),
        "rdil": RDILEvaluator(builder.build_rdil(), ranking),
        "hdil": HDILEvaluator(
            builder.build_hdil(hdil_params), ranking, hdil_params
        ),
    }, builder


#: Pages small enough that every keyword list of :func:`multipage_evaluators`
#: spans at least two of them, so HDIL's DIL-first rule cannot fire.
SMALL_PAGES = StorageParams(page_size=64)


def multipage_evaluators(seed, hdil_params=None):
    graph = random_graph(random.Random(seed), num_docs=10, max_depth=4)
    evaluators, builder = build_evaluators(
        graph, hdil_params=hdil_params, storage=SMALL_PAGES
    )
    full_lists = evaluators["hdil"].index.full_lists
    assert all(full_lists[k].num_pages >= 2 for k in VOCAB[:4])
    return evaluators, builder


def top_ranks(results):
    return [round(r.rank, 9) for r in results]


def assert_same_topm(evaluators, keywords, m):
    outcomes = {
        name: evaluator.evaluate(keywords, m=m)
        for name, evaluator in evaluators.items()
    }
    dil = outcomes["dil"]
    for name in ("rdil", "hdil"):
        other = outcomes[name]
        assert top_ranks(other) == pytest.approx(top_ranks(dil), rel=1e-5), (
            f"{name} top-{m} ranks diverge from DIL for {keywords}"
        )
        # Results strictly above the m-th rank must be identical elements.
        if dil:
            cutoff = dil[-1].rank
            dil_strict = {str(r.dewey) for r in dil if r.rank > cutoff}
            other_strict = {str(r.dewey) for r in other if r.rank > cutoff}
            assert dil_strict == other_strict


class TestAgreementOnFigure1:
    @pytest.mark.parametrize(
        "keywords",
        [["xql"], ["xql", "language"], ["xml", "workshop"], ["soffer", "xql"]],
    )
    def test_all_evaluators_agree(self, figure1_graph, keywords):
        evaluators, _ = build_evaluators(figure1_graph)
        assert_same_topm(evaluators, keywords, m=10)


class TestAgreementRandomized:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_keyword_queries(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        evaluators, _ = build_evaluators(graph)
        for keywords in itertools.combinations(VOCAB[:4], 2):
            for m in (1, 3, 10):
                assert_same_topm(evaluators, list(keywords), m)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_keyword_queries(self, seed):
        rng = random.Random(50 + seed)
        graph = random_graph(rng, num_docs=3, max_depth=4)
        evaluators, _ = build_evaluators(graph)
        assert_same_topm(evaluators, ["alpha", "beta", "gamma"], m=5)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_keyword(self, seed):
        rng = random.Random(80 + seed)
        graph = random_graph(rng, num_docs=3, max_depth=3)
        evaluators, _ = build_evaluators(graph)
        assert_same_topm(evaluators, ["alpha"], m=5)

    def test_dil_matches_reference_topm(self):
        rng = random.Random(7)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        evaluators, builder = build_evaluators(graph)
        expected = reference_results(
            graph, ["alpha", "beta"], builder.elemranks
        )
        got = evaluators["dil"].evaluate(["alpha", "beta"], m=1000)
        assert {r.dewey.components for r in got} == set(expected)
        for result in got:
            assert result.rank == pytest.approx(
                expected[result.dewey.components], rel=1e-4, abs=1e-12
            )


class TestHDILSpecifics:
    def test_tiny_head_forces_dil_fallback(self):
        """With a 1-entry ranked head HDIL must still answer correctly."""
        rng = random.Random(3)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        params = HDILParams(rank_fraction=0.01, min_rank_entries=1,
                            monitor_interval=1)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        assert_same_topm(evaluators, ["alpha", "beta"], m=10)

    def test_full_head_stays_in_rdil_mode(self):
        rng = random.Random(4)
        graph = random_graph(rng, num_docs=3, max_depth=3)
        params = HDILParams(rank_fraction=1.0, min_rank_entries=1)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        assert_same_topm(evaluators, ["alpha", "beta"], m=3)

    @pytest.mark.parametrize("seed", [1, 4, 5])
    def test_full_head_stays_in_rdil_mode_on_multipage_lists(self, seed):
        # The monitor never fires, so the outcome does not hang on buffer
        # pool state: only the threshold stop condition ends RDIL mode.
        params = HDILParams(rank_fraction=1.0, min_rank_entries=1,
                            monitor_interval=10**6)
        evaluators, _ = multipage_evaluators(seed, params)
        hdil = evaluators["hdil"]
        for keywords in itertools.combinations(VOCAB[:4], 2):
            assert_same_topm(evaluators, list(keywords), m=3)
            assert hdil.last_trace.started_in_rdil
            assert not hdil.last_trace.switched_to_dil
            assert hdil.last_trace.rdil_entries_read > 0

    @pytest.mark.parametrize("m", [3, 10])
    def test_tiny_head_switches_mid_query_on_multipage_lists(self, m):
        params = HDILParams(rank_fraction=0.01, min_rank_entries=1,
                            monitor_interval=1)
        evaluators, _ = multipage_evaluators(4, params)
        hdil = evaluators["hdil"]
        for keywords in itertools.combinations(VOCAB[:4], 2):
            assert_same_topm(evaluators, list(keywords), m=m)
            assert hdil.last_trace.started_in_rdil
            assert hdil.last_trace.switched_to_dil
            assert hdil.last_trace.switch_reason

    def test_trace_populated(self):
        rng = random.Random(5)
        graph = random_graph(rng, num_docs=3, max_depth=3)
        evaluators, _ = build_evaluators(graph)
        hdil = evaluators["hdil"]
        hdil.evaluate(["alpha", "beta"], m=3)
        assert hdil.last_trace.dil_expected_ms > 0

    def test_single_keyword_head_shorter_than_m(self):
        rng = random.Random(6)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        params = HDILParams(rank_fraction=0.01, min_rank_entries=1)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        dil = evaluators["dil"].evaluate(["alpha"], m=50)
        hdil = evaluators["hdil"].evaluate(["alpha"], m=50)
        assert top_ranks(hdil) == pytest.approx(top_ranks(dil), rel=1e-6)


class TestValidation:
    def test_empty_query_rejected(self, figure1_graph):
        evaluators, _ = build_evaluators(figure1_graph)
        for evaluator in evaluators.values():
            with pytest.raises(QueryError):
                evaluator.evaluate([], m=5)

    def test_bad_m_rejected(self, figure1_graph):
        evaluators, _ = build_evaluators(figure1_graph)
        for evaluator in evaluators.values():
            with pytest.raises(QueryError):
                evaluator.evaluate(["xql"], m=0)

    def test_unknown_keyword_empty_result(self, figure1_graph):
        evaluators, _ = build_evaluators(figure1_graph)
        for evaluator in evaluators.values():
            assert evaluator.evaluate(["zzzz", "xql"], m=5) == []


class TestHDILEstimators:
    @pytest.mark.parametrize("estimator", ["paper", "threshold-slope"])
    def test_both_estimators_return_correct_topm(self, estimator):
        rng = random.Random(9)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        params = HDILParams(estimator=estimator, monitor_interval=2)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        assert_same_topm(evaluators, ["alpha", "beta"], m=5)

    def test_bad_estimator_rejected(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            HDILParams(estimator="crystal-ball")


class TestHDILPlanning:
    """HDIL goes straight to a DIL scan when DIL's a-priori cost is no
    more than the cheapest RDIL run: one head-page read per keyword."""

    QUERIES = [
        list(keywords)
        for size in (2, 3, 4)
        for keywords in itertools.combinations(VOCAB[:4], size)
    ]

    @pytest.mark.parametrize(
        "params", [StorageParams(), BENCH_STORAGE], ids=["default", "bench"]
    )
    def test_rule_fires_exactly_at_the_rdil_floor(self, params):
        fired = stayed = 0
        for page_size in (params.page_size, 64):
            storage = replace(params, page_size=page_size)
            for seed in (1, 2):
                graph = random_graph(random.Random(seed), num_docs=10,
                                     max_depth=4)
                evaluators, _ = build_evaluators(graph, storage=storage)
                hdil = evaluators["hdil"]
                for keywords in self.QUERIES:
                    if not all(hdil.index.has_keyword(k) for k in keywords):
                        continue
                    hdil.evaluate(keywords, m=5)
                    k = len(keywords)
                    pages = hdil.index.total_full_pages(keywords)
                    dil_expected = (k * params.seek_cost_ms
                                    + pages * params.transfer_cost_ms)
                    rdil_floor = k * (params.seek_cost_ms
                                      + params.transfer_cost_ms)
                    should_fire = dil_expected <= rdil_floor
                    assert should_fire == (pages <= k)
                    trace = hdil.last_trace
                    assert trace.dil_expected_ms == pytest.approx(dil_expected)
                    assert trace.started_in_rdil is not should_fire
                    if should_fire:
                        assert not trace.switched_to_dil
                        assert trace.rdil_entries_read == 0
                        assert "RDIL floor" in trace.switch_reason
                        fired += 1
                    else:
                        stayed += 1
        assert fired and stayed

    def _cold_cost(self, disk, run):
        disk.drop_cache()
        before = disk.stats.snapshot()
        run()
        return disk.stats.delta_since(before).cost_ms(disk.params)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_page_lists_cost_what_dil_costs(self, seed):
        graph = random_graph(random.Random(seed), num_docs=4, max_depth=4)
        evaluators, _ = build_evaluators(graph)
        hdil, dil = evaluators["hdil"], evaluators["dil"]
        disk = hdil.index.disk
        for keywords in self.QUERIES:
            if not all(hdil.index.has_keyword(k) for k in keywords):
                continue
            assert hdil.index.total_full_pages(keywords) == len(keywords)
            hdil_cost = self._cold_cost(
                disk, lambda: hdil.evaluate(keywords, m=5)
            )
            assert not hdil.last_trace.started_in_rdil
            dil_cost = self._cold_cost(
                dil.index.disk, lambda: dil.evaluate(keywords, m=5)
            )
            assert hdil_cost == pytest.approx(dil_cost)

            def rdil_then_dil():
                # The former plan: always probe the heads first.
                hdil.last_trace = HDILTrace(
                    dil_expected_ms=hdil._expected_dil_cost_ms(keywords)
                )
                if hdil._evaluate_rdil_mode(keywords, 5, None, None) is None:
                    hdil._evaluate_dil_mode(keywords, 5)

            assert hdil_cost < self._cold_cost(disk, rdil_then_dil)

    @pytest.mark.parametrize(
        "storage", [StorageParams(), SMALL_PAGES], ids=["one-page", "multipage"]
    )
    @pytest.mark.parametrize("seed", [1, 4])
    def test_answers_match_dil_and_rdil_with_deletions(self, storage, seed):
        graph = random_graph(random.Random(seed), num_docs=10, max_depth=4)
        evaluators, _ = build_evaluators(graph, storage=storage)
        for evaluator in evaluators.values():
            evaluator.index.delete_document(2)
            evaluator.index.delete_document(7)
        hdil = evaluators["hdil"]
        for keywords in self.QUERIES:
            for m in (1, 5, 20):
                assert_same_topm(evaluators, keywords, m)
                pages = hdil.index.total_full_pages(keywords)
                assert hdil.last_trace.started_in_rdil is (
                    pages > len(keywords)
                )
                got = hdil.evaluate(keywords, m=m)
                assert all(r.dewey.components[0] not in (2, 7) for r in got)
