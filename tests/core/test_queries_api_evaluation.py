"""Tests for the paper queries, the PerfXplain facade and the evaluation harness."""

import random

import pytest

from repro.core.api import PerfXplain
from repro.core.evaluation import (
    SweepResult,
    RunMetrics,
    evaluate_despite_relevance,
    evaluate_feature_levels,
    evaluate_log_fraction,
    evaluate_precision_vs_width,
    measure_on_log,
    precision_generality_points,
    relevance_of_user_despite,
    split_for_repetition,
)
from repro.core.explainer import PerfXplainConfig, PerfXplainExplainer
from repro.core.examples import records_for_query
from repro.core.explanation import Explanation, ExplanationMetrics
from repro.core.features import FeatureLevel, infer_schema
from repro.core.pairs import PairFeatureConfig
from repro.core.pxql.ast import TRUE_PREDICATE
from repro.core.pxql.parser import parse_predicate
from repro.core.queries import (
    PAPER_QUERIES,
    find_pair_of_interest,
    why_last_task_faster,
    why_slower_despite_same_num_instances,
)
from repro.exceptions import EvaluationError, ExplanationError
from repro.logs.store import ExecutionLog


class TestPaperQueries:
    def test_catalogue(self):
        assert set(PAPER_QUERIES) == {
            "WhyLastTaskFaster", "WhySlowerDespiteSameNumInstances",
        }

    def test_job_query_structure(self):
        query = why_slower_despite_same_num_instances()
        assert query.entity.value == "job"
        assert "numinstances_isSame" in query.despite.features()
        assert query.observed_contradicts_expected()

    def test_task_query_structure(self):
        query = why_last_task_faster()
        assert query.entity.value == "task"
        assert "hostname_isSame" in query.despite.features()
        assert "job_id_isSame" in query.despite.features()

    def test_find_pair_of_interest_satisfies_query(self, small_log, job_schema):
        query = why_slower_despite_same_num_instances()
        first_id, second_id = find_pair_of_interest(
            small_log, query, schema=job_schema, rng=random.Random(0)
        )
        first = small_log.find_job(first_id)
        second = small_log.find_job(second_id)
        assert first.features["numinstances"] == second.features["numinstances"]
        assert first.features["pig_script"] == second.features["pig_script"]
        assert first.duration > second.duration * 1.1

    def test_find_pair_raises_when_impossible(self, small_log, job_schema):
        query = why_slower_despite_same_num_instances().with_despite(
            parse_predicate("numinstances_isSame = T AND pig_script_isSame = T "
                            "AND blocksize > 9999999999999")
        )
        with pytest.raises(ExplanationError):
            find_pair_of_interest(small_log, query, schema=job_schema)


class TestPerfXplainFacade:
    def test_parse_and_explain_from_text(self, perfxplain):
        explanation = perfxplain.explain("""
            FOR JOBS ?, ?
            DESPITE numinstances_isSame = T AND pig_script_isSame = T
            OBSERVED duration_compare = GT
            EXPECTED duration_compare = SIM
        """, width=2)
        assert explanation.width >= 1
        assert explanation.metrics is not None

    def test_explain_with_query_object(self, perfxplain, job_query):
        explanation = perfxplain.explain(job_query, width=2)
        assert explanation.technique == "PerfXplain"

    def test_all_techniques_available(self, perfxplain, job_query):
        available = set(perfxplain.techniques())
        assert {"perfxplain", "ruleofthumb", "simbutdiff"} <= available
        # The deterministic detectors register as first-class techniques.
        assert {
            "detect-skew",
            "detect-straggler",
            "detect-misconfig",
            "detect-underuse",
        } <= available
        for technique in ("perfxplain", "ruleofthumb", "simbutdiff"):
            explanation = perfxplain.explain(job_query, width=2, technique=technique)
            assert explanation.because is not None

    def test_unknown_technique_rejected(self, perfxplain, job_query):
        with pytest.raises(ExplanationError):
            perfxplain.explain(job_query, technique="magic")

    def test_pair_features_exposed(self, perfxplain, job_query):
        values = perfxplain.pair_features(job_query)
        assert values["numinstances_isSame"] == "T"
        assert values["duration_compare"] == "GT"

    def test_suggest_despite(self, perfxplain, job_query):
        despite = perfxplain.suggest_despite(job_query.without_despite(), width=2)
        assert 1 <= despite.width <= 2

    def test_schema_cached_per_entity(self, perfxplain, job_query, task_query):
        first = perfxplain.schema_for(job_query)
        second = perfxplain.schema_for(job_query)
        assert first is second
        assert perfxplain.schema_for(task_query) is not first

    def test_empty_log_rejected(self):
        facade = PerfXplain(ExecutionLog())
        with pytest.raises(ExplanationError):
            facade.explain("""
                FOR JOBS ?, ?
                OBSERVED duration_compare = GT
                EXPECTED duration_compare = SIM
            """)


class TestSweepResult:
    def _metrics(self, precision):
        return ExplanationMetrics(relevance=0.5, precision=precision, generality=0.3, support=10)

    def test_mean_and_std(self):
        sweep = SweepResult()
        for repetition, precision in enumerate([0.8, 0.9, 1.0]):
            sweep.add(RunMetrics("PerfXplain", 3, repetition, self._metrics(precision)))
        assert sweep.mean("PerfXplain", 3) == pytest.approx(0.9)
        assert sweep.std("PerfXplain", 3) == pytest.approx(0.1)

    def test_missing_data_returns_zero(self):
        sweep = SweepResult()
        assert sweep.mean("nobody", 1) == 0.0
        assert sweep.std("nobody", 1) == 0.0

    def test_series_and_table(self):
        sweep = SweepResult()
        for width in (1, 2):
            sweep.add(RunMetrics("PerfXplain", width, 0, self._metrics(0.5 + width / 10)))
        series = sweep.series("PerfXplain")
        assert [point[0] for point in series] == [1, 2]
        table = sweep.format_table()
        assert "PerfXplain" in table
        assert "width" in table


class TestMeasureOnLog:
    def test_empty_because_matches_base_rate(self, small_log, job_schema, job_query):
        explanation = Explanation(because=TRUE_PREDICATE)
        metrics = measure_on_log(explanation, job_query, small_log, schema=job_schema)
        assert 0.0 < metrics.precision < 1.0
        assert metrics.generality == pytest.approx(1.0)
        assert metrics.support > 0

    def test_relevance_plus_base_precision_is_one(self, small_log, job_schema, job_query):
        explanation = Explanation(because=TRUE_PREDICATE)
        metrics = measure_on_log(explanation, job_query, small_log, schema=job_schema)
        assert metrics.relevance + metrics.precision == pytest.approx(1.0)

    def test_specific_because_raises_precision(self, small_log, job_schema, job_query):
        explainer = PerfXplainExplainer()
        explanation = explainer.explain(small_log, job_query, schema=job_schema, width=3)
        empty = measure_on_log(Explanation(because=TRUE_PREDICATE), job_query, small_log,
                               schema=job_schema)
        full = measure_on_log(explanation, job_query, small_log, schema=job_schema)
        assert full.precision > empty.precision
        assert full.generality < empty.generality


class TestSplitting:
    def test_split_forces_pair_jobs_into_both_sides(self, small_log, job_query):
        train, test = split_for_repetition(small_log, job_query, repetition=0, seed=1)
        for part in (train, test):
            assert part.find_job(job_query.first_id) is not None
            assert part.find_job(job_query.second_id) is not None

    def test_split_forces_task_parent_jobs(self, small_log, task_query):
        train, test = split_for_repetition(small_log, task_query, repetition=0, seed=1)
        for part in (train, test):
            assert part.find_task(task_query.first_id) is not None

    def test_different_repetitions_differ(self, small_log, job_query):
        first_train, _ = split_for_repetition(small_log, job_query, 0, seed=1)
        second_train, _ = split_for_repetition(small_log, job_query, 1, seed=1)
        assert {j.job_id for j in first_train.jobs} != {j.job_id for j in second_train.jobs}


class TestEvaluationSweeps:
    """Small-scale runs of every experiment sweep (2 repetitions, few widths)."""

    def test_precision_vs_width_shape(self, small_log, job_query):
        techniques = [PerfXplainExplainer()]
        sweep = evaluate_precision_vs_width(
            small_log, job_query, techniques, widths=(0, 2), repetitions=2, seed=3,
        )
        assert sweep.techniques() == ["PerfXplain"]
        assert sweep.widths() == [0, 2]
        assert sweep.mean("PerfXplain", 2) > sweep.mean("PerfXplain", 0)

    def test_precision_vs_width_requires_pair(self, small_log):
        with pytest.raises(EvaluationError):
            evaluate_precision_vs_width(
                small_log, why_slower_despite_same_num_instances(), [PerfXplainExplainer()],
            )

    def test_despite_relevance_increases_with_width(self, small_log, job_query):
        sweep = evaluate_despite_relevance(
            small_log, job_query, widths=(0, 2), repetitions=2, seed=3,
        )
        empty = sweep.mean("PerfXplain-despite", 0, "relevance")
        generated = sweep.mean("PerfXplain-despite", 2, "relevance")
        assert generated > empty

    def test_user_despite_relevance(self, small_log, job_query):
        relevances = relevance_of_user_despite(small_log, job_query, repetitions=2, seed=3)
        assert len(relevances) == 2
        assert all(0.0 <= value <= 1.0 for value in relevances)

    def test_log_fraction_sweep(self, small_log, job_query):
        results = evaluate_log_fraction(
            small_log, job_query, [PerfXplainExplainer()], fractions=(0.2, 0.5),
            width=2, repetitions=2, seed=3,
        )
        assert set(results) == {0.2, 0.5}
        for sweep in results.values():
            assert sweep.mean("PerfXplain", 2) > 0

    def test_feature_level_sweep(self, small_log, job_query):
        sweep = evaluate_feature_levels(
            small_log, job_query, widths=(2,), repetitions=2, seed=3,
        )
        names = set(sweep.techniques())
        assert names == {"PerfXplain-level1", "PerfXplain-level2", "PerfXplain-level3"}

    def test_feature_level_sweep_measures_under_base_pair_config(self, tiny_log):
        query = why_slower_despite_same_num_instances()
        pair = find_pair_of_interest(
            tiny_log, query, schema=infer_schema(tiny_log.jobs), rng=random.Random(0)
        )
        query = query.with_pair(*pair)
        pair_config = PairFeatureConfig(sim_threshold=0.3)
        sweep = evaluate_feature_levels(
            tiny_log, query, levels=(FeatureLevel.FULL,), widths=(2,),
            repetitions=1, seed=1, base_config=PerfXplainConfig(pair_config=pair_config),
        )
        (run,) = sweep.select("PerfXplain-level3", 2)
        _, test = split_for_repetition(tiny_log, query, 0, 1)
        expected = measure_on_log(
            run.explanation, query, test,
            schema=infer_schema(records_for_query(test, query)), config=pair_config,
            max_candidate_pairs=200_000, rng=random.Random(1),
        )
        assert run.metrics == expected

    def test_precision_generality_points(self, small_log, job_query):
        sweep = evaluate_precision_vs_width(
            small_log, job_query, [PerfXplainExplainer()], widths=(0, 1, 2),
            repetitions=2, seed=4,
        )
        points = precision_generality_points(sweep, "PerfXplain")
        assert len(points) == 2  # width 0 is skipped
        assert all(0 <= g <= 1 and 0 <= p <= 1 for g, p in points)
