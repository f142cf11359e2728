"""Frontier selection, k rounds, gap finding, and local mending."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from barriercover.algorithms import (
    Gap,
    SelectionResult,
    SelectionStep,
    _Frontier,
    augment_with_gap_sensors,
    find_gaps,
    k_oga,
    logm,
    oga,
    oga_continuous,
)
from barriercover.baselines import brute_force_min_kcover, greedy_max_coverage
from barriercover.model import (
    ParameterError,
    SensorField,
    TargetSet,
    discretize,
)
from conftest import (
    exhaustive_min_kcover,
    make_field,
    markov_equality_holds,
    naive_logm,
    oracle_instance,
    selected_cover_sets,
    table_field,
    union_covers_domain,
)


def spans_of(field, result):
    out = []
    for sid in result.selected_ids:
        span = result.virtual_spans.get(sid)
        if span is None:
            span = field.span_of(sid)
        out.append(span)
    return out


class TestOgaDiscrete:
    def test_three_sensor_chain(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0), (7.0, 10.0)])
        targets = discretize(field)
        assert list(targets) == [1.0, 3.0, 5.5, 7.5, 9.0]
        sel = oga(field, targets)
        assert sel.selected_ids == (0, 1, 2)
        assert sel.fully_covered and not sel.virtual_ids
        assert sel.count == 3

    def test_skips_redundant_sensor(self):
        field = make_field([(0.0, 6.0), (2.0, 5.0), (5.0, 10.0)])
        sel = oga(field, discretize(field))
        assert sel.selected_ids == (0, 2)

    def test_prefers_longer_reach_then_lower_id(self):
        field = make_field([(0.0, 4.0), (0.0, 6.0), (1.0, 6.0), (5.0, 8.0)])
        sel = oga(field, discretize(field))
        assert sel.selected_ids[0] == 1

    def test_uncoverable_targets_get_virtuals(self):
        field = make_field([(2.0, 4.0)], domain=(0.0, 10.0))
        sel = oga(field, discretize(field))
        assert sel.selected_ids == (1, 0, 2)
        assert sel.virtual_ids == (1, 2)
        assert not sel.fully_covered
        assert sel.virtual_spans == {1: (1.0, 1.0), 2: (7.0, 7.0)}

    def test_trace_records_indices_and_candidates(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0), (7.0, 10.0)])
        targets = discretize(field)
        sel = oga(field, targets)
        first = sel.trace[0]
        assert first.current_target == 0
        assert first.candidate_ids == (0,)
        assert first.chosen_id == 0
        second = sel.trace[1]
        assert second.candidate_ids == (0, 1) or second.candidate_ids == (1,)
        assert second.chosen_id == 1

    def test_trace_off_keeps_counts(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0), (7.0, 10.0)])
        targets = discretize(field)
        a = oga(field, targets)
        b = oga(field, targets, record_trace=False)
        assert a.selected_ids == b.selected_ids
        assert b.trace == ()
        assert a.comparisons == b.comparisons

    def test_rejects_empty_targets(self):
        field = make_field([(0.0, 4.0)])
        with pytest.raises(ParameterError):
            oga(field, TargetSet(()))


class TestKOga:
    def test_two_cover_needs_all_four(self):
        field = make_field(
            [(0.0, 6.0), (4.0, 10.0), (0.0, 5.0), (5.0, 10.0)],
            domain=(0.0, 10.0),
        )
        sel = k_oga(field, discretize(field), 2)
        assert sel.selected_ids == (0, 1, 2, 3)
        assert sel.fully_covered

    def test_rounds_never_reuse_a_sensor(self):
        field = make_field(
            [(0.0, 10.0), (0.0, 7.0), (3.0, 10.0), (0.0, 4.0), (4.0, 10.0)],
            domain=(0.0, 10.0),
        )
        sel = k_oga(field, discretize(field), 3)
        assert len(set(sel.selected_ids)) == len(sel.selected_ids)
        assert sel.fully_covered

    def test_k_must_be_positive(self):
        field = make_field([(0.0, 4.0)])
        with pytest.raises(ParameterError):
            k_oga(field, discretize(field), 0)

    def test_targets_must_lie_in_the_domain(self):
        # every selector that takes targets refuses the same ones
        field = make_field([(0.0, 4.0)], domain=(0.0, 10.0))
        for select in (
            oga,
            lambda f, t: k_oga(f, t, 2),
            lambda f, t: augment_with_gap_sensors(f, t, 1),
            greedy_max_coverage,
            lambda f, t: brute_force_min_kcover(f, t, 1),
        ):
            for xs, bad in (
                ((1.0, 10.5), "10.5"),
                ((3.0, -0.5, 40000.0), "-0.5"),
                ([40000.0], "40000.0"),
            ):
                message = rf"^targets must lie in the domain \[0.0, 10.0\], got {bad}$"
                with pytest.raises(ParameterError, match=message):
                    select(field, TargetSet(xs))
        # the domain's ends are inside it; what nothing covers is bridged
        sel = oga(field, TargetSet((0.0, 10.0)))
        assert sel.selected_ids == (0, 1)
        assert sel.virtual_spans == {1: (10.0, 10.0)}

    def test_insufficient_multiplicity_mints_virtuals(self):
        field = make_field([(0.0, 10.0)], domain=(0.0, 10.0))
        sel = k_oga(field, discretize(field), 2)
        assert not sel.fully_covered
        assert len(sel.virtual_ids) == 1

    def test_matches_exhaustive_minimum(self):
        for seed in range(25):
            field, targets = oracle_instance(seed, k=2, n_max=7)
            sel = k_oga(field, targets, 2, record_trace=False)
            assert sel.fully_covered
            assert sel.count == exhaustive_min_kcover(field, targets, 2)


class TestAugment:
    def test_covered_field_unchanged(self):
        field = make_field([(0.0, 6.0), (5.0, 10.0)], domain=(0.0, 10.0))
        assert augment_with_gap_sensors(field, discretize(field), 1) == {}

    def test_deficient_runs_span_first_to_last_target(self):
        field = make_field([(4.0, 6.0)], domain=(0.0, 10.0))
        targets = TargetSet((1.0, 2.0, 5.0, 8.0, 9.0))
        spans = augment_with_gap_sensors(field, targets, 1)
        assert spans == {1: (1.0, 2.0), 2: (8.0, 9.0)}

    def test_deficiency_depth_sets_copy_count(self):
        field = make_field([(0.0, 10.0)], domain=(0.0, 10.0))
        targets = TargetSet((5.0,))
        spans = augment_with_gap_sensors(field, targets, 3)
        assert spans == {1: (5.0, 5.0), 2: (5.0, 5.0)}


class TestOgaContinuous:
    def test_three_sensor_chain(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0), (7.0, 10.0)])
        sel = oga_continuous(field, (0.0, 10.0))
        assert sel.selected_ids == (0, 1, 2)
        assert sel.fully_covered

    def test_trace_records_coordinates(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0), (7.0, 10.0)])
        sel = oga_continuous(field, (0.0, 10.0))
        assert [s.current_target for s in sel.trace] == [0.0, 4.0, 8.0]
        assert [s.reach for s in sel.trace] == [4.0, 8.0, 10.0]

    def test_gap_bridged_to_next_resumption(self):
        field = make_field([(0.0, 2.0), (6.0, 10.0)], domain=(0.0, 10.0))
        sel = oga_continuous(field, (0.0, 10.0))
        assert not sel.fully_covered
        assert len(sel.virtual_ids) == 1
        vid = sel.virtual_ids[0]
        assert sel.virtual_spans[vid] == (2.0, 6.0)

    def test_virtual_skips_zero_extent_resumption(self):
        field = table_field([(0.0, 2.0), (4.0, 4.0), (6.0, 10.0)], (0.0, 10.0))
        sel = oga_continuous(field, (0.0, 10.0))
        assert sel.selected_ids == (0, 3, 2)
        assert sel.virtual_spans == {3: (2.0, 6.0)}

    def test_trailing_gap_capped_at_domain_end(self):
        field = make_field([(0.0, 3.0)], domain=(0.0, 10.0))
        sel = oga_continuous(field, (0.0, 10.0))
        vid = sel.virtual_ids[-1]
        assert sel.virtual_spans[vid] == (3.0, 10.0)

    def test_rejects_empty_domain(self):
        field = make_field([(0.0, 4.0)])
        with pytest.raises(ParameterError):
            oga_continuous(field, (4.0, 4.0))

    def test_matches_discrete_on_midpoints(self):
        import sys

        sys.path.insert(0, "tests")
        from conftest import random_small_field

        for seed in range(200):
            rng = np.random.default_rng([11, seed])
            field = random_small_field(rng)
            c = oga_continuous(field, field.domain, record_trace=False)
            d = oga(field, discretize(field), record_trace=False)
            assert c.count == d.count
            assert c.selected_ids == d.selected_ids
            assert c.fully_covered == d.fully_covered


class TestSerialization:
    def test_round_trip_preserves_selection(self):
        field = make_field([(2.0, 4.0)], domain=(0.0, 10.0))
        sel = oga(field, discretize(field))
        back = SelectionResult.from_dict(sel.to_dict())
        assert back.selected_ids == sel.selected_ids
        assert back.virtual_ids == sel.virtual_ids
        assert back.virtual_spans == sel.virtual_spans
        assert back.trace == sel.trace
        assert back.fully_covered == sel.fully_covered

    STEP = {"current_target": 0.0, "candidate_ids": [0], "chosen_id": 0, "reach": 4.0}

    @pytest.mark.parametrize(
        "key, value, shown",
        [
            ("current_target", "x", "'x'"),
            ("current_target", math.nan, "nan"),
            ("reach", True, "True"),
            ("reach", math.inf, "inf"),
            ("reach", None, "None"),
        ],
        ids=["str-target", "nan-target", "bool-reach", "inf-reach", "null-reach"],
    )
    def test_trace_coordinates_must_be_finite_numbers(self, key, value, shown):
        trace = [self.STEP, {**self.STEP, key: value}]
        message = f"trace step 1 {key} must be a finite number, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SelectionResult.from_dict({"selected": [0], "trace": trace})

    @pytest.mark.parametrize(
        "value, shown",
        [(10**5000, "an integer of 5001 digits"), (-(10**400), "an integer of 401 digits")],
        ids=["past-json", "past-floats"],
    )
    def test_integer_coordinates_must_be_finite_as_floats(self, value, shown):
        """An int past the floats is refused, with its digit count, since
        its repr may fail; one that is a finite float is written and read back."""
        message = f"trace step 0 reach must be a finite number, got {shown}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SelectionResult(selected_ids=(0,), trace=(SelectionStep(0, (), 0, value),))
        kept = SelectionResult(selected_ids=(0,), trace=(SelectionStep(10**308, (), 0, 1.0),))
        text = json.dumps(kept.to_dict())
        read = SelectionResult.from_dict(json.loads(text))
        assert read == kept and read.trace[0].current_target == 10**308

    def test_trace_steps_must_be_steps(self):
        message = "trace step 0 must be a SelectionStep, got {'chosen_id': 0}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SelectionResult(selected_ids=(0,), trace=({"chosen_id": 0},))

    @pytest.mark.parametrize("value", ["false", 0, 1, None, [True]])
    def test_fully_covered_must_be_a_boolean(self, value):
        message = f"fully_covered must be true or false, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SelectionResult.from_dict({"selected": [0], "fully_covered": value})
        read = SelectionResult.from_dict({"selected": [0], "fully_covered": False})
        assert read.fully_covered is False

    def test_duplicate_selection_rejected(self):
        with pytest.raises(ParameterError):
            SelectionResult(selected_ids=(1, 1))

    @pytest.mark.parametrize(
        "parts, bad",
        [({"selected_ids": (2**63, -4), "virtual_spans": {2**63: (0.0, 1.0)}}, 2**63),
         ({"selected_ids": (0, -4)}, -4),
         ({"selected_ids": (True, 1.5)}, True),
         ({"selected_ids": (0, 1.5)}, 1.5)],
        ids=["past-int64", "negative", "bool", "float"],
    )
    def test_ids_are_those_a_result_file_takes(self, parts, bad):
        """A result that is made can be written and read back: its ids pass
        the rule that ``from_dict`` applies, with the same message."""
        message = f"selected ids must be integers in [0, 2**63), got {bad!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SelectionResult(**parts)

    def test_numpy_integer_ids_are_ids(self):
        kept = SelectionResult(
            selected_ids=(np.int64(3), np.uint64(2**63 - 1), 0),
            virtual_spans={np.int64(3): (np.float64(1.0), 2)},
            trace=(SelectionStep(0.0, (np.int64(3), 0), np.uint64(2**63 - 1), 1.0),),
        )
        assert kept.selected_ids == (3, 2**63 - 1, 0)
        # ints and floats, which a result file writes and reads back as they are
        text = json.dumps(kept.to_dict())
        read = SelectionResult.from_dict(json.loads(text))
        assert read == kept and json.dumps(read.to_dict()) == text
        assert {type(x) for x in (*read.selected_ids, *read.trace[0].candidate_ids)} == {int}
        assert read.virtual_spans == {3: (1.0, 2.0)}

    def test_virtuals_must_be_selected(self):
        with pytest.raises(ParameterError):
            SelectionResult(selected_ids=(1,), virtual_spans={2: (0.0, 1.0)})

    def test_virtual_ids_are_the_ledger_in_selection_order(self):
        sel = SelectionResult(
            selected_ids=(4, 0, 3), virtual_spans={3: (1.0, 2.0), 4: (0.0, 1.0)}
        )
        assert sel.virtual_ids == (4, 3)
        assert sel.to_dict()["virtual"] == [4, 3]
        assert "virtual_ids" not in {f.name for f in dataclasses.fields(sel)}

    @pytest.mark.parametrize(
        "parts, message",
        [({"selected_ids": (0, 5), "virtual_ids": (5,)}, "virtual sensor 5 has no virtual span"),
         ({"selected_ids": (0, 2), "virtual_spans": {2: (0.0, 1.0)}, "virtual_ids": ()},
          "virtual span 2 has no virtual sensor")],
        ids=["lacking", "stray"],
    )
    def test_restated_virtual_ids_must_be_the_ledger(self, parts, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SelectionResult(**parts)
        kept = SelectionResult((4, 0, 3), {3: (1.0, 2.0), 4: (0.0, 1.0)}, virtual_ids=(3, 4))
        assert kept == SelectionResult((4, 0, 3), {3: (1.0, 2.0), 4: (0.0, 1.0)})

    @pytest.mark.parametrize(
        "span, message",
        [((2.0, math.inf), "must be finite with u <= v, got [2.0, inf]"),
         ((math.nan, 5.0), "must be finite with u <= v, got [nan, 5.0]"),
         ((5.0, 1.0), "must be finite with u <= v, got [5.0, 1.0]"),
         (("a", "b"), "must be two numbers, got ('a', 'b')"),
         ((1.0, 2.0, 3.0), "must be two numbers, got (1.0, 2.0, 3.0)"),
         ((True, 2.0), "must be two numbers, got (True, 2.0)")],
        ids=["inf", "nan", "reversed", "strings", "three", "bool"],
    )
    def test_spans_are_checked_where_a_result_is_made(self, span, message):
        message = f"virtual span 2 {message}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SelectionResult(selected_ids=(0, 2), virtual_spans={2: span})

    def test_trace_steps_choose_selected_ids(self):
        message = "trace step 1 chose 5, which is not selected"
        trace = (SelectionStep(0.0, (0,), 0, 4.0), SelectionStep(4.0, (1,), 5, 8.0))
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SelectionResult(selected_ids=(0, 1), trace=trace)
        trace = [self.STEP, {**self.STEP, "chosen_id": 5}]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SelectionResult.from_dict({"selected": [0, 1], "trace": trace})

    @pytest.mark.parametrize("count", [99, 1, 2.0, True, None, "2"])
    def test_count_must_be_the_number_selected(self, count):
        message = f"count must be 2, the number of selected ids, got {count!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SelectionResult.from_dict({"selected": [0, 1], "count": count})
        assert SelectionResult.from_dict({"selected": [0, 1], "count": 2}).count == 2
        assert SelectionResult.from_dict({"selected": [0, 1]}).count == 2


class TestFindGaps:
    def test_single_failure_opens_one_gap(self):
        field = make_field([(0.0, 4.0), (3.0, 7.0), (6.0, 10.0)])
        sel = oga_continuous(field, (0.0, 10.0))
        gaps = find_gaps(sel, [1], field, (0.0, 10.0))
        assert gaps == [Gap(4.0, 6.0, frozenset({1}))]

    def test_boundary_failure_opens_edge_gap(self):
        field = make_field([(0.0, 4.0), (3.0, 7.0), (6.0, 10.0)])
        sel = oga_continuous(field, (0.0, 10.0))
        gaps = find_gaps(sel, [0], field, (0.0, 10.0))
        assert gaps == [Gap(0.0, 3.0, frozenset({0}))]

    def test_adjacent_failures_merge(self):
        field = make_field(
            [(0.0, 4.0), (3.0, 7.0), (6.0, 10.0), (9.0, 12.0)],
            domain=(0.0, 12.0),
        )
        sel = oga_continuous(field, (0.0, 12.0))
        gaps = find_gaps(sel, [1, 2], field, (0.0, 12.0))
        assert gaps == [Gap(4.0, 9.0, frozenset({1, 2}))]

    def test_separate_failures_stay_separate(self):
        field = make_field(
            [(0.0, 4.0), (3.0, 7.0), (6.0, 10.0), (9.0, 13.0), (12.0, 16.0)],
            domain=(0.0, 16.0),
        )
        sel = oga_continuous(field, (0.0, 16.0))
        gaps = find_gaps(sel, [1, 3], field, (0.0, 16.0))
        assert [(g.u, g.v) for g in gaps] == [(4.0, 6.0), (10.0, 12.0)]
        assert [sorted(g.failed_ids) for g in gaps] == [[1], [3]]

    def test_redundant_failure_opens_nothing(self):
        field = make_field([(0.0, 6.0), (2.0, 5.0), (5.0, 10.0)])
        sel = SelectionResult(selected_ids=(0, 1, 2))
        assert find_gaps(sel, [1], field, (0.0, 10.0)) == []

    def test_unselected_failure_rejected(self):
        field = make_field([(0.0, 6.0), (5.0, 10.0)])
        sel = oga_continuous(field, (0.0, 10.0))
        with pytest.raises(ParameterError):
            find_gaps(sel, [17], field, (0.0, 10.0))

    def test_failed_virtual_reopens_its_span(self):
        field = make_field([(0.0, 2.0), (6.0, 10.0)], domain=(0.0, 10.0))
        sel = oga_continuous(field, (0.0, 10.0))
        vid = sel.virtual_ids[0]
        gaps = find_gaps(sel, [vid], field, (0.0, 10.0))
        assert gaps == [Gap(2.0, 6.0, frozenset({vid}))]


class TestLogm:
    def test_keeps_survivors_and_patches(self):
        field = make_field(
            [(0.0, 4.0), (3.0, 7.0), (6.0, 10.0), (2.0, 6.5)],
            domain=(0.0, 10.0),
        )
        sel = oga_continuous(field, (0.0, 10.0))
        assert sel.selected_ids == (0, 1, 2)
        gaps = find_gaps(sel, [1], field, (0.0, 10.0))
        mended = logm(sel, gaps, field, (0.0, 10.0), failed_ids=[1])
        assert mended.selected_ids == (0, 2, 3)
        assert mended.fully_covered

    def test_one_extra_when_mend_overshoots(self):
        field = make_field(
            [(0.0, 4.0), (3.0, 7.0), (6.0, 10.0), (9.0, 12.0),
             (2.0, 5.5), (5.0, 9.5)],
            domain=(0.0, 12.0),
        )
        sel = oga_continuous(field, (0.0, 12.0))
        assert sel.selected_ids == (0, 1, 2, 3)
        gaps = find_gaps(sel, [1], field, (0.0, 12.0))
        assert gaps == [Gap(4.0, 6.0, frozenset({1}))]
        mended = logm(sel, gaps, field, (0.0, 12.0), failed_ids=[1])
        assert mended.selected_ids == (0, 2, 3, 4, 5)
        fresh = oga_continuous(field.without([1]), (0.0, 12.0))
        assert fresh.selected_ids == (0, 4, 5, 3)
        assert mended.count == fresh.count + 1

    def test_empty_pool_mints_virtual_over_gap(self):
        field = make_field([(0.0, 4.0), (3.0, 7.0), (6.0, 10.0)])
        sel = oga_continuous(field, (0.0, 10.0))
        gaps = find_gaps(sel, [1], field, (0.0, 10.0))
        mended = logm(sel, gaps, field, (0.0, 10.0), failed_ids=[1])
        assert not mended.fully_covered
        assert len(mended.virtual_ids) == 1
        vid = mended.virtual_ids[0]
        assert mended.virtual_spans[vid] == (4.0, 6.0)
        assert vid > max(sel.selected_ids)

    def test_no_gaps_returns_survivors(self):
        field = make_field([(0.0, 6.0), (2.0, 5.0), (5.0, 10.0)])
        sel = SelectionResult(selected_ids=(0, 1, 2))
        mended = logm(sel, [], field, (0.0, 10.0), failed_ids=[1])
        assert mended.selected_ids == (0, 2)
        assert mended.fully_covered

    def test_two_gaps_mended_by_their_own_pool_sensors(self):
        field = make_field(
            [(0.0, 4.0), (3.0, 7.0), (6.0, 10.0), (9.0, 13.0), (12.0, 16.0),
             (3.0, 6.25), (8.0, 12.25)],
            domain=(0.0, 16.0),
        )
        sel = oga_continuous(field, (0.0, 16.0))
        assert sel.selected_ids == (0, 1, 2, 3, 4)
        gaps = find_gaps(sel, [1, 3], field, (0.0, 16.0))
        assert len(gaps) == 2
        mended = logm(sel, gaps, field, (0.0, 16.0), failed_ids=[1, 3])
        assert mended.selected_ids == (0, 2, 4, 5, 6)
        assert mended.fully_covered
        assert union_covers_domain(spans_of(field, mended), (0.0, 16.0))

    def test_pool_sensor_serving_two_gaps_counts_once(self):
        field = make_field(
            [(0.0, 4.0), (3.0, 9.0)], domain=(0.0, 10.0)
        )
        previous = SelectionResult(selected_ids=(0,), fully_covered=False)
        gaps = [Gap(4.0, 5.5), Gap(6.0, 8.0)]
        mended = logm(previous, gaps, field, (0.0, 10.0), failed_ids=())
        assert mended.selected_ids == (0, 1)
        assert mended.fully_covered
        assert [s.chosen_id for s in mended.trace] == [1, 1]

    @pytest.mark.parametrize(
        "gap, shown",
        [
            (Gap(5.0, math.inf), r"\[5.0, inf\]"),
            (Gap(20.0, 30.0), r"\[20.0, 30.0\]"),
            (Gap(-1.0, 2.0), r"\[-1.0, 2.0\]"),
        ],
        ids=["unbounded", "past-the-end", "before-the-start"],
    )
    def test_gaps_must_lie_in_the_domain(self, gap, shown):
        field = make_field([(0.0, 5.0), (4.0, 9.0), (8.0, 12.0)], domain=(0.0, 12.0))
        sel = oga_continuous(field, (0.0, 12.0))
        message = r"^gaps must lie in the domain \[0.0, 12.0\], got " + shown + "$"
        with pytest.raises(ParameterError, match=message):
            logm(sel, [Gap(4.0, 5.0), gap], field, (0.0, 12.0), failed_ids=[1])
        # a gap may reach both ends of the domain; no unselected sensor
        # is left, so a virtual one spans it
        whole = logm(sel, [Gap(0.0, 12.0)], field, (0.0, 12.0), failed_ids=[1])
        assert whole.virtual_spans == {3: (0.0, 12.0)}

    def test_overlapping_gaps_match_naive_scans(self):
        # hand-made gaps that find_gaps never returns: the second starts
        # inside the first, so its walk starts behind where the first ended
        field = SensorField(
            [0, 2, 4.5, 1, 3, 5], [3, 5, 10, 6, 9, 7], range(6), (0, 10)
        )
        previous = SelectionResult(selected_ids=(0, 1, 2))
        gaps = [Gap(0.0, 6.0), Gap(0.5, 9.5)]
        mended = logm(previous, gaps, field, (0, 10), failed_ids=[0, 2])
        assert mended == naive_logm(previous, gaps, field, {0, 2})
        assert [s.current_target for s in mended.trace] == [0.0, 1.0, 0.5, 1.0, 6.0, 9.0]
        assert mended.trace[4].candidate_ids == (4, 5)

    def test_mended_union_always_covers(self):
        import sys

        sys.path.insert(0, "tests")
        from conftest import random_small_field

        hits = 0
        for seed in range(300):
            rng = np.random.default_rng([23, seed])
            field = random_small_field(rng, n_max=10, width=20.0)
            sel = oga_continuous(field, field.domain, record_trace=False)
            if not sel.fully_covered or sel.count < 2:
                continue
            rid = sel.selected_ids[int(rng.integers(0, sel.count))]
            gaps = find_gaps(sel, [rid], field, field.domain)
            mended = logm(
                sel, gaps, field, field.domain,
                failed_ids=[rid], record_trace=False,
            )
            hits += 1
            assert union_covers_domain(
                spans_of(field, mended), field.domain
            )
            assert rid not in mended.selected_ids
        assert hits > 30


# the largest id a sensor may take
TOP_ID = 2**63 - 1
NO_ID_LEFT = rf"^no id is left for a virtual sensor: the largest id in use is {TOP_ID}$"


class TestVirtualIdsStayInRange:
    """A selector that needs a virtual sensor above id 2**63 - 1 refuses;
    one that needs none selects as usual."""

    @staticmethod
    def field(pairs, ids):
        return SensorField(
            [u for u, _ in pairs], [v for _, v in pairs], ids, (0.0, 10.0)
        )

    def test_discrete_selectors_refuse(self):
        field = self.field([(1.0, 3.0), (7.0, 9.0)], [TOP_ID, 5])
        targets = discretize(field)
        for select in (
            lambda: k_oga(field, targets, 1),
            lambda: k_oga(field, targets, 2, record_trace=False),
            lambda: augment_with_gap_sensors(field, targets, 1),
        ):
            with pytest.raises(ParameterError, match=NO_ID_LEFT):
                select()

    def test_the_last_two_ids_take_two_gap_sensors_not_three(self):
        field = self.field([(1.0, 3.0)], [2**63 - 3])
        with pytest.raises(ParameterError, match=str(2**63 - 3)):
            augment_with_gap_sensors(field, TargetSet((5.0,)), 3)
        assert augment_with_gap_sensors(field, TargetSet((2.0,)), 3) == {
            2**63 - 2: (2.0, 2.0),
            TOP_ID: (2.0, 2.0),
        }
        sel = k_oga(field, TargetSet((2.0,)), 3)
        assert sel.selected_ids == (2**63 - 3, 2**63 - 2, TOP_ID)

    def test_continuous_cover_refuses(self):
        field = self.field([(1.0, 3.0), (7.0, 9.0)], [TOP_ID, 5])
        with pytest.raises(ParameterError, match=NO_ID_LEFT):
            oga_continuous(field, field.domain)

    def test_mend_refuses(self):
        field = self.field([(0.0, 5.0), (5.0, 10.0)], [TOP_ID, 5])
        sel = oga_continuous(field, field.domain)
        gaps = find_gaps(sel, [5], field, field.domain)
        with pytest.raises(ParameterError, match=NO_ID_LEFT):
            logm(sel, gaps, field, field.domain, [5])

    def test_no_virtual_sensor_needed(self):
        field = self.field([(0.0, 5.0), (5.0, 10.0), (5.0, 10.0)], [TOP_ID, 5, 7])
        targets = discretize(field)
        assert augment_with_gap_sensors(field, targets, 1) == {}
        assert k_oga(field, targets, 1).selected_ids == (TOP_ID, 5)
        sel = oga_continuous(field, field.domain)
        assert sel.selected_ids == (TOP_ID, 5) and sel.fully_covered
        gaps = find_gaps(sel, [5], field, field.domain)
        mended = logm(sel, gaps, field, field.domain, [5])
        assert mended.selected_ids == (TOP_ID, 7) and mended.fully_covered


class TestFrontierCandidates:
    def test_any_order_of_frontiers_matches_a_full_scan(self):
        # sorted by u, with zero-length rows at 1, 2 and 5, and a row at
        # u = 2 masked to v = 0 as k_oga masks the rows it has used
        u = np.array([0, 0, 1, 2, 2, 2, 3, 5, 5, 7])
        v = np.array([3, 2, 1, 0, 6, 2, 4, 9, 5, 8])
        ids = np.array([8, 3, 5, 9, 0, 7, 2, 6, 1, 4])
        frontier = _Frontier(u, v, ids)
        # decreasing, repeated, then increasing
        for f in [9.5, 8, 6, 6, 4.5, 2, 2, 1, 0, 0, -1, 0, 0.5, 1, 2, 3, 5, 7, 9, 9.5]:
            scan = sorted(ids[i].item() for i in range(u.size) if u[i] <= f < v[i])
            assert frontier.candidates(f) == tuple(scan), f


class TestFrontierBridges:
    def test_walks_that_never_bridge_build_no_bridge_table(self):
        """Two chains cover [0, 10], so every walk to 10 stays covered with
        any one row removed: no walk computes where a bridge would end."""
        field = table_field([(0.0, 5.0), (5.0, 10.0), (0.0, 6.0), (4.0, 10.0)], (0.0, 10.0))
        f = np.array([0.0, 2.5, 4.0, 5.0, 7.0, 9.0])
        for skip in (None, *(np.full(f.size, j) for j in range(4))):
            frontier = _Frontier.over(field)
            _, steps, clean = frontier.walk_all(f, 10.0, 10.0, skip)
            assert clean.all() and (steps >= 1).all()
            assert "nxt" not in frontier.__dict__


class TestMarkovProperty:
    def test_holds_on_selected_cover_sets(self):
        for seed in range(40):
            field, targets = oracle_instance(seed, k=1)
            sel = oga(field, targets, record_trace=False)
            sets = selected_cover_sets(field, sel, targets)
            assert markov_equality_holds(sets)

    def test_violated_by_a_non_interval_cover(self):
        sets = [
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        ]
        assert not markov_equality_holds(sets)
