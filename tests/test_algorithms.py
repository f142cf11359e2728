"""Frontier selection, k rounds, gap finding, and local mending."""

from __future__ import annotations

import numpy as np
import pytest

from barriercover.algorithms import (
    Gap,
    SelectionResult,
    SelectionStep,
    augment_with_gap_sensors,
    find_gaps,
    k_oga,
    logm,
    oga,
    oga_continuous,
)
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
        field = make_field([(0.0, 4.0)], domain=(0.0, 10.0))
        for select, xs, bad in (
            (oga, (1.0, 10.5), "10.5"),
            (lambda f, t: k_oga(f, t, 2), (3.0, -0.5, 40000.0), "-0.5"),
        ):
            with pytest.raises(
                ParameterError,
                match=rf"^targets must lie in the domain \[0.0, 10.0\], got {bad}$",
            ):
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

    def test_duplicate_selection_rejected(self):
        with pytest.raises(ParameterError):
            SelectionResult(selected_ids=(1, 1))

    def test_virtuals_must_be_selected(self):
        with pytest.raises(ParameterError):
            SelectionResult(selected_ids=(1,), virtual_ids=(2,))


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
        mended = logm(previous, gaps, field, (0.0, 10.0))
        assert mended.selected_ids == (0, 1)
        assert mended.fully_covered
        assert [s.chosen_id for s in mended.trace] == [1, 1]

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
