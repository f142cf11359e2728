"""Randomized invariants: shrinking searches plus wide seeded sweeps."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barriercover import (
    DeploymentSpec,
    ParameterError,
    SelectionResult,
    SelectionStep,
    Sensor,
    SensorField,
    TargetSet,
    augment_with_gap_sensors,
    brute_force_min_kcover,
    build_barrier_graph,
    complement_segments,
    coverage_fraction,
    discretize,
    find_gaps,
    generate,
    greedy_max_coverage,
    k_disjoint_paths,
    k_oga,
    logm,
    merge_segments,
    oga,
    oga_continuous,
)
from barriercover.algorithms import _Frontier
from barriercover.harness import EXPERIMENTS, default_config
from conftest import (
    ENDPOINTS,
    Interval,
    assert_witnessed_minimum,
    bits,
    exhaustive_min_kcover,
    interval_rows,
    lp_min_kcover,
    markov_equality_holds,
    multiplicity,
    naive_augment,
    naive_k_oga,
    naive_logm,
    naive_oga_continuous,
    oracle_complement_segments,
    oracle_coverage_fraction,
    oracle_instance,
    oracle_merge_segments,
    pairs,
    random_small_field,
    selected_cover_sets,
    table_field,
    union_covers_domain,
)

WIDTH = 24.0


def finite(lo, hi):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def small_fields(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    sensors = []
    for i in range(n):
        x = draw(finite(-4.0, WIDTH + 4.0))
        y = draw(finite(-5.0, 5.0))
        r = draw(finite(0.5, 9.0))
        if draw(st.booleans()):
            sensors.append(Sensor.omni(i, x, y, r))
        else:
            sensors.append(
                Sensor.directional(
                    i,
                    x,
                    y,
                    r,
                    fov=draw(finite(15.0, 360.0)),
                    direction=draw(
                        st.floats(
                            min_value=0.0,
                            max_value=360.0,
                            exclude_max=True,
                            allow_nan=False,
                            allow_infinity=False,
                        )
                    ),
                )
            )
    field = SensorField.build(sensors, (0.0, WIDTH))
    assume(field.ids.size)
    return field


# the drawn endpoints strictly inside [0, 10], where a chain may cut
CUTS = [x for x in ENDPOINTS if 0.0 < x < 10.0]


@st.composite
def interval_tables(draw, max_chains=0):
    """Fields on [0, 10] with zero-length, duplicate and touching spans;
    each of up to ``max_chains`` chains of touching spans covers [0, 10]
    once more, so that k-covers exist."""
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_chains))):
        ends = [0.0, *sorted(draw(st.sets(st.sampled_from(CUTS), max_size=4))), 10.0]
        pairs += zip(ends, ends[1:])
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        u = draw(st.sampled_from(ENDPOINTS))
        v = draw(st.sampled_from([x for x in ENDPOINTS if x >= u]))
        pairs.append((u, v))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
    return table_field(pairs, (0.0, 10.0))


ONE_UP = math.nextafter(1.0, 2.0)

# target points: interval ends as tables draw them, their neighbouring
# doubles, subnormals, both zeros, and points inside the grid's cells;
# whatever a drawn table leaves uncovered gets gap sensors
TARGET_POINTS = [-0.0, 0.5, 5.5, 8.5, *ENDPOINTS]


@st.composite
def target_lists(draw):
    """Target lists in [0, 10], unsorted, with repeated points."""
    xs = draw(st.lists(st.sampled_from(TARGET_POINTS), min_size=1, max_size=8))
    return xs + draw(st.lists(st.sampled_from(xs), max_size=3))


segments = st.lists(
    st.tuples(finite(0.0, 50.0), finite(0.0, 12.0)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=1,
    max_size=12,
)

# both zeros, subnormals, adjacent doubles, and points outside [0, 10]
POINTS = [-0.0, -5e-324, -2.0, math.nextafter(-2.0, 0.0), 12.0, *ENDPOINTS]


@st.composite
def span_lists(draw):
    """Spans with zero-length, touching and duplicate members, and a
    domain a < b that some of them overhang or miss."""
    ends = st.sampled_from(POINTS)
    spans = draw(st.lists(st.tuples(ends, ends).map(sorted).map(tuple), max_size=10))
    if spans:
        spans += draw(st.lists(st.sampled_from(spans), max_size=3))
    a, b = sorted(draw(st.tuples(ends, ends)))
    assume(a < b)
    return spans, (a, b)


def columns(segs):
    return (
        np.array([u for u, _ in segs], dtype=float),
        np.array([v for _, v in segs], dtype=float),
    )


def assert_same_segments(got, want):
    assert bits(got[0]) == bits(u for u, _ in want)
    assert bits(got[1]) == bits(v for _, v in want)


class TestSegmentAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(span_lists())
    @example(([(0.0, 4.0), (4.0, 8.0)], (0.0, 10.0)))
    @example(([(0.0, -0.0), (-0.0, 0.0)], (-0.0, 1.0)))
    def test_union_matches_tuple_algebra(self, case):
        """merge, complement and coverage fraction bit for bit as the
        former per-tuple code computed them."""
        spans, domain = case
        us, vs = columns(spans)
        assert_same_segments(merge_segments(us, vs), oracle_merge_segments(spans))
        assert_same_segments(
            complement_segments(us, vs, domain),
            oracle_complement_segments(spans, domain),
        )
        rows = [Interval(u, v, i) for i, (u, v) in enumerate(spans)]
        assert bits([coverage_fraction(us, vs, domain)]) == bits(
            [oracle_coverage_fraction(rows, domain)]
        )

    @settings(max_examples=200, deadline=None)
    @given(span_lists(), st.data())
    def test_gaps_match_tuple_algebra(self, case, data):
        """find_gaps over field rows and virtual spans: its bounds are the
        former complement's, and each gap lists the failed spans it meets."""
        spans, domain = case
        assume(spans)
        in_field = data.draw(st.integers(0, len(spans)))
        field = table_field(spans[:in_field], domain)
        ledger = {i: span for i, span in enumerate(spans) if i >= in_field}
        order = data.draw(st.permutations(range(len(spans))))
        previous = SelectionResult(selected_ids=tuple(order), virtual_spans=ledger)
        failed = data.draw(st.sets(st.sampled_from(order)))
        gaps = find_gaps(previous, failed, field, domain)
        surviving = [spans[i] for i in order if i not in failed]
        want = oracle_complement_segments(surviving, domain)
        assert bits(g.u for g in gaps) == bits(u for u, _ in want)
        assert bits(g.v for g in gaps) == bits(v for _, v in want)
        for g in gaps:
            assert g.failed_ids == {
                i for i in failed if spans[i][0] < g.v and spans[i][1] > g.u
            }

    @given(segments)
    def test_merge_is_sorted_disjoint_and_idempotent(self, segs):
        merged = pairs(*merge_segments(*columns(segs)))
        for (u1, v1), (u2, v2) in zip(merged, merged[1:]):
            assert v1 < u2
        assert pairs(*merge_segments(*columns(merged))) == merged

    @given(segments)
    @example([(0.0, 0.0), (5e-324, 5e-324)])
    def test_merge_preserves_membership(self, segs):
        merged = pairs(*merge_segments(*columns(segs)))
        for u, v in segs:
            assert any(mu <= u and v <= mv for mu, mv in merged)
        for (_, v1), (u2, _) in zip(merged, merged[1:]):
            # the open gap (v1, u2) between blocks exists and meets no
            # segment; a probe point inside it can round onto an endpoint
            assert v1 < u2
            assert all(v <= v1 or u >= u2 for u, v in segs)

    @given(segments)
    @example([(0.0, 0.0), (5e-324, 5e-324)])
    def test_complement_partitions_the_domain(self, segs):
        domain = (0.0, 70.0)
        holes = pairs(*complement_segments(*columns(segs), domain))
        for (u1, v1), (u2, v2) in zip(holes, holes[1:]):
            assert v1 <= u2
        for u, v in holes:
            assert domain[0] <= u < v <= domain[1]
            assert all(sv <= u or su >= v for su, sv in segs)
        covered = sum(
            min(v, domain[1]) - max(u, domain[0])
            for u, v in pairs(*merge_segments(*columns(segs)))
            if v > domain[0] and u < domain[1]
        )
        assert covered + sum(v - u for u, v in holes) == pytest.approx(
            domain[1] - domain[0]
        )


# one double past 0.5: a midpoint target between 0.5 and it rounds onto
# an endpoint, which breaks the discrete-continuous equivalence
AFTER_HALF = math.nextafter(0.5, math.inf)


class TestSelectionInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_fields())
    @example(table_field([(0.0, 0.5), (AFTER_HALF, 1.5)], (0.0, WIDTH)))
    @example(table_field([(0.0, AFTER_HALF), (0.0, 0.5)], (0.0, WIDTH)))
    def test_continuous_matches_discrete(self, field):
        cont = oga_continuous(field, field.domain)
        disc = oga(field, discretize(field))
        assert cont.count == disc.count
        assert cont.selected_ids == disc.selected_ids
        assert cont.fully_covered == disc.fully_covered

    @settings(max_examples=60, deadline=None)
    @given(small_fields())
    def test_selected_chain_is_markov(self, field):
        targets = discretize(field)
        result = oga(field, targets)
        sets = selected_cover_sets(field, result, targets)
        assert markov_equality_holds(sets)

    @settings(max_examples=60, deadline=None)
    @given(small_fields())
    def test_coverage_fraction_is_monotone(self, field):
        previous = 0.0
        for end in range(field.ids.size + 1):
            frac = coverage_fraction(field.us[:end], field.vs[:end], field.domain)
            assert 0.0 <= frac <= 1.0
            assert frac >= previous
            previous = frac

    @settings(max_examples=60, deadline=None)
    @given(small_fields(), st.integers(min_value=1, max_value=3))
    def test_augmentation_reaches_multiplicity_k(self, field, k):
        targets = discretize(field)
        spans = augment_with_gap_sensors(field, targets, k)
        assert spans == naive_augment(field, targets, k)
        rows = interval_rows(field) + tuple(
            Interval(u, v, sid) for sid, (u, v) in spans.items()
        )
        for x in targets:
            assert multiplicity(rows, x) >= k
        # a field holding the gap sensors as real rows needs no more
        us, vs, ids = zip(*rows)
        augmented = SensorField(us, vs, ids, field.domain)
        assert augment_with_gap_sensors(augmented, targets, k) == {}

    @settings(max_examples=200, deadline=None)
    @given(
        interval_tables(max_chains=2), st.integers(min_value=1, max_value=4), target_lists()
    )
    def test_gap_sensors_span_the_short_runs(self, field, k, xs):
        """``augment_with_gap_sensors`` on target lists that ``discretize``
        never makes: repeats, both zeros, subnormals and points on interval
        ends, where runs of short targets start and end. repr tells -0.0
        from 0.0."""
        targets = TargetSet(xs)
        spans = augment_with_gap_sensors(field, targets, k)
        assert repr(spans) == repr(naive_augment(field, targets, k))


class TestAgainstExhaustiveSearch:
    def test_oga_is_minimum_on_small_instances(self):
        for seed in range(120):
            field, targets = oracle_instance(seed, k=1, n_max=9)
            result = oga(field, targets)
            expected = exhaustive_min_kcover(field, targets, 1)
            assert result.count == expected, f"seed {seed}"
            assert not result.virtual_ids

    def test_k_oga_is_minimum_on_small_instances(self):
        for seed in range(60):
            field, targets = oracle_instance(seed, k=2, n_max=8)
            result = k_oga(field, targets, 2)
            expected = exhaustive_min_kcover(field, targets, 2)
            assert result.count == expected, f"seed {seed}"
            assert not result.virtual_ids


class TestLpCertificate:
    """The linear relaxation of minimum k-cover as an optimality
    certificate at sizes exhaustive search cannot reach."""

    def test_lp_matches_exhaustive_search(self):
        for seed in range(30):
            k = seed % 3 + 1
            field = random_small_field(np.random.default_rng([5, seed]), n_max=12)
            targets = discretize(field)
            expected = brute_force_min_kcover(field, targets, k)
            lp = lp_min_kcover(field, targets, k)
            if expected is None:
                assert lp is None, f"seed {seed}"
            else:
                assert lp == pytest.approx(expected, abs=1e-6), f"seed {seed}"

    @pytest.mark.parametrize(
        "n, seeds, ks",
        [(100, 10, (1, 2, 3, 4)), (200, 5, (1, 2, 3, 4)), (1000, 1, (1, 2, 3, 4)),
         (2000, 1, (2, 4))],
        ids=["n100", "n200", "n1000", "n2000"],
    )
    def test_k_oga_reaches_the_lp_optimum(self, n, seeds, ks):
        """On the stock ``k_barrier`` deployment with n sensors and seeds
        0..seeds-1, every k in ks that ``k_oga`` covers fully; an LP at
        n = 2000 takes about 0.5 s, so that size checks two k."""
        checked = set()
        for seed in range(seeds):
            spec = DeploymentSpec(n=n, width=100.0, radius=10.0, fov=45.0, seed=seed)
            field = generate(spec)
            targets = discretize(field)
            for k in ks:
                result = k_oga(field, targets, k, record_trace=False)
                if not result.fully_covered:
                    continue
                lp = lp_min_kcover(field, targets, k)
                assert lp == pytest.approx(result.count, abs=1e-6), (seed, k)
                checked.add(k)
        assert checked == set(ks)

    @settings(max_examples=100, deadline=None)
    @given(field=interval_tables(max_chains=3))
    def test_k_oga_reaches_the_lp_optimum_on_drawn_tables(self, field):
        """Zero-length, duplicate, touching and adjacent-double spans:
        ``k_oga`` covers fully exactly when the LP is feasible, and then
        its count is the LP optimum, for k = 1..3."""
        targets = discretize(field)
        for k in (1, 2, 3):
            result = k_oga(field, targets, k, record_trace=False)
            lp = lp_min_kcover(field, targets, k)
            if result.fully_covered:
                assert lp == pytest.approx(result.count, abs=1e-6), k
            else:
                assert lp is None, k


class TestWitnessCertificate:
    """k = 1: the frontier targets of an ``oga`` trace certify that its
    count is minimum, at sizes the LP and exhaustive search do not reach."""

    def test_stock_fields(self):
        """Every stock deployment at each swept size (multi_gap sweeps
        failures, so its stock size), seeds 0..2, where ``oga`` covers
        fully."""
        specs = []
        for name in EXPERIMENTS:
            config = default_config(name)
            sizes = (config.deployment.n,) if name == "multi_gap" else config.sweep
            for n, seed in itertools.product(sizes, range(3)):
                spec = dataclasses.replace(config.deployment, n=n, seed=seed)
                if spec not in specs:  # two studies share one deployment
                    specs.append(spec)
        certified = 0
        for spec in specs:
            field = generate(spec)
            targets = discretize(field)
            result = oga(field, targets)
            if result.fully_covered:
                assert_witnessed_minimum(field, targets, result)
                certified += 1
        assert certified >= 25

    def test_n_1e5(self):
        spec = DeploymentSpec(
            n=100_000, width=100_000 / 3, kind="poisson", radius=10.0, fov=90.0,
            seed=1,
        )
        field = generate(spec)
        targets = discretize(field)
        result = oga(field, targets)
        assert result.fully_covered
        assert_witnessed_minimum(field, targets, result)

    def test_one_extra_sensor_fails_it(self):
        config = default_config("single_failure")
        field = generate(dataclasses.replace(config.deployment, n=1000))
        targets = discretize(field)
        result = oga(field, targets)
        assert_witnessed_minimum(field, targets, result)
        extra = next(
            sid for sid in field.ids.tolist() if sid not in result.selected_ids
        )
        padded = dataclasses.replace(
            result, selected_ids=result.selected_ids + (extra,)
        )
        # a step for the extra sensor at the target after the first witness:
        # the first winner holds both, or that target is the next witness
        first = result.trace[0]
        step = dataclasses.replace(
            first, current_target=first.current_target + 1, chosen_id=extra
        )
        stepped = dataclasses.replace(padded, trace=result.trace + (step,))
        for mutant in (padded, stepped):
            with pytest.raises(AssertionError):
                assert_witnessed_minimum(field, targets, mutant)


class TestFailureMending:
    def field(self, seed, n=120):
        spec = DeploymentSpec(
            n=n, width=60.0, radius=4.0, kind="poisson", seed=seed
        )
        return generate(spec)

    def test_single_failure_opens_at_most_one_gap(self):
        opened = 0
        for seed in range(200):
            field = self.field(seed, n=40)
            result = oga_continuous(field, field.domain)
            if not result.fully_covered or result.virtual_ids:
                continue
            for sid in result.selected_ids:
                gaps = find_gaps(result, [sid], field, field.domain)
                assert len(gaps) <= 1, f"seed {seed}, sensor {sid}"
                opened += len(gaps)
        assert opened > 100

    def test_mended_extras_stay_within_bound(self):
        rng = np.random.default_rng(7)
        clean = 0
        for seed in range(150):
            field = self.field(seed)
            result = oga_continuous(field, field.domain)
            if not result.fully_covered or result.virtual_ids:
                continue
            m = int(rng.integers(1, 4))
            if len(result.selected_ids) <= m:
                continue
            failed = [
                int(s)
                for s in rng.choice(result.selected_ids, size=m, replace=False)
            ]
            gaps = find_gaps(result, failed, field, field.domain)
            mended = logm(result, gaps, field, field.domain, failed)
            fresh = oga_continuous(field.without(failed), field.domain)
            if not (mended.fully_covered and fresh.fully_covered):
                continue
            extra = mended.count - fresh.count
            assert 0 <= extra <= 2 * m - 1, f"seed {seed}, failed {failed}"
            clean += 1
        assert clean > 80

    @settings(max_examples=300, deadline=None)
    @given(interval_tables(max_chains=3), st.data())
    def test_extras_stay_within_the_bound_per_gap(self, field, data):
        """The abstract's bound with m counting gaps: mending g gaps
        selects at most 2g - 1 sensors more than a fresh optimal
        selection. Failures can merge into fewer gaps, so this is sharper
        than ``test_mended_extras_stay_within_bound``."""
        domain = field.domain
        result = oga_continuous(field, domain, record_trace=False)
        assume(result.fully_covered)
        failed = data.draw(
            st.lists(st.sampled_from(result.selected_ids), min_size=1, unique=True)
        )
        gaps = find_gaps(result, failed, field, domain)
        mended = logm(result, gaps, field, domain, failed, record_trace=False)
        fresh = oga_continuous(field.without(failed), domain, record_trace=False)
        assume(mended.fully_covered and fresh.fully_covered)
        assert mended.count - fresh.count <= 2 * len(gaps) - 1

    def test_mended_selection_covers_after_random_failures(self):
        rng = np.random.default_rng(11)
        for seed in range(60):
            field = self.field(seed)
            result = oga_continuous(field, field.domain)
            if not result.fully_covered or result.virtual_ids:
                continue
            m = int(rng.integers(1, 3))
            failed = [
                int(s)
                for s in rng.choice(result.selected_ids, size=m, replace=False)
            ]
            gaps = find_gaps(result, failed, field, field.domain)
            mended = logm(result, gaps, field, field.domain, failed)
            spans = [
                mended.virtual_spans.get(sid) or field.span_of(sid)
                for sid in mended.selected_ids
            ]
            assert union_covers_domain(spans, field.domain)


class TestFrontierAgainstNaiveScans:
    """Every selector and the mender against full-scan references."""

    @settings(max_examples=150, deadline=None)
    @given(interval_tables())
    def test_array_step_matches_naive_scans(self, field):
        """One-step ``walk_all`` from every grid frontier, with each
        position in turn removed and with none, against full scans of the
        table. Any step passes the next double up, so each walk stops
        after one."""
        frontier = _Frontier.over(field)
        spans = list(zip(field.us.tolist(), field.vs.tolist()))
        end = 10.0
        f = np.array([x for x in ENDPOINTS if x < end])
        stop = np.nextafter(f, np.inf)
        for removed in (None, *range(frontier.m)):
            skip = None if removed is None else np.full(f.size, removed)
            reach, steps, real = frontier.walk_all(f, stop, end, skip)
            assert steps.tolist() == [1] * f.size
            rows = [(u, v) for i, (u, v) in enumerate(spans) if i != removed]
            for x, got, made in zip(f.tolist(), reach.tolist(), real.tolist()):
                reaches = [v for u, v in rows if u <= x < v]
                resumes = [u for u, v in rows if u > x and v > u]
                if reaches:
                    assert (got, made) == (max(reaches), True)
                else:
                    assert (got, made) == (min(resumes + [end]), False)

    @settings(max_examples=150, deadline=None)
    @given(interval_tables())
    def test_batched_walks_match_the_scalar_walk(self, field):
        """``walk_all(f, e, e)`` from every grid frontier f below each
        stretch end e: the steps, the end point and whether the walk never
        bridged are those of the scalar ``walk(f, e)``."""
        frontier = _Frontier.over(field)
        for e in ENDPOINTS[1:]:
            f = np.array([x for x in ENDPOINTS if x < e])
            last, steps, clean = frontier.walk_all(f, e, e)
            walks = zip(f.tolist(), last.tolist(), steps.tolist(), clean.tolist())
            for x, *got in walks:
                winners, reaches = frontier.walk(x, e)
                assert got == [reaches[-1], len(winners), -1 not in winners]

    @settings(max_examples=150, deadline=None)
    @given(interval_tables())
    def test_skip_walks_match_the_scalar_walk_without_the_row(self, field):
        """``walk_all(f, e, e, skip=j)`` from every grid frontier f below
        each stretch end e, with each position j removed in turn: the end
        point, the steps and whether the walk never bridged are those of
        the scalar ``walk(f, e)`` over the table without row j. The walks
        bridge in any round, also where coverage would resume at row j."""
        frontier = _Frontier.over(field)
        for j in range(frontier.m):
            rest = _Frontier.over(field, np.arange(frontier.m) != j)
            for e in ENDPOINTS[1:]:
                f = np.array([x for x in ENDPOINTS if x < e])
                last, steps, clean = frontier.walk_all(f, e, e, np.full(f.size, j))
                walks = zip(f.tolist(), last.tolist(), steps.tolist(), clean.tolist())
                for x, *got in walks:
                    winners, reaches = rest.walk(x, e)
                    assert got == [reaches[-1], len(winners), -1 not in winners]

    @settings(max_examples=100, deadline=None)
    @given(interval_tables())
    def test_covers_means_the_walk_never_bridges(self, field):
        frontier = _Frontier.over(field)
        for a in ENDPOINTS:
            for b in (x for x in ENDPOINTS if x > a):
                bridged = -1 in frontier.walk(a, b)[0]
                assert frontier.covers(a, b) == (not bridged)

    @staticmethod
    def both_ways(select, expected):
        assert select(record_trace=True) == expected
        assert select(record_trace=False) == dataclasses.replace(expected, trace=())

    @settings(max_examples=200, deadline=None)
    @given(interval_tables(), st.integers(min_value=1, max_value=4), target_lists())
    # a target repeated on a span's end, and one past it by one double
    @example(table_field([(0.0, 1.0)], (0.0, 10.0)), 2, [1.0, 1.0, ONE_UP])
    # uncovered targets on both sides of a covered one
    @example(table_field([(2.5, 4.0)], (0.0, 10.0)), 1, [1.0, 4.0, 5.5, 0.5])
    # signed zeros, a subnormal and a zero-length span on it
    @example(table_field([(5e-324, 5e-324)], (0.0, 10.0)), 3, [-0.0, 5e-324, 0.0])
    # the row used in round 1 starts with the round-2 candidates and
    # reaches past them all: it must neither win again nor be listed
    @example(
        table_field([(0.0, 10.0), (0.0, 6.0), (4.0, 10.0)], (0.0, 10.0)),
        2,
        [1.0, 5.0, 8.0],
    )
    # ... nor tie with a candidate that reaches one needed target
    @example(
        table_field([(0.0, 10.0), (0.5, 2.0), (4.0, 10.0)], (0.0, 10.0)),
        2,
        [1.0, 5.0, 8.0],
    )
    # gap sensor 3 and row 0 cover targets 0 and 1 in round 1, and the
    # gap sensor comes first in (u, v, id) order: (3, 1, 0, 2). Merged by
    # target span with field rows first, row 0 would win: (0, 1, 3, 2)
    @example(table_field([(1.0, 1.6), (1.9, 2.1), (1.9, 2.1)], (0.0, 10.0)), 2, [1.0, 1.5, 2.0])
    def test_explicit_targets_match_naive(self, field, k, xs):
        """``k_oga`` on target lists that ``discretize`` never makes:
        repeats, points on interval ends and points nothing covers."""
        targets = TargetSet(xs)
        self.both_ways(
            lambda **kw: k_oga(field, targets, k, **kw),
            naive_k_oga(field, targets, k),
        )

    @settings(max_examples=150, deadline=None)
    @given(interval_tables(), st.integers(min_value=1, max_value=3), st.data())
    def test_matches_naive_frontier(self, field, k, data):
        domain = field.domain
        cont = naive_oga_continuous(field, domain)
        self.both_ways(
            lambda **kw: oga_continuous(field, domain, **kw), cont
        )
        targets = discretize(field)
        self.both_ways(
            lambda **kw: oga(field, targets, **kw), naive_k_oga(field, targets, 1)
        )
        self.both_ways(
            lambda **kw: k_oga(field, targets, k, **kw),
            naive_k_oga(field, targets, k),
        )
        real = [sid for sid in cont.selected_ids if sid not in cont.virtual_ids]
        failed = data.draw(
            st.lists(st.sampled_from(real), unique=True, max_size=3)
            if real
            else st.just([])
        )
        gaps = find_gaps(cont, failed, field, domain)
        self.both_ways(
            lambda **kw: logm(cont, gaps, field, domain, failed, **kw),
            naive_logm(cont, gaps, field, set(failed)),
        )


IDS = st.integers(min_value=0, max_value=2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
COORDINATES = st.integers() | FINITE


# values that no result holds, where one holds an id, a coordinate, a
# flag or a span: ids past the int64 range, negative or boolean; NaN,
# infinite, boolean, str or past-the-floats coordinates, one too long for
# JSON; a flag that is not a boolean; a span with a boolean, with three
# entries or past the floats
NOT_IDS = st.integers(min_value=2**63) | st.integers(max_value=-1) | st.booleans()
NOT_COORDINATES = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, "0", 10**5000, -(10**400)])
NOT_FLAGS = st.sampled_from(["false", 0, 1, None])
NOT_SPANS = (st.tuples(st.floats(), st.floats())
             | st.tuples(st.booleans(), FINITE)
             | st.tuples(FINITE, FINITE, FINITE)
             | st.tuples(st.just(10**400), FINITE))


@st.composite
def result_parts(draw):
    """Keywords of a ``SelectionResult``: about half of them right, the
    others with some parts drawn wide: ids that may repeat, ledger ids and
    chosen ids that may not be selected, and the values in ``NOT_IDS`` to
    ``NOT_SPANS``. Right or wide, ids may be numpy integers and span ends
    Python ints."""
    parts = ("selected", "ledger", "spans", "trace ids", "coordinates", "flag")
    wide = set() if draw(st.booleans()) else draw(st.sets(st.sampled_from(parts), min_size=1))
    some_ids = st.integers(min_value=0, max_value=6) | IDS
    some_ids |= some_ids.map(np.int64)
    if "selected" in wide:
        selected = draw(st.lists(some_ids | NOT_IDS, max_size=8))
    else:
        selected = draw(st.lists(some_ids, max_size=8, unique=True))
    pool = st.sampled_from(selected) if selected else some_ids
    ends = FINITE | st.integers(min_value=-(2**60), max_value=2**60)
    spans = st.tuples(ends, ends).map(sorted).map(tuple)
    keys, chosen, trace_ids, coordinates, flags = pool, pool, IDS, COORDINATES, st.booleans()
    if "ledger" in wide:
        keys |= some_ids | NOT_IDS
    if "spans" in wide:
        spans |= NOT_SPANS
    if "trace ids" in wide:
        chosen |= some_ids | NOT_IDS
        trace_ids |= NOT_IDS
    if "coordinates" in wide:
        coordinates |= NOT_COORDINATES
    if "flag" in wide:
        flags |= NOT_FLAGS
    steps = st.builds(
        SelectionStep, coordinates, st.lists(trace_ids, max_size=3).map(tuple), chosen,
        coordinates
    )
    return {
        "selected_ids": tuple(selected),
        "virtual_spans": draw(st.dictionaries(keys, spans, max_size=4)),
        "trace": tuple(draw(st.lists(steps, max_size=4))),
        "fully_covered": draw(flags),
        "comparisons": draw(st.integers(min_value=0, max_value=100)),
    }


class TestResultFiles:
    @settings(max_examples=300, deadline=None)
    @given(result_parts())
    @example({"selected_ids": (0, 2), "virtual_spans": {2: (0.0, 1.0)}})
    @example({"selected_ids": (0, 5), "virtual_ids": (5,)})
    @example({"selected_ids": (0, 2), "virtual_spans": {2: (2.0, math.inf)}})
    @example({"selected_ids": (0,), "trace": (SelectionStep(0.0, (2**63, True), 0, 1.0),)})
    @example({"selected_ids": (0,), "trace": (SelectionStep(math.nan, (0,), 0, 1.0),)})
    @example({"selected_ids": (0,), "trace": (SelectionStep(10**5000, (), 0, 10**308),)})
    def test_a_result_is_refused_where_it_is_made_or_reads_back(self, parts):
        """The converse of the test below: whatever the constructor
        accepts, its file reads back as the same result, but for
        ``comparisons``, and writes the same bytes again."""
        try:
            result = SelectionResult(**parts)
        except ParameterError:
            return
        text = json.dumps(result.to_dict())
        read = SelectionResult.from_dict(json.loads(text))
        assert read == dataclasses.replace(result, comparisons=0)
        assert json.dumps(read.to_dict()) == text

    @settings(max_examples=100, deadline=None)
    @given(interval_tables(max_chains=2), st.integers(min_value=1, max_value=3),
           st.data())
    def test_every_selector_result_reads_back(self, field, k, data):
        """A result written by ``to_dict`` and read back through JSON is the
        same result, but for ``comparisons``, which the file omits: the
        reader refuses nothing that a selector or the mender writes."""
        targets = discretize(field)
        cont = oga_continuous(field, field.domain)
        real = [sid for sid in cont.selected_ids if sid not in cont.virtual_ids]
        failed = data.draw(st.lists(st.sampled_from(real), unique=True, max_size=3)
                           if real else st.just([]))
        gaps = find_gaps(cont, failed, field, field.domain)
        for result in (
            oga(field, targets),
            k_oga(field, targets, k),
            cont,
            logm(cont, gaps, field, field.domain, failed),
            greedy_max_coverage(field, targets),
            k_disjoint_paths(build_barrier_graph(field, field.domain), k),
        ):
            text = json.dumps(result.to_dict())
            read = SelectionResult.from_dict(json.loads(text))
            assert read == dataclasses.replace(result, comparisons=0)
