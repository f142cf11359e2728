"""Benchmark selectors and the exhaustive oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover.algorithms import oga, oga_continuous
from barriercover.baselines import (
    LEFT,
    RIGHT,
    InstanceTooLargeError,
    _gap_free_path,
    brute_force_min_kcover,
    build_barrier_graph,
    greedy_max_coverage,
    k_disjoint_paths,
)
from barriercover.deployment import DeploymentSpec, generate
from barriercover.model import (
    ParameterError,
    Sensor,
    SensorField,
    TargetSet,
    discretize,
)
from conftest import (
    exhaustive_min_kcover,
    make_field,
    oracle_instance,
    oracle_gap_free_path,
    oracle_k_disjoint_paths,
    path_rounds,
    table_field,
)

DOMAIN = (0.0, 10.0)


def _neighbours(x):
    """x and its two neighbouring doubles, those that lie on DOMAIN."""
    ys = (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
    return [y for y in ys if DOMAIN[0] <= y <= DOMAIN[1]]


# a coarse grid on DOMAIN, each point's neighbouring doubles and two
# subnormals, so that drawn spans are zero-length, duplicate, touch, miss
# by one double, and end exactly on a or b
_GRID = (0.0, 5e-324, 1e-323, 2.0, 2.5, 4.0, 5.0, 7.5, 10.0)
ENDPOINTS = sorted({y for g in _GRID for y in _neighbours(g)})
AFTER_5 = math.nextafter(5.0, math.inf)
BEFORE_5 = math.nextafter(5.0, -math.inf)
BEFORE_2_5 = math.nextafter(2.5, -math.inf)


@st.composite
def barrier_tables(draw):
    """Fields on DOMAIN: chains of spans from about a to about b whose
    links overlap, touch or miss by one double, plus spans drawn from
    ENDPOINTS, plus repeats."""
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        cuts = sorted(draw(st.lists(st.sampled_from(_GRID), max_size=4)))
        points = [DOMAIN[0], *cuts, DOMAIN[1]]
        for lo, hi in zip(points, points[1:]):
            u = draw(st.sampled_from(_neighbours(lo)))
            v = draw(st.sampled_from(_neighbours(hi)))
            pairs.append((min(u, v), max(u, v)))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        u = draw(st.sampled_from(ENDPOINTS))
        v = draw(st.sampled_from([x for x in ENDPOINTS if x >= u]))
        pairs.append((u, v))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return table_field(pairs, DOMAIN)


# graph domain ends inside, on and outside DOMAIN, with both zeros, so
# that a graph's domain is narrower or wider than its field's and spans
# stick out past a or b
_DOMAIN_ENDS = [-1.0, -0.0, *ENDPOINTS, 11.0]


@st.composite
def graph_domains(draw):
    a = draw(st.sampled_from(_DOMAIN_ENDS[:-1]))
    b = draw(st.sampled_from([x for x in _DOMAIN_ENDS if x > a]))
    return a, b


def cheapest_path_oracle(graph):
    """Min (weight, node count, lexicographic) LEFT->RIGHT simple path."""
    interiors = [n for n in graph.nodes if n not in (LEFT, RIGHT)]
    best = [None]

    def rec(node, visited, path, weight):
        cand = (
            weight + graph.weight(node, RIGHT),
            len(path) + 1,
            path + (RIGHT,),
        )
        if best[0] is None or cand < best[0]:
            best[0] = cand
        for nxt in interiors:
            if nxt in visited:
                continue
            rec(
                nxt,
                visited | {nxt},
                path + (nxt,),
                weight + graph.weight(node, nxt),
            )

    rec(LEFT, frozenset(), (LEFT,), 0)
    return best[0]


class TestGreedyMaxCoverage:
    def test_center_bait_over_selects(self):
        field = make_field(
            [(0.5, 4.5), (4.5, 8.5), (2.0, 7.0)], domain=(0.0, 10.0)
        )
        targets = TargetSet(tuple(float(x) for x in range(1, 9)))
        greedy = greedy_max_coverage(field, targets)
        assert greedy.selected_ids == (2, 0, 1)
        assert greedy.fully_covered
        frontier = oga(field, targets)
        assert frontier.selected_ids == (0, 1)
        assert greedy.count > frontier.count

    def test_ties_go_to_lowest_index(self):
        field = make_field([(0.0, 5.0), (5.0, 10.0)], domain=(0.0, 10.0))
        targets = TargetSet((2.0, 7.0))
        greedy = greedy_max_coverage(field, targets)
        assert greedy.selected_ids[0] == 0

    def test_stops_when_no_gain_remains(self):
        field = make_field([(0.0, 4.0)], domain=(0.0, 10.0))
        targets = TargetSet((2.0, 8.0))
        greedy = greedy_max_coverage(field, targets)
        assert greedy.selected_ids == (0,)
        assert not greedy.fully_covered
        assert not greedy.virtual_ids

    def test_empty_field_covers_nothing(self):
        field = SensorField.build([], (0.0, 10.0))
        greedy = greedy_max_coverage(field, TargetSet((1.0,)))
        assert greedy.selected_ids == ()
        assert not greedy.fully_covered

    def test_rejects_empty_targets(self):
        field = make_field([(0.0, 4.0)])
        with pytest.raises(ParameterError):
            greedy_max_coverage(field, TargetSet(()))

    def test_never_beats_the_frontier_rule(self):
        for seed in range(60):
            field, targets = oracle_instance(seed, k=1)
            g = greedy_max_coverage(field, targets, record_trace=False)
            f = oga(field, targets, record_trace=False)
            assert g.fully_covered
            assert g.count >= f.count


class TestBarrierGraph:
    def test_nodes_and_terminal_spans(self):
        field = make_field([(0.0, 4.0), (3.0, 7.0)], domain=(0.0, 10.0))
        graph = build_barrier_graph(field, (0.0, 10.0))
        assert set(graph.nodes) == {LEFT, RIGHT, 0, 1}
        assert graph.spans[LEFT] == (0.0, 0.0)
        assert graph.spans[RIGHT] == (10.0, 10.0)

    def test_weights(self):
        field = make_field(
            [(0.0, 4.0), (2.0, 6.0), (4.0, 8.0), (9.0, 9.5)],
            domain=(0.0, 10.0),
        )
        graph = build_barrier_graph(field, (0.0, 10.0))
        assert graph.weight(0, 1) == 0
        assert graph.weight(0, 2) == 0
        assert graph.weight(0, 3) == 1
        assert graph.weight(LEFT, 0) == 0
        assert graph.weight(LEFT, 3) == 1
        assert graph.weight(3, RIGHT) == 1
        assert graph.weight(LEFT, RIGHT) == 1

    def test_rejects_empty_domain(self):
        field = make_field([(0.0, 4.0)])
        with pytest.raises(ParameterError):
            build_barrier_graph(field, (5.0, 5.0))


class TestKDisjointPaths:
    def test_chain_found_gap_free(self):
        field = make_field([(0.0, 4.0), (3.0, 7.0), (6.0, 10.0)])
        graph = build_barrier_graph(field, (0.0, 10.0))
        result = k_disjoint_paths(graph, 1)
        assert result.selected_ids == (0, 1, 2)
        assert result.fully_covered
        assert not result.virtual_ids

    def test_empty_field_single_bridge(self):
        field = SensorField.build([], (0.0, 10.0))
        graph = build_barrier_graph(field, (0.0, 10.0))
        result = k_disjoint_paths(graph, 1)
        assert result.count == 1
        assert len(result.virtual_ids) == 1
        assert result.virtual_spans[result.virtual_ids[0]] == (0.0, 10.0)
        assert not result.fully_covered

    def test_second_round_is_node_disjoint(self):
        field = make_field(
            [(0.0, 6.0), (5.0, 10.0), (0.0, 5.5), (5.0, 10.0)],
            domain=(0.0, 10.0),
        )
        graph = build_barrier_graph(field, (0.0, 10.0))
        result = k_disjoint_paths(graph, 2)
        assert result.fully_covered
        reals = [s for s in result.selected_ids if s not in result.virtual_ids]
        assert sorted(reals) == [0, 1, 2, 3]

    def test_exhausted_field_bridges_with_virtuals(self):
        field = make_field([(0.0, 4.0), (3.0, 7.0), (6.0, 10.0)])
        graph = build_barrier_graph(field, (0.0, 10.0))
        result = k_disjoint_paths(graph, 2)
        assert not result.fully_covered
        reals = [s for s in result.selected_ids if s not in result.virtual_ids]
        assert reals == [0, 1, 2]
        assert len(result.virtual_ids) >= 1

    def test_any_gap_collapses_to_the_direct_bridge(self):
        field = make_field([(0.0, 3.0), (6.0, 10.0)], domain=(0.0, 10.0))
        graph = build_barrier_graph(field, (0.0, 10.0))
        result = k_disjoint_paths(graph, 1)
        assert len(result.virtual_ids) == 1
        assert result.virtual_spans[result.virtual_ids[0]] == (0.0, 10.0)
        assert all(s in result.virtual_ids for s in result.selected_ids)

    def test_k_must_be_positive(self):
        field = make_field([(0.0, 4.0)])
        graph = build_barrier_graph(field, (0.0, 10.0))
        with pytest.raises(ParameterError):
            k_disjoint_paths(graph, 0)

    def test_virtual_ids_start_above_max_id(self):
        # sensor 2 lies outside the domain: the field drops its row but
        # counts its id
        field = make_field([(0.0, 4.0), (6.0, 10.0), (20.0, 30.0)], (0.0, 10.0))
        assert field.ids.tolist() == [0, 1]
        assert field.max_id == 2
        graph = build_barrier_graph(field, field.domain)
        result = k_disjoint_paths(graph, 1)
        assert result.virtual_ids == (3,)
        assert result.virtual_spans == {3: (0.0, 10.0)}

    @settings(max_examples=400, deadline=None)
    @given(barrier_tables(), st.integers(min_value=1, max_value=5))
    @example(table_field([(0.0, 10.0), (0.0, 10.0)], DOMAIN), 1)
    @example(table_field([(5.0, 10.0), (0.0, 5.0), (5.0, 10.0)], DOMAIN), 2)
    @example(table_field([(0.0, 5.0), (AFTER_5, 10.0)], DOMAIN), 1)
    @example(table_field([(0.0, 2.0), (2.5, 10.0), (0.0, 10.0)], DOMAIN), 3)
    @example(table_field([(5.0, 5.0), (0.0, 5.0), (5.0, 10.0)], DOMAIN), 2)
    @example(table_field([], DOMAIN), 2)
    def test_matches_path_tuple_dijkstra(self, field, k):
        graph = build_barrier_graph(field, field.domain)
        assert k_disjoint_paths(graph, k) == oracle_k_disjoint_paths(graph, k)

    # Spans starting past b all fall in breadth-first level 1 of
    # ``_gap_free_path`` but in later levels or none in the mask-per-level
    # oracle. Such a span never lowers a frontier (its u lies above b) nor
    # joins a path: the sensor before it on a path would start at or
    # before b and reach past b, so it would hold b and end the path
    # itself. So levels may differ only in such sensors, and the paths
    # agree.
    @settings(max_examples=400, deadline=None)
    @given(barrier_tables(), graph_domains(), st.integers(min_value=1, max_value=5))
    # a v equal to the frontier joins the next level
    @example(table_field([(5.0, 10.0), (2.5, 5.0), (0.0, 2.5)], DOMAIN), DOMAIN, 1)
    # a v one double below the frontier does not
    @example(table_field([(5.0, 10.0), (2.5, 5.0), (0.0, BEFORE_2_5)], DOMAIN), DOMAIN, 1)
    @example(table_field([(5.0, 10.0), (0.0, BEFORE_5)], DOMAIN), DOMAIN, 1)
    # zero-length spans at a and at b
    @example(table_field([(0.0, 0.0), (0.0, 10.0), (10.0, 10.0)], DOMAIN), DOMAIN, 3)
    @example(
        table_field([(0.0, 0.0), (0.0, 5.0), (5.0, 10.0), (10.0, 10.0)], DOMAIN),
        DOMAIN,
        2,
    )
    # -0.0 domain ends against spans that end on 0.0, and the other way
    @example(table_field([(0.0, 10.0), (-1.0, 0.0)], DOMAIN), (-0.0, 10.0), 2)
    @example(table_field([(-0.0, 10.0)], DOMAIN), (0.0, 10.0), 1)
    @example(table_field([(0.0, 0.0), (-1.0, 0.0)], DOMAIN), (-1.0, -0.0), 3)
    # integer domain ends compare with the spans as numbers
    @example(table_field([(1.0, 4.0), (2.5, 10.0), (0.0, 4.0)], DOMAIN), (0, 10), 1)
    # the second round finds two levels, then runs out of sensors
    @example(table_field([(0.0, 10.0), (5.0, 10.0), (2.0, 6.0)], DOMAIN), DOMAIN, 2)
    # spans sticking out past b, with a lower id than the path's sensor
    @example(table_field([(7.5, 10.0), (0.0, 7.5), (0.0, 5.0)], DOMAIN), (0.0, 5.0), 2)
    @example(table_field([(2.5, 7.5), (0.0, 4.0)], DOMAIN), (1.0, 2.5), 2)
    def test_matches_mask_per_level_oracle_on_any_domain(self, field, domain, k):
        graph = build_barrier_graph(field, domain)
        assert path_rounds(_gap_free_path, graph, k) == path_rounds(
            oracle_gap_free_path, graph, k
        )
        assert k_disjoint_paths(graph, k) == oracle_k_disjoint_paths(graph, k)

    @pytest.mark.parametrize(
        "spec",
        [
            DeploymentSpec(n=10000, width=100.0, radius=10.0, fov=45.0, seed=1),
            DeploymentSpec(
                n=10000, width=10000 / 3, kind="poisson", radius=10.0, fov=90.0, seed=1
            ),
        ],
        ids=["k_barrier-deployment", "poisson-width-n/3"],
    )
    def test_fields_of_1e4_match_mask_per_level_oracle(self, spec):
        field = generate(spec)
        graph = build_barrier_graph(field, field.domain)
        rounds = path_rounds(_gap_free_path, graph, 4)
        assert len(rounds) == 4 and None not in rounds
        assert rounds == path_rounds(oracle_gap_free_path, graph, 4)

    @pytest.mark.parametrize(
        "n, seeds", [(50, 6), (100, 6), (200, 4), (400, 2), (800, 1)]
    )
    def test_stock_k_barrier_fields_match_path_tuple_dijkstra(self, n, seeds):
        for seed in range(seeds):
            spec = DeploymentSpec(
                n=n, width=100.0, radius=10.0, fov=45.0, seed=seed
            )
            field = generate(spec)
            graph = build_barrier_graph(field, field.domain)
            result = k_disjoint_paths(graph, 5)
            assert result == oracle_k_disjoint_paths(graph, 5)

    def test_matches_path_enumeration_oracle(self):
        import sys

        sys.path.insert(0, "tests")
        from conftest import random_small_field

        for seed in range(60):
            rng = np.random.default_rng([31, seed])
            field = random_small_field(rng, n_max=6, width=20.0)
            graph = build_barrier_graph(field, field.domain)
            result = k_disjoint_paths(graph, 1)
            weight, _, path = cheapest_path_oracle(graph)
            reals = tuple(
                s for s in result.selected_ids if s not in result.virtual_ids
            )
            assert reals == path[1:-1]
            assert len(result.virtual_ids) == weight

    def test_gap_free_path_never_beats_the_frontier_rule(self):
        import sys

        sys.path.insert(0, "tests")
        from conftest import random_small_field

        hits = 0
        for seed in range(200):
            rng = np.random.default_rng([37, seed])
            field = random_small_field(rng, n_max=10, width=20.0)
            graph = build_barrier_graph(field, field.domain)
            result = k_disjoint_paths(graph, 1)
            if result.virtual_ids:
                continue
            hits += 1
            frontier = oga_continuous(field, field.domain, record_trace=False)
            assert frontier.fully_covered
            assert result.count >= frontier.count
        assert hits > 20


class TestBruteForceOracle:
    def test_chain_needs_all_three(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0), (7.0, 10.0)])
        targets = discretize(field)
        assert brute_force_min_kcover(field, targets, 1) == 3

    def test_redundant_sensor_skipped(self):
        field = make_field([(0.0, 6.0), (2.0, 5.0), (5.0, 10.0)])
        assert brute_force_min_kcover(field, discretize(field), 1) == 2

    def test_two_cover_needs_both_pairs(self):
        field = make_field(
            [(0.0, 6.0), (4.0, 10.0), (0.0, 5.0), (5.0, 10.0)],
            domain=(0.0, 10.0),
        )
        assert brute_force_min_kcover(field, discretize(field), 2) == 4

    def test_infeasible_is_none(self):
        field = make_field([(0.0, 4.0)], domain=(0.0, 10.0))
        assert brute_force_min_kcover(field, TargetSet((8.0,)), 1) is None
        assert brute_force_min_kcover(field, TargetSet((2.0,)), 2) is None

    def test_k_must_be_positive(self):
        field = make_field([(0.0, 4.0)])
        with pytest.raises(ParameterError):
            brute_force_min_kcover(field, TargetSet((2.0,)), 0)

    def test_cap_at_twenty_sensors(self):
        pairs = [(float(i), float(i) + 1.5) for i in range(21)]
        field = make_field(pairs, domain=(0.0, 22.0))
        with pytest.raises(InstanceTooLargeError) as err:
            brute_force_min_kcover(field, TargetSet((5.0,)), 1)
        assert "capped at 20 sensors, got 21" in str(err.value)
        assert isinstance(err.value, ValueError)

    def test_monotone_in_k(self):
        for seed in range(20):
            field, targets = oracle_instance(seed, k=2, n_max=8)
            one = brute_force_min_kcover(field, targets, 1)
            two = brute_force_min_kcover(field, targets, 2)
            assert one is not None and two is not None
            assert two >= one

    def test_matches_independent_enumeration(self):
        for seed in range(25):
            field, targets = oracle_instance(seed, k=1, n_max=8)
            assert brute_force_min_kcover(field, targets, 1) == (
                exhaustive_min_kcover(field, targets, 1)
            )
        for seed in range(10):
            field, targets = oracle_instance(seed, k=2, n_max=6)
            assert brute_force_min_kcover(field, targets, 2) == (
                exhaustive_min_kcover(field, targets, 2)
            )
