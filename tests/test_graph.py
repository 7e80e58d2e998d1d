
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvreg import (
    DuplicateEdge,
    EmptyResiduals,
    IndexOutOfRange,
    PairwiseFits,
    PoseGraph,
    RigidMotion,
    build_graph,
    cauchy_global_confidence,
    cauchy_scale,
    harmonic_fuse,
    is_connected,
    prune_edges,
)
import mvreg.graph as graph_mod
from mvreg.graph import search_tree
from mvreg.sync import transf_sync
from mvreg.synthetic import random_motion

from conftest import rebuilt


def pw(motions, confidence=0.9):
    """Fits of the given motions, each row scored `confidence`."""
    m, n = len(motions), 4
    return PairwiseFits(
        motions=np.stack([x.matrix for x in motions]),
        weights=(np.ones(n),) * m,
        inlier_ratio=np.ones(m),
        local_confidence=np.full(m, confidence),
    )


def chain_graph(n, rng, confidence=0.9):
    motions = [random_motion(rng).matrix for _ in range(n - 1)]
    return PoseGraph(n, [(k, k + 1) for k in range(n - 1)], motions, [confidence] * (n - 1))


class TestPoseGraph:
    def test_requires_ordered_endpoints(self):
        m = RigidMotion.identity().matrix
        with pytest.raises(ValueError):
            PoseGraph(3, [(2, 1)], [m], [0.5])
        with pytest.raises(IndexOutOfRange):
            PoseGraph(3, [(1, 1)], [m], [0.5])
        with pytest.raises(IndexOutOfRange):
            PoseGraph(3, [(-1, 0)], [m], [0.5])

    def test_confidence_range(self):
        m = RigidMotion.identity().matrix
        with pytest.raises(ValueError):
            PoseGraph(2, [(0, 1)], [m], [1.5])
        with pytest.raises(ValueError):
            PoseGraph(2, [(0, 1)], [m], [0.5], c_global=[-0.1])

    def test_first_iteration_defaults(self):
        g = PoseGraph(2, [(0, 1)], [RigidMotion.identity().matrix], [0.7])
        assert np.array_equal(g.c_fused, [0.7])
        assert np.array_equal(g.c_global, [1.0])
        assert np.array_equal(g.active, [True])

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            PoseGraph(1, (), (), ())

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(IndexOutOfRange):
            PoseGraph(3, [(0, 5)], [RigidMotion.identity().matrix], [0.5])

    def test_rejects_duplicate_edges(self):
        m = RigidMotion.identity().matrix
        with pytest.raises(DuplicateEdge):
            PoseGraph(3, [(0, 1), (0, 1)], [m, m], [0.5, 0.6])

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: PoseGraph(3.5, [(0, 1)], [m.matrix], [0.5]),
            lambda m: PoseGraph(2, [(0.0, 1.0)], [m.matrix], [0.5]),
            lambda m: PoseGraph(2, [(0, 1)], [2.0 * m.matrix], [0.5]),
            lambda m: PoseGraph(2, [(0, 1)], [m.matrix + np.outer(np.eye(4)[3], np.eye(4)[0])],
                                [0.5]),
            lambda m: PoseGraph(2, [(0, 1)], [np.full((4, 4), np.nan)], [0.5]),
            lambda m: PoseGraph(2, [(0, 1)], [m.matrix[:3]], [0.5]),
            lambda m: PoseGraph(2, [(1, 0)], [m.matrix], [0.5]),
            lambda m: PoseGraph(2, [(0, 1)], [m.matrix], [0.5], c_fused=[np.nan]),
            lambda m: PoseGraph(2, [(0, 1)], [m.matrix], [0.5], active=[0.5]),
        ],
        ids=["float-node-count", "float-pair-array", "scaled-rotation", "bad-bottom-row",
             "nan-motion", "motion-shape", "reversed-pair", "nan-confidence",
             "numeric-active-mask"],
    )
    def test_rejects_malformed_input_at_construction(self, build):
        with pytest.raises(ValueError):
            build(random_motion(np.random.default_rng(30)))

    def test_array_errors_are_typed(self):
        m = random_motion(np.random.default_rng(31)).matrix
        with pytest.raises(IndexOutOfRange):
            PoseGraph(3, [(1, 1)], [m], [0.5])
        with pytest.raises(IndexOutOfRange):
            PoseGraph(3, [(0, 3)], [m], [0.5])
        with pytest.raises(DuplicateEdge):
            PoseGraph(3, [(0, 1), (1, 2), (0, 1)], [m] * 3, [0.5] * 3)

    def test_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(32)
        motions = np.stack([random_motion(rng).matrix for _ in range(2)])
        c_local = np.array([0.3, 0.6])
        g = PoseGraph(3, np.array([[0, 1], [1, 2]]), motions, c_local)
        c_local[0] = 0.9
        motions[0] = np.eye(4)
        assert g.c_local[0] == 0.3 and g.c_fused[0] == 0.3
        assert not np.array_equal(g.motions[0], np.eye(4))
        for name in ("pairs", "motions", "c_local", "c_global", "c_fused", "active"):
            assert not getattr(g, name).flags.writeable

    def test_records_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(33)
        g = chain_graph(5, rng)
        g = rebuilt(g, [1, 3], c_global=[0.25, 0.5], active=[False, True])
        again = PoseGraph(g.node_count, [(e.i, e.j) for e in g.edges],
                          [e.motion.matrix for e in g.edges],
                          *([getattr(e, name) for e in g.edges]
                            for name in ("c_local", "c_global", "c_fused", "active")))
        for name in ("pairs", "motions", "c_local", "c_global", "c_fused", "active"):
            assert np.array_equal(getattr(again, name), getattr(g, name))
        e = g.edges[1]
        assert (e.i, e.j, e.c_global, e.active) == (1, 2, 0.25, False)
        assert type(e.i) is int and type(e.c_local) is float and type(e.active) is bool
        assert np.array_equal(e.motion.matrix, g.motions[1])
        assert g.active_edges() == tuple(g.edges[k] for k in (0, 2, 3))

    def test_row_update_returns_a_new_graph(self):
        rng = np.random.default_rng(34)
        g = chain_graph(4, rng, confidence=0.9)
        h = g._with_rows(np.array([False, True, False]), c_fused=[0.1])
        assert np.array_equal(h.c_fused, [0.9, 0.1, 0.9])
        assert np.array_equal(g.c_fused, [0.9, 0.9, 0.9])

    @pytest.mark.parametrize("name, value", [("motions", np.diag([2.0, 1.0, 1.0, 1.0])),
                                             ("motions", np.full((4, 4), np.nan)),
                                             ("c_local", np.nan), ("c_global", -0.1),
                                             ("c_fused", 1.5)])
    def test_bad_written_row_raises_the_constructors_error(self, name, value):
        g = chain_graph(5, np.random.default_rng(35))
        columns = {key: getattr(g, key).copy()
                   for key in ("motions", "c_local", "c_global", "c_fused", "active")}
        columns[name][2] = value
        with pytest.raises(ValueError) as built:
            PoseGraph(g.node_count, g.pairs, **columns)
        assert str(built.value).startswith("edge (2, 3) has")

    def test_only_the_constructor_checks_motions(self, monkeypatch):
        rng = np.random.default_rng(36)
        g = chain_graph(7, rng)
        seen = []
        check = graph_mod.non_rotations

        def spy(stack):
            seen.append(stack.copy())
            return check(stack)

        monkeypatch.setattr(graph_mod, "non_rotations", spy)
        new = np.stack([random_motion(rng).matrix for _ in range(2)])
        # the solver's own updates write motions and confidences unchecked
        h = g._with_rows([4, 1], motions=new)
        assert np.array_equal(h.motions[[4, 1]], new)
        h = prune_edges(h._with_rows([0], c_global=[0.3]))
        transf_sync(h, rounds=2)
        assert seen == []
        PoseGraph(h.node_count, h.pairs, h.motions, h.c_local)
        assert len(seen) == 1 and np.array_equal(seen[0], h.motions[:, :3, :3])

    def test_empty_edge_set(self):
        g = PoseGraph(3, (), (), ())
        assert g.pairs.shape == (0, 2) and g.motions.shape == (0, 4, 4)
        assert g.edges == () and not is_connected(g)


class TestBuildGraph:
    def test_initial_confidences(self):
        rng = np.random.default_rng(2)
        g = build_graph(2, [(0, 1)], pw([random_motion(rng)], 0.8))
        e = g.edges[0]
        assert e.c_local == 0.8
        assert e.c_global == 1.0
        assert e.c_fused == 0.8
        assert e.active

    def test_reversed_pair_is_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="i < j"):
            build_graph(3, [(2, 0)], pw([random_motion(rng)]))

    def test_repeated_pair_is_duplicate(self):
        rng = np.random.default_rng(4)
        fits = pw([random_motion(rng), random_motion(rng)])
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(1, 2), (1, 2)], fits)

    def test_out_of_range_and_self_loop(self):
        rng = np.random.default_rng(5)
        with pytest.raises(IndexOutOfRange):
            build_graph(3, [(0, 3)], pw([random_motion(rng)]))
        with pytest.raises(IndexOutOfRange):
            build_graph(3, [(1, 1)], pw([random_motion(rng)]))


class TestCauchyScale:
    def test_documented_value(self):
        assert cauchy_scale(np.array([1.0, 2.0, 3.0, 4.0, 100.0])) == 4.446

    def test_oracle_recomputation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = rng.uniform(0, 10, size=rng.integers(1, 30))
            mad = np.median(np.abs(r - np.median(r)))
            assert cauchy_scale(r) == max(1.482 * graph_mod.GAMMA * mad, 1e-9)

    def test_floor_for_identical_residuals(self):
        assert cauchy_scale(np.full(7, 2.5)) == 1e-9

    def test_empty_input(self):
        with pytest.raises(EmptyResiduals):
            cauchy_scale(np.array([]))


class TestCauchyGlobalConfidence:
    def test_documented_values(self):
        assert cauchy_global_confidence(0.0, 2.0) == 1.0
        assert cauchy_global_confidence(2.0, 2.0) == 0.5
        assert abs(cauchy_global_confidence(18.0, 2.0) - 0.1) < 1e-12
        c = cauchy_global_confidence(np.array([0.0, 2.0, 18.0]), 2.0)
        assert c.shape == (3,)
        assert np.allclose(c, [1.0, 0.5, 0.1], rtol=0.0, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cauchy_global_confidence(1.0, 0.0)
        with pytest.raises(ValueError):
            cauchy_global_confidence(-1.0, 1.0)
        with pytest.raises(ValueError):
            cauchy_global_confidence(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            cauchy_global_confidence(np.array([1.0, -1e-300, 2.0]), 1.0)

    @pytest.mark.parametrize("b", [np.inf, np.nan])
    def test_infinite_or_nan_scale_is_rejected(self, b):
        # an infinite scale used to give confidence 1 to every residual
        with pytest.raises(ValueError, match="scale b must be positive and finite"):
            cauchy_global_confidence(0.1, b)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1e6), st.floats(1e-9, 1e3))
    def test_range_and_monotonicity(self, r, b):
        c = cauchy_global_confidence(r, b)
        assert 0.0 < c <= 1.0
        assert cauchy_global_confidence(r + 1.0, b) < c


class TestHarmonicFuse:
    def test_equal_inputs_are_fixed_points(self):
        for c in (0.0, 0.3, 1.0):
            assert abs(harmonic_fuse(c, c) - c) < 1e-12

    def test_zero_local_confidence_dominates(self):
        assert harmonic_fuse(0.0, 1.0) == 0.0
        assert harmonic_fuse(1.0, 0.0) == 0.0
        # element-wise, including the 0 where both confidences vanish
        fused = harmonic_fuse(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(fused, [0.0, 0.0, 0.0])

    def test_documented_value(self):
        assert abs(harmonic_fuse(0.4, 0.8) - 0.53333333333333333) < 1e-12
        c_local = np.array([0.4, 0.3, 0.9])
        c_global = np.array([0.8, 0.6, 0.2])
        fused = harmonic_fuse(c_local, c_global)
        assert fused.shape == (3,)
        for f, cl, cg in zip(fused, c_local, c_global):
            assert f == harmonic_fuse(float(cl), float(cg))

    def test_equals_the_weighted_form_at_unit_weight_bit_for_bit(self):
        # the weighted harmonic mean (1 + b^2) c_g c_l / (b^2 c_g + c_l), 0
        # where the denominator vanishes, at b = 1
        beta = 1.0
        rng = np.random.default_rng(8)
        for _ in range(200):
            c_local, c_global = rng.uniform(0.0, 1.0, size=(2, 64))
            c_local[rng.uniform(size=64) < 0.2] = 0.0
            c_global[rng.uniform(size=64) < 0.2] = 0.0
            c_local[rng.uniform(size=64) < 0.1] = 1.0
            c_global[rng.uniform(size=64) < 0.1] = 1.0
            denom = beta**2 * c_global + c_local
            vanished = denom == 0.0
            weighted = (1.0 + beta**2) * c_global * c_local / np.where(vanished, 1.0, denom)
            weighted = np.where(vanished, 0.0, weighted)
            assert harmonic_fuse(c_local, c_global).tobytes() == weighted.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_bounded_by_inputs_plain(self, cl, cg):
        f = harmonic_fuse(cl, cg)
        assert min(cl, cg) - 1e-12 <= f <= max(cl, cg) + 1e-12


class TestPruneAndConnectivity:
    def test_prune_deactivates_below_threshold(self):
        # median 0.8, so the threshold is 0.25 * 0.8 = 0.2; c_local plays no part
        rng = np.random.default_rng(7)
        m = random_motion(rng).matrix
        g = PoseGraph(4, [(0, 1), (1, 2), (2, 3)], [m] * 3, [0.1, 0.9, 0.9],
                      c_global=[0.9, 0.19, 0.8])
        pruned = prune_edges(g)
        assert pruned.active.tolist() == [True, False, True]
        assert prune_edges(rebuilt(g, [1], c_global=[0.2])).active.all()
        # edges are retained in the structure even when inactive
        assert len(pruned.edges) == 3

    def test_prune_never_reactivates(self):
        rng = np.random.default_rng(8)
        g = PoseGraph(2, [(0, 1)], [random_motion(rng).matrix], [0.9], active=[False])
        assert not prune_edges(g).active[0]

    def test_inactive_edges_do_not_move_the_median(self):
        # the active median is 0.8 (threshold 0.2); over every row it would be
        # 0.1 (threshold 0.025), which would keep edge (1, 2)
        rng = np.random.default_rng(10)
        m = random_motion(rng).matrix
        g = PoseGraph(5, [(k, k + 1) for k in range(4)], [m] * 4, [0.9] * 4,
                      c_global=[0.8, 0.1, 0.1, 0.05], active=[True, True, False, False])
        assert prune_edges(g).active.tolist() == [True, False, False, False]

    def test_prune_threshold_monotone(self, monkeypatch):
        rng = np.random.default_rng(9)
        m = random_motion(rng).matrix
        confs = rng.uniform(0, 1, 10)
        g = PoseGraph(11, [(k, k + 1) for k in range(10)], [m] * 10, [0.9] * 10, c_global=confs)
        active_counts = []
        for ratio in np.linspace(0, 1, 21):
            monkeypatch.setattr(graph_mod, "PRUNE_RATIO", ratio)
            active_counts.append(int(prune_edges(g).active.sum()))
        assert active_counts[0] == 10 and active_counts[-1] == 5
        assert all(a >= b for a, b in zip(active_counts, active_counts[1:]))

    def test_chain_is_connected(self):
        rng = np.random.default_rng(10)
        assert is_connected(chain_graph(6, rng))

    def test_missing_link_disconnects(self):
        rng = np.random.default_rng(11)
        m = random_motion(rng)
        g = PoseGraph(4, [(0, 1), (2, 3)], [m.matrix] * 2, [0.9, 0.9])
        assert not is_connected(g)

    def test_inactive_edges_do_not_connect(self):
        rng = np.random.default_rng(12)
        g = chain_graph(5, rng)
        cut = rebuilt(g, [2], active=[False])
        assert (cut.pairs[2] == (2, 3)).all()
        assert is_connected(g)
        assert not is_connected(cut)

    def test_search_tree_visits_neighbours_in_edge_order(self):
        # 0 reaches 2 before 1 because edge (0, 2) comes first; 3 hangs off
        # 2, the first node in the queue adjacent to it; 5 is not reached
        pairs = np.array([(0, 2), (0, 1), (1, 3), (2, 3), (3, 4)])
        order, parent = search_tree(6, pairs)
        assert order == [0, 2, 1, 3, 4]
        assert parent == [0, 0, 0, 2, 3, -1]

    def test_search_tree_restarts_from_each_unreached_root(self):
        pairs = np.array([(0, 1), (2, 3)])
        order, parent = search_tree(5, pairs, roots=(3, 0, 4, 1))
        assert order == [3, 2, 0, 1, 4]
        assert parent == [0, 0, 3, 3, 4]

    def test_isolated_node(self):
        rng = np.random.default_rng(13)
        m = random_motion(rng)
        g = PoseGraph(3, [(0, 1)], [m.matrix], [0.9])
        assert not is_connected(g)
