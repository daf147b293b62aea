"""Tests for propagation and notification trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NotificationTree,
    PropagationTree,
    kary_depth,
    topology_aware_order,
)
from repro.scc import SccChip, SccConfig


class TestKaryFunctions:
    """The id-based assignment's arithmetic: ``(s + ik + 1) mod P`` to
    ``(s + (i+1)k) mod P`` are core i's children."""

    def test_paper_example_figure5(self):
        """s=0, P=12, k=7: children of 0 are 1..7, children of 1 are 8..11."""
        tree = PropagationTree(12, 7, 0)
        assert tree.children_of(0) == [1, 2, 3, 4, 5, 6, 7]
        assert tree.children_of(1) == [8, 9, 10, 11]
        assert tree.children_of(2) == []
        assert tree.parent_of(8) == 1
        assert tree.parent_of(7) == 0
        assert tree.parent_of(0) is None

    def test_nonzero_root_wraps(self):
        tree = PropagationTree(8, 3, 5)
        assert tree.children_of(5) == [6, 7, 0]
        assert tree.parent_of(0) == 5
        assert tree.children_of(6) == [1, 2, 3]

    def test_depth(self):
        assert kary_depth(1, 7) == 0
        assert kary_depth(2, 7) == 1
        assert kary_depth(8, 7) == 1
        assert kary_depth(9, 7) == 2
        assert kary_depth(48, 7) == 2
        assert kary_depth(48, 2) == 5
        assert kary_depth(48, 47) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 100),
        k=st.integers(1, 50),
        root=st.integers(0, 99),
        rank=st.integers(0, 99),
    )
    def test_property_parent_child_inverse(self, size, k, root, rank):
        root %= size
        rank %= size
        tree = PropagationTree(size, k, root)
        for child in tree.children_of(rank):
            assert tree.parent_of(child) == rank
        parent = tree.parent_of(rank)
        if parent is not None:
            assert rank in tree.children_of(parent)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 80), k=st.integers(1, 10), root=st.integers(0, 79))
    def test_property_tree_spans_without_duplicates(self, size, k, root):
        root %= size
        tree = PropagationTree(size, k, root)
        seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in tree.children_of(node):
                assert child not in seen
                seen.add(child)
                frontier.append(child)
        assert seen == set(range(size))


class TestNotificationTree:
    def test_binary_tree_of_seven_children(self):
        """Figure 5's notification tree: parent notifies c1, c2; c1
        notifies c3, c4; c2 notifies c5, c6; c3 notifies c7."""
        t = NotificationTree(7, 2)
        assert t.notify_targets(0) == [1, 2]
        assert t.notify_targets(1) == [3, 4]
        assert t.notify_targets(2) == [5, 6]
        assert t.notify_targets(3) == [7]
        assert t.notify_targets(7) == []
        assert t.notifier_of(7) == 3
        assert t.depth() == 3

    def test_degree_one_is_a_chain(self):
        t = NotificationTree(4, 1)
        assert t.notify_targets(0) == [1]
        assert t.notify_targets(1) == [2]
        assert t.depth() == 4

    def test_high_degree_is_flat(self):
        t = NotificationTree(5, 5)
        assert t.notify_targets(0) == [1, 2, 3, 4, 5]
        assert t.depth() == 1

    def test_binary_is_never_deeper_than_unary_and_shallower_for_big_families(self):
        for j in range(1, 48):
            assert NotificationTree(j, 2).depth() <= NotificationTree(j, 1).depth()
        assert NotificationTree(47, 2).depth() < NotificationTree(47, 1).depth()

    def test_empty_family(self):
        t = NotificationTree(0, 2)
        assert t.notify_targets(0) == []
        assert t.depth() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NotificationTree(-1, 2)
        with pytest.raises(ValueError):
            NotificationTree(3, 0)
        with pytest.raises(ValueError):
            NotificationTree(3, 2).notifier_of(0)
        with pytest.raises(ValueError):
            NotificationTree(3, 2).notify_targets(4)

    @settings(max_examples=40, deadline=None)
    @given(j=st.integers(0, 60), d=st.integers(1, 8))
    def test_property_every_child_reachable_once(self, j, d):
        t = NotificationTree(j, d)
        seen = set()
        frontier = [0]
        while frontier:
            slot = frontier.pop()
            for child in t.notify_targets(slot):
                assert child not in seen
                seen.add(child)
                frontier.append(child)
        assert seen == set(range(1, j + 1))


class TestPropagationTree:
    def test_default_order_is_id_based(self):
        tree = PropagationTree(12, 7, root=0)
        assert tree.children_of(0) == [1, 2, 3, 4, 5, 6, 7]
        assert tree.children_of(1) == [8, 9, 10, 11]
        assert tree.parent_of(11) == 1
        assert tree.is_leaf(11)
        assert not tree.is_leaf(1)

    def test_child_index(self):
        tree = PropagationTree(12, 7, root=0)
        assert tree.child_index(1) == 0
        assert tree.child_index(7) == 6
        assert tree.child_index(8) == 0
        with pytest.raises(ValueError):
            tree.child_index(0)

    def test_levels_partition_ranks(self):
        tree = PropagationTree(48, 7)
        levels = tree.levels()
        assert [len(lv) for lv in levels] == [1, 7, 40]
        flat = [r for lv in levels for r in lv]
        assert sorted(flat) == list(range(48))

    def test_custom_order(self):
        order = (2, 0, 1, 3)
        tree = PropagationTree(4, 2, root=2, order=order)
        assert tree.children_of(2) == [0, 1]
        assert tree.children_of(0) == [3]
        assert tree.parent_of(3) == 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            PropagationTree(4, 2, root=1, order=(0, 1, 2, 3))  # order[0] != root
        with pytest.raises(ValueError):
            PropagationTree(4, 2, root=0, order=(0, 1, 1, 3))  # not a permutation
        with pytest.raises(ValueError):
            PropagationTree(4, 0)
        with pytest.raises(ValueError):
            PropagationTree(4, 2, root=4)


class TestTopologyAwareOrder:
    def test_is_valid_permutation_with_root_first(self):
        chip = SccChip(SccConfig())
        dist = chip.mesh.core_distance
        order = topology_aware_order(48, 7, 0, dist)
        assert sorted(order) == list(range(48))
        assert order[0] == 0

    def test_reduces_total_parent_child_distance(self):
        chip = SccChip(SccConfig())
        dist = chip.mesh.core_distance
        k = 7

        def total_distance(tree):
            return sum(
                dist(tree.parent_of(r), r) for r in range(48) if tree.parent_of(r) is not None
            )

        id_tree = PropagationTree(48, k, root=0)
        topo_tree = PropagationTree(
            48, k, root=0, order=topology_aware_order(48, k, 0, dist)
        )
        assert total_distance(topo_tree) < total_distance(id_tree)

    def test_works_for_every_k_and_nonzero_root(self):
        chip = SccChip(SccConfig())
        dist = chip.mesh.core_distance
        for k in (1, 2, 7, 47):
            order = topology_aware_order(48, k, 13, dist)
            assert sorted(order) == list(range(48))
            assert order[0] == 13
