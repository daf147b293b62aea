"""Propagation and notification trees for OC-Bcast.

Propagation tree (paper Section 4.1): a k-ary tree over *positions*
``0..P-1`` -- position ``p``'s children are ``pk+1 .. pk+k`` -- combined
with a position-to-rank assignment.  The paper's id-based assignment maps
position ``p`` to rank ``(root + p) mod P``, giving exactly "the children
of core i are the cores with ids (s + ik + 1) mod P to (s + (i+1)k) mod
P".  The same arithmetic over the survivors of a membership view (the
dead filtered out of that order) is the crash-surviving service's tree.
A topology-aware assignment (:func:`topology_aware_order`) keeps the
same shape but places ranks to shorten parent-child mesh distances -- the
orthogonal optimisation the paper cites as [4] and leaves out; we include
it as an ablation.

Notification tree (paper Section 4.1, Figure 5): within each *family* --
a parent and its j <= k propagation children -- notifications propagate
down a small d-ary tree (binary by default, which the paper shows is
latency-optimal) rooted at the parent: family slot ``t``'s notification
children are slots ``dt+1 .. dt+d`` (slot 0 is the parent, slots 1..j the
children in order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Sequence


def kary_depth(size: int, k: int) -> int:
    """Number of tree levels below the root (0 for a single node)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    depth, reach = 0, 1
    width = k
    while reach < size:
        reach += width
        width *= k
        depth += 1
    return depth


@dataclass(frozen=True)
class NotificationTree:
    """The d-ary notification tree inside one propagation family.

    Family slots: 0 is the parent, 1..nchildren are the propagation
    children in child-index order.
    """

    nchildren: int
    degree: int = 2

    def __post_init__(self) -> None:
        if self.nchildren < 0:
            raise ValueError("nchildren must be >= 0")
        if self.degree < 1:
            raise ValueError("notification degree must be >= 1")

    def notify_targets(self, slot: int) -> list[int]:
        """Family slots that ``slot`` notifies (its d-ary heap children)."""
        if not 0 <= slot <= self.nchildren:
            raise ValueError(f"slot {slot} outside family of {self.nchildren}")
        first = self.degree * slot + 1
        return [t for t in range(first, first + self.degree) if t <= self.nchildren]

    def notifier_of(self, slot: int) -> int:
        """The family slot that notifies ``slot`` (slots >= 1 only)."""
        if not 1 <= slot <= self.nchildren:
            raise ValueError(f"slot {slot} has no notifier")
        return (slot - 1) // self.degree

    def depth(self) -> int:
        """Longest notifier chain from the parent to any child."""
        d = 0
        for slot in range(1, self.nchildren + 1):
            hops, t = 0, slot
            while t != 0:
                t = self.notifier_of(t)
                hops += 1
            d = max(d, hops)
        return d


@dataclass(frozen=True, init=False)
class PropagationTree:
    """A k-ary propagation tree over the ranks ``0..size-1`` not in ``dead``.

    ``ranks[p]`` is the rank at position ``p``; ``ranks[0]`` is the root.
    ``order`` (default: the paper's id-based assignment rotated to the
    root) fixes the position order *before* the dead are filtered out, so
    survivors keep their relative placement, stay in their original id
    space, and two cores computing the tree from the same membership view
    agree exactly -- which is how FT OC-Bcast rebuilds a smaller tree
    after a crash without renumbering anyone.  An empty ``order`` means
    the default.

    The root itself may be dead: the tree *re-roots* at the first
    surviving rank of the base order (the same rank every survivor
    computes), and the remaining survivors keep their placement --
    orphaned subtrees are re-parented by the position arithmetic exactly
    as for a dead interior node.  This is what lets the coordinator-
    failover path rebuild a broadcast tree after the original root
    crashes.
    """

    ranks: tuple[int, ...]
    k: int

    def __init__(
        self,
        size: int,
        k: int,
        root: int = 0,
        order: Sequence[int] | None = None,
        dead: Collection[int] = (),
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= root < size:
            raise ValueError(f"root {root} outside 0..{size - 1}")
        if order is None or not len(order):
            ranks = tuple(range(root, size)) + tuple(range(root))
        else:
            ranks = tuple(order)
            if sorted(ranks) != list(range(size)):
                raise ValueError("order must be a permutation of ranks")
            if ranks[0] != root:
                raise ValueError("order[0] must be the root")
        if dead:
            gone = set(dead)
            ranks = tuple(r for r in ranks if r not in gone)
            if not ranks:
                raise ValueError("a tree needs at least one live rank")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_pos", {rank: p for p, rank in enumerate(ranks)})

    # -- navigation -----------------------------------------------------------

    @property
    def root(self) -> int:
        return self.ranks[0]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def __contains__(self, rank: int) -> bool:
        return rank in self._pos  # type: ignore[attr-defined]

    def position_of(self, rank: int) -> int:
        return self._pos[rank]  # type: ignore[attr-defined]

    def parent_of(self, rank: int) -> int | None:
        pos = self.position_of(rank)
        if pos == 0:
            return None
        return self.ranks[(pos - 1) // self.k]

    def children_of(self, rank: int) -> list[int]:
        first = self.position_of(rank) * self.k + 1
        return list(self.ranks[first:first + self.k])

    def child_index(self, rank: int) -> int:
        """Index of ``rank`` among its parent's children (doneFlag slot)."""
        pos = self.position_of(rank)
        if pos == 0:
            raise ValueError("the root has no child index")
        return (pos - 1) % self.k

    def is_leaf(self, rank: int) -> bool:
        return not self.children_of(rank)

    def depth(self) -> int:
        return kary_depth(self.size, self.k)

    def levels(self) -> list[list[int]]:
        """Ranks grouped by tree level, root first."""
        out: list[list[int]] = []
        pos = 0
        width = 1
        while pos < self.size:
            out.append(list(self.ranks[pos:pos + width]))
            pos += width
            width *= self.k
        return out


def subtree_positions(pos: int, size: int, k: int) -> int:
    """Number of positions in the array-tree subtree rooted at ``pos``."""
    count = 0
    frontier = [pos]
    while frontier:
        count += len(frontier)
        nxt: list[int] = []
        for p in frontier:
            first = p * k + 1
            nxt.extend(range(first, min(first + k, size)))
        frontier = nxt
    return count


def topology_aware_order(
    size: int,
    k: int,
    root: int,
    distance: Callable[[int, int], int],
) -> tuple[int, ...]:
    """A position-to-rank assignment that keeps subtrees spatially compact.

    For each child position of a node, a *leader* is picked nearest to
    the node's rank, then the leader's whole subtree is filled from the
    ranks nearest to the leader -- a recursive clustering that shortens
    parent-child mesh distances at every level (the optimisation the
    paper cites as [4] and treats as orthogonal).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside 0..{size - 1}")
    order: list[int] = [root] * size

    def assign(pos: int, rank: int, pool: list[int]) -> None:
        """Place ``rank`` at ``pos``; distribute ``pool`` over its strict
        subtree."""
        order[pos] = rank
        first = pos * k + 1
        remaining = list(pool)
        for child_pos in range(first, min(first + k, size)):
            want = subtree_positions(child_pos, size, k)
            remaining.sort(key=lambda r: (distance(rank, r), r))
            leader = remaining.pop(0)
            remaining.sort(key=lambda r: (distance(leader, r), r))
            cluster = remaining[: want - 1]
            remaining = remaining[want - 1 :]
            assign(child_pos, leader, cluster)
        assert not remaining

    assign(0, root, [r for r in range(size) if r != root])
    return tuple(order)
