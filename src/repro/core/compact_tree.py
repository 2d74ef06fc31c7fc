"""The compact interval tree (paper Section 4) and its query planner
(Section 5).

Structure
---------
A binary tree over the ``n`` distinct endpoint values of the metacell
intervals.  Each node holds a split value ``vm`` (the median endpoint of
the intervals routed to its subtree) and owns every interval containing
``vm`` that no ancestor owns.  Unlike the standard interval tree — which
stores *two full sorted lists of the intervals* at each node — a node here
stores only one small **index entry per brick**:

    (brick vmax, smallest vmin in brick, disk pointer)

where a *brick* is the contiguous on-disk run of all the node's metacell
records sharing one ``vmax`` value, sorted by ascending ``vmin``.  Bricks
within a node are laid out consecutively in *descending* ``vmax`` order.
There are at most ``n/2`` entries per level and ``log2 n`` levels, giving
the paper's O(n log n) index size versus Omega(N) for the standard tree.

Query
-----
For isovalue ``lam``, walk the root-to-leaf path (the paper phrases the
same path bottom-up).  At a node with split ``vm``:

* **Case 1** (``lam >= vm``): every record in every brick with
  ``vmax >= lam`` is active, and those bricks are a *prefix* of the node's
  run — one sequential read, no per-record filtering.
* **Case 2** (``lam < vm``): in each brick, the active records are the
  prefix with ``vmin <= lam``; bricks whose index entry already shows
  ``min vmin > lam`` are skipped with **zero** I/O.

Both cases touch only blocks that contain at least one active record
(plus at most one terminator block per Case-2 brick), which is the source
of the O(log_B(N/B) + T/B) bound.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.intervals import IntervalSet


@dataclass
class TreeNode:
    """One node of the compact interval tree.

    ``entry_*`` arrays are the node's index list, one element per
    non-empty brick, ordered by descending ``vmax`` (the on-disk brick
    order inside the node's run).
    """

    node_id: int
    split: float
    lo_code: int
    hi_code: int
    left: int = -1
    right: int = -1
    entry_vmax: np.ndarray = field(default_factory=lambda: np.empty(0))
    entry_min_vmin: np.ndarray = field(default_factory=lambda: np.empty(0))
    entry_start: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    entry_count: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    brick_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_bricks(self) -> int:
        return len(self.entry_vmax)

    @property
    def run_start(self) -> int:
        """First record position of the node's contiguous brick run."""
        return int(self.entry_start[0]) if self.n_bricks else 0

    @property
    def run_count(self) -> int:
        return int(self.entry_count.sum()) if self.n_bricks else 0


@dataclass(frozen=True)
class SequentialRun:
    """Case 1: one sequential read; *every* record in it is active."""

    start: int
    count: int
    node_id: int


@dataclass(frozen=True)
class BrickPrefixScan:
    """Case 2: incremental prefix read of one brick.

    The reader consumes records while ``vmin <= lam`` holds, stopping at
    the first violation or after ``max_count`` records (the brick end).
    """

    start: int
    max_count: int
    node_id: int
    brick_id: int


@dataclass(eq=False)
class QueryPlan:
    """The I/O plan for one isovalue: which runs to read and how.

    Runs are parallel arrays in read order, one element per run:
    ``start`` (first record position), ``count`` (records of a Case-1
    run; brick size, the scan's ``max_count``, of a Case-2 scan),
    ``brick`` (span-space brick id, ``-1`` for a Case-1 run), ``node``
    (tree node id) and ``scan`` (True for a Case-2 prefix scan — the
    external index knows no brick ids and marks its scans ``-1`` too).
    """

    lam: float
    start: np.ndarray
    count: np.ndarray
    brick: np.ndarray
    node: np.ndarray
    scan: np.ndarray
    nodes_visited: int = 0
    case1_nodes: int = 0
    case2_nodes: int = 0
    bricks_skipped: int = 0

    def __post_init__(self) -> None:
        for name in ("start", "count", "brick", "node"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        self.scan = np.asarray(self.scan, dtype=bool)

    def __eq__(self, other) -> bool:
        """Value equality: same isovalue, run arrays and walk counters."""
        return isinstance(other, QueryPlan) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @classmethod
    def from_rows(cls, lam: float, rows: "list[tuple]", **counters) -> "QueryPlan":
        """A plan from ``(start, count, brick, node, scan)`` rows."""
        columns = list(zip(*rows)) if rows else [()] * 5
        return cls(lam, *columns, **counters)

    @property
    def n_runs(self) -> int:
        return len(self.start)

    def run(self, i: int) -> "SequentialRun | BrickPrefixScan":
        """Run ``i`` as its record object."""
        start, count, node = int(self.start[i]), int(self.count[i]), int(self.node[i])
        if self.scan[i]:
            return BrickPrefixScan(start, count, node, int(self.brick[i]))
        return SequentialRun(start, count, node)

    @property
    def runs(self) -> list:
        """The runs as :class:`SequentialRun` / :class:`BrickPrefixScan`
        objects, in read order (a fresh list: the arrays are the plan)."""
        return [self.run(i) for i in range(self.n_runs)]

    @property
    def n_sequential_runs(self) -> int:
        return self.n_runs - self.n_prefix_scans

    @property
    def n_prefix_scans(self) -> int:
        return int(self.scan.sum())


class CompactIntervalTree:
    """The compact interval tree index over a set of metacell intervals.

    Build with :meth:`build`.  The tree fixes the *record layout order*:
    ``record_order[p]`` is the input interval index stored at disk record
    position ``p``.  Bricks and node runs are contiguous in this order,
    which is what makes Case 1 a single bulk read.

    Attributes
    ----------
    endpoints:
        Sorted distinct endpoint values (``n`` total).
    nodes:
        Tree nodes; ``nodes[0]`` is the root when the tree is non-empty.
    record_order, record_vmins, record_ids:
        Per-record layout arrays (length ``N``): original interval index,
        vmin, and payload id at each record position.
    brick_node, brick_vmax, brick_min_vmin, brick_start, brick_count:
        Flat brick table in layout order (used by striping and writers).
    """

    def __init__(self) -> None:
        self.endpoints: np.ndarray = np.empty(0)
        self.nodes: list[TreeNode] = []
        self.record_order: np.ndarray = np.empty(0, dtype=np.int64)
        self.record_vmins: np.ndarray = np.empty(0)
        self.record_ids: np.ndarray = np.empty(0, dtype=np.uint32)
        self.brick_node: np.ndarray = np.empty(0, dtype=np.int64)
        self.brick_vmax: np.ndarray = np.empty(0)
        self.brick_min_vmin: np.ndarray = np.empty(0)
        self.brick_start: np.ndarray = np.empty(0, dtype=np.int64)
        self.brick_count: np.ndarray = np.empty(0, dtype=np.int64)
        self._walk: "tuple | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, intervals: IntervalSet) -> "CompactIntervalTree":
        """Build the tree and the brick layout for an interval set."""
        tree = cls()
        n_int = len(intervals)
        if n_int == 0:
            return tree

        vmin = intervals.vmin
        vmax = intervals.vmax
        endpoints = np.unique(np.concatenate([vmin, vmax]))
        tree.endpoints = endpoints
        min_code = np.searchsorted(endpoints, vmin).astype(np.int64)
        max_code = np.searchsorted(endpoints, vmax).astype(np.int64)

        order_chunks: list[np.ndarray] = []
        brick_node: list[int] = []
        brick_vmax: list = []
        brick_min_vmin: list = []
        brick_start: list[int] = []
        brick_count: list[int] = []
        next_start = 0

        # Stack items: (interval-index array, parent node id, side).
        # Preorder creation (node, then left, then right) fixes the layout.
        stack: list[tuple[np.ndarray, int, str]] = [
            (np.arange(n_int, dtype=np.int64), -1, "root")
        ]
        while stack:
            idx, parent, side = stack.pop()
            codes = np.unique(np.concatenate([min_code[idx], max_code[idx]]))
            vm_code = int(codes[(len(codes) - 1) // 2])

            node_id = len(tree.nodes)
            node = TreeNode(
                node_id=node_id,
                split=endpoints[vm_code],
                lo_code=int(codes[0]),
                hi_code=int(codes[-1]),
            )
            tree.nodes.append(node)
            if parent >= 0:
                if side == "left":
                    tree.nodes[parent].left = node_id
                else:
                    tree.nodes[parent].right = node_id

            mn, mx = min_code[idx], max_code[idx]
            own_mask = (mn <= vm_code) & (mx >= vm_code)
            own = idx[own_mask]

            if len(own):
                # Descending vmax, then ascending vmin, then id (determinism).
                sort_key = np.lexsort(
                    (intervals.ids[own], min_code[own], -max_code[own])
                )
                own = own[sort_key]
                own_max = max_code[own]
                # Brick boundaries: runs of equal vmax.
                boundary = np.flatnonzero(np.diff(own_max)) + 1
                starts_local = np.concatenate([[0], boundary])
                stops_local = np.concatenate([boundary, [len(own)]])
                first_bid = len(brick_vmax)
                for s, e in zip(starts_local, stops_local):
                    brick_node.append(node_id)
                    brick_vmax.append(vmax[own[s]])
                    brick_min_vmin.append(vmin[own[s]])
                    brick_start.append(next_start + int(s))
                    brick_count.append(int(e - s))
                node.brick_ids = np.arange(first_bid, len(brick_vmax), dtype=np.int64)
                node.entry_vmax = np.asarray(
                    [brick_vmax[b] for b in node.brick_ids], dtype=vmax.dtype
                )
                node.entry_min_vmin = np.asarray(
                    [brick_min_vmin[b] for b in node.brick_ids], dtype=vmin.dtype
                )
                node.entry_start = np.asarray(
                    [brick_start[b] for b in node.brick_ids], dtype=np.int64
                )
                node.entry_count = np.asarray(
                    [brick_count[b] for b in node.brick_ids], dtype=np.int64
                )
                order_chunks.append(own)
                next_start += len(own)

            left_idx = idx[mx < vm_code]
            right_idx = idx[mn > vm_code]
            # Push right first so the left subtree is processed (and laid
            # out on disk) immediately after its parent.
            if len(right_idx):
                stack.append((right_idx, node_id, "right"))
            if len(left_idx):
                stack.append((left_idx, node_id, "left"))

        tree.record_order = (
            np.concatenate(order_chunks) if order_chunks else np.empty(0, dtype=np.int64)
        )
        tree.record_vmins = vmin[tree.record_order]
        tree.record_ids = intervals.ids[tree.record_order]
        tree.brick_node = np.asarray(brick_node, dtype=np.int64)
        tree.brick_vmax = np.asarray(brick_vmax, dtype=vmax.dtype)
        tree.brick_min_vmin = np.asarray(brick_min_vmin, dtype=vmin.dtype)
        tree.brick_start = np.asarray(brick_start, dtype=np.int64)
        tree.brick_count = np.asarray(brick_count, dtype=np.int64)
        return tree

    # ------------------------------------------------------------------
    # Shape and size
    # ------------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return len(self.record_order)

    @property
    def n_bricks(self) -> int:
        return len(self.brick_vmax)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_index_entries(self) -> int:
        """Total brick index entries — the O(n log n) quantity."""
        return self.n_bricks

    def height(self) -> int:
        """Longest root-to-leaf path (edges); 0 for a single node."""
        if not self.nodes:
            return 0
        depth = {0: 0}
        best = 0
        for node in self.nodes:  # parents precede children in creation order
            d = depth[node.node_id]
            best = max(best, d)
            for child in (node.left, node.right):
                if child >= 0:
                    depth[child] = d + 1
        return best

    def index_size_bytes(
        self, value_bytes: int | None = None, pointer_bytes: int = 4, count_bytes: int = 4
    ) -> int:
        """Size of the index per the paper's accounting.

        Each entry has three fields (brick vmax, brick min vmin, disk
        pointer); each node additionally stores its split value and its
        brick count.  For the Richtmyer–Meshkov dataset (one-byte
        scalars) this reproduces the paper's ~6 KB figure.
        """
        if value_bytes is None:
            value_bytes = int(self.endpoints.dtype.itemsize) if len(self.endpoints) else 1
        per_entry = 2 * value_bytes + pointer_bytes
        per_node = value_bytes + count_bytes
        return self.n_index_entries * per_entry + self.n_nodes * per_node

    # ------------------------------------------------------------------
    # Query planning
    # ------------------------------------------------------------------

    def _walk_table(self) -> tuple:
        """The nodes and their index entries as flat Python lists, built
        on the first plan (a tree is not modified once built).  Entries
        of node ``i`` occupy ``[lo[i], lo[i + 1])``; ``neg_vmax`` is
        ascending within a node because its bricks descend by vmax."""
        if self._walk is None:
            def flat(name, dtype):
                parts = [getattr(n, name) for n in self.nodes]
                return np.concatenate(parts or [[]]).astype(dtype)

            count = flat("entry_count", np.int64)
            self._walk = (
                [float(n.split) for n in self.nodes],
                [n.left for n in self.nodes],
                [n.right for n in self.nodes],
                [0, *np.cumsum([n.n_bricks for n in self.nodes]).tolist()],
                (-flat("entry_vmax", np.float64)).tolist(),
                flat("entry_min_vmin", np.float64).tolist(),
                flat("entry_start", np.int64).tolist(),
                count.tolist(),
                [0, *np.cumsum(count).tolist()],
                flat("brick_ids", np.int64).tolist(),
            )
        return self._walk

    def plan_query(self, lam: float) -> QueryPlan:
        """Compute the I/O plan for isovalue ``lam`` (Cases 1 and 2)."""
        split, left, right, lo, neg_vmax, min_vmin, e_start, e_count, cum, \
            e_brick = self._walk_table()
        lam64 = float(lam)
        rows: "list[tuple]" = []
        visited = case1 = case2 = skipped = 0
        node_id = 0 if self.nodes else -1
        while node_id >= 0:
            visited += 1
            a, b = lo[node_id], lo[node_id + 1]
            if lam >= split[node_id]:
                # Case 1: bricks with vmax >= lam form a prefix of the run.
                k = bisect_right(neg_vmax, -lam64, a, b) - a
                if k > 0:
                    rows.append((e_start[a], cum[a + k] - cum[a], -1, node_id, False))
                    case1 += 1
                node_id = right[node_id]
            else:
                # Case 2: per-brick vmin prefixes; skip bricks whose index
                # entry already proves emptiness (no I/O for them).
                n_before = len(rows)
                rows += [(e_start[j], e_count[j], e_brick[j], node_id, True)
                         for j in range(a, b) if min_vmin[j] <= lam64]
                skipped += (b - a) - (len(rows) - n_before)
                case2 += len(rows) > n_before
                node_id = left[node_id]
        return QueryPlan.from_rows(
            float(lam), rows, nodes_visited=visited, case1_nodes=case1,
            case2_nodes=case2, bricks_skipped=skipped,
        )

    # ------------------------------------------------------------------
    # In-memory evaluation (simulation / testing — no device involved)
    # ------------------------------------------------------------------

    def active_record_ranges(self, lam: float) -> "list[tuple[int, int]]":
        """Half-open record-position ranges of all active records."""
        ranges: list[tuple[int, int]] = []
        for run in self.plan_query(lam).runs:
            if isinstance(run, SequentialRun):
                if run.count:
                    ranges.append((run.start, run.start + run.count))
            else:
                seg = self.record_vmins[run.start : run.start + run.max_count]
                k = int(np.searchsorted(seg.astype(np.float64), lam, side="right"))
                if k:
                    ranges.append((run.start, run.start + k))
        return ranges

    def query_record_positions(self, lam: float) -> np.ndarray:
        """All active record positions (unsorted across runs)."""
        ranges = self.active_record_ranges(lam)
        if not ranges:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(a, b, dtype=np.int64) for a, b in ranges])

    def query_ids(self, lam: float) -> np.ndarray:
        """Sorted payload ids of active records (in-memory fast path)."""
        return np.sort(self.record_ids[self.query_record_positions(lam)])

    def query_count(self, lam: float) -> int:
        """Number of active records for ``lam`` (in-memory fast path)."""
        return sum(b - a for a, b in self.active_record_ranges(lam))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, intervals: IntervalSet) -> None:
        """Check every structural invariant; raise AssertionError on failure.

        Intended for tests and for debugging custom builders.
        """
        n = self.n_records
        assert n == len(intervals), f"{n} records != {len(intervals)} intervals"
        assert sorted(self.record_order.tolist()) == list(range(n)), (
            "record_order is not a permutation"
        )
        # Bricks tile [0, N) contiguously in layout order.
        if self.n_bricks:
            order = np.argsort(self.brick_start)
            starts = self.brick_start[order]
            counts = self.brick_count[order]
            assert starts[0] == 0
            assert np.all(starts[1:] == starts[:-1] + counts[:-1]), "brick gap/overlap"
            assert starts[-1] + counts[-1] == n
        seen_intervals = 0
        for node in self.nodes:
            vm = float(node.split)
            prev_stop = None
            prev_vmax = None
            for j in range(node.n_bricks):
                b = int(node.brick_ids[j])
                s, c = int(self.brick_start[b]), int(self.brick_count[b])
                assert c > 0, f"empty brick {b} stored at node {node.node_id}"
                if prev_stop is not None:
                    assert s == prev_stop, f"node {node.node_id} run not contiguous"
                prev_stop = s + c
                bv = float(self.brick_vmax[b])
                if prev_vmax is not None:
                    assert bv < prev_vmax, f"node {node.node_id} bricks not desc by vmax"
                prev_vmax = bv
                members = self.record_order[s : s + c]
                mvmin = intervals.vmin[members].astype(np.float64)
                mvmax = intervals.vmax[members].astype(np.float64)
                assert np.all(mvmax == bv), "brick member vmax mismatch"
                assert np.all(np.diff(mvmin) >= 0), "brick vmins not ascending"
                assert float(self.brick_min_vmin[b]) == float(mvmin[0])
                assert np.all(mvmin <= vm) and bv >= vm, (
                    f"interval at node {node.node_id} does not contain split"
                )
                seen_intervals += c
        assert seen_intervals == n, "intervals lost or duplicated across nodes"
