"""External (blocked) compact interval tree — paper Section 5, last
paragraph.

"In the unlikely case when the compact interval tree does not fit in
main memory, we use the same strategy as in [10] and group each B nodes
of the binary tree into one disk block thereby reducing the height of
the tree to O(log_B n)."

:class:`ExternalCompactIndex` serializes a built tree onto a block
device using the classic B-tree-ification: the top-most subtree that
fits in one block becomes the root block; each hanging subtree recurses
into its own block(s).  A root-to-leaf walk then touches
``O(log_B n)`` blocks instead of ``O(log2 n)``.

The walk produces exactly the same :class:`~repro.core.compact_tree.QueryPlan`
as the in-memory tree (asserted by the tests), plus an
:class:`~repro.io.blockdevice.IOStats` bill for the index traversal
itself — the first term of the paper's ``O(log_B(N/B) + T/B)`` bound,
which the in-memory path gets for free.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.compact_tree import CompactIntervalTree, QueryPlan
from repro.io.blockdevice import IOStats

#: Node record: split f8 | left_block i4 | left_slot i4 | right_block i4
#: | right_slot i4 | run_start i8 | n_entries i4 (+ entries)
_NODE_HEADER = struct.Struct("<diiiiqi")
#: Entry record: vmax f8 | min_vmin f8 | start i8 | count i8
_ENTRY = struct.Struct("<ddqq")


@dataclass
class _NodeRef:
    block: int
    slot: int


class ExternalCompactIndex:
    """A compact interval tree stored on disk in blocked form.

    Parameters
    ----------
    device:
        Block device to hold the index (may be the brick device or a
        separate one — the paper keeps the index with the data).
    tree:
        The in-memory tree to serialize.  Only its structure is copied;
        the original can be discarded afterwards, which is the point.

    Notes
    -----
    Values are widened to float64 on disk for simplicity; comparisons
    are exact for every integer dtype up to 32 bits and for float32
    inputs, which covers all supported scalar types.
    """

    def __init__(self, device, tree: CompactIntervalTree) -> None:
        self.device = device
        self.block_size = device.cost_model.block_size
        self._blocks: list[int] = []  # byte offset per block id
        self._empty = tree.n_nodes == 0
        if not self._empty:
            self._root = self._serialize(tree)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _node_bytes(self, node) -> int:
        return _NODE_HEADER.size + node.n_bricks * _ENTRY.size

    def _serialize(self, tree: CompactIntervalTree) -> _NodeRef:
        """Pack subtrees into blocks, top-down, and write them."""
        placements: dict[int, _NodeRef] = {}
        block_members: list[list[int]] = []

        # Greedy top-subtree packing: BFS from each pending root, taking
        # nodes while the byte budget lasts; children that don't fit seed
        # new blocks.
        pending = [0]
        while pending:
            root = pending.pop(0)
            budget = self.block_size - 4  # block header: node count
            members: list[int] = []
            queue = [root]
            while queue:
                nid = queue.pop(0)
                # +4: the node's slot in the block directory.
                nb = self._node_bytes(tree.nodes[nid]) + 4
                if members and budget - nb < 0:
                    pending.append(nid)
                    continue
                members.append(nid)
                budget -= nb
                for child in (tree.nodes[nid].left, tree.nodes[nid].right):
                    if child >= 0:
                        queue.append(child)
            block_id = len(block_members)
            block_members.append(members)
            for slot, nid in enumerate(members):
                placements[nid] = _NodeRef(block_id, slot)

        # Write each block: slot directory (u32 offsets) + node records.
        for members in block_members:
            payloads = []
            for nid in members:
                node = tree.nodes[nid]
                left = placements.get(node.left, _NodeRef(-1, -1))
                right = placements.get(node.right, _NodeRef(-1, -1))
                head = _NODE_HEADER.pack(
                    float(node.split),
                    left.block, left.slot, right.block, right.slot,
                    node.run_start, node.n_bricks,
                )
                entries = b"".join(
                    _ENTRY.pack(
                        float(node.entry_vmax[j]),
                        float(node.entry_min_vmin[j]),
                        int(node.entry_start[j]),
                        int(node.entry_count[j]),
                    )
                    for j in range(node.n_bricks)
                )
                payloads.append(head + entries)
            dir_bytes = struct.pack(f"<{len(payloads)}I", *(
                np.cumsum([4 + 4 * len(payloads)] + [len(p) for p in payloads])[:-1]
            )) if payloads else b""
            blob = struct.pack("<I", len(payloads)) + dir_bytes + b"".join(payloads)
            if len(blob) > self.block_size:
                raise ValueError(
                    f"node block of {len(blob)} bytes exceeds device block "
                    f"size {self.block_size}; a single node's entry list does "
                    "not fit — use a larger block size"
                )
            offset = self.device.allocate(self.block_size)
            self.device.write(offset, blob)
            self._blocks.append(offset)
        return placements[0]

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def _read_node(self, cache: dict, ref: _NodeRef):
        """Fetch (and per-query cache) one node record."""
        if ref.block not in cache:
            cache[ref.block] = self.device.read(self._blocks[ref.block], self.block_size)
        blob = cache[ref.block]
        (count,) = struct.unpack_from("<I", blob, 0)
        if not 0 <= ref.slot < count:
            raise IOError(f"corrupt index block {ref.block}: slot {ref.slot}/{count}")
        (off,) = struct.unpack_from("<I", blob, 4 + 4 * ref.slot)
        split, lb, ls, rb, rs, run_start, n_entries = _NODE_HEADER.unpack_from(blob, off)
        entries = [
            _ENTRY.unpack_from(blob, off + _NODE_HEADER.size + j * _ENTRY.size)
            for j in range(n_entries)
        ]
        return split, _NodeRef(lb, ls), _NodeRef(rb, rs), run_start, entries

    def plan_query(self, lam: float) -> tuple[QueryPlan, IOStats]:
        """Walk the blocked tree on disk; return the plan and the index
        traversal's I/O bill.  The index stores no node or brick ids, so
        every run carries ``-1`` for both."""
        before = self.device.stats.copy()
        rows: "list[tuple]" = []
        visited = case1 = case2 = skipped = 0
        cache: dict[int, bytes] = {}
        ref = _NodeRef(-1, -1) if self._empty else self._root
        while ref.block >= 0:
            split, left, right, run_start, entries = self._read_node(cache, ref)
            visited += 1
            if lam >= split:
                k = sum(1 for e in entries if e[0] >= lam)
                if k > 0:
                    count = sum(int(e[3]) for e in entries[:k])
                    rows.append((run_start, count, -1, -1, False))
                    case1 += 1
                ref = right
            else:
                hits = [(int(e[2]), int(e[3]), -1, -1, True)
                        for e in entries if e[1] <= lam]
                rows += hits
                skipped += len(entries) - len(hits)
                case2 += bool(hits)
                ref = left
        plan = QueryPlan.from_rows(
            float(lam), rows, nodes_visited=visited, case1_nodes=case1,
            case2_nodes=case2, bricks_skipped=skipped,
        )
        return plan, self.device.stats.copy() - before
