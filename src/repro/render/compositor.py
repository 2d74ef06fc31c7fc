"""Sort-last compositing (paper Section 6, [30]).

Each node renders its local triangles, then the p framebuffers are merged
by depth comparison.  What travels is a :class:`RegionMessage`: for one
image rectangle, a fixed header (:data:`REGION_HEADER_BYTES`) and, for
the pixels the sender covered (``depth < inf``), their int32 local
offsets, float32 depths and RGB float32 colors.  Background cannot win
the receiver's strict ``<`` z-compare, so leaving it out changes no
pixel; the bytes charged are the ``nbytes`` of what the receiver merges.
Two classic schedules stand in for Chromium over InfiniBand:

* **direct send** — every node sends one message per display tile to
  that tile's display server; each server z-merges p messages.
* **binary swap** — log2(p) rounds of pairwise exchanges of the half a
  node gives away, after which each node owns a fully composited 1/p of
  the image and sends it to the display.

Both produce the image of the dense reference :func:`composite` (z-min
select), which the tests assert, while differing in who moves how many
bytes — the subject of the compositing ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.netfaults import COORDINATOR
from repro.obs.tracer import NULL_TRACER
from repro.render.rasterizer import Framebuffer
from repro.render.tiled_display import TileLayout


@dataclass
class CompositeStats:
    """Communication accounting for one compositing operation."""

    schedule: str
    n_nodes: int
    rounds: int = 0
    bytes_sent_per_node: "list[int]" = field(default_factory=list)
    #: Node indices whose contribution a compositing deadline dropped
    #: (their pixels are missing from the output; empty without budget).
    dropped_nodes: "list[int]" = field(default_factory=list)
    #: Node indices whose contribution the *network* lost past the
    #: retry budget (a subset of ``dropped_nodes``; empty without an
    #: installed network fault session).  Consumers must flag the
    #: composite degraded — a lost contribution is never silent.
    lost_nodes: "list[int]" = field(default_factory=list)
    #: Modeled seconds of network fault delay (retry backoff, reorder
    #: resequencing, latency faults) charged on top of the transfers.
    net_delay_seconds: float = 0.0
    #: Modeled seconds of the transfers actually performed, when an
    #: interconnect model was supplied (0.0 otherwise).
    modeled_seconds: float = 0.0

    @property
    def total_bytes(self) -> int:
        return int(sum(self.bytes_sent_per_node))

    @property
    def max_bytes_per_node(self) -> int:
        return int(max(self.bytes_sent_per_node, default=0))


def composite(framebuffers: "list[Framebuffer]") -> Framebuffer:
    """Reference z-min composite of p framebuffers (no communication
    accounting).  All buffers must share dimensions."""
    if not framebuffers:
        raise ValueError("need at least one framebuffer")
    out = framebuffers[0].copy()
    for fb in framebuffers[1:]:
        if fb.depth.shape != out.depth.shape:
            raise ValueError(f"framebuffer size mismatch: {fb.width}x{fb.height} "
                             f"vs {out.width}x{out.height}")
        win = fb.depth < out.depth
        out.depth[win] = fb.depth[win]
        out.color[win] = fb.color[win]
    return out


#: Bytes per pixel of a dense framebuffer: RGB float32 + depth float32.
PIXEL_PAYLOAD_BYTES = 16
#: Fixed bytes per region message: sender, region and pixel count, padded.
REGION_HEADER_BYTES = 16


@dataclass(frozen=True)
class RegionMessage:
    """The covered pixels of one image rectangle, as put on the wire."""

    rows: slice
    cols: slice
    offsets: np.ndarray  # int32, row-major within the rectangle
    depth: np.ndarray
    color: np.ndarray

    @property
    def nbytes(self) -> int:
        return (REGION_HEADER_BYTES + self.offsets.nbytes
                + self.depth.nbytes + self.color.nbytes)


def _image_index(offsets, rows: slice, cols: slice, width: int):
    """Row-major image index of rectangle-local offsets."""
    w = cols.stop - cols.start
    return offsets + offsets // w * (width - w) + (rows.start * width + cols.start)


def pack_region(fb: Framebuffer, rows: slice, cols: slice) -> RegionMessage:
    """Sender side: the pixels of ``fb[rows, cols]`` with ``depth < inf``."""
    offsets = np.flatnonzero(fb.depth[rows, cols] < np.inf)
    i = _image_index(offsets, rows, cols, fb.width)
    return RegionMessage(rows, cols, offsets.astype(np.int32),
                         fb.depth.reshape(-1).take(i),
                         fb.color.reshape(-1, 3).take(i, axis=0))


def merge_region(fb: Framebuffer, msg: RegionMessage) -> None:
    """Receiver side: z-merge one message into ``fb``.  The compare is a
    strict ``<``, so a pixel already there keeps a depth tie."""
    depth, color = fb.depth.reshape(-1), fb.color.reshape(-1, 3)
    i = _image_index(msg.offsets, msg.rows, msg.cols, fb.width)
    win = np.flatnonzero(msg.depth < depth.take(i))
    i = i.take(win)
    depth[i] = msg.depth.take(win)
    color[i] = msg.color.take(win, axis=0)


def direct_send(
    framebuffers: "list[Framebuffer]",
    layout: TileLayout,
    interconnect=None,
    budget: "float | None" = None,
    tracer=NULL_TRACER,
    track: "str | None" = None,
    network=None,
) -> tuple[Framebuffer, CompositeStats]:
    """Direct-send compositing onto a tiled display.

    Every node packs one :class:`RegionMessage` per tile (its covered
    pixels there) for that tile's display server, which z-merges them in
    rank order; ``stats.bytes_sent_per_node`` sums their ``nbytes``.  A
    node co-located with a display server is still charged its message.

    ``budget`` (modeled seconds; needs ``interconnect`` with a
    ``transfer_time(nbytes, n_messages)`` method) makes the composite
    deadline-aware: in rank order, a node whose messages would push the
    projected transfer time past the budget is dropped (the first
    contribution always lands) and listed in ``stats.dropped_nodes`` —
    the display shows the frame it has rather than stall.  ``network``
    (a :class:`~repro.chaos.netfaults.NetworkSession`, or None) subjects
    each node's messages to its fault plan: a duplicate re-ships the
    bytes, reorder or delay charges latency against the budget, and a
    delivery lost past the retry budget drops the node into both
    ``dropped_nodes`` and ``lost_nodes`` so the caller flags the frame
    degraded.  Whatever arrives merges in rank order, so the image is
    bit-identical to the dense z-min composite of the merged nodes.
    """
    p = len(framebuffers)
    for fb in framebuffers:
        if (fb.width, fb.height) != (layout.width, layout.height):
            raise ValueError(f"framebuffer {fb.width}x{fb.height} does not match "
                             f"tile layout {layout.width}x{layout.height}")
    if budget is not None and interconnect is None:
        raise ValueError("a composite budget needs an interconnect model")
    stats = CompositeStats("direct-send", p, 1, [0] * p)
    tiles = [layout.tile_slices(t) for t in range(layout.n_tiles)]
    out = Framebuffer(layout.width, layout.height, framebuffers[0].background)
    sent_bytes = sent_msgs = 0
    for q, fb in enumerate(framebuffers):
        messages = [pack_region(fb, rows, cols) for rows, cols in tiles]
        copies = 1
        if network is not None:
            d = network.send(q, COORDINATOR, tracer=tracer, track=track,
                             what="tile-regions")
            if not d.delivered:
                stats.dropped_nodes.append(q)
                stats.lost_nodes.append(q)
                tracer.instant(
                    "chaos.net.contribution_lost", track=track, category="chaos",
                    args={"rank": q, "attempts": d.attempts, "blocked": d.blocked},
                )
                continue
            copies = 1 + d.duplicates
            stats.net_delay_seconds += d.delay
        node_bytes = sum(m.nbytes for m in messages) * copies
        node_msgs = len(messages) * copies
        if budget is not None:
            projected = interconnect.transfer_time(
                sent_bytes + node_bytes, sent_msgs + node_msgs,
            ) + stats.net_delay_seconds
            # The first contribution always lands (an empty frame helps
            # nobody); later ones drop once the wire time would overrun.
            if sent_msgs and projected > budget:
                stats.dropped_nodes.append(q)
                tracer.instant(
                    "composite.node_dropped", track=track, category="render",
                    args={"rank": q, "projected_seconds": projected,
                          "budget": budget},
                )
                continue
        sent_bytes += node_bytes
        sent_msgs += node_msgs
        stats.bytes_sent_per_node[q] = node_bytes
        for m in messages:
            merge_region(out, m)
    if interconnect is not None:
        stats.modeled_seconds = (interconnect.transfer_time(sent_bytes, sent_msgs)
                                 + stats.net_delay_seconds)
    return out, stats


def binary_swap(
    framebuffers: "list[Framebuffer]",
) -> tuple[Framebuffer, CompositeStats]:
    """Binary-swap compositing; requires a power-of-two node count.

    In round r, partners exchange region messages for the halves of
    their current row strip and each z-merges the half it keeps; after
    log2(p) rounds node q owns the fully composited row-strip q, whose
    message is gathered to the display.
    """
    p = len(framebuffers)
    if p == 0 or (p & (p - 1)) != 0:
        raise ValueError(f"binary swap needs a power-of-two node count, got {p}")
    ref = framebuffers[0]
    stats = CompositeStats("binary-swap", p, 0, [0] * p)

    # Working copies; region[q] = (row_start, row_stop) owned by node q.
    bufs = [fb.copy() for fb in framebuffers]
    region = [(0, ref.height)] * p
    cols = slice(0, ref.width)

    step = 1
    while step < p:
        stats.rounds += 1
        for q in range(p):
            partner = q ^ step
            if partner < q:
                continue
            r0, r1 = region[q]
            mid = (r0 + r1) // 2
            # q keeps [r0, mid), partner keeps [mid, r1).
            to_q = pack_region(bufs[partner], slice(r0, mid), cols)
            to_partner = pack_region(bufs[q], slice(mid, r1), cols)
            stats.bytes_sent_per_node[q] += to_partner.nbytes
            stats.bytes_sent_per_node[partner] += to_q.nbytes
            merge_region(bufs[q], to_q)
            merge_region(bufs[partner], to_partner)
            region[q] = (r0, mid)
            region[partner] = (mid, r1)
        step *= 2

    # Final gather of each node's strip to the display.
    out = Framebuffer(ref.width, ref.height, ref.background)
    for q in range(p):
        msg = pack_region(bufs[q], slice(*region[q]), cols)
        stats.bytes_sent_per_node[q] += msg.nbytes
        merge_region(out, msg)
    return out, stats
