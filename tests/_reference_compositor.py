"""The dense ``direct_send``, kept verbatim as the differential oracle.

This is ``src/repro/render/compositor.py:direct_send`` (with
``_zmerge_into``) as it stood before the sparse transport: every node
ships every tile region of its full framebuffer, background included,
and is charged the dense ``tile pixels x 16`` bytes.  Nothing in
``src/`` imports it; ``tests/test_compositor_differential.py`` requires
the live compositor's image color and depth to equal this module's as
bytes, and its dropped / lost node lists to be identical.
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.render.compositor import CompositeStats
from repro.render.rasterizer import Framebuffer
from repro.render.tiled_display import TileLayout


def _zmerge_into(dst_color, dst_depth, src_color, src_depth) -> None:
    """In-place z-compare merge of one source buffer region into dst."""
    win = src_depth < dst_depth
    dst_depth[win] = src_depth[win]
    dst_color[win] = src_color[win]


#: Bytes per pixel shipped during compositing: RGB float32 + depth float32.
PIXEL_PAYLOAD_BYTES = 16


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

    Every rendering node ships, for each tile, the region of its buffer
    covering that tile (the paper notes regions of the frame buffer
    including z are forwarded to the appropriate rendering servers).
    Display servers z-merge what they receive.  A node co-located with a
    tile's display server still "sends" its own region; we count those
    bytes too, as an upper bound (the paper's nodes overlap with display
    nodes, making this conservative).

    ``budget`` (modeled seconds, requires ``interconnect`` with a
    ``transfer_time(nbytes, n_messages)`` method) makes the composite
    deadline-aware: node contributions are merged in rank order and once
    the modeled transfer time for the *next* node's regions would exceed
    the budget, that node and all later ones are dropped — the display
    shows the frame it has rather than stalling on late buffers.
    Dropped ranks are listed in ``stats.dropped_nodes``; without a
    budget the result is byte-identical to the unbudgeted composite
    (z-min merging is commutative for strict depth wins, and ties keep
    rank order because merging proceeds in ascending rank).

    ``network`` (a :class:`~repro.chaos.netfaults.NetworkSession`, or
    None) subjects each node's tile-region message to the installed
    fault plan: a duplicated message re-ships its bytes, a reordered or
    delayed one charges resequencing latency against the budget, and a
    message lost past the retry budget drops that node's contribution —
    recorded in both ``stats.dropped_nodes`` and ``stats.lost_nodes``
    so the caller can flag the frame degraded.  Contributions that do
    arrive are merged in rank order regardless of wire reordering (the
    transport resequences), keeping the recovered composite
    bit-identical to the fault-free one.
    """
    p = len(framebuffers)
    ref = framebuffers[0]
    for fb in framebuffers:
        if (fb.width, fb.height) != (layout.width, layout.height):
            raise ValueError(
                f"framebuffer {fb.width}x{fb.height} does not match tile layout "
                f"{layout.width}x{layout.height}"
            )
    if budget is not None and interconnect is None:
        raise ValueError("a composite budget needs an interconnect model")
    stats = CompositeStats(schedule="direct-send", n_nodes=p, rounds=1)
    stats.bytes_sent_per_node = [0] * p

    node_bytes = sum(
        (lambda rc: (rc[0].stop - rc[0].start) * (rc[1].stop - rc[1].start))(
            layout.tile_slices(t)
        )
        * PIXEL_PAYLOAD_BYTES
        for t in range(layout.n_tiles)
    )
    out = Framebuffer(ref.width, ref.height, ref.background)
    sent_bytes = 0
    sent_msgs = 0
    for q, fb in enumerate(framebuffers):
        copies = 1
        if network is not None:
            from repro.chaos.netfaults import COORDINATOR

            d = network.send(
                q, COORDINATOR, tracer=tracer, track=track,
                what="tile-regions",
            )
            if not d.delivered:
                stats.dropped_nodes.append(q)
                stats.lost_nodes.append(q)
                tracer.instant(
                    "chaos.net.contribution_lost", track=track,
                    category="chaos",
                    args={"rank": q, "attempts": d.attempts,
                          "blocked": d.blocked},
                )
                continue
            copies = 1 + d.duplicates
            stats.net_delay_seconds += d.delay
        if budget is not None:
            projected = interconnect.transfer_time(
                sent_bytes + node_bytes * copies,
                sent_msgs + layout.n_tiles * copies,
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
        sent_bytes += node_bytes * copies
        sent_msgs += layout.n_tiles * copies
        stats.bytes_sent_per_node[q] = node_bytes * copies
        for t in range(layout.n_tiles):
            rows, cols = layout.tile_slices(t)
            _zmerge_into(
                out.color[rows, cols], out.depth[rows, cols],
                fb.color[rows, cols], fb.depth[rows, cols],
            )
    if interconnect is not None:
        stats.modeled_seconds = (
            interconnect.transfer_time(sent_bytes, sent_msgs)
            + stats.net_delay_seconds
        )
    return out, stats
