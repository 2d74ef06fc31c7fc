"""The sparse direct send composites exactly what the dense one did.

``tests/_reference_compositor.py`` is the ``direct_send`` that shipped
every tile region of every buffer, background included; it defines the
image and which contributions a deadline or the network drops.  Every
case here composites the same buffers through both and compares color
*and* depth byte for byte, and the dropped / lost node lists.  The bytes
a node is charged must be the summed ``nbytes`` of its region messages,
times the copies the network put on the wire.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.netfaults import LinkFaults, NetworkFaultPlan
from repro.parallel.perfmodel import InterconnectModel
from repro.render.compositor import (
    PIXEL_PAYLOAD_BYTES,
    direct_send,
    pack_region,
)
from repro.render.rasterizer import Framebuffer
from repro.render.tiled_display import TileLayout
from tests import _reference_compositor as reference

#: 96x96 splits evenly; the others leave the last tile row / column the
#: remainder under the 3x3 and 1x4 grids.
SIZES = ((96, 96), (97, 95), (95, 97))
GRIDS = ((1, 1), (2, 2), (3, 3), (1, 4))
COVERAGE = (0.0, 0.002, 0.05, 0.3, 0.8, 1.0)


class CountOnly:
    """An interconnect charging per message only: the budget gate then
    decides alike whatever the bytes, so drop decisions compare."""

    def transfer_time(self, nbytes, n_messages=1):
        return n_messages * 1e-3


def make_buffers(seed, size, coverages):
    """One buffer per covered fraction.  Depths sit on a three-level
    grid so ranks tie often, colors differ per rank, and ``-inf`` (on
    drawn pixels) and NaN (anywhere) depths are sprinkled in."""
    rng = np.random.default_rng(seed)
    w, h = size
    fbs = []
    for frac in coverages:
        fb = Framebuffer(w, h)
        drawn = rng.random((h, w)) < frac
        odd = rng.random((h, w))
        fb.depth[drawn] = rng.integers(1, 4, size=int(drawn.sum()))
        fb.color[drawn] = rng.random((int(drawn.sum()), 3))
        fb.depth[drawn & (odd < 0.02)] = -np.inf
        fb.depth[odd > 0.99] = np.nan
        fbs.append(fb)
    return fbs


def message_bytes(fb, layout):
    return sum(
        pack_region(fb, *layout.tile_slices(t)).nbytes
        for t in range(layout.n_tiles)
    )


def assert_same(new, old, layout, fbs):
    (img, stats), (ref_img, ref_stats) = new, old
    assert img.depth.tobytes() == ref_img.depth.tobytes()
    assert img.color.tobytes() == ref_img.color.tobytes()
    assert stats.dropped_nodes == ref_stats.dropped_nodes
    assert stats.lost_nodes == ref_stats.lost_nodes
    assert stats.net_delay_seconds == ref_stats.net_delay_seconds
    dense = layout.width * layout.height * PIXEL_PAYLOAD_BYTES
    for q, fb in enumerate(fbs):
        # Same copies on the wire (0 when dropped), each copy the
        # node's messages instead of its dense regions.
        sent, ref_sent = stats.bytes_sent_per_node[q], ref_stats.bytes_sent_per_node[q]
        assert sent * dense == ref_sent * message_bytes(fb, layout)


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "size": st.sampled_from(SIZES),
    "grid": st.sampled_from(GRIDS),
    "coverages": st.lists(st.sampled_from(COVERAGE), min_size=1, max_size=5),
})


@settings(max_examples=80, deadline=None)
@given(case=cases)
def test_unbudgeted_frames_match_reference(case):
    fbs = make_buffers(case["seed"], case["size"], case["coverages"])
    layout = TileLayout(*case["grid"], *case["size"])
    new = direct_send(fbs, layout)
    assert_same(new, reference.direct_send(fbs, layout), layout, fbs)
    assert new[1].bytes_sent_per_node == [message_bytes(fb, layout) for fb in fbs]


@settings(max_examples=60, deadline=None)
@given(case=cases, budget=st.floats(0.0, 0.03))
def test_budget_drops_match_reference(case, budget):
    fbs = make_buffers(case["seed"], case["size"], case["coverages"])
    layout = TileLayout(*case["grid"], *case["size"])
    kwargs = dict(interconnect=CountOnly(), budget=budget)
    new = direct_send(fbs, layout, **kwargs)
    old = reference.direct_send(fbs, layout, **kwargs)
    assert_same(new, old, layout, fbs)
    assert new[1].modeled_seconds == old[1].modeled_seconds


@settings(max_examples=60, deadline=None)
@given(
    case=cases,
    drop=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    dup=st.sampled_from((0.0, 0.5, 1.0)),
    retries=st.integers(0, 3),
    budget=st.sampled_from((None, 0.004, 0.02)),
)
def test_network_faults_match_reference(case, drop, dup, retries, budget):
    fbs = make_buffers(case["seed"], case["size"], case["coverages"])
    layout = TileLayout(*case["grid"], *case["size"])
    plan = NetworkFaultPlan(
        seed=case["seed"], max_retries=retries,
        default=LinkFaults(drop_rate=drop, dup_rate=dup, delay_rate=0.5,
                           delay_seconds=1e-3),
    )
    kwargs = dict(interconnect=CountOnly(), budget=budget)
    new = direct_send(fbs, layout, network=plan.session(), **kwargs)
    old = reference.direct_send(fbs, layout, network=plan.session(), **kwargs)
    assert_same(new, old, layout, fbs)


@settings(max_examples=60, deadline=None)
@given(case=cases, budget=st.floats(0.0, 2e-4))
def test_budget_gate_projects_sparse_bytes(case, budget):
    """With a byte-priced interconnect, a node lands exactly when the
    wire time including its *messages* stays within the budget, and the
    frame is the unbudgeted composite of the nodes that landed."""
    fbs = make_buffers(case["seed"], case["size"], case["coverages"])
    layout = TileLayout(*case["grid"], *case["size"])
    net = InterconnectModel(bandwidth=1e9, latency=0.0)
    img, stats = direct_send(fbs, layout, interconnect=net, budget=budget)
    kept, sent = [], 0
    for q, fb in enumerate(fbs):
        b = message_bytes(fb, layout)
        if kept and net.transfer_time(sent + b) > budget:
            continue
        kept.append(q)
        sent += b
    assert stats.dropped_nodes == [q for q in range(len(fbs)) if q not in kept]
    assert stats.total_bytes == sent
    expect, _ = reference.direct_send([fbs[q] for q in kept], layout)
    assert img.depth.tobytes() == expect.depth.tobytes()
    assert img.color.tobytes() == expect.color.tobytes()
