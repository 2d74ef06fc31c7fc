"""The one node stage: every extraction path ends in the same two
functions (``repro.mc.backends.triangulate_records`` and
``repro.parallel.node.extract_node``), so they must all agree — on the
geometry, and on how a deadline cut is accounted."""

import numpy as np
import pytest

from repro import cli
from repro.core.builder import build_indexed_dataset
from repro.core.deadline import Deadline
from repro.core.multi_query import extract_region_of_interest
from repro.core.query import QueryOptions, execute_query
from repro.core.timevarying import TimeVaryingIndex
from repro.grid.datasets import sphere_field
from repro.mc.backends import available_backends, triangulate_records
from repro.parallel.cluster import ExtractRequest, SimulatedCluster
from repro.parallel.mp_backend import node_task
from repro.pipeline import IsosurfacePipeline

METACELL = (5, 5, 5)
#: One isovalue with active metacells, one with none.
ISOVALUES = (0.5, -5.0)


@pytest.fixture(scope="module")
def volume():
    return sphere_field((24, 24, 24))


@pytest.fixture(scope="module")
def dataset(volume):
    return build_indexed_dataset(volume, METACELL)


#: site -> (extraction through that site, whether it takes a backend).
SITES = {
    "facade_extract": (
        lambda vol, ds, lam, bk: IsosurfacePipeline(ds).extract(
            lam, options=QueryOptions(backend=bk)).mesh,
        True,
    ),
    "facade_extract_many": (
        lambda vol, ds, lam, bk: IsosurfacePipeline(ds).extract_many(
            [lam], backend=bk)[lam],
        True,
    ),
    "cluster_p1": (
        lambda vol, ds, lam, bk: SimulatedCluster(
            vol, p=1, metacell_shape=METACELL,
        ).extract(lam, ExtractRequest(keep_meshes=True, backend=bk)).meshes[0],
        True,
    ),
    "node_task": (lambda vol, ds, lam, bk: node_task((ds, lam)).mesh(), False),
    "timevarying": (
        lambda vol, ds, lam, bk: TimeVaryingIndex.from_series(
            [(0, vol)], metacell_shape=METACELL).extract(0, lam)[0],
        False,
    ),
    "cli_extract": (lambda vol, ds, lam, bk: cli._extract_mesh(ds, lam), False),
    "whole_volume_roi": (
        lambda vol, ds, lam, bk: extract_region_of_interest(
            ds, lam, (-1e9,) * 3, (1e9,) * 3).mesh,
        False,
    ),
}

CASES = [
    (site, bk)
    for site, (_, takes_backend) in SITES.items()
    for bk in (available_backends() if takes_backend else ("mc-batch",))
]


@pytest.mark.parametrize("lam", ISOVALUES)
@pytest.mark.parametrize("site,backend", CASES)
def test_every_site_equals_triangulate_records(volume, dataset, site, backend, lam):
    want, _ = triangulate_records(
        dataset, execute_query(dataset, lam).records, lam, backend=backend
    )
    got = SITES[site][0](volume, dataset, lam, backend)
    assert (want.n_triangles > 0) == (lam == ISOVALUES[0])
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.faces, want.faces)


def test_facade_accounts_a_deadline_cut_like_the_p1_cluster(volume):
    """A ``time_budget`` that cuts the façade's query must show on its
    metrics exactly as on node 0 of a one-node cluster (the façade used
    to report coverage 1.0 / not expired)."""
    lam = ISOVALUES[0]
    dl = Deadline(1e-9)
    pipe = IsosurfacePipeline.from_volume(volume, metacell_shape=METACELL)
    m = pipe.extract(lam, options=QueryOptions(time_budget=dl.node_budget)).metrics
    node0 = SimulatedCluster(volume, p=1, metacell_shape=METACELL).extract(
        lam, ExtractRequest(deadline=dl)
    ).nodes[0]
    assert m.deadline_expired is True
    assert 0.0 < m.coverage < 1.0
    assert m.skipped_bricks
    assert (m.deadline_expired, m.coverage, m.skipped_bricks) == (
        node0.deadline_expired, node0.coverage, node0.skipped_bricks
    )
    assert m.n_active_metacells == node0.n_active_metacells
    assert m.node_rank == pipe.dataset.node_rank
