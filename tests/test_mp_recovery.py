"""mp-worker crash recovery tests.

A worker killed mid-job (``os._exit``, no unwinding) is detected by the
parent, respawned up to ``max_respawns`` times, then the job is
finished inline — results are identical to a run with no deaths.
"""

import os

import numpy as np
import pytest

import repro.parallel.mp_backend as mp_backend
from repro.core.builder import build_striped_datasets
from repro.grid.datasets import sphere_field
from repro.parallel.mp_backend import (
    SupervisorOptions,
    SupervisorStats,
    extract_parallel_mp,
    node_task,
)

ISO = 0.62


@pytest.fixture(scope="module")
def nodes():
    return build_striped_datasets(
        sphere_field((33, 33, 33)), p=3, metacell_shape=(5, 5, 5)
    )


@pytest.fixture(scope="module")
def serial_outputs(nodes):
    return [node_task((ds, ISO)) for ds in nodes]


def patch_node_task(monkeypatch, behave):
    """Replace ``node_task`` in the worker path (fork-inherited)."""
    orig = node_task

    def wrapper(args):
        behave(args)
        return orig(args)

    monkeypatch.setattr(mp_backend, "node_task", wrapper)


def in_worker():
    import multiprocessing

    return multiprocessing.current_process().daemon


class TestSupervisorRecovery:
    def test_death_respawned_and_identical(
        self, nodes, serial_outputs, monkeypatch, tmp_path
    ):
        """Rank-1's worker dies once; the respawn completes the job."""
        flag = tmp_path / "died_once"

        def die_once(args):
            if in_worker() and args[0].node_rank == 1 and not flag.exists():
                flag.write_text("x")
                os._exit(137)

        patch_node_task(monkeypatch, die_once)
        stats = SupervisorStats()
        outs = extract_parallel_mp(
            nodes, ISO, processes=3,
            supervisor=SupervisorOptions(max_respawns=2, poll_interval=0.02),
            supervisor_stats=stats,
        )
        assert stats.dead_workers == [1]
        assert stats.respawns == 1
        assert stats.inline_recoveries == 0
        for got, ref in zip(outs, serial_outputs):
            assert got.n_triangles == ref.n_triangles
            assert np.array_equal(got.vertices, ref.vertices)
            assert np.array_equal(got.faces, ref.faces)

    def test_respawn_budget_exhausted_runs_inline(
        self, nodes, serial_outputs, monkeypatch
    ):
        """A worker that always dies exhausts the budget; the parent
        finishes the job itself — nothing is lost."""

        def always_die(args):
            if in_worker() and args[0].node_rank == 1:
                os._exit(137)

        patch_node_task(monkeypatch, always_die)
        stats = SupervisorStats()
        outs = extract_parallel_mp(
            nodes, ISO, processes=3,
            supervisor=SupervisorOptions(max_respawns=1, poll_interval=0.02),
            supervisor_stats=stats,
        )
        assert stats.dead_workers == [1, 1]
        assert stats.respawns == 1
        assert stats.inline_recoveries == 1
        for got, ref in zip(outs, serial_outputs):
            assert np.array_equal(got.vertices, ref.vertices)
            assert np.array_equal(got.faces, ref.faces)

    def test_worker_exception_propagates(self, nodes, monkeypatch):
        def explode(args):
            if in_worker() and args[0].node_rank == 2:
                raise ValueError("deliberate worker failure")

        patch_node_task(monkeypatch, explode)
        with pytest.raises(ValueError, match="deliberate"):
            extract_parallel_mp(
                nodes, ISO, processes=3,
                supervisor=SupervisorOptions(poll_interval=0.02),
            )

    def test_no_deaths_no_respawns(self, nodes, serial_outputs):
        stats = SupervisorStats()
        outs = extract_parallel_mp(
            nodes, ISO, processes=3, supervisor_stats=stats
        )
        assert stats.dead_workers == []
        assert stats.respawns == 0
        assert stats.inline_recoveries == 0
        for got, ref in zip(outs, serial_outputs):
            assert np.array_equal(got.vertices, ref.vertices)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_respawns": -1},
            {"poll_interval": 0.0},
            {"heartbeat_timeout": 0.0},
        ],
    )
    def test_options_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorOptions(**kwargs)
