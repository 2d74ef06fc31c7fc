"""Real-process execution backend.

The simulated cluster runs its p nodes in one process for determinism
and speed.  This backend runs the *same* per-node work (out-of-core
query + triangulation) in separate OS processes via ``multiprocessing``,
demonstrating that node execution is genuinely independent: the only
data returned to the parent is each node's triangle mesh and counters —
the analogue of the frame buffer shipped for compositing.

Datasets that were persisted to disk travel to workers as *directory
paths* — the worker reopens the store with
:func:`repro.core.persistence.load_dataset` — so the parent never pays
pickling an entire index + brick image per job.  Purely in-memory
datasets (no :attr:`~repro.core.builder.IndexedDataset.source_dir`) are
still pickled wholesale, which is fine at example scale.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import IndexedDataset
from repro.mc.geometry import TriangleMesh
from repro.parallel.node import extract_node


def default_mp_context():
    """The multiprocessing context the supervised workers start from.

    ``fork`` on Linux — workers inherit the parent's address space, so
    start-up is milliseconds and module state (tables, codecs) needs no
    re-import.  Everywhere else (macOS, Windows) ``fork`` is unavailable
    or unsafe, so ``spawn`` is used.
    """
    method = "fork" if sys.platform.startswith("linux") else "spawn"
    if method not in multiprocessing.get_all_start_methods():  # pragma: no cover
        method = "spawn"
    return multiprocessing.get_context(method)


@dataclass
class WorkerOutput:
    """What one worker process sends back to the parent."""

    node_rank: int
    n_active_metacells: int
    n_triangles: int
    blocks_read: int
    seeks: int
    vertices: np.ndarray
    faces: np.ndarray

    def mesh(self) -> TriangleMesh:
        return TriangleMesh(self.vertices, self.faces)


def node_task(args) -> WorkerOutput:
    """Per-node extraction job (module-level so it pickles).

    ``args`` is ``(dataset_or_path, lam)``.  A string first element is
    a dataset directory reopened in-process via ``load_dataset`` — the
    zero-pickling path ``extract_parallel_mp`` uses whenever the dataset
    knows its ``source_dir``.
    """
    source, lam = args
    if isinstance(source, str):
        from repro.core.persistence import load_dataset

        dataset = load_dataset(source)
    else:
        dataset = source
    metrics, mesh, _, _ = extract_node(dataset, lam)
    return WorkerOutput(
        node_rank=metrics.node_rank,
        n_active_metacells=metrics.n_active_metacells,
        n_triangles=metrics.n_triangles,
        blocks_read=metrics.io_stats.blocks_read,
        seeks=metrics.io_stats.seeks,
        vertices=mesh.vertices,
        faces=mesh.faces,
    )


@dataclass(frozen=True)
class SupervisorOptions:
    """Crash-recovery policy of :func:`extract_parallel_mp`.

    Parameters
    ----------
    max_respawns:
        Times one job's worker may be respawned after dying (killed,
        segfaulted, exited nonzero without a result) before the parent
        gives up on processes and runs the job inline — which always
        completes, so a job is never lost to worker deaths.
    poll_interval:
        Seconds between parent liveness polls (wall clock).
    heartbeat_timeout:
        A worker whose heartbeat is older than this many seconds is
        declared hung and killed + retried like a dead one.  ``None``
        disables hang detection (death detection stays on).
    """

    max_respawns: int = 1
    poll_interval: float = 0.05
    heartbeat_timeout: "float | None" = None

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {self.poll_interval}"
            )
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout}"
            )


DEFAULT_SUPERVISOR_OPTIONS = SupervisorOptions()

#: Seconds between heartbeat updates inside a worker.
HEARTBEAT_INTERVAL = 0.02


@dataclass
class SupervisorStats:
    """What the supervisor observed during one run (for tests/telemetry)."""

    respawns: int = 0
    inline_recoveries: int = 0
    dead_workers: "list[int]" = field(default_factory=list)


def _supervised_node_task(job, idx: int, queue, heartbeat) -> None:
    """Worker entry point: run the job, beating while it runs.

    The heartbeat is a shared double the worker refreshes from a
    background thread; the parent reads it to distinguish *hung* from
    merely slow.  Results and exceptions both travel back on ``queue`` —
    a worker that dies without putting anything is what the supervisor's
    liveness poll catches.
    """
    import threading

    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(HEARTBEAT_INTERVAL)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        out = node_task(job)
        queue.put((idx, "ok", out))
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        try:
            queue.put((idx, "error", exc))
        except Exception:  # pragma: no cover - unpicklable exception
            queue.put((idx, "error", RuntimeError(repr(exc))))
    finally:
        stop.set()


def _run_supervised(
    jobs: list,
    n_proc: int,
    options: SupervisorOptions,
    stats: "SupervisorStats | None" = None,
) -> list:
    """Run jobs across supervised worker processes.

    Unlike ``Pool.map`` — which never completes a job whose worker was
    SIGKILLed — every job here ends in exactly one of: a result, a
    raised exception, or (after ``max_respawns`` worker deaths) an
    inline re-run in the parent.
    """
    import queue as queue_mod

    ctx = default_mp_context()
    results: "dict[int, object]" = {}
    result_queue = ctx.Queue()
    pending = list(enumerate(jobs))
    attempts = [0] * len(jobs)
    running: "dict[int, tuple]" = {}  # idx -> (process, heartbeat)
    failure: "BaseException | None" = None

    def spawn(idx: int) -> None:
        heartbeat = ctx.Value("d", time.monotonic())
        proc = ctx.Process(
            target=_supervised_node_task,
            args=(jobs[idx], idx, result_queue, heartbeat),
            daemon=True,
        )
        proc.start()
        running[idx] = (proc, heartbeat)

    try:
        while len(results) < len(jobs) and failure is None:
            while pending and len(running) < n_proc:
                idx, _ = pending.pop(0)
                spawn(idx)
            try:
                idx, status, payload = result_queue.get(
                    timeout=options.poll_interval
                )
                if status == "ok":
                    results[idx] = payload
                else:
                    failure = payload
                proc, _hb = running.pop(idx, (None, None))
                if proc is not None:
                    proc.join()
                continue
            except queue_mod.Empty:
                pass
            now = time.monotonic()
            for idx, (proc, heartbeat) in list(running.items()):
                dead = not proc.is_alive() and proc.exitcode != 0
                hung = (
                    options.heartbeat_timeout is not None
                    and now - heartbeat.value > options.heartbeat_timeout
                )
                if not dead and not hung:
                    continue
                if hung and proc.is_alive():
                    proc.kill()
                proc.join()
                running.pop(idx)
                if stats is not None:
                    stats.dead_workers.append(idx)
                attempts[idx] += 1
                if attempts[idx] <= options.max_respawns:
                    if stats is not None:
                        stats.respawns += 1
                    spawn(idx)
                else:
                    # Out of respawn budget: the parent finishes the job
                    # itself.  Guaranteed completion beats parallelism.
                    if stats is not None:
                        stats.inline_recoveries += 1
                    results[idx] = node_task(jobs[idx])
            # A worker that exited 0 after a successful put is reaped on
            # the queue-drain path above; nothing else to do here.
        if failure is not None:
            raise failure
        return [results[i] for i in range(len(jobs))]
    finally:
        for proc, _hb in running.values():
            if proc.is_alive():
                proc.kill()
            proc.join()
        result_queue.close()


def extract_parallel_mp(
    datasets: "list[IndexedDataset]",
    lam: float,
    processes: "int | None" = None,
    supervisor: "SupervisorOptions | None" = None,
    supervisor_stats: "SupervisorStats | None" = None,
) -> "list[WorkerOutput]":
    """Run each node's extraction in its own OS process.

    Parameters
    ----------
    datasets:
        Per-node indexed datasets (from
        :func:`repro.core.builder.build_striped_datasets`).  Datasets
        with a ``source_dir`` are shipped to workers by path and
        reopened there; others are pickled.
    lam:
        Isovalue.
    processes:
        Worker pool size; defaults to ``len(datasets)``.
    supervisor:
        Crash-recovery policy (heartbeats, respawn budget); default
        :data:`DEFAULT_SUPERVISOR_OPTIONS`.  A worker killed mid-job is
        detected, respawned up to ``max_respawns`` times, then the job
        is finished inline — no extraction is ever lost to a dead
        worker.
    supervisor_stats:
        Optional :class:`SupervisorStats` populated with what the
        supervisor observed (deaths, respawns, inline recoveries).

    Returns
    -------
    list[WorkerOutput]
        One entry per node, ordered by node rank.
    """
    jobs = [
        (ds.source_dir if ds.source_dir else ds, float(lam))
        for ds in datasets
    ]
    n_proc = processes or len(datasets)
    if n_proc <= 1 or len(datasets) == 1:
        outs = [node_task(j) for j in jobs]
    else:
        outs = _run_supervised(
            jobs, n_proc, supervisor or DEFAULT_SUPERVISOR_OPTIONS,
            supervisor_stats,
        )
    return sorted(outs, key=lambda o: o.node_rank)
