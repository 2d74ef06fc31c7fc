"""Time-varying indexing (paper Section 5.2).

Each time step gets its own compact interval tree and brick layout; the
collection of per-step indexes is small enough to keep entirely in main
memory (the paper's 270-step Richtmyer–Meshkov index totals 1.6 MB),
so selecting a time step is a dictionary lookup and a query proceeds
exactly as in the single-step case.

Construction streams the time steps one at a time — the generator
interface of :func:`repro.grid.rm_instability.rm_time_series` plugs in
directly — so the resident set stays bounded by one step regardless of
how many steps are indexed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.builder import IndexedDataset, build_indexed_dataset, build_striped_datasets
from repro.core.query import QueryResult, execute_query
from repro.grid.volume import Volume
from repro.io.cost_model import IOCostModel


class TimeVaryingIndex:
    """Per-time-step compact interval tree indexes over a time series.

    Parameters
    ----------
    p:
        Number of cluster nodes each step is striped across (1 = serial).
    metacell_shape:
        Metacell vertex dimensions, shared by all steps.
    cost_model:
        Disk calibration used for all simulated devices.
    device_factory:
        Optional callable ``(step, node_rank) -> BlockDevice`` for custom
        storage (e.g. file-backed devices); defaults to fresh in-memory
        simulated devices.
    """

    def __init__(
        self,
        p: int = 1,
        metacell_shape: tuple[int, int, int] = (9, 9, 9),
        cost_model: IOCostModel | None = None,
        device_factory: "Callable[[int, int], object] | None" = None,
    ) -> None:
        if p < 1:
            raise ValueError(f"node count must be >= 1, got {p}")
        self.p = p
        self.metacell_shape = metacell_shape
        self.cost_model = cost_model or IOCostModel()
        self.device_factory = device_factory
        self._steps: dict[int, list[IndexedDataset]] = {}

    # -- construction --------------------------------------------------------

    def add_step(self, t: int, volume: Volume) -> "list[IndexedDataset]":
        """Preprocess and index one time step."""
        if t in self._steps:
            raise ValueError(f"time step {t} already indexed")
        if self.device_factory is not None:
            devices = [self.device_factory(t, q) for q in range(self.p)]
        else:
            devices = None
        if self.p == 1:
            dev = devices[0] if devices else None
            datasets = [
                build_indexed_dataset(
                    volume, self.metacell_shape, device=dev, cost_model=self.cost_model
                )
            ]
        else:
            datasets = build_striped_datasets(
                volume, self.p, self.metacell_shape, devices=devices, cost_model=self.cost_model
            )
        self._steps[t] = datasets
        return datasets

    @classmethod
    def from_series(
        cls,
        series: "Iterable[tuple[int, Volume]]",
        p: int = 1,
        metacell_shape: tuple[int, int, int] = (9, 9, 9),
        cost_model: IOCostModel | None = None,
        device_factory=None,
    ) -> "TimeVaryingIndex":
        """Index an entire ``(t, volume)`` series, one step at a time."""
        tvi = cls(p, metacell_shape, cost_model, device_factory)
        for t, vol in series:
            tvi.add_step(t, vol)
        return tvi

    # -- access ---------------------------------------------------------------

    @property
    def steps(self) -> "list[int]":
        return sorted(self._steps)

    def __contains__(self, t: int) -> bool:
        return t in self._steps

    def __len__(self) -> int:
        return len(self._steps)

    def datasets(self, t: int) -> "list[IndexedDataset]":
        """Per-node indexed datasets of step ``t``."""
        try:
            return self._steps[t]
        except KeyError:
            raise KeyError(
                f"time step {t} not indexed; available: {self.steps}"
            ) from None

    def query(self, t: int, lam: float) -> "list[QueryResult]":
        """Run the isosurface query for step ``t`` on every node."""
        return [execute_query(ds, lam) for ds in self.datasets(t)]

    # -- accounting -----------------------------------------------------------

    def total_index_size_bytes(self) -> int:
        """Combined in-memory size of all per-step indexes.

        This is the paper's O(m n log n) quantity: for the 270-step
        Richtmyer–Meshkov run it is 1.6 MB against 2.1 TB of data.
        """
        total = 0
        for datasets in self._steps.values():
            for ds in datasets:
                total += ds.tree.index_size_bytes()
        return total

    def iter_steps(self) -> "Iterator[tuple[int, list[IndexedDataset]]]":
        for t in self.steps:
            yield t, self._steps[t]

    # -- extraction convenience -------------------------------------------

    def extract(self, t: int, lam: float):
        """Query step ``t`` and triangulate every node's share.

        Returns a list of per-node :class:`~repro.mc.geometry.TriangleMesh`
        (concatenate with ``TriangleMesh.concat`` for the full surface).
        """
        from repro.mc.backends import triangulate_records

        return [
            triangulate_records(ds, res.records, lam)[0]
            for ds, res in zip(self.datasets(t), self.query(t, lam))
        ]

    # -- persistence --------------------------------------------------------

    def save(self, directory) -> "Path":
        """Persist every step's index + brick store under ``directory``.

        Layout: ``directory/step_<t>/node_<q>/{bricks.bin,index.npz,meta.json}``.
        Requires every device to be file-backed *or* in-memory (in-memory
        stores are copied out to files).
        """
        from pathlib import Path

        from repro.core.persistence import BRICKS_FILE, save_dataset
        from repro.io.diskfile import FileBackedDevice

        directory = Path(directory)
        for t, datasets in self.iter_steps():
            for ds in datasets:
                node_dir = directory / f"step_{t:04d}" / f"node_{ds.node_rank}"
                node_dir.mkdir(parents=True, exist_ok=True)
                bricks = node_dir / BRICKS_FILE
                # Copy without going through the metered read path (a
                # backup is not a query; stats must stay clean).
                if isinstance(ds.device, FileBackedDevice):
                    ds.device.flush()
                    if ds.device.path.resolve() != bricks.resolve():
                        import shutil

                        shutil.copyfile(ds.device.path, bricks)
                elif hasattr(ds.device, "_buf"):
                    bricks.write_bytes(bytes(ds.device._buf))
                else:
                    raise TypeError(
                        f"cannot persist device of type {type(ds.device).__name__}"
                    )
                save_dataset(ds, node_dir)
        (directory / "steps.txt").write_text(
            "\n".join(str(t) for t in self.steps) + "\n"
        )
        return directory

    @classmethod
    def load(cls, directory, cost_model: IOCostModel | None = None) -> "TimeVaryingIndex":
        """Reopen a directory written by :meth:`save`."""
        from pathlib import Path

        from repro.core.persistence import load_dataset

        directory = Path(directory)
        steps_file = directory / "steps.txt"
        if not steps_file.exists():
            raise FileNotFoundError(f"no steps.txt in {directory}")
        steps = [int(s) for s in steps_file.read_text().split()]
        tvi = None
        for t in steps:
            step_dir = directory / f"step_{t:04d}"
            node_dirs = sorted(step_dir.glob("node_*"))
            if not node_dirs:
                raise FileNotFoundError(f"no node directories in {step_dir}")
            datasets = [load_dataset(d, cost_model) for d in node_dirs]
            if tvi is None:
                tvi = cls(
                    p=len(datasets),
                    metacell_shape=datasets[0].meta.metacell_shape,
                    cost_model=cost_model,
                )
            tvi._steps[t] = datasets
        assert tvi is not None
        return tvi
