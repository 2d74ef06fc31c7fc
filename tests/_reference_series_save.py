"""The deleted second writer, kept verbatim as a differential oracle.

``legacy_save_dataset`` / ``legacy_save_series`` are ``save_dataset`` and
``TimeVaryingIndex.save`` as they stood before the journaled builder
became the only code that creates ``bricks.bin`` / ``index.npz`` /
``meta.json``: build every step in RAM, copy the bricks out of the
in-memory device, write index + meta with no journal, no fsync and no
rename, and list the steps in a ``steps.txt`` side file.  Tests use them
for two things — a directory in exactly the layout old installations
hold (it must still load), and the bytes the build-to-disk path must
reproduce.
"""

import json
from pathlib import Path

import numpy as np

from repro.core.persistence import (
    BRICKS_FILE,
    FORMAT_VERSION,
    INDEX_FILE,
    META_FILE,
    tree_to_arrays,
)


def _meta_to_json(dataset) -> dict:
    rep = dataset.report
    return {
        "format_version": FORMAT_VERSION,
        "base_offset": dataset.base_offset,
        "node_rank": dataset.node_rank,
        "n_cluster_nodes": dataset.n_cluster_nodes,
        "has_checksums": dataset.checksums is not None,
        "codec": {
            "metacell_shape": list(dataset.codec.metacell_shape),
            "scalar_dtype": dataset.codec.scalar_dtype.str,
        },
        "meta": {
            "grid_shape": list(dataset.meta.grid_shape),
            "metacell_shape": list(dataset.meta.metacell_shape),
            "volume_shape": list(dataset.meta.volume_shape),
            "spacing": list(dataset.meta.spacing),
            "origin": list(dataset.meta.origin),
            "name": dataset.meta.name,
        },
        "report": {
            "n_metacells_total": rep.n_metacells_total,
            "n_metacells_culled": rep.n_metacells_culled,
            "n_metacells_stored": rep.n_metacells_stored,
            "original_bytes": rep.original_bytes,
            "stored_bytes": rep.stored_bytes,
            "index_bytes": rep.index_bytes,
            "n_distinct_endpoints": rep.n_distinct_endpoints,
            "n_bricks": rep.n_bricks,
            "tree_height": rep.tree_height,
        },
    }


def legacy_save_dataset(dataset, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = tree_to_arrays(dataset.tree)
    if dataset.checksums is not None:
        arrays["record_crcs"] = dataset.checksums.record_crcs
        arrays["brick_crcs"] = dataset.checksums.brick_crcs
        if dataset.checksums.cum_crcs is not None:
            arrays["cum_crcs"] = dataset.checksums.cum_crcs
    np.savez_compressed(directory / INDEX_FILE, **arrays)
    (directory / META_FILE).write_text(json.dumps(_meta_to_json(dataset), indent=2))
    return directory


def legacy_save_series(tvi, directory) -> Path:
    """``tvi`` must be an in-memory series (``directory=None``)."""
    directory = Path(directory)
    for t, datasets in tvi.iter_steps():
        for ds in datasets:
            node_dir = directory / f"step_{t:04d}" / f"node_{ds.node_rank}"
            node_dir.mkdir(parents=True, exist_ok=True)
            (node_dir / BRICKS_FILE).write_bytes(bytes(ds.device._buf))
            legacy_save_dataset(ds, node_dir)
    (directory / "steps.txt").write_text(
        "\n".join(str(t) for t in tvi.steps) + "\n"
    )
    return directory
