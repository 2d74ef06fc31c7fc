"""The one call form: a request/options object, or nothing.

The contract under test (see docs/API.md):

* :class:`QueryOptions` / :class:`ExtractRequest` are frozen, validate
  their fields, and derive variants with :func:`dataclasses.replace`;
* ``execute_query`` / ``execute_plan`` / ``SimulatedCluster.extract`` /
  ``sweep`` take that object positionally or by name and nothing else:
  a keyword setting (the removed second call form), an unknown keyword,
  or an object of the wrong type is a :class:`TypeError`.
"""

import dataclasses

import pytest

from repro.core.builder import build_indexed_dataset
from repro.core.query import QueryOptions, execute_plan, execute_query
from repro.grid.datasets import sphere_field
from repro.parallel.cluster import ExtractRequest, SimulatedCluster

ISO = 0.7


@pytest.fixture(scope="module")
def volume():
    return sphere_field((24, 24, 24))


@pytest.fixture()
def dataset(volume):
    return build_indexed_dataset(volume, (5, 5, 5))


class TestQueryOptions:
    def test_defaults_are_valid(self):
        opts = QueryOptions()
        assert opts.read_ahead_blocks >= 1
        assert opts.retry_policy is None and opts.time_budget is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            QueryOptions().read_ahead_blocks = 2

    def test_invalid_read_ahead_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions(read_ahead_blocks=0)

    def test_both_forms_rejected(self, dataset):
        # Settings travel in the options object only.
        with pytest.raises(TypeError, match="time_budget"):
            execute_query(
                dataset, ISO, QueryOptions(read_ahead_blocks=2), time_budget=1.0
            )
        with pytest.raises(TypeError, match="read_ahead_blocks"):
            execute_query(dataset, ISO, read_ahead_blocks=2)

    def test_unknown_kwarg_rejected(self, dataset):
        plan = dataset.tree.plan_query(ISO)
        with pytest.raises(TypeError, match="no_such_knob"):
            execute_query(dataset, ISO, no_such_knob=1)
        with pytest.raises(TypeError, match="no_such_knob"):
            execute_plan(dataset, plan, no_such_knob=1)

    def test_non_options_positional_rejected(self, dataset):
        plan = dataset.tree.plan_query(ISO)
        with pytest.raises(TypeError, match="QueryOptions"):
            execute_query(dataset, ISO, {"read_ahead_blocks": 2})
        with pytest.raises(TypeError, match="QueryOptions"):
            execute_plan(dataset, plan, {"read_ahead_blocks": 2})

    def test_options_by_name_or_position(self, dataset):
        opts = QueryOptions(read_ahead_blocks=2)
        a = execute_query(dataset, ISO, opts)
        b = execute_query(dataset, ISO, options=opts)
        assert a.n_active == b.n_active > 0
        assert a.io_stats.blocks_read == b.io_stats.blocks_read


class TestExtractRequest:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExtractRequest().render = True

    def test_both_forms_rejected(self, volume):
        cluster = SimulatedCluster(volume, p=2, metacell_shape=(5, 5, 5))
        # Settings travel in the request object only.
        with pytest.raises(TypeError, match="keep_meshes"):
            cluster.extract(ISO, ExtractRequest(render=True), keep_meshes=True)
        with pytest.raises(TypeError, match="render"):
            cluster.extract(ISO, render=True)

    def test_unknown_kwarg_rejected(self, volume):
        cluster = SimulatedCluster(volume, p=2, metacell_shape=(5, 5, 5))
        with pytest.raises(TypeError, match="no_such_knob"):
            cluster.extract(ISO, no_such_knob=True)
        with pytest.raises(TypeError, match="no_such_knob"):
            cluster.sweep([ISO], no_such_knob=True)

    def test_non_request_positional_rejected(self, volume):
        cluster = SimulatedCluster(volume, p=2, metacell_shape=(5, 5, 5))
        with pytest.raises(TypeError, match="ExtractRequest"):
            cluster.extract(ISO, {"render": True})
        with pytest.raises(TypeError, match="ExtractRequest"):
            cluster.sweep([ISO], {"render": True})

    def test_replace_derives_variants(self):
        base = ExtractRequest(render=True)
        derived = dataclasses.replace(base, hedge=True)
        assert derived.render and derived.hedge
        assert base.hedge is None
