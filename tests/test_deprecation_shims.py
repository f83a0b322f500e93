"""The deprecated pre-obs APIs: still working, warning exactly once per use.

This is the only test module that intentionally exercises the shims; the
CI deprecation gate runs the rest of the suite with
``-W error::repro._compat.ReproDeprecationWarning`` and excludes this file.
"""

import warnings

import pytest

from repro._compat import ReproDeprecationWarning
from repro.hypercube.graph import Hypercube
from repro.routing.simulator import StoreForwardSimulator


def _assert_one_warning(record):
    assert len(record) == 1, [str(w.message) for w in record]


class TestLegacySimulatorShim:
    def test_store_forward_inject_run_still_works(self):
        sim = StoreForwardSimulator(Hypercube(3))
        sim.inject([0, 1, 3])
        sim.inject([0, 1])
        with pytest.warns(ReproDeprecationWarning) as record:
            assert sim.run() == 2
        _assert_one_warning(record)

    def test_bare_int_positional_is_max_steps(self):
        sim = StoreForwardSimulator(Hypercube(3))
        sim.inject([0, 1])
        with pytest.warns(ReproDeprecationWarning):
            with pytest.raises(RuntimeError):
                sim.run(0)

    def test_schedule_mode_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            res = StoreForwardSimulator(Hypercube(3)).run([[0, 1]])
        assert res.makespan == 1

    def test_category_is_a_deprecation_warning(self):
        assert issubclass(ReproDeprecationWarning, DeprecationWarning)


class TestRoutingShims:
    def _service(self, tmp_path):
        from repro.service import EmbeddingRegistry, EmbeddingSpec, RoutingService

        svc = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        return svc, EmbeddingSpec.make("cycle", n=6)

    def test_route_bare_tuple_warns_and_returns_bare_paths(self, tmp_path):
        from repro.service import RouteRequest

        svc, spec = self._service(tmp_path)
        with pytest.warns(ReproDeprecationWarning) as record:
            paths = svc.route(spec, (0, 1))
        _assert_one_warning(record)
        assert isinstance(paths, tuple)  # pre-redesign bare shape
        # field-identical to the redesigned response
        assert paths == svc.route(spec, RouteRequest((0, 1))).paths

    def test_route_request_form_does_not_warn(self, tmp_path):
        from repro.service import RouteRequest

        svc, spec = self._service(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            response = svc.route(spec, RouteRequest((0, 1)))
            batch = svc.route_batch(spec, [(0, 1), RouteRequest((1, 2))])
        assert response.paths == batch.paths(0)

    def test_route_fault_tolerant_positional_form_warns(self, tmp_path):
        svc, spec = self._service(tmp_path)
        with pytest.warns(ReproDeprecationWarning) as record:
            out = svc.route_fault_tolerant(spec, (0, 1), b"legacy payload")
        _assert_one_warning(record)
        assert out.delivered and out.message == b"legacy payload"

    def test_route_fault_tolerant_request_form_does_not_warn(self, tmp_path):
        from repro.service import RouteRequest

        svc, spec = self._service(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            out = svc.route_fault_tolerant(
                spec, RouteRequest((0, 1), message=b"new world")
            )
        assert out.delivered and out.message == b"new world"


class TestFaultSetAlias:
    def test_attribute_access_warns_and_forwards(self):
        import repro.service

        from repro.fault.faults import FaultModel

        with pytest.warns(ReproDeprecationWarning) as record:
            alias = repro.service.api.FaultSet
        _assert_one_warning(record)
        assert alias is FaultModel

    def test_from_import_warns(self):
        # CPython's from-import probes the module attribute twice
        # (hasattr then getattr), so this form may warn more than once;
        # what matters is that it warns at all and forwards correctly
        from repro.fault.faults import FaultModel

        with pytest.warns(ReproDeprecationWarning):
            from repro.service import FaultSet  # noqa: F401 - the shim under test
        assert FaultSet is FaultModel

    def test_alias_still_builds_a_working_model(self):
        with pytest.warns(ReproDeprecationWarning):
            from repro.service import FaultSet

        model = FaultSet(Hypercube(3), {0})
        assert model.hop_dead(0) and not model.hop_dead(1)

    def test_other_missing_attributes_still_raise(self):
        import repro.service

        with pytest.raises(AttributeError):
            repro.service.NoSuchThing
        with pytest.raises(AttributeError):
            repro.service.api.NoSuchThing


class TestServiceMetricsShim:
    def test_constructing_warns_once(self):
        from repro.service.metrics import ServiceMetrics

        with pytest.warns(ReproDeprecationWarning) as record:
            metrics = ServiceMetrics()
        _assert_one_warning(record)
        metrics.incr("hits")
        assert metrics.count("hits") == 1

    def test_legacy_snapshot_shape(self):
        from repro.service.metrics import ServiceMetrics

        with pytest.warns(ReproDeprecationWarning):
            metrics = ServiceMetrics()
        with metrics.time("build"):
            pass
        snap = metrics.snapshot()
        assert set(snap) == {"counters", "timers"}
        assert snap["timers"]["build"]["count"] == 1

    def test_reset_keeps_legacy_empty_shape(self):
        from repro.service.metrics import ServiceMetrics

        with pytest.warns(ReproDeprecationWarning):
            metrics = ServiceMetrics()
        metrics.incr("x")
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "timers": {}}
