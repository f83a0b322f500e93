"""Tests for the vectorized verification kernels vs the scalar referee."""

import numbers
import random

import pytest

from repro.core import embed_cycle_load1
from repro.core.cycle_multicopy import graycode_cycle_embedding
from repro.core.embedding import Embedding, MultiPathEmbedding
from repro.core.fast_verify import embedding_csr
from repro.hypercube.graph import Hypercube
from repro.networks.base import ExplicitGraph
from repro.qa import default_space, verification_differential

# mirror of tests/test_qa.py's SMALL_POINTS: one point per construction kind
PARITY_POINTS = [
    ("cycle", {"n": 4}),
    ("cycle2", {"n": 4, "wide": True}),
    ("grid", {"dims": [4, 4], "torus": True}),
    ("ccc", {"n": 2}),
    ("tree", {"m": 2}),
    ("large-cycle", {"n": 2}),
    ("graycode", {"n": 3}),
    ("cycle-multicopy", {"n": 3}),
    ("butterfly-multicopy", {"m": 2, "undirected": True}),
    ("butterfly-multipath", {"m": 2}),
    ("grid-multicopy", {"dims": [4]}),
    ("cbt-multicopy", {"m": 2}),
    ("arbitrary-tree", {"vertices": 9, "tree_seed": 5, "m": 2}),
    ("cross-product", {"m": 2}),
]


def _signature(report):
    return (
        tuple((c.name, c.passed) for c in report.checks),
        tuple(sorted(report.metrics.items())),
    )


class TestPassingParity:
    @pytest.mark.parametrize("kind,params", PARITY_POINTS)
    def test_fast_matches_reference(self, kind, params):
        emb = default_space().get(kind).build(dict(params))
        fast = emb.verify(strict=False)
        reference = emb.verify_reference(strict=False)
        assert fast.ok and reference.ok
        assert _signature(fast) == _signature(reference)
        # deterministic passing reports match detail-for-detail too
        assert [c.detail for c in fast.checks] == [
            c.detail for c in reference.checks
        ]

    @pytest.mark.parametrize("kind,params", PARITY_POINTS)
    def test_referee_helper_agrees(self, kind, params):
        emb = default_space().get(kind).build(dict(params))
        checks = verification_differential(emb)
        assert checks, "every embedding style exposes verify_reference"
        for check in checks:
            assert check.passed, (kind, check.name, check.detail)

    def test_metrics_are_plain_ints(self):
        # json-serializability: no numpy scalars may leak out of the kernels
        report = embed_cycle_load1(6).verify(strict=False)
        for key, value in report.metrics.items():
            assert isinstance(value, numbers.Real), (key, type(value))
            assert not type(value).__module__.startswith("numpy"), key


class TestFailureParity:
    """Sabotaged embeddings: both engines must fail the same check."""

    def _pair(self, emb):
        fast = emb.verify(strict=False)
        reference = emb.verify_reference(strict=False)
        assert not fast.ok and not reference.ok
        assert [(c.name, c.passed) for c in fast.checks] == [
            (c.name, c.passed) for c in reference.checks
        ]
        return fast, reference

    def test_multipath_wrong_endpoint(self):
        emb = embed_cycle_load1(4)
        edge, paths = next(iter(emb.edge_paths.items()))
        bad = (paths[0][:-1] + (paths[0][-1] ^ 1,),) + tuple(paths[1:])
        emb.edge_paths[edge] = bad
        fast, reference = self._pair(emb)
        assert fast.failures[0].detail == reference.failures[0].detail

    def test_multipath_non_edge_hop(self):
        emb = embed_cycle_load1(4)
        edge, paths = next(iter(emb.edge_paths.items()))
        two_hop = next(p for p in paths if len(p) >= 3)
        # 3-bit jump mid-path: not a hypercube edge
        broken = (two_hop[0], two_hop[0] ^ 7, two_hop[-1])
        emb.edge_paths[edge] = (broken,) + tuple(
            p for p in paths if p is not two_hop
        )
        fast, reference = self._pair(emb)
        assert "hypercube edge" in fast.failures[0].detail
        assert fast.failures[0].detail == reference.failures[0].detail

    def test_multipath_negative_last_node(self):
        # a sink's negative image reaches the hops as a tail only
        from repro.networks.cycle import DirectedPath

        emb = MultiPathEmbedding(
            Hypercube(2), DirectedPath(2), {0: 0, 1: -1}, {(0, 1): ((0, -1),)}
        )
        fast, reference = self._pair(emb)
        assert fast.failures[0].detail == reference.failures[0].detail
        assert fast.failures[0].detail == "path node out of host range"

    def test_multipath_duplicate_edge_in_bundle(self):
        emb = embed_cycle_load1(4)
        edge, paths = next(iter(emb.edge_paths.items()))
        dup = next(p for p in paths if len(p) >= 2)
        emb.edge_paths[edge] = tuple(paths) + (dup,)
        fast, reference = self._pair(emb)
        assert fast.failures[0].name == "edge-disjoint"
        assert fast.failures[0].detail == reference.failures[0].detail

    def test_multipath_node_out_of_range(self):
        emb = embed_cycle_load1(4)
        edge, paths = next(iter(emb.edge_paths.items()))
        big = 1 << emb.host.n
        # endpoints stay correct; an interior node escapes the host range
        emb.edge_paths[edge] = (
            (paths[0][0], big, paths[0][-1]),
        ) + tuple(paths[1:])
        fast, reference = self._pair(emb)
        assert "out of host range" in fast.failures[0].detail

    def test_strict_raises_in_both(self):
        emb = embed_cycle_load1(4)
        edge, paths = next(iter(emb.edge_paths.items()))
        emb.edge_paths[edge] = tuple(paths) + (paths[0],)
        with pytest.raises(AssertionError):
            emb.verify(strict=True)
        with pytest.raises(AssertionError):
            emb.verify_reference(strict=True)

    def test_empty_path_raises_like_scalar_indexing(self):
        emb = embed_cycle_load1(4)
        edge = next(iter(emb.edge_paths))
        emb.edge_paths[edge] = ((),)
        with pytest.raises(IndexError):
            emb.verify(strict=False)
        with pytest.raises(IndexError):
            emb.verify_reference(strict=False)

    def test_classical_embedding_bad_path(self):
        from repro.core.cycle_multicopy import graycode_cycle_embedding

        emb = graycode_cycle_embedding(4)
        edge, path = next(iter(emb.edge_paths.items()))
        emb.edge_paths[edge] = path[:-1] + (path[-1] ^ 3,)
        fast = emb.verify(strict=False)
        reference = emb.verify_reference(strict=False)
        assert not fast.ok and not reference.ok
        assert fast.failures[0].name == reference.failures[0].name


EMBEDDING_KINDS = [
    kind for kind in default_space().kinds() if not kind.startswith("scenario:")
]


def _full(report):
    return (
        [(c.name, c.passed, c.detail) for c in report.checks],
        sorted(report.metrics.items()),
    )


def _both(emb):
    """The report without and with the embedding's own CSR, which must agree."""
    plain = emb.verify(strict=False)
    assert _full(emb.verify(strict=False, csr=embedding_csr(emb))) == _full(plain)
    return _full(plain)


OK_MULTIPATH = [
    ("vertex-map", True, ""),
    ("load", True, "load 1 <= 1"),
    ("edge-paths", True, ""),
    ("hops-are-edges", True, ""),
    ("edge-disjoint", True, ""),
]
OK_CLASSICAL = OK_MULTIPATH[:-1]


class TestCsrParity:
    """``verify(csr=...)`` reads the export's arrays and reports the same."""

    @pytest.mark.parametrize("kind", EMBEDDING_KINDS)
    def test_every_kind(self, kind):
        construction = default_space().get(kind)
        emb = construction.build(construction.sample(random.Random(29)))
        checks, _ = _both(emb)
        assert all(passed for _, passed, _ in checks), kind

    def test_foreign_csr_rejected(self):
        with pytest.raises(ValueError, match="own export"):
            embed_cycle_load1(4).verify(csr=embedding_csr(embed_cycle_load1(5)))

    # the pinned reports below are what verify() returned before it read
    # the export's arrays

    def test_extra_key_is_unchecked_and_unmeasured(self):
        emb = embed_cycle_load1(4)
        emb.edge_paths[(100, 101)] = ((0, 1, 3, 7, 15, 14),)
        assert _both(emb) == (
            OK_MULTIPATH,
            sorted({"width": 3, "load": 1, "max_load_allowed": 1,
                    "expansion": 1.0, "dilation": 3, "congestion": 3}.items()),
        )

    def test_extra_key_classical_metrics_follow_properties(self):
        emb = graycode_cycle_embedding(3)
        emb.edge_paths[(100, 101)] = (0, 1, 3, 7, 6)
        assert _both(emb) == (
            OK_CLASSICAL,
            sorted({"load": 1, "max_load_allowed": 1, "dilation": 4,
                    "congestion": 2, "expansion": 1.0}.items()),
        )

    def test_reversed_only_edge_is_missing(self):
        emb = embed_cycle_load1(4)
        paths = emb.edge_paths.pop((0, 1))
        emb.edge_paths[(1, 0)] = tuple(tuple(reversed(p)) for p in paths)
        assert _both(emb) == (
            OK_MULTIPATH[:2] + [("edge-paths", False, "guest edge (0, 1) has no paths")],
            [],
        )
        emb = graycode_cycle_embedding(3)
        path = emb.edge_paths.pop((2, 3))
        emb.edge_paths[(3, 2)] = tuple(reversed(path))
        assert _both(emb) == (
            OK_CLASSICAL[:2] + [("edge-paths", False, "guest edge (2, 3) has no path")],
            [],
        )

    def test_empty_path_raises_index_error(self):
        for emb in (embed_cycle_load1(4), graycode_cycle_embedding(3)):
            edge = list(emb.edge_paths)[2]
            emb.edge_paths[edge] = ((),) if isinstance(emb, MultiPathEmbedding) else ()
            csr = embedding_csr(emb)
            with pytest.raises(IndexError):
                emb.verify(strict=False)
            with pytest.raises(IndexError):
                emb.verify(strict=False, csr=csr)

    def test_string_vertices_verify_without_packing(self):
        names = [f"v{i}" for i in range(8)]
        order = (0, 1, 3, 2, 6, 7, 5, 4)  # Gray code: one bit per step
        guest = ExplicitGraph(names, [(names[i], names[(i + 1) % 8]) for i in range(8)])
        vertex_map = {name: order[i] for i, name in enumerate(names)}
        edge_paths = {
            (u, v): (vertex_map[u], vertex_map[v]) for u, v in guest.edges()
        }
        emb = Embedding(Hypercube(3), guest, vertex_map, edge_paths)
        assert _full(emb.verify(strict=False)) == (
            OK_CLASSICAL,
            sorted({"load": 1, "max_load_allowed": 1, "dilation": 1,
                    "congestion": 1, "expansion": 1.0}.items()),
        )
        with pytest.raises(ValueError):
            embedding_csr(emb)  # serving needs packable vertices; verify does not


def _carried_bundles(emb):
    """An array-built embedding's paths as node lists, bundle by bundle
    (read from its carried arrays, not its dicts)."""
    layout = emb.carried.layout
    flat = layout.nodes.tolist()
    offsets, bounds = layout.path_offsets.tolist(), layout.bundle_offsets.tolist()
    paths = [flat[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    return [paths[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _carrying(emb, bundles, images, edge_uv=None):
    """A fresh unread embedding like ``emb`` carrying the given arrays."""
    import dataclasses

    import numpy as np

    from repro.core.embedding import PathArrays
    from repro.hypercube.pathcode import flatten_paths
    from repro.networks.base import PackedEdges

    arrays = emb.carried
    paths = [p for bundle in bundles for p in bundle]
    nodes, path_offsets = flatten_paths(paths)
    edges = arrays.layout.edges
    if edge_uv is not None:
        edges = PackedEdges(edge_uv, edges.radix)
    layout = dataclasses.replace(
        arrays.layout,
        edges=edges,
        nodes=nodes,
        path_offsets=path_offsets,
        bundle_offsets=np.cumsum([0] + [len(b) for b in bundles]),
        path_reversed=np.zeros(len(paths), dtype=np.uint8),
    )
    carried = PathArrays(
        np.asarray(images, dtype=np.int64),
        layout,
        arrays.step_patterns,
        np.zeros(len(paths), dtype=np.int8),
    )
    return MultiPathEmbedding.from_arrays(
        emb.host, emb.guest, carried, name=emb.name, load_allowed=emb.load_allowed
    )


def _two_bit_hop(bundles, images):
    bundles[0][0][1] = bundles[0][0][0] ^ 0b11


def _wrong_endpoint(bundles, images):
    bundles[1][0][-1] ^= 1


def _duplicate_path(bundles, images):
    bundles[2].append(list(bundles[2][0]))


def _shared_image(bundles, images):
    images[-1] = images[0]


def _negative_image(bundles, images):
    images[0] = -1


def _out_of_range_node(bundles, images):
    bundles[0][-1][-1:] = [1 << 30, bundles[0][-1][-1]]


def _empty_path(bundles, images):
    bundles[3][0] = []


CORRUPTIONS = [
    _two_bit_hop, _wrong_endpoint, _duplicate_path, _shared_image,
    _negative_image, _out_of_range_node,
]
ARRAY_BUILT = [
    ("cycle", {"n": 4}),
    ("cycle2", {"n": 5, "wide": False}),
    ("grid", {"dims": [4, 4], "torus": True}),
    ("grid", {"dims": [5, 9], "torus": False}),
]


class TestCarriedArrays:
    """Corrupted carried arrays verify exactly as their materialized dicts."""

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kind,params", ARRAY_BUILT)
    def test_report_matches_reference_on_materialized_copy(self, kind, params, corrupt):
        import copy

        base = default_space().get(kind).build(dict(params))
        bundles, images = _carried_bundles(base), base.carried.images.tolist()
        corrupt(bundles, images)
        emb = _carrying(base, bundles, images)
        twin = copy.deepcopy(emb)
        fast = emb.verify(strict=False)
        assert emb.carried is not None  # checked on the arrays
        reference = emb.verify_reference(strict=False)  # builds the dicts
        assert emb.carried is None
        assert not fast.ok
        assert fast.checks == reference.checks
        assert fast.metrics == reference.metrics
        with pytest.raises(AssertionError) as fast_err:
            twin.verify()
        assert twin.carried is not None
        with pytest.raises(AssertionError) as ref_err:
            twin.verify_reference()
        assert str(fast_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("kind,params", ARRAY_BUILT)
    def test_empty_path_raises_like_reference(self, kind, params):
        base = default_space().get(kind).build(dict(params))
        bundles, images = _carried_bundles(base), base.carried.images.tolist()
        _empty_path(bundles, images)
        emb = _carrying(base, bundles, images)
        with pytest.raises(IndexError) as fast_err:
            emb.verify(strict=False)
        with pytest.raises(IndexError) as ref_err:
            emb.verify_reference(strict=False)
        assert str(fast_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("kind,params", ARRAY_BUILT)
    def test_foreign_edge_table_falls_back_to_dicts(self, kind, params):
        base = default_space().get(kind).build(dict(params))
        uv = base.carried.layout.edges.uv[::-1].copy()  # bundles out of guest order
        emb = _carrying(base, _carried_bundles(base), base.carried.images, uv)
        fast = emb.verify(strict=False)
        assert emb.carried is None  # read the dicts
        reference = emb.verify_reference(strict=False)
        assert (fast.checks, fast.metrics) == (reference.checks, reference.metrics)

    @pytest.mark.parametrize("kind,params", ARRAY_BUILT)
    def test_passing_report_matches_and_reads_no_dict(self, kind, params):
        emb = default_space().get(kind).build(dict(params))
        csr = embedding_csr(emb)
        fast, with_csr = emb.verify(strict=False), emb.verify(strict=False, csr=csr)
        assert emb.carried is not None
        reference = emb.verify_reference(strict=False)
        assert fast.ok and fast.checks == reference.checks == with_csr.checks
        assert fast.metrics == reference.metrics == with_csr.metrics


def _carrying_embedding(emb, paths, images):
    """A fresh unread large cycle like ``emb`` carrying the given paths
    (one per guest edge) and vertex images."""
    import dataclasses

    import numpy as np

    from repro.core.embedding import PathArrays
    from repro.hypercube.pathcode import flatten_paths

    nodes, path_offsets = flatten_paths(paths)
    layout = dataclasses.replace(emb.carried.layout, nodes=nodes, path_offsets=path_offsets)
    carried = PathArrays(np.asarray(images, dtype=np.int64), layout)
    return Embedding.from_arrays(emb.host, emb.guest, carried, name=emb.name)


def _off_edge_hop(paths, images):
    paths[1][1:1] = [paths[1][0] ^ 0b11]  # endpoints kept, first hop no edge


def _wrong_end(paths, images):
    paths[2][-1] ^= 1


def _image_out_of_range(paths, images):
    images[5] = 1 << 30


def _overloaded_node(paths, images):
    images[1] = images[0]  # one node holds n + 1 guest vertices


EMBEDDING_CORRUPTIONS = {
    _off_edge_hop: "hops-are-edges",
    _wrong_end: "edge-paths",
    _image_out_of_range: "vertex-map",
    _overloaded_node: "load",
}


class TestCarriedEmbedding:
    """An array-built :class:`Embedding` (Corollary 3's large cycle)
    verifies on its arrays exactly as its materialized dicts do."""

    @pytest.mark.parametrize(
        "corrupt", list(EMBEDDING_CORRUPTIONS), ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("n", [4, 6])
    def test_report_matches_reference_on_materialized_copy(self, n, corrupt):
        import copy

        from repro.core.large_copy import large_cycle_embedding

        base = large_cycle_embedding(n)
        paths = [bundle[0] for bundle in _carried_bundles(base)]
        images = base.carried.images.tolist()
        corrupt(paths, images)
        emb = _carrying_embedding(base, paths, images)
        twin = copy.deepcopy(emb)
        fast = emb.verify(strict=False)
        assert emb.carried is not None  # checked on the arrays
        reference = emb.verify_reference(strict=False)  # builds the dicts
        assert emb.carried is None
        assert [c.name for c in fast.failures] == [EMBEDDING_CORRUPTIONS[corrupt]]
        assert fast.checks == reference.checks
        assert fast.metrics == reference.metrics
        with pytest.raises(AssertionError) as fast_err:
            twin.verify()
        assert twin.carried is not None
        with pytest.raises(AssertionError) as ref_err:
            twin.verify_reference()
        assert str(fast_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_passing_report_matches_and_reads_no_dict(self, n):
        from repro.core.large_copy import large_cycle_embedding

        emb = large_cycle_embedding(n)
        csr = embedding_csr(emb)
        fast, with_csr = emb.verify(strict=False), emb.verify(strict=False, csr=csr)
        assert emb.carried is not None
        reference = emb.verify_reference(strict=False)
        assert fast.ok and fast.checks == reference.checks == with_csr.checks
        assert fast.metrics == reference.metrics == with_csr.metrics

    def test_foreign_edge_table_falls_back_to_dicts(self):
        import dataclasses

        from repro.core.embedding import PathArrays
        from repro.core.large_copy import large_cycle_embedding
        from repro.networks.base import PackedEdges

        base = large_cycle_embedding(4)
        layout = base.carried.layout
        foreign = dataclasses.replace(
            layout, edges=PackedEdges(layout.edges.uv[::-1].copy())
        )
        emb = Embedding.from_arrays(
            base.host, base.guest, PathArrays(base.carried.images, foreign),
            name=base.name,
        )
        fast = emb.verify(strict=False)
        assert emb.carried is None  # read the dicts
        reference = emb.verify_reference(strict=False)
        assert (fast.checks, fast.metrics) == (reference.checks, reference.metrics)

    def test_from_arrays_takes_one_path_per_edge_and_known_fields(self):
        import dataclasses

        import numpy as np

        from repro.core.large_copy import large_cycle_embedding

        base = large_cycle_embedding(2)
        arrays = base.carried
        bounds = arrays.layout.bundle_offsets.copy()
        bounds[1:-1] = bounds[2:]  # bundle 0 holds two paths, the last none
        wide = dataclasses.replace(
            arrays, layout=dataclasses.replace(arrays.layout, bundle_offsets=bounds)
        )
        with pytest.raises(ValueError, match="one path per guest edge"):
            Embedding.from_arrays(base.host, base.guest, wide)
        with pytest.raises(TypeError, match="load_allowed"):
            Embedding.from_arrays(base.host, base.guest, arrays, load_allowed=2)
        emb = Embedding.from_arrays(base.host, base.guest, arrays)
        assert emb.name == "" and np.array_equal(emb.carried.images, arrays.images)


METRIC_BUILDS = [
    ("cycle", {"n": 6}),
    ("cycle2", {"n": 6, "wide": False}),
    ("grid", {"dims": [8, 8], "torus": True}),
    ("large-cycle", {"n": 6}),
]


class TestCarriedMetrics:
    """The metric properties and ``repr`` of an unread array-built
    embedding read its arrays and build no dict."""

    @pytest.mark.parametrize("kind,params", METRIC_BUILDS)
    def test_metrics_and_repr_match_the_materialized_embedding(self, kind, params):
        import copy

        emb = default_space().get(kind).build(dict(params))
        read = copy.deepcopy(emb)
        assert read.edge_paths  # builds the twin's dicts
        assert read.carried is None
        names = ["load", "dilation", "congestion"]
        if isinstance(emb, MultiPathEmbedding):
            names.append("width")
        for name in names:
            assert getattr(emb, name) == getattr(read, name), name
        assert repr(emb) == repr(read)
        assert emb.carried is not None

    @pytest.mark.parametrize("kind,params", METRIC_BUILDS)
    def test_congestion_of_a_non_edge_raises_as_the_dicts_do(self, kind, params):
        import dataclasses

        base = default_space().get(kind).build(dict(params))
        layout = base.carried.layout
        nodes = layout.nodes.copy()
        nodes[1] = nodes[0] ^ 0b11  # the first path's first hop is no edge
        emb = type(base).from_arrays(
            base.host, base.guest,
            dataclasses.replace(
                base.carried, layout=dataclasses.replace(layout, nodes=nodes)
            ),
        )
        with pytest.raises(ValueError) as fast_err:
            emb.congestion
        assert emb.carried is not None
        with pytest.raises(ValueError) as dict_err:
            emb.edge_congestion_counts()
        assert emb.carried is None
        assert str(fast_err.value) == str(dict_err.value)
