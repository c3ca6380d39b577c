"""Determinism, stream addressing, and distributional checks for the
generators. Statistical assertions use 5-standard-error tolerances."""

import tracemalloc

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcheb import (
    Covariance,
    DomainError,
    SamplerSpec,
    UsageError,
    draw,
    draw_range,
    example_covariance,
    gaussian_spec,
    paper_example_spec,
    quad_form,
    spec_from_dict,
    spec_to_dict,
    tight_radial_spec,
    true_moments,
)
from mvcheb import sampler
from mvcheb.sampler import chunk_size


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown sampler kind"):
            spec_from_dict({"kind": "cauchy", "seed": 0})

    def test_missing_fields(self):
        with pytest.raises(UsageError, match="paper_example spec needs sigma and k"):
            spec_from_dict({"kind": "paper_example", "sigma": 1.0})

    def test_bad_seed(self):
        for seed, match in [
            (-1, "seed must be a 64-bit"),
            (2**64, "seed must be a 64-bit"),
            (1.7, "seed must be an integer"),
            (True, "seed must be an integer"),
            ("3", "seed must be an integer"),
        ]:
            with pytest.raises(UsageError, match=match):
                paper_example_spec(1.0, 25.0, seed=seed)
            with pytest.raises(UsageError, match=match):
                gaussian_spec([0.0], Covariance.from_matrix([[1.0]]), seed=seed)

    BAD_SCALAR_FIELDS = [
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": 1.7}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": "x"}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "seed": True}, "seed must be an integer"),
        ({"kind": "paper_example", "sigma": "abc", "k": 25.0}, "sigma must be a number"),
        ({"kind": "paper_example", "sigma": None, "k": 25.0}, "paper_example spec needs sigma and k"),
        ({"kind": "paper_example", "sigma": 1.0, "k": float("nan")}, "k must be positive and finite"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": 2.5}, "dim must be a positive integer"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": -1}, "dim must be a positive integer"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": 0}, "dim must be a positive integer"),
        ({"kind": "paper_example", "sigma": 10**400, "k": 25.0}, "sigma must be a number"),
        ({"kind": "paper_example", "sigma": 1.0, "k": 25.0, "colour": "red"}, "unknown spec field colour"),
        ({"kind": "gaussian", "mean": [0.0], "cov": [[1.0]], "dim": 1}, "unknown spec field dim"),
        ({"kind": "tight_radial", "eps": 8.0, "dim": True}, "dim must be a positive integer"),
    ]

    @pytest.mark.parametrize(
        "data, match", BAD_SCALAR_FIELDS, ids=[f"data{i}" for i in range(len(BAD_SCALAR_FIELDS))]
    )
    def test_bad_scalar_fields(self, data, match):
        with pytest.raises(UsageError, match=match):
            spec_from_dict(data)

    def test_tight_radial_eps_floor(self):
        with pytest.raises(UsageError, match="needs eps >= dim"):
            tight_radial_spec(1.5, dim=2)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 1.79769313e308])
    def test_tight_radial_eps_finite(self, eps):
        with pytest.raises(UsageError, match="and eps finite"):
            tight_radial_spec(eps, dim=2)

    @pytest.mark.parametrize("dim", [-1, 0, 2.5, float("nan"), float("inf")])
    def test_tight_radial_dim_must_be_positive(self, dim):
        with pytest.raises(UsageError, match="dim must be a positive integer"):
            tight_radial_spec(8.0, dim=dim)

    def test_tight_radial_dim_must_match_cov(self):
        with pytest.raises(DomainError, match="dim 3 does not match the 2-dimensional cov"):
            tight_radial_spec(8.0, dim=3, cov=Covariance(np.eye(2)))
        assert tight_radial_spec(8.0, dim=2, cov=Covariance(np.eye(2))).dim == 2

    EYE2 = Covariance.from_matrix(np.eye(2))
    BAD_FIELDS = {
        "unknown_kind": (dict(kind="cauchy"), "unknown sampler kind"),
        "gaussian_without_cov": (dict(kind="gaussian", mean=[0.0]), "needs mean and cov"),
        "zero_sigma": (dict(kind="paper_example", sigma=0.0, k=1.0), "sigma must be positive"),
        "nan_k": (dict(kind="paper_example", sigma=1.0, k=float("nan")), "k must be positive"),
        "inf_sigma": (dict(kind="paper_example", sigma=float("inf"), k=1.0), "sigma must be positive"),
        "eps_below_dim": (dict(kind="tight_radial", mean=[0, 0], cov=EYE2, eps=1.5), "eps >= dim"),
        "negative_seed": (dict(kind="paper_example", sigma=1.0, k=1.0, seed=-1), "seed must be"),
        "cov_not_a_covariance": (dict(kind="gaussian", mean=[0, 0], cov=np.eye(2)), "a Covariance"),
        "paper_example_with_mean": (
            dict(kind="paper_example", sigma=1.0, k=25.0, mean=[5.0, 5.0]),
            "paper_example spec does not read mean",
        ),
        "gaussian_with_eps": (
            dict(kind="gaussian", mean=[0, 0], cov=EYE2, eps=-5.0),
            "gaussian spec does not read eps",
        ),
        "tight_radial_with_sigma_and_k": (
            dict(kind="tight_radial", mean=[0, 0], cov=EYE2, eps=8.0, sigma=1.0, k=2.0),
            "tight_radial spec does not read sigma, k",
        ),
    }

    @pytest.mark.parametrize("fields, match", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_direct_construction_is_checked(self, fields, match):
        with pytest.raises(UsageError, match=match) as direct:
            SamplerSpec(**fields)
        if isinstance(fields.get("cov"), np.ndarray):
            return  # JSON cov is always read as a Covariance, so it cannot be a bare array
        # the same fields as JSON, cov given as a list, meet the same rule
        data = {k: v.entries.tolist() if k == "cov" else v for k, v in fields.items()}
        with pytest.raises(UsageError) as from_json:
            spec_from_dict(data)
        assert type(from_json.value) is type(direct.value)
        assert str(from_json.value) == str(direct.value)

    @pytest.mark.parametrize("sigma, k", [(1e200, 1.0), (1e150, 1e10)])
    def test_paper_example_beyond_float_range_refused_when_built(self, sigma, k):
        with pytest.raises(DomainError):
            paper_example_spec(sigma, k)

    def test_mean_is_a_read_only_copy(self):
        mean = np.array([1.0, 2.0])
        cov = Covariance.from_matrix(np.eye(2))
        for spec in (
            SamplerSpec(kind="gaussian", mean=mean, cov=cov),
            gaussian_spec(mean, cov),
            tight_radial_spec(8.0, mean=mean, cov=cov),
        ):
            with pytest.raises(ValueError):
                spec.mean[0] = 5.0
            mean[0] = 5.0  # the caller's array stays writable and the spec keeps its copy
            assert spec.mean[0] == 1.0
            mean[0] = 1.0

    def test_json_round_trip(self):
        specs = [
            paper_example_spec(1.0, 25.0, seed=42),
            gaussian_spec([1.0, -2.0], example_covariance(1.0, 25.0), seed=7),
            tight_radial_spec(8.0, dim=3, seed=9),
        ]
        for spec in specs:
            back = spec_from_dict(spec_to_dict(spec))
            assert np.array_equal(draw(spec, 16), draw(back, 16))

    def test_true_moments_paper_example(self):
        spec = paper_example_spec(2.0, 1.0)
        mean, cov = true_moments(spec)
        assert np.array_equal(mean, [0.0, 0.0])
        assert np.array_equal(cov.entries, [[4.0, 4.0], [4.0, 8.0]])
        # the spec holds its moments, checked when it was built
        assert cov is spec.cov and spec.dim == 2


# One spec of each kind, for the chunk edge and stream format tests.
CHUNK_EDGE_SPECS = {
    "paper_example": paper_example_spec(1.0, 25.0, seed=0),
    "gaussian": gaussian_spec([1.0, -2.0, 0.5], Covariance(np.diag([4.0, 1.0, 0.25])), seed=0),
    "tight_radial": tight_radial_spec(4.0, dim=2, seed=0),
}


class TestDraw:
    def test_bitwise_reproducible(self):
        spec = paper_example_spec(1.0, 25.0, seed=404)
        assert np.array_equal(draw(spec, 500), draw(spec, 500))

    def test_partition_invariance(self):
        # any split of the index range concatenates to the full draw
        for spec in (
            paper_example_spec(1.0, 25.0, seed=11),
            gaussian_spec(np.zeros(3), Covariance.from_matrix(np.eye(3)), seed=11),
            tight_radial_spec(8.0, dim=2, seed=11),
        ):
            full = draw(spec, 1000)
            for cuts in ([0, 1000], [0, 1, 1000], [0, 250, 500, 750, 1000], [0, 333, 998, 1000]):
                parts = [draw_range(spec, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
                assert np.array_equal(np.vstack(parts), full)

    @pytest.mark.parametrize("spec", [paper_example_spec(1.0, 25.0, seed=3)] + [
        make(n) for n in (1, 2, 3, 64) for make in (
            lambda n: gaussian_spec(np.zeros(n), Covariance(np.eye(n) + 0.5), seed=3),
            lambda n: tight_radial_spec(2.0 * n, dim=n, seed=3),
        )
    ], ids=lambda s: f"{s.kind}-{s.dim}")
    def test_draws_are_column_major(self, spec):
        # part lengths that are no multiple of 8: BLAS can round the last rows
        # of a column-major matrix product otherwise than the row-major one
        size = chunk_size(spec)
        assert draw_range(spec, 0, 1).T.flags.c_contiguous
        bounds = [0, size - 1, 2 * size + 7]
        parts = [draw_range(spec, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        assert all(part.T.flags.c_contiguous for part in parts)
        assert np.array_equal(np.vstack(parts), draw(spec, 2 * size + 7))

    @pytest.mark.parametrize("spec", [
        gaussian_spec(np.zeros(64), Covariance(np.eye(64) + 0.5), seed=3),
        tight_radial_spec(128.0, mean=np.ones(64), cov=Covariance(np.eye(64) + 0.5), seed=3),
    ], ids=lambda s: s.kind)
    @pytest.mark.parametrize("tail", [1, 5, 100, 2047])
    def test_every_part_and_prefix_is_the_whole_draw(self, spec, tail):
        # at n=64 BLAS rounds a short product otherwise than a long one, so
        # every tile is multiplied by L^T whole, whatever range holds it; a
        # non-diagonal Sigma, since the identity multiplies exactly
        size = chunk_size(spec)
        total = 3 * size + tail
        full = draw(spec, total)
        tile = max(sampler._TILE_ROWS, sampler._TILE_ENTRIES // spec.dim)
        assert size % tile == 0 and size // tile > 2
        for cuts in ([0, size, 2 * size, 3 * size, total], [0, 2 * size, total], [0, 3 * size, total],
                     [0, size + 2 * tile, total],  # a part that ends at a tile edge inside a chunk
                     [0, 1, 5, size + 3, 2 * size - 1, total]):  # parts that end mid-tile
            parts = [draw_range(spec, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.vstack(parts).tobytes() == full.tobytes()
        for prefix in (1, 5, size + 3, 2 * size - 1):
            assert draw(spec, prefix).tobytes() == full[:prefix].tobytes()

    def test_stream_index_changes_samples(self):
        spec = paper_example_spec(1.0, 25.0, seed=11)
        assert not np.array_equal(draw(spec, 100, stream_index=0), draw(spec, 100, stream_index=1))

    def test_chunk_size(self, monkeypatch):
        # about 2^17 normals per chunk, whole samples, at least one
        assert chunk_size(paper_example_spec(1.0, 1.0)) == 65_536
        assert chunk_size(tight_radial_spec(4.0, dim=2)) == 65_536
        five = gaussian_spec(np.zeros(5), Covariance.from_matrix(np.eye(5)), seed=0)
        assert chunk_size(five) == 26_214
        monkeypatch.setattr(sampler, "_CHUNK_NORMALS", 4)
        assert chunk_size(five) == 1

    def test_partition_invariance_across_real_chunk_edges(self):
        for spec in CHUNK_EDGE_SPECS.values():
            size = chunk_size(spec)
            total = 2 * size + 7
            full = draw(spec, total)
            cuts = [0, size // 2, size + 3, 2 * size + 1, total]
            parts = [draw_range(spec, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(np.vstack(parts), full)
            assert np.array_equal(draw_range(spec, size - 2, size + 2), full[size - 2 : size + 2])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(sorted(CHUNK_EDGE_SPECS)), chunk_normals=st.integers(1, 24),
           tile_rows=st.integers(1, 5), data=st.data())
    def test_random_partitions_and_prefixes(self, kind, chunk_normals, tile_rows, data):
        # chunks and tiles of a few rows, so parts start and end inside chunks and
        # paper_example's fill block takes several tiles of a chunk
        spec = CHUNK_EDGE_SPECS[kind]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sampler, "_CHUNK_NORMALS", chunk_normals)
            m.setattr(sampler, "_TILE_ROWS", tile_rows)
            m.setattr(sampler, "_TILE_ENTRIES", 1)
            size = chunk_size(spec)
            total = data.draw(st.integers(1, 8 * size + 5), label="total")
            cuts = data.draw(st.lists(st.integers(0, total), max_size=6), label="cuts")
            bounds = [0, *sorted(cuts), total]
            full = draw(spec, total)
            parts = [draw_range(spec, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
            assert np.array_equal(np.vstack(parts), full)
            prefix = data.draw(st.integers(1, total), label="prefix")
            assert np.array_equal(draw(spec, prefix), full[:prefix])

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(kind=st.sampled_from(sampler.KINDS), n=st.integers(1, 6), data=st.data())
    def test_in_place_transform_matches_the_out_of_place_formula(self, kind, n, data):
        # the generators are stubbed to serve chosen normals (zero rows included)
        # and uniforms, which the former out-of-place formula turns into x; a
        # chunk of the served rows is one tile, drawn whole
        rows = data.draw(st.integers(1, 12), label="rows")
        n = 2 if kind == "paper_example" else n
        entry = st.one_of(st.just(0.0), st.floats(-40.0, 40.0))
        z = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                        min_size=rows, max_size=rows), label="z"))
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                        min_size=rows, max_size=rows), label="u"))
        a = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n),
                               label="a")).reshape(n, n)
        cov = Covariance.from_matrix(a @ a.T + np.eye(n))
        mean = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        spec = {
            "paper_example": lambda: paper_example_spec(
                data.draw(st.floats(1e-3, 1e3)), data.draw(st.floats(1e-3, 1e3))),
            "gaussian": lambda: gaussian_spec(mean, cov),
            "tight_radial": lambda: tight_radial_spec(
                data.draw(st.floats(float(n), 1e3)), mean=mean, cov=cov),
        }[kind]()

        class Served:
            def __init__(self, bit_generator):
                pass

            def standard_normal(self, out):
                out[...] = z

            def random(self, out):
                out[...] = u

        with pytest.MonkeyPatch.context() as m:
            m.setattr(sampler, "Generator", Served)
            m.setattr(sampler, "_CHUNK_NORMALS", rows * n)
            x = draw_range(spec, 0, rows)
        if kind == "paper_example":
            y = spec.sigma * z[:, 0]
            w = np.sqrt(spec.k) * spec.sigma * z[:, 1]
            expected = spec.mean + np.column_stack([y, y + w])
        elif kind == "gaussian":
            expected = spec.mean + z @ spec.cov.chol.T
        else:
            norms = np.linalg.norm(z, axis=1)
            direction = z / np.where(norms == 0.0, 1.0, norms)[:, None]
            direction[norms == 0.0] = np.eye(n)[0]
            radius = np.sqrt(spec.eps * sampler._SHELL_MARGIN) * (u < n / spec.eps)
            expected = spec.mean + radius[:, None] * (direction @ spec.cov.chol.T)
        assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start, stop, stream_index, match", [
        (0, 3, 1.5, "stream_index must be"),
        (0, 3, np.float64(1.9), "stream_index must be"),
        (0, 3, True, "stream_index must be"),
        (0.5, 3, 0, "bad index range"),
        (0, 3.0, 0, "bad index range"),
    ], ids=["float_stream", "numpy_float_stream", "bool_stream", "float_start", "float_stop"])
    def test_non_integer_indices_refused(self, start, stop, stream_index, match):
        # truncating 1.5 to stream 1 would give a plausible wrong draw
        with pytest.raises(UsageError, match=match):
            draw_range(paper_example_spec(1.0, 25.0), start, stop, stream_index=stream_index)

    @pytest.mark.parametrize("spec", [
        paper_example_spec(1.0, 25.0, seed=3),
        gaussian_spec(np.zeros(3), Covariance(np.eye(3) + 0.5), seed=3),
        tight_radial_spec(6.0, dim=3, seed=3),
    ], ids=lambda s: s.kind)
    def test_memory_does_not_grow_with_the_chunk_count(self, spec):
        # the result, plus a tile of normals, one of offsets and the image
        # z @ L^T (and tight_radial's per-row uniforms and norms), however many
        # chunks it spans, while a chunk is 16 tiles here
        size = chunk_size(spec)
        tile_bytes = max(sampler._TILE_ROWS, sampler._TILE_ENTRIES // spec.dim) * spec.dim * 8
        for k in (4, 16):
            tracemalloc.start()
            try:
                x = draw(spec, k * size + 7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - x.nbytes <= 6 * tile_bytes, (k, (peak - x.nbytes) / tile_bytes)
            del x

    def test_too_many_entries_refused_before_drawing(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(sampler, "Generator", no_generator)
        with pytest.raises(DomainError, match="more than one array can hold"):
            draw_range(paper_example_spec(1.0, 25.0), 0, 10**20)


# Stream format 3: the first rows of each kind at seed 0, streams 0 and 1.
# The gaussian's mean and power-of-two Cholesky factor and the elementwise
# paper_example transform are exact, so any change of the stream shows.
GOLDEN_ROWS = {
    ("paper_example", 0): [
        [-0.6739084659445024, 2.614354337299032],
        [-0.371815860727009, 2.0216823206223586],
        [-1.4758952988686023, -0.9516548819209855],
    ],
    ("paper_example", 1): [
        [-1.0821928140859856, -7.237631931297415],
        [-1.762391351083656, -7.402454724106303],
        [0.9126805589152116, -6.1344535916585246],
    ],
    ("gaussian", 0): [
        [-0.34781693188900475, -1.342347439351293, 0.3140920696364955],
        [1.957399272539747, -3.4758952988686023, 0.5524240416947617],
        [1.8571165143700585, -0.38108728519246005, 0.5414535901329453],
    ],
    ("gaussian", 1): [
        [-1.164385628171971, -3.231087823442286, -0.381195675541828],
        [-1.2560253492090587, -1.0873194410847884, -0.20471341505737362],
        [0.42117433363306955, -3.0522134029874053, 1.0536405565324087],
    ],
    ("tight_radial", 0): [
        [-1.4313718487116278, 1.3968445406400298],
        [-1.2268405198122034, 1.5795133361092342],
        [0.0, 0.0],
    ],
    ("tight_radial", 1): [
        [-1.3204548604306139, -1.5021314861107093],
        [0.0, 0.0],
        [1.0870889332460052, -1.6787607605653827],
    ],
}


@pytest.mark.parametrize("kind, stream", GOLDEN_ROWS, ids=[f"{k}-{s}" for k, s in GOLDEN_ROWS])
def test_golden_rows(kind, stream):
    x = draw(CHUNK_EDGE_SPECS[kind], 3, stream_index=stream)
    # the tight_radial direction goes through a norm, whose summation order
    # may differ by the last ulp between builds
    np.testing.assert_allclose(x, GOLDEN_ROWS[kind, stream], rtol=1e-15, atol=0.0)


def standard_normal_spec(seed):
    return gaussian_spec([0.0], Covariance.from_matrix([[1.0]]), seed=seed)


def chunk_generator(seed, stream, chunk, role):
    # the documented key of stream format 3: four little-endian uint64 as eight uint32
    words = np.array([seed, stream, chunk, role], dtype="<u8").view("<u4")
    return Generator(SFC64(SeedSequence(words)))


class TestStreamKeys:
    """Each (seed, stream, chunk, role) has its own generator. x = z exactly for
    a standard normal spec, whose mean is 0 and whose L is [[1.0]]."""

    def test_normals_are_read_under_the_documented_key(self):
        spec = standard_normal_spec(9)
        size = chunk_size(spec)
        x = draw_range(spec, 2 * size + 3, 2 * size + 1000, stream_index=4)[:, 0]
        assert np.array_equal(x, chunk_generator(9, 4, 2, 0).standard_normal(1000)[3:])

    def test_atoms_are_picked_under_role_1(self):
        spec = tight_radial_spec(4.0, dim=2, seed=9)
        size = chunk_size(spec)
        x = draw_range(spec, size, size + 1000, stream_index=4)
        shell = chunk_generator(9, 4, 1, 1).random(1000) < 2.0 / 4.0
        assert np.array_equal(np.any(x != 0.0, axis=1), shell)
        # the normals' generator, role 0, would pick other atoms
        assert not np.array_equal(chunk_generator(9, 4, 1, 0).random(1000) < 2.0 / 4.0, shell)
        z = chunk_generator(9, 4, 1, 0).standard_normal((1000, 2))
        directions = z[shell] / np.linalg.norm(z[shell], axis=1)[:, None]
        np.testing.assert_allclose(x[shell] / np.sqrt(4.0 * sampler._SHELL_MARGIN), directions, rtol=1e-14)

    def test_keys_do_not_collide(self):
        # keys given to SeedSequence as ints would: 2**32 takes two words and
        # short entropy is zero-padded, so (seed, stream, chunk) = (2**32, 5, 0)
        # hashes like (0, 1, 5), and (2**32, 5, 0, role) like (0, 5 * 2**32 + 1, 0, role)
        size = chunk_size(standard_normal_spec(0))
        a = draw_range(standard_normal_spec(2**32), 0, 64, stream_index=5)
        b = draw_range(standard_normal_spec(0), 5 * size, 5 * size + 64, stream_index=1)
        c = draw_range(standard_normal_spec(0), 0, 64, stream_index=5 * 2**32 + 1)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("neighbour", ["chunk", "stream"])
    def test_neighbours_are_uncorrelated(self, neighbour):
        spec = standard_normal_spec(31)
        m = chunk_size(spec)
        a = draw_range(spec, 3 * m, 4 * m, stream_index=7)[:, 0]
        b = (draw_range(spec, 4 * m, 5 * m, stream_index=7) if neighbour == "chunk"
             else draw_range(spec, 3 * m, 4 * m, stream_index=8))[:, 0]
        assert abs(float(np.corrcoef(a, b)[0, 1])) <= 5.0 / np.sqrt(m)

    @pytest.mark.parametrize("n", [9, 40, 64])
    def test_each_tile_is_its_chunks_normals_times_l_transpose(self, n):
        # on both sides of the layout crossover; the last tile of a chunk is
        # longer than the step at n=9 and n=40. z @ L^T written into a
        # column-major tile with out= rounds otherwise in some of these shapes
        a = np.random.default_rng(n).standard_normal((n, n))
        spec = gaussian_spec(np.zeros(n), Covariance(a @ a.T / n + 0.01 * np.eye(n)), seed=5)
        size, l_t = chunk_size(spec), spec.cov.chol.T
        for c in (0, 2):
            z = chunk_generator(5, 3, c, 0).standard_normal((size, n))
            tiles = [x.copy() for x in sampler.offset_tiles(spec, c * size, (c + 1) * size, 3)]
            los = np.cumsum([0, *map(len, tiles)])
            assert los[-1] == size and (n == 64 or len(tiles[-1]) > len(tiles[0]))
            for lo, hi, x in zip(los[:-1], los[1:], tiles):
                assert x.tobytes() == (z[lo:hi] @ l_t).tobytes()


class TestDistributions:
    def test_normal_moments(self):
        n = 1_000_000
        z = draw(standard_normal_spec(2718), n)[:, 0]
        assert abs(z.mean()) <= 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)
        assert abs((z <= 0).mean() - 0.5) <= 5.0 * 0.5 / np.sqrt(n)

    def test_stream_cross_correlation(self):
        n = 1_000_000
        spec = standard_normal_spec(31)
        a = draw(spec, n, stream_index=0)[:, 0]
        b = draw(spec, n, stream_index=1)[:, 0]
        r = float(np.corrcoef(a, b)[0, 1])
        assert abs(r) <= 5.0 / np.sqrt(n)

    def test_paper_example_moments(self):
        n = 100_000
        x = draw(paper_example_spec(1.0, 25.0, seed=1), n)
        target = np.array([[1.0, 1.0], [1.0, 26.0]])
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        emp = np.cov(x.T, ddof=1)
        assert np.all(np.abs(emp - target) <= 5.0 * se)

    def test_gaussian_matches_paper_example_distribution(self):
        # same moment checks pass for the explicit-covariance generator
        n = 100_000
        cov = example_covariance(1.0, 25.0)
        x = draw(gaussian_spec([0.0, 0.0], cov, seed=2), n)
        target = cov.entries
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(np.cov(x.T, ddof=1) - target) <= 5.0 * se)
        assert np.all(np.abs(x.mean(axis=0)) <= 5.0 * np.sqrt(np.diag(target) / n))

    def test_gaussian_diagonal_uncorrelated(self):
        n = 100_000
        cov = Covariance.from_matrix(np.diag([2.0, 5.0]))
        x = draw(gaussian_spec([0.0, 0.0], cov, seed=3), n)
        r = float(np.corrcoef(x.T)[0, 1])
        assert abs(r) <= 5.0 / np.sqrt(n)

    def test_tight_radial_tail_equality(self):
        n = 100_000
        spec = tight_radial_spec(8.0, dim=2, seed=4)
        x = draw(spec, n)
        mean, cov = true_moments(spec)
        d2 = quad_form(x - mean, cov.whitener)
        p = 2.0 / 8.0
        assert abs(float((d2 >= 8.0).mean()) - p) <= 5.0 * np.sqrt(p * (1 - p) / n)

    def test_tight_radial_covariance(self):
        n = 100_000
        spec = tight_radial_spec(8.0, dim=2, seed=5)
        x = draw(spec, n)
        emp = (x.T @ x) / n  # mean is exactly zero by construction
        # Var of an entry of (x x^T): bounded by E[d^4] = eps * n; use a
        # conservative 5-sigma envelope
        se = np.sqrt(8.0 * 2.0 / n)
        assert np.all(np.abs(emp - np.eye(2)) <= 5.0 * se)

    def test_tight_radial_atom_is_exact_mean(self):
        spec = tight_radial_spec(8.0, mean=[1.5, -0.5], cov=Covariance.from_matrix(np.eye(2)), seed=6)
        x = draw(spec, 2000)
        at_mean = np.all(x == np.array([1.5, -0.5]), axis=1)
        assert at_mean.mean() > 0.5  # R=0 atom carries probability 1 - 2/8
        assert np.any(~at_mean)
