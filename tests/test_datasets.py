"""Dataset proxy generators: determinism, shape, skew, golden stream bytes."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    PAPER_DATASETS,
    SMALL_DATASETS,
    TEMPORAL_DATASETS,
    TemporalSpec,
    get_dataset,
    rmat_edges,
    shuffle_edges,
    uniform_edges,
)
from repro.datasets.temporal import _choice


class TestRMAT:
    def test_shape_and_range(self):
        e = rmat_edges(256, 5000, seed=1)
        assert e.shape == (5000, 2)
        assert e.min() >= 0 and e.max() < 256

    def test_deterministic(self):
        a = rmat_edges(128, 1000, seed=7)
        b = rmat_edges(128, 1000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self):
        a = rmat_edges(128, 1000, seed=1)
        b = rmat_edges(128, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_no_self_loops(self):
        e = rmat_edges(64, 3000, seed=3)
        assert (e[:, 0] != e[:, 1]).all()

    def test_power_law_skew(self):
        """R-MAT hubs: the top 1% of vertices hold a large edge share."""
        e = rmat_edges(4096, 200_000, a=0.57, b=0.19, c=0.19, seed=5)
        deg = np.bincount(e[:, 0], minlength=4096)
        top = np.sort(deg)[-41:].sum()
        assert top / 200_000 > 0.10
        # uniform graphs are much flatter
        u = uniform_edges(4096, 200_000, seed=5)
        udeg = np.bincount(u[:, 0], minlength=4096)
        assert np.sort(udeg)[-41:].sum() < 0.5 * top

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            rmat_edges(1, 10)
        with pytest.raises(ValueError):
            rmat_edges(64, 10, a=0.5, b=0.3, c=0.3)

    def test_shuffle_is_permutation(self):
        e = rmat_edges(64, 500, seed=1)
        s = shuffle_edges(e, seed=2)
        assert not np.array_equal(e, s)
        assert np.array_equal(
            np.sort(e.view([("s", e.dtype), ("d", e.dtype)]).ravel()),
            np.sort(s.view([("s", e.dtype), ("d", e.dtype)]).ravel()),
        )


class TestRegistry:
    def test_all_six_paper_datasets(self):
        assert set(PAPER_DATASETS) == {
            "orkut", "livejournal", "citpatents", "twitter", "friendster", "protein"
        }

    def test_registry_adds_scale_notch(self):
        assert set(DATASETS) == set(PAPER_DATASETS) | {"scale"}
        s = get_dataset("scale")
        assert s.domain == "synthetic"
        # strictly above the largest paper proxy so shard runs have headroom
        assert s.proxy_vertices > max(p.proxy_vertices for p in PAPER_DATASETS.values())

    def test_ratios_match_paper_table2(self):
        assert get_dataset("orkut").ratio == 76
        assert get_dataset("livejournal").ratio == 18
        assert get_dataset("citpatents").ratio == 6
        assert get_dataset("twitter").ratio == 39
        assert get_dataset("friendster").ratio == 29
        assert get_dataset("protein").ratio == 149

    def test_sizes_scale(self):
        spec = get_dataset("orkut")
        nv1, ne1 = spec.sizes(1.0)
        nv2, ne2 = spec.sizes(2.0)
        assert nv2 == 2 * nv1 and ne2 == 2 * ne1
        assert ne1 == nv1 * 76

    def test_generate_deterministic(self):
        spec = get_dataset("livejournal")
        a = spec.generate(0.05)
        b = spec.generate(0.05)
        np.testing.assert_array_equal(a, b)

    def test_warmup_split(self):
        spec = get_dataset("orkut")
        edges = spec.generate(0.05)
        warm, timed = spec.split_warmup(edges)
        assert warm.shape[0] == int(edges.shape[0] * 0.10)
        assert warm.shape[0] + timed.shape[0] == edges.shape[0]

    def test_xpgraph_log_fit_rule(self):
        """Paper: the 8GB log holds 512M 16B edges — the small trio fits."""
        for ds in SMALL_DATASETS:
            assert get_dataset(ds).real_fits_xpgraph_log
        for ds in ("twitter", "friendster", "protein"):
            assert not get_dataset(ds).real_fits_xpgraph_log

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_dataset("facebook")


# -- golden stream bytes ----------------------------------------------------


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        assert a.dtype == np.int64
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _stream_digest(steps):
    return _digest(*(a for st in steps for a in (st.adds, st.deletes)))


A45 = dict(a=0.45, b=0.55 / 3, c=0.55 / 3)
#: sha256 of each generator's output, recorded before the generators were
#: rewritten for speed: every consumer (the bench inputs, the registry
#: proxies, this suite) sees these bytes, so a change to a stream is a
#: declared change to these rows
GOLDEN_RMAT = {
    "pow2": (dict(num_vertices=1024, num_edges=20_000, seed=1),
             "8ce3c77a65f936eb2ba0a549845c7f683a8d797c87368a7c0bd44a82b6f832bf"),
    "non-pow2-a45": (dict(num_vertices=1000, num_edges=20_000, seed=2, **A45),
                     "27eab687cf214cbed30dfe4e1e1b8ddcb2b9e2b7563f223c02e394b018e05609"),
    "self-loop-top-up": (dict(num_vertices=8, num_edges=3_000, seed=3),
                         "38878aa387d67208d1350fe414ed7bb5d113245617e93bbf949df1a1c0757ef4"),
    "loops-kept": (dict(num_vertices=300, num_edges=5_000, seed=4, remove_self_loops=False),
                   "79aaa4c2acac6c0fe61d90d65f30a15104aeaa8c9744a3060a9bc70a426fc16c"),
}
#: the uniform branch (``rmat_a=None``) and the benchmark's temporal-churn recipe
#: at its tiny size (``benchmarks/perf/workloads.py``, seed 1)
UNIFORM_STREAM = TemporalSpec("uniform", "test", 600, 12, 16, 0.35, 1.0, 0.5, None, 9)
BENCH_TINY_STREAM = TemporalSpec("perf-temporal", "bench", 512, 16, 24, 0.40, 1.0, 0.5, 0.57, 1)
GOLDEN_TEMPORAL = {
    "covid-contact": (TEMPORAL_DATASETS["covid-contact"], 0.05,
                      "e90bac9cbd58a04d2b63328c05414d2e3c995f82d1f85e7ee8919911207248bf"),
    "orkut-stream": (TEMPORAL_DATASETS["orkut-stream"], 0.05,
                     "4523f56f9eef7ff1fabb6a657d3b49b8ff816378864bb33939fe781d3b9f5c05"),
    "livejournal-stream": (TEMPORAL_DATASETS["livejournal-stream"], 0.05,
                           "f823c51be34b1c75ddd90fecff1430401acef4d8af99b589786982cee4295a26"),
    "uniform": (UNIFORM_STREAM, 1.0, "d2a7032bb1ac7a33ec488e845702233e63bfaceb9c855fd95a2efe529d46d99b"),
    "bench-tiny": (BENCH_TINY_STREAM, 1.0, "498469b236e9f2e576ef97a9e67d6a3d0c0e016e7809ed43c23ffde352250b70"),
}


class TestGoldenStreams:
    def test_every_registered_temporal_stream_is_pinned(self):
        assert set(TEMPORAL_DATASETS) < set(GOLDEN_TEMPORAL)

    @pytest.mark.parametrize("name", sorted(GOLDEN_RMAT))
    def test_rmat_bytes(self, name):
        kw, want = GOLDEN_RMAT[name]
        assert _digest(rmat_edges(**kw)) == want

    def test_the_top_up_row_tops_up(self):
        kw, _ = GOLDEN_RMAT["self-loop-top-up"]
        raw = rmat_edges(**kw, remove_self_loops=False)
        assert (raw[:, 0] == raw[:, 1]).any()

    @pytest.mark.parametrize("name", sorted(GOLDEN_TEMPORAL))
    def test_temporal_bytes(self, name):
        spec, scale, want = GOLDEN_TEMPORAL[name]
        assert _stream_digest(spec.generate(scale)) == want


# -- the temporal stream's contract -----------------------------------------


@pytest.fixture(scope="module", params=sorted(GOLDEN_TEMPORAL))
def stream(request):
    spec, scale, _ = GOLDEN_TEMPORAL[request.param]
    return spec, scale, spec.generate(scale)


class TestTemporalStream:
    def test_adds_follow_step_counts(self, stream):
        spec, scale, steps = stream
        assert [st.step for st in steps] == list(range(spec.num_steps))
        assert [len(st.adds) for st in steps] == spec.step_counts(scale).tolist()

    def test_churn_is_a_share_of_the_step_capped_by_the_pool(self, stream):
        spec, _, steps = stream
        live = 0
        for st in steps:
            live += len(st.adds)
            assert len(st.deletes) == min(int(round(spec.churn * len(st.adds))), live)
            live -= len(st.deletes)

    def test_every_delete_names_a_copy_live_in_the_generators_pool(self, stream):
        """The pool is the generator's own: adds minus earlier churn, no window expiry."""
        _, _, steps = stream
        pool = Counter()
        for st in steps:
            pool.update(map(tuple, st.adds.tolist()))
            for pair in map(tuple, st.deletes.tolist()):
                assert pool[pair] > 0, (st.step, pair)
                pool[pair] -= 1


class TestWeightedSampler:
    """``_choice`` is ``Generator.choice(n, k, replace=False, p=p)``, draw for draw."""

    @pytest.mark.parametrize("case", ["random", "zeros", "k-near-n", "skewed"])
    def test_matches_numpy_choice(self, case):
        for seed in range(25):
            gen = np.random.default_rng(10_000 + seed)
            n = int(gen.integers(2, 300))
            p = gen.random(n) ** (12 if case == "skewed" else 1)
            if case == "zeros":
                p[gen.random(n) < 0.5] = 0.0
                p[0] = p[-1] = 0.0
            nonzero = int(np.count_nonzero(p))
            if nonzero == 0:
                continue
            if case == "k-near-n":
                k = max(1, nonzero - int(gen.integers(0, 3)))
            else:
                k = int(gen.integers(1, nonzero + 1))
            p /= p.sum()
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = want_rng.choice(n, size=k, replace=False, p=p)
            got = _choice(got_rng, p.copy(), k, np.empty(n), np.empty(n))
            np.testing.assert_array_equal(got, want)
            assert got_rng.random() == want_rng.random()  # the same draws were consumed
