import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videoseq import (
    Codebook,
    ConfigurationError,
    DimensionError,
    PreconditionError,
    ValidationError,
    kmeans_fit,
    load_codebook,
    save_codebook,
    vlad_encode,
)

from videoseq import dataio, vlad

from oracles import doubled_squared_distances, kmeans_oracle, vlad_encode_oracle, whole_array_kmeanspp_init


class TestKmeansFit:
    def test_one_point_per_cluster(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        cb = kmeans_fit(points, k=3, seed=0)
        # objective zero: centers are exactly the points, in some order
        assert cb.inertia_history[-1] == 0.0
        matched = {tuple(c) for c in cb.centers}
        assert matched == {tuple(p) for p in points}

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(size=(40, 2)) * 0.1 + np.array([0.0, 0.0])
        blob_b = rng.normal(size=(40, 2)) * 0.1 + np.array([50.0, 50.0])
        samples = np.concatenate([blob_a, blob_b])
        cb = kmeans_fit(samples, k=2, max_iter=50, seed=1)
        means = sorted([blob_a.mean(axis=0), blob_b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(cb.centers, key=lambda m: m[0])
        assert np.allclose(got[0], means[0], atol=1e-9)
        assert np.allclose(got[1], means[1], atol=1e-9)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            samples = rng.normal(size=(rng.integers(10, 60), rng.integers(1, 5)))
            cb = kmeans_fit(samples, k=int(rng.integers(1, 6)), max_iter=30, seed=trial)
            hist = cb.inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_non_finite_samples_are_named(self, bad, k):
        samples = np.array([[0.0], [bad], [1.0], [bad]])
        with pytest.raises(ValidationError) as exc:
            kmeans_fit(samples, k)
        assert str(exc.value) == f"kmeans_fit samples must be finite: 2 of 4 are not, the first {bad} at index (1, 0)"

    def test_fewer_samples_than_clusters(self):
        with pytest.raises(PreconditionError):
            kmeans_fit(np.zeros((2, 3)), k=5)

    @pytest.mark.parametrize("block_rows, n, d, k", [
        (7, 50, 6, 5), (None, 3 * vlad.KMEANS_BLOCK_ROWS + 5, 8, 16),
    ])
    def test_matches_whole_array_oracle_over_row_blocks(self, monkeypatch, block_rows, n, d, k):
        if block_rows is not None:
            monkeypatch.setattr(vlad, "KMEANS_BLOCK_ROWS", block_rows)
        assert n > 3 * vlad.KMEANS_BLOCK_ROWS
        samples = np.random.default_rng(n).normal(size=(n, d))
        for seed in range(3):
            got, want = kmeans_fit(samples, k, max_iter=20, seed=seed), kmeans_oracle(samples, k, 20, seed)
            assert np.array_equal(got.centers, want.centers)
            assert got.inertia_history == want.inertia_history

    def test_matches_oracle_when_clusters_go_empty(self, monkeypatch):
        # three distinct points for five clusters: seeding repeats points, and a tie
        # leaves a cluster empty until it is re-seeded
        monkeypatch.setattr(vlad, "KMEANS_BLOCK_ROWS", 4)
        samples = np.repeat(np.random.default_rng(5).normal(size=(3, 4)), 6, axis=0)
        got, want = kmeans_fit(samples, 5, max_iter=10, seed=1), kmeans_oracle(samples, 5, 10, 1)
        assert np.array_equal(got.centers, want.centers)
        assert got.inertia_history == want.inertia_history

    @pytest.mark.parametrize("setting, value, message", [
        ("k", 0, "k must be >= 1, got 0"),
        ("k", -1, "k must be >= 1, got -1"),
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("max_iter", 0, "max_iter must be >= 1, got 0"),
        ("max_iter", "3", "max_iter must be an integer, got '3'"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
    ])
    def test_bad_integer_setting_names_it(self, setting, value, message):
        samples = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            kmeans_fit(samples, **{"k": 2, setting: value})

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(50, 4))
        a = kmeans_fit(samples, k=5, seed=9)
        b = kmeans_fit(samples, k=5, seed=9)
        assert np.array_equal(a.centers, b.centers)


@pytest.fixture(scope="module")
def bench_like_frames(tmp_path_factory):
    """Frames of eight synthetic videos at the paper's 1024+128 feature width, as float64:
    clustered around label prototypes, as the codebook's training frames are."""
    path = str(tmp_path_factory.mktemp("frames") / "train.bin")
    dataio.generate_synthetic(path, vocab_size=25, video_count=8, seed=1, noise_sigma=0.3,
                              max_frames=60, video_seed=101)
    _, records = dataio.load_records(path)
    return np.concatenate([r.frames for r in records]).astype(np.float64)


class TestDistancesDoubleTheCenters:
    """``samples @ (2.0 * centers).T`` keeps the bits of the doubled-samples cross term."""

    @pytest.mark.parametrize("n, d, k", [(1320, 1152, 32), (165, 1152, 32), (300, 24, 256), (7, 3, 5)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_distances_have_the_bytes_of_doubled_samples(self, n, d, k, order):
        rng = np.random.default_rng(n + d + k)
        samples, centers = np.asarray(rng.normal(size=(n, d)), order=order), rng.normal(size=(k, d))
        assert vlad._squared_distances(samples, centers).tobytes() == \
            doubled_squared_distances(samples, centers).tobytes()

    def test_codebook_and_encodings_have_the_bytes_of_doubled_samples(self, monkeypatch, bench_like_frames):
        got = kmeans_fit(bench_like_frames, 32, max_iter=25, seed=3)
        want = kmeans_oracle(bench_like_frames, 32, 25, 3)
        assert got.centers.tobytes() == want.centers.tobytes()
        assert got.inertia_history == want.inertia_history
        videos = np.array_split(bench_like_frames, 4)
        encoded = [vlad_encode(got, frames).tobytes() for frames in videos]
        monkeypatch.setattr(vlad, "_squared_distances", doubled_squared_distances)
        assert encoded == [vlad_encode(got, frames).tobytes() for frames in videos]


def _seeding_cases():
    rng = np.random.default_rng(21)
    return [
        pytest.param(np.repeat(rng.normal(size=(6, 5)), 7, axis=0), 10, id="duplicate rows"),
        pytest.param(np.full((40, 3), 2.5), 6, id="all rows equal"),  # total 0: the uniform fallback
        pytest.param(rng.normal(size=(37, 4)), 37, id="k equals n"),
        pytest.param(rng.normal(size=(300, 1)), 24, id="one dimension"),
        pytest.param(rng.normal(size=(200, 6)) * 1e150, 16, id="magnitude 1e150"),
        pytest.param(rng.normal(size=(200, 6)) * 1e-150, 16, id="magnitude 1e-150"),
        pytest.param(rng.normal(size=(200, 6)) * 1e-160, 16, id="magnitude 1e-160"),  # subnormal squares
    ]


class TestKmeansppSeeding:
    """The seeding that skips rows by the triangle inequality, against the one that
    measures every row for every center, bit for bit."""

    @staticmethod
    def _both(samples, k, seed):
        got = vlad._kmeanspp_init(samples, k, np.random.default_rng(seed))
        return got.tobytes(), whole_array_kmeanspp_init(samples, k, np.random.default_rng(seed)).tobytes()

    @pytest.mark.parametrize("samples, k", _seeding_cases())
    def test_matches_whole_array_seeding(self, samples, k):
        for seed in range(4):
            got, want = self._both(samples, k, seed)
            assert got == want, seed

    def test_matches_whole_array_seeding_on_clustered_frames(self, bench_like_frames):
        for seed in range(3):
            got, want = self._both(bench_like_frames, 32, seed)
            assert got == want, seed

    def test_matches_whole_array_seeding_where_squares_are_subnormal(self):
        # x near the bisector of centers o and c, with squares of a few subnormal units:
        # rounding makes |o - c|^2 exceed 4 * (1 + 1e-6) * |x - o|^2 while |x - c|^2 is
        # below |x - o|^2, so without the floor term the seeding would keep a stale
        # distance for x and draw with other odds
        rng, cases = np.random.default_rng(31), []
        while len(cases) < 8:
            d = int(rng.integers(2, 64))
            o, c = rng.normal(size=(2, d)) * 2e-162
            x = (o + c) / 2 + rng.normal(size=d) * 2e-164
            a, e, b = (vlad._row_sq_dists(p[None], q)[0] for p, q in ((x, o), (o, c), (x, c)))
            if e > vlad._PRUNE_SCALE * a and b < 0.75 * a:
                cases.append(np.stack([o, c, x, o + 1.1 * (x - o)]))
        for samples in cases:
            for seed in range(32):
                got, want = self._both(samples, 4, seed)
                assert got == want, seed

    def test_skips_most_rows_on_clustered_frames(self, monkeypatch, bench_like_frames):
        measured, row_sq_dists = [], vlad._row_sq_dists

        def counting(samples, centers, rows=None, owner=None):
            if samples is bench_like_frames:
                measured.append(len(samples) if rows is None else len(rows))
            return row_sq_dists(samples, centers, rows, owner)

        monkeypatch.setattr(vlad, "_row_sq_dists", counting)
        vlad._kmeanspp_init(bench_like_frames, 32, np.random.default_rng(0))
        n = len(bench_like_frames)
        assert measured[0] == n and len(measured) == 31  # a full first pass; none for the last center
        assert sum(measured[1:]) < 0.5 * 30 * n


def test_codebooks_compare_by_identity_as_a_bool():
    # a generated __eq__ would compare the centers arrays and raise on their truth value
    centers = np.eye(3)
    codebook = Codebook(centers)
    assert (codebook == Codebook(centers)) is False and (codebook == codebook) is True


class TestVladEncode:
    def test_frames_equal_to_centers_give_zeros(self):
        cb = Codebook(np.array([[1.0, 2.0], [-3.0, 0.5]]))
        frames = np.array([[1.0, 2.0], [-3.0, 0.5], [1.0, 2.0]])
        enc = vlad_encode(cb, frames)
        assert np.array_equal(enc, np.zeros(4))

    def test_single_cluster_closed_form(self):
        cb = Codebook(np.zeros((1, 3)))
        frame = np.array([[4.0, -9.0, 0.25]])
        enc = vlad_encode(cb, frame)
        signed = np.sign(frame[0]) * np.sqrt(np.abs(frame[0]))
        assert np.allclose(enc, signed / np.linalg.norm(signed), atol=1e-15)

    def test_unit_norm_on_random_inputs(self):
        rng = np.random.default_rng(4)
        cb = Codebook(rng.normal(size=(5, 3)))
        for _ in range(25):
            frames = rng.normal(size=(rng.integers(1, 20), 3))
            enc = vlad_encode(cb, frames)
            assert abs(np.linalg.norm(enc) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        cb = Codebook(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            vlad_encode(cb, np.zeros((4, 5)))

    def test_signed_sqrt_is_odd(self):
        # reflecting frames about their centers negates every residual,
        # which must negate the whole encoding
        rng = np.random.default_rng(5)
        cb = Codebook(rng.normal(size=(3, 2)) * 10)
        frames = cb.centers[rng.integers(0, 3, size=8)] + rng.normal(size=(8, 2)) * 0.1
        assigned = np.array(
            [np.argmin(((f - cb.centers) ** 2).sum(axis=1)) for f in frames]
        )
        reflected = 2 * cb.centers[assigned] - frames
        enc = vlad_encode(cb, frames)
        enc_neg = vlad_encode(cb, reflected)
        assert np.allclose(enc, -enc_neg, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        cb = Codebook(rng.normal(size=(4, 3)))
        frames = rng.normal(size=(10, 3))
        base = vlad_encode(cb, frames)
        shuffled = vlad_encode(cb, frames[rng.permutation(10)])
        # summation order differs, so equality is up to float round-off
        assert np.allclose(base, shuffled, atol=1e-12)

    def test_duplicating_frames_leaves_encoding_unchanged(self):
        # duplication scales every residual sum by 2; sqrt then L2-normalize
        # cancels any positive scalar
        rng = np.random.default_rng(15)
        cb = Codebook(rng.normal(size=(3, 4)))
        frames = rng.normal(size=(7, 4))
        base = vlad_encode(cb, frames)
        doubled = vlad_encode(cb, np.concatenate([frames, frames]))
        assert np.allclose(base, doubled, atol=1e-12)

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_scaling_of_residuals_cancels(self, scale):
        # sqrt then L2-normalize removes any positive scalar on the residual sums;
        # scaling frames AND centers scales every residual uniformly
        rng = np.random.default_rng(7)
        centers = rng.normal(size=(3, 2))
        frames = rng.normal(size=(6, 2)) * 3
        base = vlad_encode(Codebook(centers), frames)
        scaled = vlad_encode(Codebook(centers * scale), frames * scale)
        assert np.allclose(base, scaled, atol=1e-9)


class TestVladMatchesAddAtOracle:
    def check(self, centers, frames):
        cb = Codebook(centers)
        got = vlad_encode(cb, frames)
        want = vlad_encode_oracle(cb, frames)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_empty_clusters(self):
        rng = np.random.default_rng(30)
        centers = rng.normal(size=(8, 5))
        # every frame sits next to center 2 or 5; the other six stay empty
        frames = centers[rng.choice([2, 5], size=12)] + rng.normal(size=(12, 5)) * 0.01
        self.check(centers, frames)

    def test_one_frame(self):
        rng = np.random.default_rng(31)
        self.check(rng.normal(size=(4, 6)), rng.normal(size=(1, 6)))

    def test_300_frames_at_paper_width(self):
        rng = np.random.default_rng(32)
        self.check(rng.normal(size=(32, 1152)), rng.normal(size=(300, 1152)))

    def test_256_clusters(self):
        rng = np.random.default_rng(33)
        self.check(rng.normal(size=(256, 24)), rng.normal(size=(300, 24)))


class TestCodebookFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        cb = Codebook(rng.normal(size=(6, 4)))
        path = tmp_path / "cb.bin"
        save_codebook(path, cb)
        loaded = load_codebook(path)
        assert np.array_equal(loaded.centers, cb.centers)
        path2 = tmp_path / "cb2.bin"
        save_codebook(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        from videoseq import FormatError

        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_codebook(path)
