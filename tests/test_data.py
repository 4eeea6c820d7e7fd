import gzip
import logging
import struct

import numpy as np
import pytest

from banditbench import data as bd
from banditbench import envs
from banditbench.nn import NetShape, forward_batch, init_params


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "size,color,kind\n"
        "1.5,red,a\n"
        "2.0,blue,b\n"
        "0.5,red,a\n"
    )
    return str(path)


SCHEMA = {"size": "numeric", "color": "categorical"}


class TestCsv:
    def test_one_hot_width(self, csv_file):
        ds = bd.ingest_csv(csv_file, "kind", SCHEMA)
        # 1 numeric + 2 one-hot levels: width grows by 1 over the raw columns
        assert ds.features.shape == (3, 3)
        assert ds.n_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_missing_value_dropped(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("size,color,kind\n1.0,red,a\n,blue,b\n2.0,red,a\n")
        ds = bd.ingest_csv(str(path), "kind", SCHEMA)
        assert len(ds) == 2
        assert ds.n_dropped == 1

    def test_question_mark_is_missing(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("size,color,kind\n1.0,?,a\n2.0,red,b\n")
        ds = bd.ingest_csv(str(path), "kind", SCHEMA)
        assert len(ds) == 1
        assert ds.n_dropped == 1

    def test_headerless_positional(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1.0,x,a\n2.0,y,b\n")
        ds = bd.ingest_csv(str(path), "c2", {"c0": "numeric", "c1": "categorical"})
        assert len(ds) == 2
        assert ds.n_classes == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            bd.ingest_csv(str(path), "kind", SCHEMA)

    def test_all_rows_dropped_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("size,color,kind\n?,red,a\n")
        with pytest.raises(ValueError):
            bd.ingest_csv(str(path), "kind", SCHEMA)


class TestSchema:
    def test_parse(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("# mushroom-ish\nsize: numeric\ncolor: categorical\n"
                        "label: kind\n")
        types, label = bd.parse_schema(str(path))
        assert types == {"size": "numeric", "color": "categorical"}
        assert label == "kind"

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("size: numeric\n")
        with pytest.raises(ValueError):
            bd.parse_schema(str(path))


def write_idx(tmp_path, images, labels, compress=False, image_magic=0x803,
              label_magic=0x801):
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    lab_bytes = struct.pack(">II", label_magic, n) + labels.tobytes()
    opener = gzip.open if compress else open
    suffix = ".gz" if compress else ""
    ip = tmp_path / f"images.idx{suffix}"
    lp = tmp_path / f"labels.idx{suffix}"
    with opener(ip, "wb") as fh:
        fh.write(img_bytes)
    with opener(lp, "wb") as fh:
        fh.write(lab_bytes)
    return str(ip), str(lp)


class TestIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        ip, lp = write_idx(tmp_path, images, labels)
        ds = bd.ingest_idx(ip, lp)
        assert ds.features.shape == (5, 784)
        assert ds.features.max() <= 1.0
        assert ds.n_classes == 3

    def test_gzip_accepted(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.array([0, 1], dtype=np.uint8)
        ip, lp = write_idx(tmp_path, images, labels, compress=True)
        ds = bd.ingest_idx(ip, lp)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.features[0], 0.0)

    def test_magic_mismatch(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.array([0], dtype=np.uint8)
        ip, lp = write_idx(tmp_path, images, labels, image_magic=0x123)
        with pytest.raises(ValueError):
            bd.ingest_idx(ip, lp)


class TestTransforms:
    def test_normalize(self):
        np.testing.assert_allclose(bd.normalize_unit(np.array([3.0, 4.0])),
                                   [0.6, 0.8])

    def test_normalize_unit_input_unchanged(self):
        x = np.array([0.0, 1.0])
        np.testing.assert_array_equal(bd.normalize_unit(x), x)

    def test_normalize_random_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(7) * rng.uniform(0.1, 50)
            assert np.linalg.norm(bd.normalize_unit(x)) == pytest.approx(1.0,
                                                                         abs=1e-12)

    def test_normalize_zero_vector_policy(self):
        out = bd.normalize_unit(np.zeros(4))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_duplicate_half_arithmetic(self):
        out = bd.duplicate_half(np.array([0.6, 0.8]))
        np.testing.assert_allclose(out, np.array([0.6, 0.8, 0.6, 0.8]) / np.sqrt(2))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_half_basis(self):
        out = bd.duplicate_half(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])

    def test_duplicate_half_rejects_non_unit(self):
        with pytest.raises(ValueError):
            bd.duplicate_half(np.array([1.0, 1.0]))

    def test_duplicate_half_zeroes_initial_network(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            x = bd.duplicate_half(bd.normalize_unit(rng.standard_normal(5)))
            theta = init_params(NetShape(10, 16, 3), seed)
            assert abs(forward_batch(theta, x[None])[0]) <= 1e-6 * np.sqrt(16)

    def test_disjoint_encode(self):
        out = bd.disjoint_encode(np.array([1.0, 2.0]), 2)
        np.testing.assert_array_equal(out[0], [1, 2, 0, 0])
        np.testing.assert_array_equal(out[1], [0, 0, 1, 2])

    def test_disjoint_single_arm_rejected(self):
        with pytest.raises(ValueError):
            bd.disjoint_encode(np.ones(2), 1)

    def test_disjoint_orthogonal_blocks(self):
        out = bd.disjoint_encode(np.array([0.3, -0.7, 0.1]), 4)
        gram = out @ out.T
        np.testing.assert_allclose(gram - np.diag(np.diag(gram)), 0.0)


class TestRowOrder:
    """envs.dataset_rounds plays the first T rows of the seed's row order."""

    def _dataset(self):
        rng = np.random.default_rng(3)
        return bd.LabeledDataset(rng.standard_normal((20, 3)),
                                 rng.integers(0, 2, size=20), 2)

    def _played(self, seed, horizon=20):
        """(unit row, label) of each round: arm 0's block is the row."""
        rounds = envs.dataset_rounds(self._dataset(), seed, horizon,
                                     duplicate=False)
        return [(tuple(r.contexts[0, :3]), int(np.argmax(r.expected_rewards)))
                for r in rounds]

    def test_seed_reproducible(self):
        assert self._played(42) == self._played(42)

    def test_different_seeds_differ(self):
        assert self._played(1) != self._played(2)

    def test_rows_are_distinct_rows_of_the_table(self):
        ds = self._dataset()
        table = {(tuple(bd.normalize_unit(x)), int(y))
                 for x, y in zip(ds.features, ds.labels)}
        for horizon in (7, 20):
            played = self._played(7, horizon)
            assert len(set(played)) == horizon
            assert set(played) <= table

    def test_shorter_horizon_plays_a_prefix(self):
        assert self._played(5, 7) == self._played(5, 20)[:7]

    def test_zero_rows_warned_among_played_rows(self, caplog):
        ds = self._dataset()
        ds.features[:5] = 0.0
        played = np.random.default_rng(9).permutation(20)[:8]
        assert np.count_nonzero(played < 5) == 2
        with caplog.at_level(logging.WARNING):
            envs.dataset_rounds(ds, 9, 8)
        assert "2 zero-feature rows replaced" in caplog.text


class TestPipeline:
    def test_rounds_are_unit_norm_block_sparse_duplicated(self):
        rng = np.random.default_rng(4)
        ds = bd.LabeledDataset(rng.standard_normal((10, 3)),
                               rng.integers(0, 3, size=10), 3)
        rounds = bd.classification_rounds(ds, duplicate=True)
        for rnd in rounds:
            K, dim = rnd.contexts.shape
            assert K == 3 and dim == 3 * 6
            for k in range(K):
                ctx = rnd.contexts[k]
                assert np.linalg.norm(ctx) == pytest.approx(1.0, abs=1e-9)
                block = ctx[k * 6:(k + 1) * 6]
                np.testing.assert_allclose(block[:3], block[3:])
                outside = np.delete(ctx, np.arange(k * 6, (k + 1) * 6))
                np.testing.assert_array_equal(outside, 0.0)

    def test_reward_contract(self):
        ds = bd.LabeledDataset(np.eye(4), np.array([0, 1, 2, 3]), 4)
        for rnd in bd.classification_rounds(ds):
            assert rnd.expected_rewards.sum() == 1.0
            assert set(rnd.expected_rewards) <= {0.0, 1.0}
            np.testing.assert_array_equal(rnd.rewards, rnd.expected_rewards)

    def test_manifest(self, tmp_path, csv_file=None):
        ds = bd.LabeledDataset(np.eye(2), np.array([0, 1]), 2, provenance="toy")
        out = tmp_path / "manifest.json"
        manifest = bd.write_manifest(ds, str(out))
        assert manifest["rows"] == 2
        assert manifest["n_classes"] == 2
        assert manifest["provenance"] == "toy"
        assert out.exists()


class TestBlockTransforms:
    """Each transform gives an (n, d) block the rows it gives one at a time."""

    def _rows(self):
        X = np.random.default_rng(8).standard_normal((9, 5))
        X[2] = 0.0
        X[4] = 1e-170
        return X

    def test_normalize_block_equals_rows(self):
        X = self._rows()
        want = np.stack([bd.normalize_unit(x) for x in X])
        assert bd.normalize_unit(X).tobytes() == want.tobytes()

    def test_duplicate_block_equals_rows(self):
        Z = bd.normalize_unit(self._rows())
        want = np.stack([bd.duplicate_half(z) for z in Z])
        assert bd.duplicate_half(Z).tobytes() == want.tobytes()

    def test_duplicate_block_rejects_a_non_unit_row(self):
        Z = bd.normalize_unit(self._rows())
        Z[3] *= 2.0
        with pytest.raises(ValueError):
            bd.duplicate_half(Z)

    def test_disjoint_block_equals_rows(self):
        Z = bd.normalize_unit(self._rows())
        want = np.stack([bd.disjoint_encode(z, 3) for z in Z])
        assert bd.disjoint_encode(Z, 3).tobytes() == want.tobytes()


def reference_classification_rounds(dataset, duplicate=True):
    """The transform one row at a time, as np.linalg.norm, a concatenation
    and a per-arm copy: what the block build must match bit for bit."""
    rounds = []
    K = dataset.n_classes
    for x, label in zip(dataset.features, dataset.labels):
        norm = np.linalg.norm(x)
        if norm == 0.0:
            z = np.zeros_like(x)
            z[0] = 1.0
        else:
            z = x / norm
        if duplicate:
            half = z / np.sqrt(2.0)
            z = np.concatenate([half, half])
        d = len(z)
        contexts = np.zeros((K, K * d))
        for k in range(K):
            contexts[k, k * d:(k + 1) * d] = z
        rewards = np.zeros(K)
        rewards[label] = 1.0
        rounds.append(bd.BanditRound(contexts, rewards, rewards.copy()))
    return rounds


def assert_rounds_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("contexts", "expected_rewards", "rewards"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestClassificationReference:
    @pytest.mark.parametrize("duplicate", [True, False])
    @pytest.mark.parametrize("d", [3, 51, 784])
    def test_matches_per_row_reference(self, d, duplicate, caplog):
        # more rows than one block, real values over a wide range of scales,
        # an all-zero row and a row whose squares underflow
        n = bd.BLOCK_ROWS + 3
        rng = np.random.default_rng(d)
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150, (n, 1))
        X[1] = 0.0
        X[bd.BLOCK_ROWS] = 1e-170
        K = 2 if d == 784 else 3
        ds = bd.LabeledDataset(X, rng.integers(0, K, size=n), K)
        want = reference_classification_rounds(ds, duplicate)
        with caplog.at_level(logging.WARNING):
            got = bd.classification_rounds(ds, duplicate)
        assert_rounds_identical(got, want)
        n_zero = sum(np.linalg.norm(x) == 0.0 for x in X)
        assert n_zero == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"{n_zero} zero-feature rows replaced by the unit basis vector"]

    @pytest.mark.parametrize("duplicate", [True, False])
    def test_mushroom_like_dataset_rounds(self, duplicate):
        ds = envs.mushroom_like()
        rows = np.random.default_rng(11).permutation(len(ds))[:600]
        played = bd.LabeledDataset(ds.features[rows], ds.labels[rows], 2)
        want = reference_classification_rounds(played, duplicate)
        assert_rounds_identical(envs.dataset_rounds(ds, 11, 600, duplicate),
                                want)


def reference_mushroom_like():
    """The mushroom-like table as 22 one-hot blocks joined by hstack."""
    n = 8124
    rng = np.random.default_rng(0x5EED + 2)
    u = rng.integers(0, 2, size=n)
    v = rng.integers(0, 2, size=n)

    def echo(factor):
        flips = rng.random(n) < 0.1
        return np.where(flips, 1 - factor, factor)

    cols = [echo(u) for _ in range(10)] + [echo(v) for _ in range(10)]
    n_levels = [2] * 20
    for k in rng.integers(4, 9, size=2):
        n_levels.append(int(k))
        cols.append(rng.integers(0, k, size=n))
    blocks = []
    for col, k in zip(cols, n_levels):
        onehot = np.zeros((n, k))
        onehot[np.arange(n), col] = 1.0
        blocks.append(onehot)
    return np.hstack(blocks), (u ^ v).astype(np.int64)


def test_mushroom_like_matches_reference():
    ds = envs.mushroom_like()
    features, labels = reference_mushroom_like()
    assert ds.features.shape == features.shape == (8124, 51)
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
