import gzip
import itertools
import struct

import numpy as np
import pytest

from banditbench import data as bd
from banditbench import envs
from banditbench.nn import NetShape, forward_batch, init_params
from helpers import reference_ingest_csv


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

    def test_repeated_header_name_rejected(self, tmp_path):
        # read by name, the second 'a' stood for both columns: features
        # [[5, 5], [6, 6], [7, 7]]
        path = tmp_path / "twice.csv"
        path.write_text("a,a,y\n1,5,p\n2,6,q\n3,7,p\n")
        with pytest.raises(ValueError) as info:
            bd.ingest_csv(str(path), "y", {"a": "numeric"})
        assert str(info.value) == f"{path}: column 'a' repeats in the header"

    def test_columns_are_read_by_position(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("b,y,a\n1,p,x\n2,q,z\n3,p,x\n")
        ds = bd.ingest_csv(str(path), "y", {"a": "categorical",
                                            "b": "numeric"})
        np.testing.assert_array_equal(ds.features,
                                      [[1, 1, 0], [2, 0, 1], [3, 1, 0]])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])


def random_csv(rng, path):
    """A random CSV and the (label column, schema) to read it by: 1 to 5
    numeric or categorical feature columns and the label at any position,
    with or without a header, with cells padded by spaces, "" and "?"
    cells, rows one cell short or long, and blank lines."""
    n_features = int(rng.integers(1, 6))
    kinds = rng.choice(["numeric", "categorical"], n_features).tolist()
    label_at = int(rng.integers(0, n_features + 1))
    kinds.insert(label_at, "label")
    header = bool(rng.integers(0, 2))
    names = [f"f{i}" if header else f"c{i}" for i in range(len(kinds))]
    if header:
        names[label_at] = "kind"
    lines = [",".join(names)] if header else []
    for _ in range(int(rng.integers(1, 40))):
        cells = []
        for kind in kinds:
            if kind == "numeric":
                cell = f"{rng.standard_normal() * 10.0 ** rng.integers(-3, 4):.6g}"
            elif kind == "categorical":
                cell = str(rng.choice(["red", "blue", "x", "7", "0.5"]))
            else:
                cell = str(rng.choice(["p", "e", "q"]))
            cells.append(" " * int(rng.integers(0, 2)) + cell)
        gap = rng.random()
        if gap < 0.1:
            cells[int(rng.integers(0, len(cells)))] = str(rng.choice(
                ["", "?", " ? "]))
        elif gap < 0.15:
            cells = cells[:-1]
        elif gap < 0.2:
            cells.append("1")
        elif gap < 0.25:
            lines.append("")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    schema = {name: kind for name, kind in zip(names, kinds) if kind != "label"}
    return names[label_at], schema


def test_ingest_csv_matches_row_wise_reference(tmp_path):
    # the conftest fixture compares every file ingest_csv accepts with the
    # reference; a file it rejects, the reference must reject too
    rng = np.random.default_rng(2024)
    read = 0
    for i in range(40):
        path = tmp_path / f"t{i}.csv"
        label, schema = random_csv(rng, path)
        try:
            bd.ingest_csv(str(path), label, schema)
        except ValueError:
            with pytest.raises(ValueError):
                reference_ingest_csv(str(path), label, schema)
            continue
        read += 1
    assert read >= 30


class TestSchema:
    def test_parse(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("# mushroom-ish\nsize: numeric\ncolor: categorical\n"
                        "label: kind\n")
        types, label = bd.parse_schema(str(path))
        assert types == {"size": "numeric", "color": "categorical"}
        assert label == "kind"

    def test_trailing_comments(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("a: numeric # amount\nb: categorical#colour\n"
                        "label: kind  # the class\n")
        assert bd.parse_schema(str(path)) == ({"a": "numeric",
                                               "b": "categorical"}, "kind")

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
        assert (ds.features / ds.divisor).max() <= 1.0
        assert ds.n_classes == 3

    def test_gzip_accepted(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.array([0, 1], dtype=np.uint8)
        ip, lp = write_idx(tmp_path, images, labels, compress=True)
        ds = bd.ingest_idx(ip, lp)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.features[0], 0.0)

    def test_pixels_stay_bytes_and_contexts_keep_their_bits(self, tmp_path):
        # 6,000 images of 784 pixels: 4.7 MB as bytes, 37.6 MB as float64;
        # every context has the bits of the table divided into float64 first
        rng = np.random.default_rng(7)
        images = rng.integers(0, 256, size=(6000, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 2, size=6000).astype(np.uint8)
        ds = bd.ingest_idx(*write_idx(tmp_path, images, labels))
        assert ds.features.dtype == np.uint8
        np.testing.assert_array_equal(ds.features, images.reshape(6000, 784))
        as_float = bd.LabeledDataset(images.reshape(6000, 784) / 255.0,
                                     ds.labels, ds.n_classes)
        pairs = zip(bd.classification_rounds(ds),
                    bd.classification_rounds(as_float), strict=True)
        played = zip(envs.dataset_rounds(ds, 3, 500),
                     envs.dataset_rounds(as_float, 3, 500), strict=True)
        for got, want in itertools.chain(pairs, played):
            assert got.contexts.tobytes() == want.contexts.tobytes()

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


class TestZeroRows:
    def test_a_uint8_row_of_256_ones_is_not_a_zero_row(self):
        # its squared norm, 256, wraps to 0 in uint8
        X = np.zeros((3, 256), np.uint8)
        X[0] = 1
        X[2, 5] = 1
        ds = bd.LabeledDataset(X, np.array([0, 1, 0]), 2)
        assert ds.n_zero_rows == 1


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
    def test_matches_per_row_reference(self, d, duplicate):
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
        assert_rounds_identical(bd.classification_rounds(ds, duplicate), want)
        assert sum(np.linalg.norm(x) == 0.0 for x in X) == ds.n_zero_rows == 2

    @pytest.mark.parametrize("duplicate", [True, False])
    def test_mushroom_like_dataset_rounds(self, duplicate):
        ds = envs.mushroom_like()
        rows = np.random.default_rng(11).permutation(len(ds))[:600]
        played = bd.LabeledDataset(ds.features[rows], ds.labels[rows], 2)
        want = reference_classification_rounds(played, duplicate)
        assert_rounds_identical(envs.dataset_rounds(ds, 11, 600, duplicate),
                                want)


    @pytest.mark.parametrize("duplicate", [True, False])
    def test_all_categorical_csv_stays_uint8(self, tmp_path, duplicate):
        # more rows than one block; a numeric column makes the table float64
        rng = np.random.default_rng(5)
        n = bd.BLOCK_ROWS + 20
        path = tmp_path / "cats.csv"
        path.write_text("cap,odor,size,kind\n" + "".join(
            f"{'xbf'[i]},{'anlp'[j]},{k:.2f},{'ep'[c]}\n" for i, j, k, c in zip(
                rng.integers(0, 3, n), rng.integers(0, 4, n),
                rng.uniform(1, 9, n), rng.integers(0, 2, n))))
        types = {"cap": "categorical", "odor": "categorical"}
        mixed = bd.ingest_csv(str(path), "kind", {**types, "size": "numeric"})
        assert mixed.features.dtype == np.float64
        ds = bd.ingest_csv(str(path), "kind", {**types, "size": "categorical"})
        assert ds.features.dtype == np.uint8
        assert ds.features.shape[0] == n and set(np.unique(ds.features)) == {0, 1}
        as_float = bd.LabeledDataset(ds.features.astype(np.float64), ds.labels,
                                     ds.n_classes)
        want = reference_classification_rounds(as_float, duplicate)
        assert_rounds_identical(bd.classification_rounds(ds, duplicate), want)


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
    assert ds.features.dtype == np.uint8
    assert ds.features.astype(np.float64).tobytes() == features.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
