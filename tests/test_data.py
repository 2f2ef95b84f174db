"""Binary format round-trips, noise statistics, splits and batching."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aggnet
from aggnet.data import (
    DataFormatError,
    Dataset,
    NoiseSpec,
    RECORD_BYTES,
    add_noise,
    batches,
    fetch_cifar10,
    load_batch_file,
    load_cifar10,
    make_synthetic,
    save_batch_file,
    train_val_split,
)


def write_fake_batch(path, n, seed=0):
    """A well-formed binary batch with random labels and pixels."""
    rng = np.random.default_rng(seed)
    rec = np.zeros((n, RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = rng.integers(0, 10, size=n)
    rec[:, 1:] = rng.integers(0, 256, size=(n, RECORD_BYTES - 1))
    path.write_bytes(rec.tobytes())
    return rec


class TestLoader:
    def test_record_arithmetic(self, tmp_path):
        """A file of exactly n * 3073 bytes parses into n samples."""
        f = tmp_path / "batch.bin"
        write_fake_batch(f, 17)
        images, labels = load_batch_file(f)
        assert images.shape == (17, 3, 32, 32)
        assert labels.shape == (17,)

    def test_all_zero_record(self, tmp_path):
        f = tmp_path / "batch.bin"
        f.write_bytes(bytes(RECORD_BYTES))
        images, labels = load_batch_file(f)
        assert labels[0] == 0
        assert not np.any(images)

    def test_first_label_matches_byte_zero(self, tmp_path):
        """Label parsing against an independent byte-level read."""
        f = tmp_path / "batch.bin"
        write_fake_batch(f, 5, seed=3)
        _, labels = load_batch_file(f)
        assert labels[0] == f.read_bytes()[0]

    def test_channel_planar_layout(self, tmp_path):
        """Pixel k of the G plane lands at images[0, 1, k // 32, k % 32]."""
        rec = np.zeros(RECORD_BYTES, dtype=np.uint8)
        rec[0] = 4
        rec[1 + 1024 + 37] = 255  # G plane, offset 37 = row 1, col 5
        f = tmp_path / "batch.bin"
        f.write_bytes(rec.tobytes())
        images, labels = load_batch_file(f)
        assert labels[0] == 4
        assert images[0, 1, 1, 5] == 1.0
        assert images.sum() == 1.0

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        f = tmp_path / "batch.bin"
        write_fake_batch(f, 30)
        images, _ = load_batch_file(f)
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_truncated_record_rejected(self, tmp_path):
        f = tmp_path / "batch.bin"
        f.write_bytes(bytes(RECORD_BYTES + 10))
        with pytest.raises(DataFormatError):
            load_batch_file(f)

    def test_label_byte_out_of_range(self, tmp_path):
        rec = bytearray(RECORD_BYTES)
        rec[0] = 10
        f = tmp_path / "batch.bin"
        f.write_bytes(bytes(rec))
        with pytest.raises(DataFormatError):
            load_batch_file(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_batch_file(tmp_path / "nope.bin")

    def test_round_trip_byte_identity(self, tmp_path):
        """load -> save reproduces the original file byte for byte."""
        f = tmp_path / "batch.bin"
        original = write_fake_batch(f, 64, seed=9).tobytes()
        images, labels = load_batch_file(f)
        out = tmp_path / "resaved.bin"
        save_batch_file(out, images, labels)
        assert out.read_bytes() == original

    @pytest.mark.parametrize("change", [
        "pixel 1.2", "pixel -0.1", "pixel nan", "pixel inf", "label 300", "label -1",
        "label 10", "float labels", "flat images", "one label short", "empty",
    ])
    def test_save_refuses_what_no_record_holds(self, tmp_path, change):
        """Input a record cannot hold raises before a byte is written: a
        pixel of 1.2 would be saved as byte 50 and -0.1 as 230, a label of
        300 as 44, which the loader refuses."""
        rng = np.random.default_rng(11)
        images, labels = rng.random((4, 3, 32, 32)), rng.integers(0, 10, 4)
        what, _, value = change.partition(" ")
        if what == "pixel":
            images[2, 1, 5, 7] = float(value)
        elif what == "label":
            labels[3] = int(value)
        elif change == "float labels":
            labels = labels + 0.5
        elif change == "flat images":
            images = images.reshape(4, -1)
        elif change == "one label short":
            labels = labels[:3]
        else:
            images, labels = images[:0], labels[:0]
        f = tmp_path / "batch.bin"
        f.write_bytes(b"old")
        with pytest.raises(DataFormatError):
            save_batch_file(f, images, labels)
        assert f.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["batch.bin"]

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        """A save that fails before its rename leaves the old file whole and
        no temporary file beside it."""
        f = tmp_path / "batch.bin"
        original = write_fake_batch(f, 8, seed=12).tobytes()
        images, labels = load_batch_file(f)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_batch_file(f, 1.0 - images, labels)
        assert f.read_bytes() == original
        assert os.listdir(tmp_path) == ["batch.bin"]

    def test_full_directory_load(self, tmp_path):
        for i in range(1, 6):
            write_fake_batch(tmp_path / f"data_batch_{i}.bin", 20, seed=i)
        write_fake_batch(tmp_path / "test_batch.bin", 10, seed=7)
        train, test = load_cifar10(tmp_path)
        assert len(train) == 100 and train.split == "train"
        assert len(test) == 10 and test.split == "test"


class TestSplit:
    def _dataset(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(rng.random((n, 3, 32, 32)), rng.integers(0, 10, n))

    def test_sizes(self):
        train, val = train_val_split(self._dataset(50), 5, seed=1)
        assert len(train) == 45 and len(val) == 5
        assert val.split == "val"

    def test_deterministic(self):
        ds = self._dataset()
        t1, v1 = train_val_split(ds, 10, seed=3)
        t2, v2 = train_val_split(ds, 10, seed=3)
        np.testing.assert_array_equal(v1.images, v2.images)
        np.testing.assert_array_equal(t1.labels, t2.labels)

    def test_partition(self):
        """Union of the halves is the whole set, intersection empty."""
        ds = self._dataset(40)
        keys = [img.tobytes() for img in ds.images]
        train, val = train_val_split(ds, 12, seed=5)
        got = sorted(img.tobytes() for img in np.concatenate([train.images, val.images]))
        assert got == sorted(keys)
        assert not set(i.tobytes() for i in train.images) & set(
            i.tobytes() for i in val.images
        )

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            train_val_split(self._dataset(10), 10, seed=0)


class TestNoise:
    def test_sigma_zero_identity(self):
        img = np.random.default_rng(0).random((4, 3, 32, 32))
        out = add_noise(img, NoiseSpec(sigma_noise=0.0, seed=1))
        np.testing.assert_array_equal(out, img)
        assert out is not img

    def test_statistics_over_a_million_pixels(self):
        """Empirical noise std 0.15 +- 0.002 and mean 0 +- 0.001."""
        img = np.zeros((330, 3, 32, 32))  # > 1e6 pixels
        out = add_noise(img, NoiseSpec(sigma_noise=0.15, seed=2))
        delta = out - img
        assert delta.std() == pytest.approx(0.15, abs=0.002)
        assert delta.mean() == pytest.approx(0.0, abs=0.001)

    def test_deterministic_per_seed(self):
        img = np.zeros((2, 3, 32, 32))
        a = add_noise(img, NoiseSpec(sigma_noise=0.15, seed=7))
        b = add_noise(img, NoiseSpec(sigma_noise=0.15, seed=7))
        c = add_noise(img, NoiseSpec(sigma_noise=0.15, seed=8))
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_out_of_place(self):
        img = np.full((1, 3, 32, 32), 0.5)
        before = img.copy()
        add_noise(img, NoiseSpec(sigma_noise=0.15, seed=0))
        np.testing.assert_array_equal(img, before)

    def test_values_not_clipped(self):
        """Additive noise may leave [0, 1]; clipping would skew it."""
        img = np.ones((50, 3, 32, 32))
        out = add_noise(img, NoiseSpec(sigma_noise=0.15, seed=3))
        assert out.max() > 1.0


class TestSynthetic:
    def test_shapes_and_balance(self):
        ds = make_synthetic(100, classes=10, seed=0)
        assert ds.images.shape == (100, 3, 32, 32)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a = make_synthetic(50, seed=4)
        b = make_synthetic(50, seed=4)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_range(self):
        ds = make_synthetic(64, seed=1)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_linearly_separable(self):
        """A linear classifier fits well-separated blobs to > 90%."""
        from aggnet.layers import LinearLayer, softmax_xent
        from aggnet.optim import Adam, ParamGroup
        from aggnet.layers import STANDARD

        ds = make_synthetic(400, classes=10, seed=2)
        x = ds.images.reshape(len(ds), -1)
        layer = LinearLayer(x.shape[1], 10, np.random.default_rng(0))
        opt = Adam([ParamGroup(STANDARD, 1e-2, layer.params())])
        for _ in range(60):
            logits = layer.forward(x)
            _, dlogits = softmax_xent(logits, ds.labels)
            layer.backward(dlogits)
            opt.step(clip_norm=np.inf)
        acc = (np.argmax(layer.forward(x, train=False), axis=1) == ds.labels).mean()
        assert acc > 0.9

    def test_round_trips_through_binary_format(self, tmp_path):
        """Synthetic data serializes in the same record format."""
        ds = make_synthetic(20, seed=5)
        f = tmp_path / "synth.bin"
        save_batch_file(f, ds.images, ds.labels)
        images, labels = load_batch_file(f)
        np.testing.assert_array_equal(labels, ds.labels)
        assert np.max(np.abs(images - ds.images)) <= 0.5 / 255.0


class TestBatches:
    def _dataset(self, n):
        rng = np.random.default_rng(0)
        return Dataset(rng.random((n, 3, 32, 32)), np.arange(n) % 10)

    def test_partial_batch_kept(self):
        sizes = [len(y) for _, y in batches(self._dataset(10), 3, shuffle_seed=0)]
        assert sizes == [3, 3, 3, 1]

    def test_shuffle_deterministic(self):
        ds = self._dataset(20)
        a = [y for _, y in batches(ds, 7, shuffle_seed=11)]
        b = [y for _, y in batches(ds, 7, shuffle_seed=11)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_every_index_once(self):
        ds = self._dataset(23)
        seen = np.concatenate([y for _, y in batches(ds, 5, shuffle_seed=3)])
        assert sorted(seen.tolist()) == sorted(ds.labels.tolist())

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batches(self._dataset(5), 0, shuffle_seed=0))


class TestFetch:
    def test_local_archive_with_checksum(self, tmp_path):
        """fetch verifies the digest and unpacks the batch files."""
        import hashlib
        import tarfile

        src = tmp_path / "src" / "cifar-10-batches-bin"
        src.mkdir(parents=True)
        for i in range(1, 6):
            write_fake_batch(src / f"data_batch_{i}.bin", 4, seed=i)
        write_fake_batch(src / "test_batch.bin", 4, seed=9)
        tar_path = tmp_path / "dest" / "cifar-10-binary.tar.gz"
        tar_path.parent.mkdir()
        with tarfile.open(tar_path, "w:gz") as tar:
            tar.add(src, arcname="cifar-10-batches-bin")
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()

        where = fetch_cifar10(tmp_path / "dest", sha256=digest)
        train, test = load_cifar10(where)
        assert len(train) == 20 and len(test) == 4

    @staticmethod
    def _cifar_archive(tmp_path, dest, records: int) -> Path:
        """Write dest/cifar-10-binary.tar.gz holding the six batch files."""
        import tarfile

        src = tmp_path / "src" / "cifar-10-batches-bin"
        src.mkdir(parents=True)
        for i in range(1, 6):
            write_fake_batch(src / f"data_batch_{i}.bin", records, seed=i)
        write_fake_batch(src / "test_batch.bin", records, seed=9)
        dest.mkdir(exist_ok=True)
        tar_path = dest / "cifar-10-binary.tar.gz"
        with tarfile.open(tar_path, "w:gz") as tar:
            tar.add(src, arcname="cifar-10-batches-bin")
        return tar_path

    def test_unpack_over_partial_batch_dir(self, tmp_path):
        """A batch directory left without its test batch (the probe's
        file) is completed and its stale files replaced."""
        import hashlib

        dest = tmp_path / "dest"
        (dest / "cifar-10-batches-bin").mkdir(parents=True)
        (dest / "cifar-10-batches-bin" / "data_batch_1.bin").write_bytes(b"stale")
        tar_path = self._cifar_archive(tmp_path, dest, records=4)
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()

        train, test = load_cifar10(fetch_cifar10(dest, sha256=digest))
        assert len(train) == 20 and len(test) == 4
        assert sorted(p.name for p in dest.iterdir()) == [
            "cifar-10-batches-bin", "cifar-10-binary.tar.gz"]

    def test_partial_batch_dir_is_completed(self, tmp_path):
        """A directory holding the test batch but not every training batch
        is not taken as fetched: the archive is downloaded (here from a
        ``file://`` URL) and completes it."""
        import hashlib

        tar_path = self._cifar_archive(tmp_path, tmp_path / "mirror", records=4)
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()
        dest = tmp_path / "dest"
        (dest / "cifar-10-batches-bin").mkdir(parents=True)
        for name in ["data_batch_1.bin", "data_batch_2.bin", "data_batch_4.bin",
                     "data_batch_5.bin", "test_batch.bin"]:
            write_fake_batch(dest / "cifar-10-batches-bin" / name, 4, seed=9)
        train, test = load_cifar10(fetch_cifar10(dest, url=tar_path.as_uri(), sha256=digest))
        assert len(train) == 20 and len(test) == 4
        assert (dest / "cifar-10-batches-bin" / "data_batch_3.bin").exists()

    def test_upper_case_digest_accepted(self, tmp_path):
        import hashlib

        dest = tmp_path / "dest"
        tar_path = self._cifar_archive(tmp_path, dest, records=4)
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()
        train, test = load_cifar10(fetch_cifar10(dest, sha256=digest.upper()))
        assert len(train) == 20 and len(test) == 4

    def test_checksum_streams_the_archive(self, tmp_path, traced_peak):
        """The archive is hashed in pieces: a fetch never holds as much as
        half of it at once (measured 0.12 of it; an archive read whole to
        hash it held 1.00)."""
        import hashlib
        import urllib.request  # noqa: F401  loaded here, so the fetch's own import is not counted

        dest = tmp_path / "dest"
        tar_path = self._cifar_archive(tmp_path, dest, records=64)  # about 1.2 MB
        size = tar_path.stat().st_size
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()
        assert traced_peak(lambda: fetch_cifar10(dest, sha256=digest)) < size / 2
        train, test = load_cifar10(dest)
        assert len(train) == 5 * 64 and len(test) == 64

    def test_checksum_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "cifar-10-binary.tar.gz"
        bad.write_bytes(b"not a real archive")
        with pytest.raises(DataFormatError):
            fetch_cifar10(tmp_path, sha256="0" * 64)

    @staticmethod
    def _archive_with(dest, name: str, payload: bytes) -> str:
        """Write dest/cifar-10-binary.tar.gz holding one member; return its sha256."""
        import hashlib
        import io
        import tarfile

        dest.mkdir()
        tar_path = dest / "cifar-10-binary.tar.gz"
        with tarfile.open(tar_path, "w:gz") as tar:
            info = tarfile.TarInfo(name)
            info.size = len(payload)
            tar.addfile(info, io.BytesIO(payload))
        return hashlib.sha256(tar_path.read_bytes()).hexdigest()

    def test_member_escaping_data_dir_rejected(self, tmp_path):
        dest = tmp_path / "dest"
        digest = self._archive_with(dest, "../escape.bin", b"outside")
        with pytest.raises(DataFormatError, match="unsafe archive member"):
            fetch_cifar10(dest, sha256=digest)
        assert [p for p in tmp_path.rglob("*") if dest not in (p, *p.parents)] == []

    def test_truncated_archive_leaves_no_batch_files(self, tmp_path):
        """An archive cut short (its digest matching, as with a mirror's
        digest given by ``--sha256``) is refused on every call, not only the
        first: no partial batch directory is left for the presence probe."""
        import hashlib

        dest = tmp_path / "dest"
        tar_path = self._cifar_archive(tmp_path, dest, records=64)
        raw = tar_path.read_bytes()
        tar_path.write_bytes(raw[: len(raw) // 2])
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()
        for _ in range(2):
            with pytest.raises(DataFormatError, match="unreadable archive"):
                fetch_cifar10(dest, sha256=digest)
            assert sorted(p.name for p in dest.iterdir()) == ["cifar-10-binary.tar.gz"]

    def test_corrupt_deflate_stream_refused(self, tmp_path, monkeypatch):
        """A damaged deflate block past the first tar header surfaces as a
        raw ``zlib.error``; it is refused the same way, leaving nothing."""
        import tarfile
        import zlib

        dest = tmp_path / "dest"
        digest = self._archive_with(dest, "cifar-10-batches-bin/test_batch.bin", b"x")

        def extractall(self, path, **kwargs):
            (Path(path) / "cifar-10-batches-bin").mkdir()
            raise zlib.error("Error -3 while decompressing data: invalid code lengths set")

        monkeypatch.setattr(tarfile.TarFile, "extractall", extractall)
        with pytest.raises(DataFormatError, match="unreadable archive"):
            fetch_cifar10(dest, sha256=digest)
        assert sorted(p.name for p in dest.iterdir()) == ["cifar-10-binary.tar.gz"]

    @pytest.mark.parametrize("cut_short", [False, True])
    def test_failed_download_leaves_no_archive(self, tmp_path, monkeypatch, cut_short):
        """A download that fails at once or part way leaves no archive for
        the next call to trust."""
        import urllib.error
        import urllib.request

        def urlretrieve(url, filename):
            Path(filename).write_bytes(b"\x1f\x8b partial")
            raise urllib.error.ContentTooShortError("retrieval incomplete", None)

        if cut_short:
            monkeypatch.setattr(urllib.request, "urlretrieve", urlretrieve)
        dest = tmp_path / "dest"
        with pytest.raises(OSError):
            fetch_cifar10(dest, url=(tmp_path / "missing.tar.gz").as_uri())
        assert list(dest.iterdir()) == []

    def test_unfilterable_tarfile_refuses_to_unpack(self, tmp_path, monkeypatch):
        import tarfile

        dest = tmp_path / "dest"
        digest = self._archive_with(dest, "cifar-10-batches-bin/test_batch.bin", b"x")
        monkeypatch.delattr(tarfile, "data_filter")
        with pytest.raises(DataFormatError, match="cannot filter"):
            fetch_cifar10(dest, sha256=digest)
        assert not (dest / "cifar-10-batches-bin").exists()

    def test_import_leaves_the_downloader_unloaded(self):
        """``import aggnet`` loads no network module; ``fetch_cifar10``
        imports ``urllib.request`` itself when it runs."""
        src = str(Path(aggnet.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, aggnet; "
                "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"
