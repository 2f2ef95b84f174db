"""CIFAR-10 binary ingestion, Gaussian corruption, synthetic blobs and
deterministic batching.

The binary record layout is 3073 bytes: one label byte then 3072 pixel
bytes, channel-planar R, G, B, each plane a row-major 32x32 grid.  Pixels
are scaled to [0, 1] on load; noisy copies are not clipped back into
range, so the corruption statistics stay exactly Gaussian.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tarfile
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint

RECORD_BYTES = 3073
IMAGE_SHAPE = (3, 32, 32)
NUM_CLASSES = 10

TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
TEST_FILE = "test_batch.bin"

CIFAR10_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"
# sha256 of cifar-10-binary.tar.gz as published with the dataset mirrors
CIFAR10_SHA256 = "c32a1d4ab5d03f1284b67883e8d87530b7f98ca2a32854bd7d5e2b5c3fdee5cd"


class DataFormatError(ValueError):
    """The on-disk bytes do not match the CIFAR-10 binary layout."""


@dataclass
class Dataset:
    """Images in [0, 1] with integer labels and a split tag."""

    images: np.ndarray  # (N, 3, 32, 32) float64
    labels: np.ndarray  # (N,) int64 in [0, 10)
    split: str = "train"

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1:] != IMAGE_SHAPE:
            raise DataFormatError(f"bad image shape {self.images.shape}")
        if len(self.labels) != len(self.images) or len(self.labels) == 0:
            raise DataFormatError("labels must match a non-empty image set")
        if self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES:
            raise DataFormatError("label outside [0, 10)")

    def __len__(self):
        return len(self.images)


@dataclass
class NoiseSpec:
    """Additive i.i.d. Gaussian pixel noise, drawn deterministically."""

    sigma_noise: float
    seed: int


def load_batch_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch file into ([0,1] images, labels)."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % RECORD_BYTES:
        raise DataFormatError(
            f"{path}: size {len(raw)} is not a positive multiple of {RECORD_BYTES}"
        )
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = rec[:, 0].astype(np.int64)
    if labels.max() >= NUM_CLASSES:
        raise DataFormatError(f"{path}: label byte {labels.max()} > 9")
    images = rec[:, 1:].reshape(-1, *IMAGE_SHAPE).astype(np.float64) / 255.0
    return images, labels


def _batch_dir(data_dir) -> Path | None:
    """Whichever of ``data_dir`` and its ``cifar-10-batches-bin`` holds all six batch files."""
    for d in (Path(data_dir), Path(data_dir) / "cifar-10-batches-bin"):
        if all((d / name).exists() for name in (*TRAIN_FILES, TEST_FILE)):
            return d
    return None


def load_cifar10(data_dir) -> tuple[Dataset, Dataset]:
    """Load the six standard batch files into (train, test) datasets."""
    d = _batch_dir(data_dir) or Path(data_dir)  # else the first missing file is named
    imgs, labs = zip(*(load_batch_file(d / name) for name in TRAIN_FILES))
    train = Dataset(np.concatenate(imgs), np.concatenate(labs), split="train")
    ti, tl = load_batch_file(d / TEST_FILE)
    test = Dataset(ti, tl, split="test")
    return train, test


def save_batch_file(path, images: np.ndarray, labels: np.ndarray):
    """Serialize images/labels back to the binary record format, replacing
    ``path`` atomically.

    Loading a file and re-saving it reproduces the original bytes.  Input
    that no record can hold (a bad shape, a pixel outside [0, 1] or not
    finite, a label not an integer in [0, 10)) raises :class:`DataFormatError`
    before anything is written.
    """
    images, labels = np.asarray(images), np.asarray(labels)
    n = labels.size
    if n == 0 or labels.shape != (n,) or images.shape != (n, *IMAGE_SHAPE):
        raise DataFormatError(f"expected (N, 3, 32, 32) images and (N,) labels, N > 0, "
                              f"got {images.shape} and {labels.shape}")
    if not np.all((images >= 0.0) & (images <= 1.0)):  # NaN fails both
        raise DataFormatError("pixel not a finite value in [0, 1]")
    if labels.dtype.kind not in "iu" or not np.all((labels >= 0) & (labels < NUM_CLASSES)):
        raise DataFormatError("label not an integer in [0, 10)")
    rec = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = np.rint(images.reshape(n, -1) * 255.0).astype(np.uint8)
    with checkpoint.atomic_open(path, "wb") as f:
        f.write(rec.tobytes())


def train_val_split(data: Dataset, val_size: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seed-deterministic disjoint split into (train', val)."""
    n = len(data)
    if not 0 < val_size < n:
        raise ValueError(f"val_size must be in (0, {n}), got {val_size}")
    perm = np.random.default_rng(seed).permutation(n)
    val_idx, train_idx = perm[:val_size], perm[val_size:]
    return (
        Dataset(data.images[train_idx], data.labels[train_idx], split="train"),
        Dataset(data.images[val_idx], data.labels[val_idx], split="val"),
    )


def add_noise(images: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Return images + N(0, sigma^2) noise; the input is never mutated.

    Values are deliberately not clipped back to [0, 1]: clipping would
    skew the noise distribution at the range edges.
    """
    if spec.sigma_noise == 0:
        return images.copy()
    rng = np.random.default_rng(spec.seed)
    return images + rng.normal(0.0, spec.sigma_noise, size=images.shape)


def make_synthetic(n: int, classes: int = NUM_CLASSES, seed: int = 0,
                   sigma_blob: float = 0.08, split: str = "train") -> Dataset:
    """Gaussian class blobs with the CIFAR-10 shape contract.

    Each class gets a fixed random two-level pixel pattern as its mean;
    samples are the mean plus isotropic Gaussian noise, clipped to [0, 1].
    Class means differ on roughly half the pixels by 0.4, which keeps the
    blobs linearly separable for any sigma_blob well under that gap.
    Labels are balanced to within one sample.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    dim = int(np.prod(IMAGE_SHAPE))
    means = np.where(rng.random((classes, dim)) < 0.5, 0.3, 0.7)
    labels = np.arange(n) % classes
    labels = rng.permutation(labels)
    images = means[labels] + rng.normal(0.0, sigma_blob, size=(n, dim))
    images = np.clip(images, 0.0, 1.0).reshape(n, *IMAGE_SHAPE)
    return Dataset(images, labels.astype(np.int64), split=split)


def batches(data: Dataset, batch_size: int, shuffle_seed: int):
    """Yield (images, labels) batches in the order of the permutation that
    ``shuffle_seed`` draws; the final partial batch is kept.

    Every index appears exactly once per epoch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(data)
    idx = np.random.default_rng(shuffle_seed).permutation(n)
    for lo in range(0, n, batch_size):
        sel = idx[lo : lo + batch_size]
        yield data.images[sel], data.labels[sel]


def _sha256(path: Path) -> str:
    """The hex SHA-256 digest of the file at ``path``, read 64 KiB at a time
    so the ~170 MB archive is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fetch_cifar10(data_dir, url: str = CIFAR10_URL, sha256: str = CIFAR10_SHA256):
    """Download, checksum-verify and unpack the CIFAR-10 binary archive.

    Skips the download when all six batch files are already present.  A
    ``sha256`` that is not 64 hex digits (either case) is refused before any
    download.  Members are unpacked through tarfile's "data" filter, so one
    that would land outside ``data_dir`` is rejected.  The archive and the
    batch files appear only whole: the download lands under a temporary
    name and the archive unpacks into a temporary directory, each moved
    into place once complete.
    """
    if len(sha256) != 64 or not set(sha256.lower()) <= set("0123456789abcdef"):
        raise ValueError(f"sha256 digest must be 64 hex digits, got {sha256!r}")
    import urllib.request  # here, not at module level: it loads http.client and ssl

    d = Path(data_dir)
    d.mkdir(parents=True, exist_ok=True)
    if _batch_dir(d) is not None:
        return d
    archive = d / "cifar-10-binary.tar.gz"
    if not archive.exists():
        part = Path(f"{archive}.{os.getpid()}.tmp")
        try:
            urllib.request.urlretrieve(url, part)
            os.replace(part, archive)
        finally:
            part.unlink(missing_ok=True)
    digest = _sha256(archive)
    if digest != sha256.lower():
        raise DataFormatError(
            f"archive checksum mismatch: got {digest}, expected {sha256}"
        )
    if not hasattr(tarfile, "data_filter"):
        raise DataFormatError(
            "this Python's tarfile cannot filter archive members "
            "(needs 3.10.12, 3.11.4 or later); refusing to unpack unfiltered"
        )
    unpacked = Path(tempfile.mkdtemp(dir=d))
    try:
        with tarfile.open(archive, "r:gz") as tar:
            tar.extractall(unpacked, filter="data")
        for member in sorted(unpacked.rglob("*")):  # parents before children
            target = d / member.relative_to(unpacked)
            if member.is_dir():
                target.mkdir(exist_ok=True)
            else:
                os.replace(member, target)
    except tarfile.FilterError as exc:
        raise DataFormatError(f"unsafe archive member: {exc}") from exc
    except (tarfile.TarError, EOFError, zlib.error) as exc:
        raise DataFormatError(f"{archive}: unreadable archive ({exc})") from exc
    finally:
        shutil.rmtree(unpacked, ignore_errors=True)
    return d
