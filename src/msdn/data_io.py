"""Dataset container, binary tensor file format, and synthetic data.

A dataset bundles per-image region features, attribute word vectors,
per-class semantic vectors, labels, the seen/unseen class partition, and
the train/test split index sets.  A ``Dataset`` is validated once, when
it is built (generated or loaded), its finiteness by the scan checkpoints
use too (``ndmath.first_non_finite``), and its arrays are read-only, so
a dataset that exists is a valid one.  On disk everything lives in a
little endian "ZSLD" container of f32 and i32 tensors, and a dataset
holds every float tensor as f32 too, so every tensor round-trips
bit-exactly: one built from f64 arrays holds them rounded to f32, as its
container will.  A loaded dataset's region features are a read-only
view of a read-only mapping of its file; each batch is gathered, in one
copy, as an f32 (R, B, d_v) stack, images after regions, which the model
casts to its weights' dtype.
Every output of the package is written through ``open_output`` (every
CSV through ``write_table``), which replaces a file and never truncates it.
"""

from __future__ import annotations

import csv
import itertools
import math
import mmap
import os
import stat
import struct
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .configfile import require_finite, require_seed
from .errors import ArgumentError, ContainerFormatError, DatasetValidationError, NumericError
from .ndmath import Rng, first_non_finite

_MAGIC = b"ZSLD"
_VERSION = 1
_MAX_DIM = 2 ** 32  # each dimension is packed as "<I"
_DTYPE_F32 = 1
_DTYPE_I32 = 3
_STORED_DTYPES = {_DTYPE_F32: "<f4", _DTYPE_I32: "<i4"}

# The schema of a dataset: each required tensor's rank and in-memory dtype,
# in container order.  A float tensor is cast to its dtype when a Dataset is
# built; an integer one keeps whichever integer dtype it comes in.
REQUIRED_TENSORS = {
    "features": (3, np.float32),         # (N, R, d_v)
    "attributes": (2, np.float32),       # (K, d_a)
    "class_semantics": (2, np.float32),  # (C, K)
    "labels": (1, np.integer),           # (N,)
    "seen_classes": (1, np.integer),
    "unseen_classes": (1, np.integer),
    "train_idx": (1, np.integer),
    "test_seen_idx": (1, np.integer),
    "test_unseen_idx": (1, np.integer),
}

# Extra tensor written by generate_synthetic: the attribute index that
# produced each (image, region) feature, for attention ground-truth tests.
GEN_REGION_ATTRIBUTE = "gen_region_attribute"


@dataclass(frozen=True)
class ClassSplit:
    """Sorted seen and unseen classes with their calibration offsets.

    The two lists partition 0..C-1.  This is the one place that sorts
    the classes and builds the +1 unseen / -1 seen offset and the map
    from a class to its position among the seen classes; the loss and
    the predictor both read it.  A dataset builds its own once, as
    ``Dataset.split``, so no run, report or batch re-sorts the classes
    or rebuilds the offsets.  Its arrays are read-only.
    """

    seen: np.ndarray
    unseen: np.ndarray
    indicator: np.ndarray    # (C,): +1 on unseen classes, -1 on seen ones
    unseen_mask: np.ndarray  # (C,): 1 on unseen classes, 0 on seen ones
    seen_pos: np.ndarray     # (C,): position in ``seen``, -1 on unseen classes

    @classmethod
    def of(cls, seen_classes: np.ndarray, unseen_classes: np.ndarray) -> "ClassSplit":
        seen = np.sort(np.asarray(seen_classes, dtype=np.int64))
        unseen = np.sort(np.asarray(unseen_classes, dtype=np.int64))
        unseen_mask = np.zeros(seen.size + unseen.size)
        unseen_mask[unseen] = 1.0
        seen_pos = np.full(unseen_mask.size, -1, dtype=np.int64)
        seen_pos[seen] = np.arange(seen.size)
        arrays = (seen, unseen, 2.0 * unseen_mask - 1.0, unseen_mask, seen_pos)
        for arr in arrays:
            arr.flags.writeable = False
        return cls(*arrays)


@dataclass(frozen=True)
class Dataset:
    """In-memory dataset, its tensors laid out as ``REQUIRED_TENSORS`` says.

    Construction casts each float tensor to an aligned C-order array of its
    dtype there, copying only where the dtype, the order or the alignment
    changes.  It then raises :class:`DatasetValidationError` unless
    :func:`validate_dataset` finds no violation, and marks every tensor
    read-only in place.  ``extras`` becomes a read-only mapping over a
    copy of the given dict, so no tensor joins it afterwards.
    """

    features: np.ndarray
    attributes: np.ndarray
    class_semantics: np.ndarray
    labels: np.ndarray
    seen_classes: np.ndarray
    unseen_classes: np.ndarray
    train_idx: np.ndarray
    test_seen_idx: np.ndarray
    test_unseen_idx: np.ndarray
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Other kinds pass uncast, for validation to reject.  A value out of
        # float32 range becomes inf and a signalling NaN a quiet one, which
        # validation rejects too, so the casts need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            for name, (_, dtype) in REQUIRED_TENSORS.items():
                arr = getattr(self, name)
                if dtype is not np.integer and arr.dtype.kind == "f":
                    object.__setattr__(self, name, np.require(arr, dtype, "CA"))
        object.__setattr__(self, "extras", MappingProxyType(dict(self.extras)))
        violations = validate_dataset(self)
        if violations:
            raise DatasetValidationError(violations)
        for arr in (*(getattr(self, name) for name in REQUIRED_TENSORS),
                    *self.extras.values()):
            arr.flags.writeable = False

    def regions(self, idx) -> np.ndarray:
        """The f32 region features of images ``idx`` as a C-order (R, B, d_v) stack.

        The model folds the stack to (R*B, d_v) region-major rows with no
        copy.  The one copy takes the (region, image) rows of (N*R, d_v).
        """
        n, r, d_v = self.features.shape
        rows = np.multiply(idx, r, dtype=np.intp) + np.arange(r, dtype=np.intp)[:, None]
        return self.features.reshape(n * r, d_v).take(rows, axis=0)

    @cached_property
    def split(self) -> ClassSplit:
        """The validated seen/unseen partition, built on first use and kept."""
        return ClassSplit.of(self.seen_classes, self.unseen_classes)

    @cached_property
    def test_idx(self) -> np.ndarray:
        """Read-only ``[test_unseen_idx; test_seen_idx]``: the row order of a test embedding."""
        # intp: a signed and a uint64 index array would otherwise join as float64.
        idx = np.concatenate([self.test_unseen_idx, self.test_seen_idx], dtype=np.intp)
        idx.flags.writeable = False
        return idx

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_regions(self) -> int:
        return self.features.shape[1]

    @property
    def visual_dim(self) -> int:
        return self.features.shape[2]

    @property
    def num_attributes(self) -> int:
        return self.attributes.shape[0]

    @property
    def attr_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_semantics.shape[0]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic generator; defaults are the stock benchmark.

    ``active_attributes`` is the number of attributes each seen class
    expresses (its class semantic vector is zero elsewhere); 0 means auto,
    a quarter of the attributes and at least one.  Each unseen class's
    semantic vector is a convex blend of two seen classes' vectors, so an
    unseen class shares partial attribute information with a set of seen
    classes.  Sparse seen vectors keep classes separable from few regions;
    the blending ties unseen classes into the span the seen-class loss
    constrains, which is what makes the transfer measurable.
    """

    num_seen: int = 8
    num_unseen: int = 4
    num_attributes: int = 12
    num_regions: int = 9
    visual_dim: int = 16
    attr_dim: int = 10
    samples_per_class: int = 50
    noise_std: float = 0.1
    seed: int = 1
    active_attributes: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        require_seed("SynthSpec.seed", self.seed)
        sizes = {name: getattr(self, name)
                 for name in ("num_seen", "num_unseen", "num_attributes", "num_regions",
                              "visual_dim", "attr_dim", "samples_per_class")}
        for name, value in sizes.items():
            if value < 1:
                raise ArgumentError(f"SynthSpec.{name} must be >= 1, got {value}")
        # rejected here, before generate_synthetic allocates anything
        sizes["(num_seen + num_unseen) * samples_per_class"] = (
            (self.num_seen + self.num_unseen) * self.samples_per_class)
        for name, value in sizes.items():
            if value >= _MAX_DIM:
                raise ArgumentError(
                    f"SynthSpec {name} is {value}; a container dimension must be below 2^32")
        if self.noise_std < 0:
            raise ArgumentError(f"SynthSpec.noise_std must be >= 0, got {self.noise_std}")
        if not 0 <= self.active_attributes <= self.num_attributes:
            raise ArgumentError(
                f"SynthSpec.active_attributes must lie in [0, {self.num_attributes}], "
                f"got {self.active_attributes}"
            )


# --------------------------------------------------------------------------
# Output files
# --------------------------------------------------------------------------

def _create_sibling(target: str, path: str | Path) -> tuple[str, int]:
    """A new hidden file next to ``target``, created with the umask's mode."""
    head, name = os.path.split(target)
    while True:
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        except OSError as exc:  # name the output asked for, not the hidden file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


@contextmanager
def open_output(path: str | Path, mode: str = "w") -> Iterator:
    """Open an output file for writing, text (``"w"``) or binary (``"wb"``).

    The bytes go to a new file in the target's directory (symlinks
    resolved).  Only once it is written and closed is the old file
    unlinked and the new one renamed onto the free name, so a reader
    sees the old file, no file, or the new file, never a partial one,
    and a handle on the old file keeps its bytes.  Truncating a file, or
    renaming over one, that was written a moment ago can block until its
    data is flushed (ext4 does); neither happens here.  If the writer
    raises, the new file is removed and the old one is left as it was.
    A target that exists but is not a regular file (a device, a FIFO, a
    directory) is opened in place.  Nothing is fsynced.
    """
    text = {} if "b" in mode else {"newline": ""}
    target = os.path.realpath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(target).st_mode)
    except OSError:
        in_place = False
    # A name ending in a separator asks for a directory; open() reports that.
    if in_place or not os.path.basename(path):
        with open(path, mode, **text) as fh:
            yield fh
        return
    tmp, fd = _create_sibling(target, path)
    try:
        with open(fd, mode, **text) as fh:
            yield fh
        with suppress(FileNotFoundError):
            os.unlink(target)
        os.rename(tmp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV in the csv default dialect: ``\\r\\n`` rows, floats as shortest repr."""
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# Container file format
# --------------------------------------------------------------------------

def write_container(path: str | Path, items: list[tuple[str, np.ndarray]]) -> None:
    """Write named tensors; floats stored as f32, integers as i32.  A finite float
    that overflows f32 raises ``NumericError``, and an integer outside i32
    ``ContainerFormatError``, before the file is opened."""
    seen_names = set()
    chunks = [_MAGIC, struct.pack("<II", _VERSION, len(items))]
    for name, arr in items:
        if name in seen_names:
            raise ContainerFormatError(f"duplicate tensor name {name!r}")
        seen_names.add(name)
        data = np.ascontiguousarray(arr)
        if data.dtype.kind == "f":
            with np.errstate(over="ignore"):
                code, payload = _DTYPE_F32, data.astype("<f4", copy=False)
            if payload is not data and (np.isinf(payload) > np.isinf(data)).any():
                raise NumericError(f"tensor {name!r} overflows float32")
        elif data.dtype.kind in "iu":
            code, payload = _DTYPE_I32, data.astype("<i4", copy=False)
            if payload is not data and not np.array_equal(payload, data):
                raise ContainerFormatError(f"tensor {name!r} has values outside int32")
        else:
            raise ContainerFormatError(
                f"tensor {name!r} has unsupported dtype {data.dtype}"
            )
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ContainerFormatError(f"tensor name too long: {name!r}")
        if max(payload.shape, default=0) >= _MAX_DIM:
            raise ContainerFormatError(
                f"tensor {name!r} has shape {payload.shape}; a container dimension must be "
                f"below 2^32")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", code, payload.ndim))
        chunks.append(struct.pack(f"<{payload.ndim}I", *payload.shape))
        chunks.append(payload)
    # Payloads go to the file as they are: no joined copy of the whole file.
    with open_output(path, "wb") as fh:
        fh.writelines(chunks)


def read_container(path: str | Path) -> list[tuple[str, np.ndarray]]:
    """Read named tensors in their stored dtype, ``<f4`` or ``<i4``.

    Each tensor is a read-only view of a read-only mapping of the file, kept
    as long as a view is: no payload is copied.  A file that cannot be mapped
    (empty, a FIFO, a pipe) is read instead.  Truncating it in place meanwhile
    raises SIGBUS on a view; ``open_output`` replaces files, so no output does.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        blob = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                if stat.S_ISREG(st.st_mode) and st.st_size else fh.read())
    view = memoryview(blob)  # slices of a view share the file's bytes: no payload copies
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise ContainerFormatError(f"file ends inside {what}")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if take(4, "magic bytes") != _MAGIC:
        raise ContainerFormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != _VERSION:
        raise ContainerFormatError(f"unsupported version {version}, expected {_VERSION}")

    items: list[tuple[str, np.ndarray]] = []
    names = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        raw_name = bytes(take(name_len, "tensor name"))
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerFormatError(f"tensor name {raw_name!r} is not UTF-8: {exc}") from exc
        if name in names:
            raise ContainerFormatError(f"duplicate tensor name {name!r}")
        names.add(name)
        code, ndim = struct.unpack("<BB", take(2, "tensor dtype/rank"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"dims of {name!r}"))
        n_elems = math.prod(dims)
        if code not in _STORED_DTYPES:
            raise ContainerFormatError(f"unknown dtype code {code} for tensor {name!r}")
        payload = take(4 * n_elems, f"payload of {name!r}")
        try:
            items.append((name, np.frombuffer(payload, _STORED_DTYPES[code]).reshape(dims)))
        except ValueError as exc:  # over numpy's rank limit, or a too-big empty shape
            raise ContainerFormatError(f"tensor {name!r} of shape {dims}: {exc}") from exc
    if pos != len(blob):
        raise ContainerFormatError(f"{len(blob) - pos} trailing bytes after last tensor")
    return items


def save_container(ds: Dataset, path: str | Path) -> None:
    """Write a dataset, valid since it was built; extras follow the required tensors."""
    items = [(name, getattr(ds, name)) for name in REQUIRED_TENSORS]
    items.extend(ds.extras.items())
    write_container(path, items)


def load_container(path: str | Path) -> Dataset:
    """Read a dataset, which validates as it is built; unknown tensors go to ``extras``."""
    tensors = dict(read_container(path))
    missing = [name for name in REQUIRED_TENSORS if name not in tensors]
    if missing:
        raise ContainerFormatError(f"missing required tensors: {', '.join(missing)}")
    extras = {
        name: arr for name, arr in tensors.items() if name not in REQUIRED_TENSORS
    }
    return Dataset(**{name: tensors[name] for name in REQUIRED_TENSORS}, extras=extras)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

class _Tally(NamedTuple):
    """Counts of 0..size-1 in an integer array, its other values, and whether one repeats.
    Only in-range values are counted, so a huge or negative one costs no memory."""

    counts: np.ndarray
    others: set[int]
    repeats: bool

    @classmethod
    def of(cls, arr: np.ndarray, size: int) -> "_Tally":
        inside = (arr >= 0) & (arr < size)
        counts = np.bincount(arr[inside].astype(np.intp), minlength=size)
        others = arr[~inside].tolist()
        return cls(counts, set(others), bool(counts.max() > 1) or len(set(others)) < len(others))

    def shared(self, other: "_Tally") -> list[int]:
        """The values both arrays hold, in ascending order."""
        both = np.flatnonzero(np.logical_and(self.counts, other.counts)).tolist()
        return sorted(both + list(self.others & other.others))


def validate_dataset(ds: Dataset) -> list[str]:
    """Return a list of invariant violations; empty means the dataset is valid."""
    out: list[str] = []

    for name, (rank, dtype) in REQUIRED_TENSORS.items():
        arr, is_float = getattr(ds, name), dtype is not np.integer
        if arr.ndim != rank:
            out.append(f"{name} must have rank {rank}, got shape {arr.shape}")
        elif arr.dtype.kind not in ("f" if is_float else "iu"):
            out.append(f"{name} must have {'a float' if is_float else 'an integer'} dtype, "
                       f"got {arr.dtype}")
        elif is_float and 0 in arr.shape:
            out.append(f"{name} has an empty axis, shape {arr.shape}")
    if out:
        return out  # shapes or dtypes are broken; deeper checks would be misleading

    n = ds.num_samples
    c = ds.num_classes
    if ds.class_semantics.shape[1] != ds.num_attributes:
        out.append(
            "class_semantics columns must match attribute count: "
            f"{ds.class_semantics.shape[1]} vs {ds.num_attributes}"
        )
    if ds.labels.shape[0] != n:
        out.append(f"labels length {ds.labels.shape[0]} != sample count {n}")

    for name in ("features", "attributes", "class_semantics"):
        index = first_non_finite(getattr(ds, name))
        if index is not None:
            out.append(f"non-finite value in {name} at index {index}")

    seen, unseen = _Tally.of(ds.seen_classes, c), _Tally.of(ds.unseen_classes, c)
    for name, tally in (("seen_classes", seen), ("unseen_classes", unseen)):
        if tally.repeats:
            out.append(f"{name} contains duplicates")
    overlap = seen.shared(unseen)
    if overlap:
        out.append(f"seen/unseen classes overlap: {overlap}")
    union = np.logical_or(seen.counts, unseen.counts)
    if seen.others or unseen.others or not union.all():
        union_values = sorted(np.flatnonzero(union).tolist() + list(seen.others | unseen.others))
        out.append(f"seen and unseen classes must partition 0..{c - 1}, got union {union_values}")

    if ds.labels.size and (ds.labels.min() < 0 or ds.labels.max() >= c):
        out.append(f"labels must lie in [0, {c}), found range "
                   f"[{int(ds.labels.min())}, {int(ds.labels.max())}]")

    splits = {name: _Tally.of(getattr(ds, name), n)
              for name in ("train_idx", "test_seen_idx", "test_unseen_idx")}
    for name, tally in splits.items():
        if tally.repeats:
            out.append(f"{name} contains duplicate indices")
        if tally.others:
            out.append(f"{name} has out-of-range indices for {n} samples")
    for a, b in itertools.combinations(splits, 2):
        shared = splits[a].shared(splits[b])
        if shared:
            out.append(f"{a} and {b} share indices: {shared[:5]}")

    if out:
        return out  # label membership checks need clean indices

    # The classes partition 0..c-1 and every label lies in it.
    is_seen = seen.counts > 0
    for name, allowed, kind in (("train_idx", is_seen, "seen"), ("test_seen_idx", is_seen, "seen"),
                                ("test_unseen_idx", ~is_seen, "unseen")):
        labels = ds.labels[getattr(ds, name)]
        bad = labels[~allowed[labels]]
        if bad.size:
            out.append(f"{name} contains samples of non-{kind} classes: {sorted(set(bad.tolist()))}")
    return out


# --------------------------------------------------------------------------
# Synthetic generation
# --------------------------------------------------------------------------

def _weighted_picks(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each uniform in ``u``, an index drawn in proportion to ``weights`` >= 0.

    The first index whose running weight sum exceeds ``u * total``, else
    the last (rounding slack); ``np.cumsum`` adds in index order.
    """
    total = float(np.sum(weights))
    if total <= 0.0 or not math.isfinite(total):
        raise ArgumentError("weighted pick requires a positive finite weight sum")
    picks = np.searchsorted(np.cumsum(weights), u * total, side="right")
    return np.minimum(picks, len(weights) - 1)


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """Rows of n standard normals from rows of (u1, u2) uniform pairs.

    Pair j gives deviates 2j and 2j + 1; an odd n drops the spare.  The
    ``math`` log/cos/sin run once per element: numpy's may differ in the
    last bit (and by CPU), which would change the generated bytes.
    """
    def each(fn, x: np.ndarray) -> np.ndarray:
        return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)

    radius = np.sqrt(-2.0 * each(math.log, 1.0 - u[:, 0::2]))  # 1 - u in (0, 1]: finite log
    theta = (2.0 * math.pi) * u[:, 1::2]
    out = np.empty(u.shape)
    out[:, 0::2] = radius * each(math.cos, theta)
    out[:, 1::2] = radius * each(math.sin, theta)
    return out[:, :n]


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic zero-shot dataset with recoverable attention.

    Attribute vectors are uniform in [-1, 1)^d_a and class semantic vectors
    uniform in [0, 1)^K.  A single linear map shared by all classes sends
    attribute space to visual space; each region feature is that map applied
    to one attribute vector (picked with probability proportional to the
    class semantic vector) plus i.i.d. Gaussian noise.  Because the map is
    shared, the visual-attribute correspondence learned on seen classes
    carries over to unseen ones.  The picked attribute index per region is
    recorded in ``extras["gen_region_attribute"]``.  The dataset holds
    the f64 draws rounded to f32.
    """
    rng = Rng(spec.seed)

    num_classes = spec.num_seen + spec.num_unseen
    n = num_classes * spec.samples_per_class
    attributes = rng.uniform(-1.0, 1.0, spec.num_attributes, spec.attr_dim)
    class_semantics = rng.uniform(0.0, 1.0, num_classes, spec.num_attributes)
    # Each seen class keeps only its strongest attributes (a quarter, at least
    # one, when active_attributes is 0); the rest drop to zero so region picks
    # concentrate on a small, class-specific subset.
    seen = class_semantics[: spec.num_seen]
    active = spec.active_attributes or max(1, spec.num_attributes // 4)
    cutoff = np.sort(seen, axis=1)[:, -active, None]
    seen[seen < cutoff] = 0.0
    # Unseen classes blend two seen classes' semantic vectors, with a
    # random mixing weight in [0.3, 0.7).  Row j of the draw is class j's
    # first parent, its second, drawn distinct from the first whenever two
    # seen classes exist, and its weight.
    blend = rng.uniform(0.0, 1.0, spec.num_unseen, 3 if spec.num_seen > 1 else 2)
    first = (blend[:, 0] * spec.num_seen).astype(np.intp)
    second = first
    if spec.num_seen > 1:
        second = (blend[:, 1] * (spec.num_seen - 1)).astype(np.intp)
        second += second >= first
    weight = 0.3 + 0.4 * blend[:, -1:]
    class_semantics[spec.num_seen:] = weight * seen[first] + (1.0 - weight) * seen[second]
    vis_map = rng.uniform(-1.0, 1.0, spec.visual_dim, spec.attr_dim)
    prototypes = attributes @ vis_map.T  # (K, d_v): image of each attribute

    spc, d_v = spec.samples_per_class, spec.visual_dim
    features = np.empty((num_classes, spc * spec.num_regions, d_v), dtype=np.float32)
    region_attr = np.empty((num_classes, spc * spec.num_regions), dtype=np.int32)
    for c in range(num_classes):
        # One draw per class, not per dataset, to bound memory.  Row i is
        # region i's attribute-pick uniform, then its Box-Muller pairs:
        # the order of one pick and one d_v-normal draw per region.  The
        # rows round to f32 as they are stored.
        u = rng.uniform(0.0, 1.0, spc * spec.num_regions, 1 + 2 * ((d_v + 1) // 2))
        region_attr[c] = picks = _weighted_picks(class_semantics[c], u[:, 0])
        features[c] = prototypes[picks] + spec.noise_std * _box_muller(u[:, 1:], d_v)

    # A fifth of each seen class is held out for GZSL seen-class testing
    # (at least one sample once the class has two).
    keep = spc - max(spc // 5, min(spc - 1, 1))
    blocks = np.arange(n, dtype=np.int32).reshape(num_classes, spc)

    return Dataset(
        features=features.reshape(n, spec.num_regions, d_v),
        attributes=attributes,
        class_semantics=class_semantics,
        labels=np.repeat(np.arange(num_classes, dtype=np.int32), spc),
        seen_classes=np.arange(spec.num_seen, dtype=np.int32),
        unseen_classes=np.arange(spec.num_seen, num_classes, dtype=np.int32),
        train_idx=blocks[: spec.num_seen, :keep].ravel(),
        test_seen_idx=blocks[: spec.num_seen, keep:].ravel(),
        test_unseen_idx=blocks[spec.num_seen:].ravel(),
        extras={GEN_REGION_ATTRIBUTE: region_attr.reshape(n, spec.num_regions)},
    )
