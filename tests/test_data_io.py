import contextlib
import dataclasses
import io
import os
import stat
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import TINY_SPEC, format_kv, patched
from msdn import cli, data_io
from msdn.configfile import load_config
from msdn.ndmath import Rng
from msdn.data_io import (
    GEN_REGION_ATTRIBUTE,
    Dataset,
    SynthSpec,
    generate_synthetic,
    load_container,
    read_container,
    save_container,
    validate_dataset,
    write_container,
)
from msdn.errors import ArgumentError, ContainerFormatError, DatasetValidationError, NumericError


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    names = ("features", "attributes", "class_semantics", "labels", "seen_classes",
             "unseen_classes", "train_idx", "test_seen_idx", "test_unseen_idx")
    if any(not np.array_equal(getattr(a, n), getattr(b, n)) for n in names):
        return False
    if a.extras.keys() != b.extras.keys():
        return False
    return all(np.array_equal(a.extras[k], b.extras[k]) for k in a.extras)


def violations_of(ds: Dataset, **changes) -> list[str]:
    """The violations that building ``ds`` with ``changes`` raises."""
    with pytest.raises(DatasetValidationError) as exc:
        dataclasses.replace(ds, **changes)
    return exc.value.violations


class TestContainerRoundTrip:
    def test_bit_exact(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.zsld"
        save_container(tiny_dataset, path)
        assert datasets_equal(load_container(path), tiny_dataset)

    def test_resave_byte_exact(self, tiny_dataset, tmp_path):
        first = tmp_path / "a.zsld"
        second = tmp_path / "b.zsld"
        save_container(tiny_dataset, first)
        save_container(load_container(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_extra_tensor_preserved(self, tiny_dataset, tmp_path):
        ds = dataclasses.replace(tiny_dataset, extras={
            **tiny_dataset.extras, "custom_debug": np.arange(6, dtype=np.int32)})
        path = tmp_path / "extra.zsld"
        save_container(ds, path)
        loaded = load_container(path)
        assert np.array_equal(loaded.extras["custom_debug"], np.arange(6))
        assert GEN_REGION_ATTRIBUTE in loaded.extras

    def test_save_rejects_invalid_dataset(self, tiny_dataset, tmp_path):
        path = tmp_path / "bad.zsld"
        with pytest.raises(DatasetValidationError) as exc:
            save_container(dataclasses.replace(
                tiny_dataset, labels=patched(tiny_dataset.labels, 0, 99)), path)
        assert any("labels must lie in" in m for m in exc.value.violations)
        assert not path.exists()

    def test_save_rejects_a_finite_value_beyond_float32(self, tiny_dataset, tmp_path):
        # A dataset holds its attributes as f32, so 1e39 fails when it is built;
        # the writer refuses a float64 1e39, which would be stored as an f32 inf,
        # before it opens the file.
        big = np.asarray(tiny_dataset.attributes, dtype=np.float64)
        big[1, 2] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert "non-finite value in attributes at index (1, 2)" in violations_of(
                tiny_dataset, attributes=big)
        path = tmp_path / "big.zsld"
        path.write_bytes(b"old")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'attributes' overflows float32"):
                write_container(path, [("features", tiny_dataset.features), ("attributes", big)])
        assert path.read_bytes() == b"old" and temp_files(tmp_path) == []
        # float64 entries that f32 holds, and non-finite ones, are stored as they are
        wide = np.array([3e38, -np.inf, np.nan])
        write_container(path, [("x", wide)])
        assert np.array_equal(read_container(path)[0][1], wide.astype(np.float32),
                              equal_nan=True)

    @pytest.mark.parametrize("arr", [np.array([2**40]), np.array([2**32 - 1], dtype=np.uint64),
                                     np.array([0, -2**31 - 1])], ids=["int64", "uint64", "low"])
    def test_integers_beyond_int32_rejected_before_writing(self, tmp_path, arr):
        path = tmp_path / "wide.zsld"
        with pytest.raises(ContainerFormatError, match=r"^tensor 'a' has values outside int32$"):
            write_container(path, [("a", arr)])
        assert list(tmp_path.iterdir()) == []
        # the int32 range itself is stored exactly, from any integer dtype
        edges = np.array([-2**31, 2**31 - 1])
        write_container(path, [("a", edges)])
        assert np.array_equal(read_container(path)[0][1], edges)

    def test_save_rejects_extras_beyond_int32(self, tiny_dataset, tmp_path):
        ds = dataclasses.replace(tiny_dataset, extras={
            "custom_debug": np.arange(2**31, 2**31 + 6, dtype=np.int64)})
        path = tmp_path / "new.zsld"
        with pytest.raises(ContainerFormatError, match="'custom_debug' has values outside int32"):
            save_container(ds, path)
        assert not path.exists()
        path.write_bytes(b"old")
        with pytest.raises(ContainerFormatError, match="'custom_debug'"):
            save_container(ds, path)
        assert path.read_bytes() == b"old" and temp_files(tmp_path) == []


    def test_read_makes_no_payload_copy(self, tmp_path):
        # The f32 tensor is a view of the file's mapping: no copy of the file's
        # bytes, and no widened one.
        n = 1 << 20
        path = tmp_path / "big.zsld"
        write_container(path, [("x", np.zeros(n, dtype=np.float32))])
        tracemalloc.start()
        try:
            read_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n // 16


class TestMappedReads:
    """A loaded dataset's tensors are views of a read-only mapping of its file."""

    @pytest.mark.parametrize("writer", ["save_container", "gen_data"])
    def test_replacing_the_file_keeps_the_loaded_bytes(self, tiny_dataset, tmp_path, writer):
        path, spec_path = tmp_path / "data.zsld", tmp_path / "spec.cfg"
        save_container(tiny_dataset, path)
        loaded = load_container(path)
        assert not loaded.features.flags.writeable and not loaded.features.flags.owndata
        # A smaller dataset at the same path: a file truncated and rewritten in
        # place would change the loaded bytes or raise SIGBUS on reading them.
        spec = dataclasses.replace(TINY_SPEC, samples_per_class=3, seed=12)
        if writer == "save_container":
            save_container(generate_synthetic(spec), path)
        else:
            spec_path.write_text(format_kv(spec))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["gen-data", "--spec", str(spec_path), "--out", str(path)]) == 0
        assert path.stat().st_size < loaded.features.nbytes
        assert loaded.features.tobytes() == tiny_dataset.features.tobytes()
        assert same_bits(loaded, tiny_dataset)
        assert same_bits(load_container(path), generate_synthetic(spec))

    def test_load_of_a_40mb_container_allocates_under_2mb(self, tiny_dataset, tmp_path):
        path = tmp_path / "big.zsld"
        n, r, _ = tiny_dataset.features.shape
        save_container(dataclasses.replace(
            tiny_dataset, features=np.ones((n, r, 112_000), np.float32)), path)
        assert path.stat().st_size >= 40e6
        tracemalloc.start()
        try:
            ds = load_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.nbytes > 40e6 and peak < 2e6, peak

    def test_fifo_loads_equal_to_the_mapped_file(self, tiny_dataset, tmp_path):
        path, fifo = tmp_path / "data.zsld", tmp_path / "data.fifo"
        save_container(tiny_dataset, path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        piped = load_container(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert same_bits(piped, load_container(path))


def temp_files(directory) -> list[str]:
    """The hidden files an interrupted output write would leave behind."""
    return sorted(p.name for p in directory.glob(".*.tmp"))


class TestOpenOutput:
    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "out.zsld"
        write_container(path, [("x", np.arange(6, dtype=np.int32))])
        old = path.read_bytes()
        with pytest.raises(RuntimeError, match="partway"):
            with data_io.open_output(path, "wb") as fh:
                fh.write(b"ZSLD partial")
                raise RuntimeError("writer failed partway")
        assert path.read_bytes() == old
        assert temp_files(tmp_path) == []

    def test_taken_temporary_name_is_skipped(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        squatter = tmp_path / f".out.csv.{bytes(4).hex()}.tmp"
        squatter.write_text("squatter\n")
        draws = iter([bytes(4), b"\x01\x02\x03\x04"])
        monkeypatch.setattr(data_io.os, "urandom", lambda n: next(draws))
        with data_io.open_output(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n" and squatter.read_text() == "squatter\n"
        assert next(draws, None) is None and temp_files(tmp_path) == [squatter.name]

    def test_old_handle_and_hard_link_keep_old_bytes(self, tmp_path):
        path, link = tmp_path / "out.csv", tmp_path / "old.csv"
        path.write_text("old\n")
        os.link(path, link)
        with open(path, "rb") as reader:
            with data_io.open_output(path) as fh:
                fh.write("new\n")
            assert reader.read() == b"old\n"
        assert path.read_text() == "new\n" and link.read_text() == "old\n"
        assert path.stat().st_ino != link.stat().st_ino

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "out.csv"
        old_umask = os.umask(umask)
        try:
            with data_io.open_output(path) as fh:
                fh.write("x\n")
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_symlink_updates_its_target(self, tmp_path):
        target = tmp_path / "real" / "model.zsld"
        target.parent.mkdir()
        target.write_bytes(b"old")
        link = tmp_path / "model.zsld"
        link.symlink_to(target)
        write_container(link, [("x", np.arange(3, dtype=np.int32))])
        assert link.is_symlink() and link.resolve() == target
        assert [(n, a.tolist()) for n, a in read_container(target)] == [("x", [0, 1, 2])]
        assert temp_files(tmp_path) == [] and temp_files(target.parent) == []

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        with data_io.open_output(fifo) as fh:
            fh.write("a,b\n1,2\n")
        reader.join(timeout=10)
        assert not reader.is_alive() and received == [b"a,b\n1,2\n"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert temp_files(tmp_path) == []


def test_write_table_rows_and_float_digits(tmp_path):
    path = tmp_path / "table.csv"
    data_io.write_table(path, ("name", "value"), [("sum", 0.1 + 0.2), ("half", np.float64(0.5))])
    assert path.read_bytes() == b"name,value\r\nsum,0.30000000000000004\r\nhalf,0.5\r\n"
    assert temp_files(tmp_path) == []


def same_bits(a: Dataset, b: Dataset) -> bool:
    """Every tensor of ``a`` and ``b`` has the same dtype, shape and bytes."""
    pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(Dataset)
             if f.name != "extras"]
    if a.extras.keys() != b.extras.keys():
        return False
    pairs += [(a.extras[k], b.extras[k]) for k in a.extras]
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in pairs)


class TestFeaturesStayFloat32:
    @staticmethod
    def assert_dtypes(ds: Dataset) -> None:
        # Every float tensor is f32, as its container stores it, C-order, aligned
        # and read-only.
        for arr in (ds.features, ds.attributes, ds.class_semantics):
            assert arr.dtype == np.float32 and not arr.flags.writeable
            assert arr.flags.c_contiguous and arr.flags.aligned

    def test_generated(self, tiny_dataset):
        self.assert_dtypes(tiny_dataset)

    def test_loaded_features_are_a_view_of_the_file(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.zsld"
        save_container(tiny_dataset, path)
        tensors = dict(read_container(path))
        # The container packs tensor headers unpadded, so the two vectors' payloads
        # sit at offsets f32 does not align to; the dataset holds aligned copies.
        assert not any(tensors[n].flags.aligned for n in ("attributes", "class_semantics"))
        loaded = load_container(path)
        self.assert_dtypes(loaded)
        assert not loaded.features.flags.owndata
        assert same_bits(loaded, tiny_dataset)

    def test_float64_features_round_trip_bitwise(self, tiny_dataset, tmp_path):
        features = np.random.default_rng(5).standard_normal(tiny_dataset.features.shape)
        ds = dataclasses.replace(tiny_dataset, features=features * 1e3)
        self.assert_dtypes(ds)
        assert ds.features.tobytes() == (features * 1e3).astype(np.float32).tobytes()
        path = tmp_path / "f64.zsld"
        save_container(ds, path)
        assert same_bits(load_container(path), ds)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dataset_of_float64_vectors_equals_its_container(self, tiny_dataset, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ds = dataclasses.replace(
            tiny_dataset, features=rng.standard_normal(tiny_dataset.features.shape),
            attributes=rng.uniform(-1.0, 1.0, tiny_dataset.attributes.shape),
            class_semantics=rng.random(tiny_dataset.class_semantics.shape))
        self.assert_dtypes(ds)
        path = tmp_path / "f64.zsld"
        save_container(ds, path)
        assert same_bits(load_container(path), ds)

    def test_features_beyond_float32_range_fail_validation(self, tiny_dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            messages = violations_of(tiny_dataset, features=np.full(
                tiny_dataset.features.shape, 1e300))
        assert any("non-finite value in features" in m for m in messages)

    def test_integer_features_are_not_cast(self, tiny_dataset):
        messages = violations_of(tiny_dataset, features=np.zeros(
            tiny_dataset.features.shape, dtype=np.int32))
        assert any("features must have a float dtype" in m for m in messages)


class TestContainerErrors:
    def _saved(self, ds, tmp_path):
        path = tmp_path / "c.zsld"
        save_container(ds, path)
        return path

    def test_bad_magic(self, tiny_dataset, tmp_path):
        path = self._saved(tiny_dataset, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError, match=r"^bad magic b'XXXX', expected b'ZSLD'$"):
            load_container(path)

    def test_version_mismatch(self, tiny_dataset, tmp_path):
        path = self._saved(tiny_dataset, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError, match=r"^unsupported version 9, expected 1$"):
            load_container(path)

    def test_truncated_tensor(self, tiny_dataset, tmp_path):
        path = self._saved(tiny_dataset, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(ContainerFormatError,
                           match=r"^file ends inside payload of 'gen_region_attribute'$"):
            load_container(path)

    @pytest.mark.parametrize("extra", [1, 3])
    def test_trailing_bytes_rejected(self, tiny_dataset, tmp_path, extra):
        path = self._saved(tiny_dataset, tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * extra)
        with pytest.raises(ContainerFormatError,
                           match=rf"^{extra} trailing bytes after last tensor$"):
            load_container(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "d.zsld"
        name = b"x"
        body = (b"ZSLD" + struct.pack("<II", 1, 1)
                + struct.pack("<H", len(name)) + name
                + struct.pack("<BB", 7, 1) + struct.pack("<I", 0))
        path.write_bytes(body)
        with pytest.raises(ContainerFormatError, match="dtype code 7"):
            read_container(path)

    def test_signalling_nan_payload_widens_without_warning(self, tiny_dataset, tmp_path):
        path = tmp_path / "nan.zsld"
        body = (b"ZSLD" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"x"
                + struct.pack("<BB", 1, 1) + struct.pack("<I", 1)
                + struct.pack("<I", 0x7F800001))
        path.write_bytes(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((name, arr),) = read_container(path)
            assert name == "x" and arr.dtype == np.float32 and np.isnan(arr).all()
            # A dataset holds the NaN in its f32 attribute vectors and rejects it.
            assert any("non-finite value in attributes" in m for m in violations_of(
                tiny_dataset, attributes=np.broadcast_to(arr, tiny_dataset.attributes.shape)))

    def test_missing_required_tensor(self, tmp_path):
        path = tmp_path / "e.zsld"
        write_container(path, [("features", np.zeros((1, 1, 1), dtype=np.float32))])
        with pytest.raises(ContainerFormatError, match="missing required"):
            load_container(path)

    def test_dimension_beyond_u32_rejected_before_writing(self, tmp_path):
        # Each dimension is stored as a u32; this array holds no element, so nothing is allocated.
        path = tmp_path / "wide.zsld"
        with pytest.raises(ContainerFormatError, match="below 2\\^32"):
            write_container(path, [("x", np.zeros((2 ** 32, 0), dtype=np.float32))])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("items,message", [
        ([("x", np.zeros(1)), ("x", np.zeros(1))], "duplicate tensor name 'x'"),
        ([("b", np.ones(2, dtype=bool))], "tensor 'b' has unsupported dtype bool"),
        ([("x" * 0x10000, np.zeros(1))], "tensor name too long: 'xxx"),
    ], ids=["duplicate_name", "bool_dtype", "long_name"])
    def test_write_rejects_malformed_items_before_writing(self, tmp_path, items, message):
        path = tmp_path / "bad.zsld"
        with pytest.raises(ContainerFormatError, match=f"^{message}"):
            write_container(path, items)
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_labels_fail_validation_on_load(self, tiny_dataset, tmp_path):
        ds = tiny_dataset
        num_classes = ds.num_classes
        path = tmp_path / "f.zsld"
        save_container(ds, path)
        # rewrite the labels tensor payload in place with an invalid class
        items = read_container(path)
        patched = []
        for tensor_name, arr in items:
            if tensor_name == "labels":
                arr = arr.copy()
                arr[0] = num_classes
            patched.append((tensor_name, arr))
        write_container(path, patched)
        with pytest.raises(DatasetValidationError, match="labels"):
            load_container(path)


class TestValidateDataset:
    def test_well_formed_is_clean(self, tiny_dataset):
        assert validate_dataset(tiny_dataset) == []

    def test_seen_unseen_overlap_named(self, tiny_dataset):
        ds = tiny_dataset
        messages = violations_of(
            ds, unseen_classes=patched(ds.unseen_classes, 0, ds.seen_classes[0]))
        assert any("overlap" in m for m in messages)

    def test_nan_in_features_names_tensor_and_index(self, tiny_dataset):
        messages = violations_of(
            tiny_dataset, features=patched(tiny_dataset.features, (2, 1, 3), np.nan))
        assert any("features" in m and "(2, 1, 3)" in m for m in messages)

    # Flat positions at both ends and on both sides of the first boundary of
    # the check's 2^18-element blocks, alone and with a later second value.
    BLOCK = 1 << 18

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("positions", [(0,), (BLOCK - 1,), (BLOCK,), (-1,), (BLOCK, -1),
                                           (BLOCK - 1, BLOCK)],
                             ids=["first", "block_end", "block_start", "last",
                                  "block_start_and_last", "both_sides"])
    def test_non_finite_features_index_is_the_first_in_c_order(self, tiny_dataset, value,
                                                               positions):
        n, r, _ = tiny_dataset.features.shape
        features = np.zeros((n, r, 5000), dtype=np.float32)   # 1.7 blocks
        features.reshape(-1)[list(positions)] = value
        expected = tuple(np.argwhere(~np.isfinite(features))[0].tolist())
        assert violations_of(tiny_dataset, features=features) == [
            f"non-finite value in features at index {expected}"]

    def test_split_overlap_detected(self, tiny_dataset):
        ds = tiny_dataset
        messages = violations_of(
            ds, test_seen_idx=patched(ds.test_seen_idx, 0, ds.train_idx[0]))
        assert any("share indices" in m for m in messages)

    def test_split_out_of_range_detected(self, tiny_dataset):
        ds = tiny_dataset
        messages = violations_of(ds, train_idx=patched(ds.train_idx, 0, ds.num_samples))
        assert any("out-of-range" in m for m in messages)

    def test_wrong_split_membership_detected(self, tiny_dataset):
        ds = tiny_dataset
        # swap a train sample with an unseen-class test sample: index sets
        # stay disjoint, so only the label-membership rules fire
        messages = violations_of(
            ds,
            train_idx=patched(ds.train_idx, 0, ds.test_unseen_idx[0]),
            test_unseen_idx=patched(ds.test_unseen_idx, 0, ds.train_idx[0]),
        )
        assert any("train_idx" in m and "non-seen" in m for m in messages)
        assert any("test_unseen_idx" in m and "non-unseen" in m for m in messages)


def _i32(*values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


# The tiny dataset has seen classes 0-2, unseen classes 3-4 and 30
# samples; train_idx holds 0-4, 6-10 and 12-16 (labels 0-2), test_seen_idx
# 5, 11, 17 and test_unseen_idx 18-29 (labels 3-4).
PINNED_VIOLATIONS = {
    "duplicate_seen": (
        dict(seen_classes=_i32(0, 1, 1, 2)),
        ["seen_classes contains duplicates"]),
    "duplicate_unseen": (
        dict(unseen_classes=_i32(3, 4, 4)),
        ["unseen_classes contains duplicates"]),
    "duplicate_negative_class": (
        dict(seen_classes=_i32(0, 1, 2, -1, -1)),
        ["seen_classes contains duplicates",
         "seen and unseen classes must partition 0..4, got union [-1, 0, 1, 2, 3, 4]"]),
    "overlap": (
        dict(unseen_classes=_i32(0, 4)),
        ["seen/unseen classes overlap: [0]",
         "seen and unseen classes must partition 0..4, got union [0, 1, 2, 4]"]),
    "overlap_out_of_range": (
        dict(seen_classes=_i32(0, 1, 2, 7), unseen_classes=_i32(3, 4, 7)),
        ["seen/unseen classes overlap: [7]",
         "seen and unseen classes must partition 0..4, got union [0, 1, 2, 3, 4, 7]"]),
    "partition_negative_class": (
        dict(seen_classes=_i32(-1, 1, 2)),
        ["seen and unseen classes must partition 0..4, got union [-1, 1, 2, 3, 4]"]),
    "partition_missing_class": (
        dict(unseen_classes=_i32(3)),
        ["seen and unseen classes must partition 0..4, got union [0, 1, 2, 3]"]),
    "labels_out_of_range": (
        dict(labels=np.r_[_i32(-1), np.repeat(_i32(0, 1, 2, 3, 4), 6)[1:]]),
        ["labels must lie in [0, 5), found range [-1, 4]"]),
    "duplicate_indices": (
        dict(train_idx=_i32(0, 0, 2, 3, 4, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16)),
        ["train_idx contains duplicate indices"]),
    "out_of_range_indices": (
        dict(train_idx=_i32(30, 1, 2), test_seen_idx=_i32(-1, 11, 17)),
        ["train_idx has out-of-range indices for 30 samples",
         "test_seen_idx has out-of-range indices for 30 samples"]),
    "duplicate_out_of_range_indices": (
        dict(test_seen_idx=_i32(-1, -1, 17)),
        ["test_seen_idx contains duplicate indices",
         "test_seen_idx has out-of-range indices for 30 samples"]),
    "shared_indices_first_five_sorted": (
        dict(test_seen_idx=_i32(16, 14, 12, 10, 8, 6, 4)),
        ["train_idx and test_seen_idx share indices: [4, 6, 8, 10, 12]"]),
    "shared_out_of_range_indices": (
        dict(train_idx=_i32(-5, 1, 2), test_seen_idx=_i32(-5, 11, 17),
             test_unseen_idx=_i32(-5, 40, 40, 1)),
        ["train_idx has out-of-range indices for 30 samples",
         "test_seen_idx has out-of-range indices for 30 samples",
         "test_unseen_idx contains duplicate indices",
         "test_unseen_idx has out-of-range indices for 30 samples",
         "train_idx and test_seen_idx share indices: [-5]",
         "train_idx and test_unseen_idx share indices: [-5, 1]",
         "test_seen_idx and test_unseen_idx share indices: [-5]"]),
    "non_seen_and_non_unseen_labels": (
        dict(train_idx=_i32(18, 1, 2, 24), test_seen_idx=_i32(19, 11),
             test_unseen_idx=_i32(0, 5, 20)),
        ["train_idx contains samples of non-seen classes: [3, 4]",
         "test_seen_idx contains samples of non-seen classes: [3]",
         "test_unseen_idx contains samples of non-unseen classes: [0]"]),
    "ranks_then_dtypes_in_tensor_order": (
        dict(features=np.zeros((30, 3, 5, 1), dtype=np.float32), labels=np.zeros((30, 1)),
             train_idx=np.zeros(3)),
        ["features must have rank 3, got shape (30, 3, 5, 1)",
         "labels must have rank 1, got shape (30, 1)",
         "train_idx must have an integer dtype, got float64"]),
    "class_semantics_width": (
        dict(class_semantics=np.ones((5, 3))),
        ["class_semantics columns must match attribute count: 3 vs 4"]),
    "labels_length": (
        dict(labels=np.repeat(_i32(0, 1, 2, 3, 4), 6)[:-1]),
        ["labels length 29 != sample count 30"]),
    "class_and_index_violations_in_order": (
        dict(seen_classes=_i32(2, 1, 1, 0), unseen_classes=_i32(4, 2),
             train_idx=_i32(1, 1, 99), test_unseen_idx=_i32(99, 18)),
        ["seen_classes contains duplicates",
         "seen/unseen classes overlap: [2]",
         "seen and unseen classes must partition 0..4, got union [0, 1, 2, 4]",
         "train_idx contains duplicate indices",
         "train_idx has out-of-range indices for 30 samples",
         "test_unseen_idx has out-of-range indices for 30 samples",
         "train_idx and test_unseen_idx share indices: [99]"]),
}


class TestValidateDatasetMessages:
    """Every class and index violation, as the exact messages in their order."""

    @pytest.mark.parametrize("case", sorted(PINNED_VIOLATIONS))
    def test_exact_messages(self, tiny_dataset, case):
        changes, expected = PINNED_VIOLATIONS[case]
        assert violations_of(tiny_dataset, **changes) == expected

    def test_huge_values_are_reported_without_allocating_for_them(self, tiny_dataset):
        big = 2**31 - 1
        tracemalloc.start()
        try:
            messages = violations_of(tiny_dataset, train_idx=_i32(0, big, 2),
                                     seen_classes=_i32(0, 1, big))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert messages == [
            f"seen and unseen classes must partition 0..4, got union [0, 1, 3, 4, {big}]",
            "train_idx has out-of-range indices for 30 samples"]
        assert peak < 1 << 20


class TestDatasetIsImmutable:
    def test_arrays_are_read_only(self, tiny_dataset):
        with pytest.raises(ValueError, match="read-only"):
            tiny_dataset.labels[0] = 1
        arrays = [getattr(tiny_dataset, f.name) for f in dataclasses.fields(Dataset)
                  if f.name != "extras"] + list(tiny_dataset.extras.values())
        assert not any(arr.flags.writeable for arr in arrays)

    def test_class_split_is_built_once_per_dataset(self, tiny_dataset):
        split = tiny_dataset.split
        assert tiny_dataset.split is split
        assert "split" not in {f.name for f in dataclasses.fields(Dataset)}
        assert np.array_equal(split.seen, np.sort(tiny_dataset.seen_classes))
        assert np.array_equal(split.unseen, np.sort(tiny_dataset.unseen_classes))
        # A replaced dataset is a new one and builds its own.
        assert dataclasses.replace(tiny_dataset).split is not split

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(data_io.ClassSplit)])
    def test_class_split_arrays_are_read_only(self, tiny_dataset, name):
        # Batches and reports read the cached split, so a write would change them all.
        with pytest.raises(ValueError, match="read-only"):
            getattr(tiny_dataset.split, name)[0] = 5

    def test_test_idx_is_built_once_per_dataset(self, tiny_dataset):
        idx = tiny_dataset.test_idx
        assert tiny_dataset.test_idx is idx
        assert "test_idx" not in {f.name for f in dataclasses.fields(Dataset)}
        # The unseen test split first, then the seen one, each in its stored order.
        assert np.array_equal(idx, np.concatenate([tiny_dataset.test_unseen_idx,
                                                   tiny_dataset.test_seen_idx]))
        assert not idx.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = idx[-1]
        assert dataclasses.replace(tiny_dataset).test_idx is not idx
        mixed = dataclasses.replace(tiny_dataset,
                                    test_seen_idx=tiny_dataset.test_seen_idx.astype(np.uint64))
        assert mixed.test_idx.dtype == np.intp and np.array_equal(mixed.test_idx, idx)

    def test_fields_cannot_be_assigned(self, tiny_dataset):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_dataset.labels = np.zeros_like(tiny_dataset.labels)

    def test_arrays_are_not_copied(self, tiny_dataset):
        features = tiny_dataset.features * 2.0
        assert dataclasses.replace(tiny_dataset, features=features).features is features
        assert not features.flags.writeable

    def test_invalid_dataset_leaves_arrays_writeable(self, tiny_dataset):
        labels = patched(tiny_dataset.labels, 0, 99)
        violations_of(tiny_dataset, labels=labels)
        assert labels.flags.writeable

    def test_extras_cannot_be_mutated(self, tiny_dataset):
        extra = np.arange(6, dtype=np.int32)
        with pytest.raises(TypeError):
            tiny_dataset.extras["custom_debug"] = extra
        with pytest.raises(TypeError):
            del tiny_dataset.extras[GEN_REGION_ATTRIBUTE]
        given = {**tiny_dataset.extras, "custom_debug": extra}
        ds = dataclasses.replace(tiny_dataset, extras=given)
        given.pop("custom_debug")  # the dataset keeps its own copy of the dict
        assert list(ds.extras) == [GEN_REGION_ATTRIBUTE, "custom_debug"]
        assert not extra.flags.writeable


# Specs whose region draws take each shape path: the stock spec, odd and
# one-wide visual_dim, one region, one sample per class, two to four
# samples per class (a holdout of one), an explicit active-attribute count
# below K and all K, and a single seen class.
ORACLE_SPECS = {
    "stock": SynthSpec(),
    "odd_visual_dim": SynthSpec(visual_dim=7, samples_per_class=6),
    "visual_dim_1": SynthSpec(visual_dim=1, samples_per_class=6),
    "one_region": SynthSpec(num_regions=1, samples_per_class=6),
    "one_sample_per_class": SynthSpec(samples_per_class=1),
    "two_samples_per_class": SynthSpec(samples_per_class=2),
    "three_samples_per_class": SynthSpec(samples_per_class=3),
    "four_samples_per_class": SynthSpec(samples_per_class=4),
    "active_below_k": SynthSpec(active_attributes=5, samples_per_class=6),
    "active_all_k": SynthSpec(active_attributes=12, samples_per_class=6),
    "one_seen_class": SynthSpec(num_seen=1, num_unseen=3, samples_per_class=6),
}


class TestGenerateSyntheticOracle:
    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
    def test_matches_scalar_oracle_and_leaves_same_rng_state(self, monkeypatch, spec):
        made = []

        class RecordedRng(Rng):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(data_io, "Rng", RecordedRng)
        ds = generate_synthetic(spec)
        semantics, features, picks, splits, rng = oracles.synthetic(spec)
        assert ds.features.dtype == np.float32
        assert ds.features.tobytes() == features.astype(np.float32).tobytes()
        assert ds.class_semantics.tobytes() == semantics.astype(np.float32).tobytes()
        assert ds.extras[GEN_REGION_ATTRIBUTE].tobytes() == picks.tobytes()
        for name, want in zip(("train_idx", "test_seen_idx", "test_unseen_idx"), splits):
            got = getattr(ds, name)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        assert [r.state for r in made] == [rng.state]

    # 500 x 64 takes 16 000 logs: numpy's log would differ in the last bit on ~30.
    @pytest.mark.parametrize("rows,n", [(1, 1), (1, 16), (3, 7), (5, 1), (4, 2), (2, 9),
                                        (500, 64)])
    def test_box_muller_matches_scalar_normals(self, rows, n):
        bulk, scalar = Rng(rows * 100 + n), oracles.ScalarRng(rows * 100 + n)
        got = data_io._box_muller(bulk.uniform(0.0, 1.0, rows, 2 * ((n + 1) // 2)), n)
        want = np.stack([oracles.normal(scalar, n) for _ in range(rows)])
        assert got.tobytes() == want.tobytes()
        assert bulk.state == scalar.state

    @pytest.mark.parametrize("weights", [[1.0, 3.0], [0.0, 0.2, 0.0, 0.5, 0.3], [0.1] * 10,
                                         [0.0, 0.0, 1.0], [2.5]])
    def test_weighted_picks_match_scalar_choices(self, weights):
        weights = np.asarray(weights)
        bulk, scalar = Rng(len(weights)), oracles.ScalarRng(len(weights))
        got = data_io._weighted_picks(weights, bulk.uniform(0.0, 1.0, 500, 1)[:, 0])
        want = [oracles.choice_weighted(scalar, weights) for _ in range(500)]
        assert got.tolist() == want
        assert bulk.state == scalar.state

    def test_weighted_picks_match_at_the_ends_of_the_interval(self):
        class Fixed:
            def __init__(self, values):
                self.values = iter(values)

            def next_f64(self):
                return next(self.values)

        # [0.1] * 10 sums to 1.0 pairwise but its running sum ends below
        # 1.0, so the largest uniform lands on the rounding slack.
        ends = [0.0, 1.0 - 2.0 ** -53, 0.5]
        for weights in (np.full(10, 0.1), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0])):
            fixed = Fixed(ends)
            want = [oracles.choice_weighted(fixed, weights) for _ in ends]
            assert data_io._weighted_picks(weights, np.array(ends)).tolist() == want


class TestGenerateSynthetic:
    def test_deterministic(self):
        assert datasets_equal(generate_synthetic(TINY_SPEC), generate_synthetic(TINY_SPEC))

    def test_validates_clean(self, tiny_dataset):
        assert validate_dataset(tiny_dataset) == []

    def test_no_unseen_classes_rejected(self):
        with pytest.raises(ArgumentError, match="num_unseen"):
            generate_synthetic(dataclasses.replace(TINY_SPEC, num_unseen=0))

    def test_negative_noise_rejected(self):
        with pytest.raises(ArgumentError, match="noise_std"):
            generate_synthetic(dataclasses.replace(TINY_SPEC, noise_std=-0.1))

    @pytest.mark.parametrize("seed", [-5, 2 ** 64 + 7])
    def test_seed_that_rng_would_alias_rejected(self, seed):
        with pytest.raises(ArgumentError, match=r"SynthSpec.seed must lie in \[0, 2\*\*64\)"):
            dataclasses.replace(TINY_SPEC, seed=seed)

    def test_noiseless_regions_are_shared_prototypes(self):
        spec = dataclasses.replace(TINY_SPEC, noise_std=0.0)
        ds = generate_synthetic(spec)
        picks = ds.extras[GEN_REGION_ATTRIBUTE]
        flat_regions = ds.features.reshape(-1, ds.visual_dim)
        flat_picks = picks.reshape(-1)
        for k in range(ds.num_attributes):
            block = flat_regions[flat_picks == k]
            if len(block):
                assert np.array_equal(block, np.tile(block[0], (len(block), 1)))
        # distinct attributes map to distinct prototypes
        prototypes = {}
        for row, k in zip(flat_regions, flat_picks):
            prototypes.setdefault(int(k), row)
        values = list(prototypes.values())
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert not np.array_equal(values[i], values[j])

    def test_pick_frequencies_follow_class_semantics(self):
        spec = SynthSpec(
            num_seen=2, num_unseen=1, num_attributes=5, num_regions=4000,
            visual_dim=3, attr_dim=3, samples_per_class=1, noise_std=0.0, seed=3,
        )
        ds = generate_synthetic(spec)
        picks = ds.extras[GEN_REGION_ATTRIBUTE]
        for c in range(ds.num_classes):
            weights = ds.class_semantics[c]
            expected = weights / weights.sum()
            sample = picks[ds.labels == c].reshape(-1)
            observed = np.bincount(sample, minlength=spec.num_attributes) / sample.size
            np.testing.assert_allclose(observed, expected, atol=0.03)

    def test_unseen_semantics_blend_seen(self, tiny_dataset):
        # every unseen class vector lies in the convex range of the seen rows
        seen = tiny_dataset.class_semantics[tiny_dataset.seen_classes]
        for c in tiny_dataset.unseen_classes:
            row = tiny_dataset.class_semantics[c]
            assert row.min() >= 0.0
            assert row.max() <= seen.max() + 1e-12

    def test_holdout_sizes(self, tiny_dataset):
        spc = TINY_SPEC.samples_per_class
        holdout = spc // 5
        assert tiny_dataset.train_idx.size == TINY_SPEC.num_seen * (spc - holdout)
        assert tiny_dataset.test_seen_idx.size == TINY_SPEC.num_seen * holdout
        assert tiny_dataset.test_unseen_idx.size == TINY_SPEC.num_unseen * spc

    def test_round_trip_after_generation(self, tiny_dataset, tmp_path):
        path = tmp_path / "g.zsld"
        save_container(tiny_dataset, path)
        assert datasets_equal(load_container(path), tiny_dataset)

    def test_every_valid_spec_generates_clean_datasets(self):
        rng = oracles.ScalarRng(57)
        for _ in range(15):
            spec = SynthSpec(
                num_seen=1 + rng.next_below(4),
                num_unseen=1 + rng.next_below(3),
                num_attributes=1 + rng.next_below(6),
                num_regions=1 + rng.next_below(4),
                visual_dim=1 + rng.next_below(6),
                attr_dim=1 + rng.next_below(4),
                samples_per_class=1 + rng.next_below(5),
                noise_std=0.2 * rng.next_f64(),
                seed=rng.next_below(10_000),
            )
            assert validate_dataset(generate_synthetic(spec)) == []


class TestSynthSpecFile:
    def test_load_from_kv_file(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(format_kv(TINY_SPEC))
        assert load_config(SynthSpec, path) == TINY_SPEC

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("bogus = 3\n")
        with pytest.raises(ArgumentError, match="bogus"):
            load_config(SynthSpec, path)
