"""Storage-backend semantics: RAM / mmap / adopt, and the versioned trace file.

The :mod:`repro.core.backend` seam must never change *values* -- only
residency -- so most pins here are about aliasing (what is copied, what
is shared, what lands on disk) and about the format-2 trace file that
feeds the out-of-core pipeline.
"""

from __future__ import annotations

import os
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.core import MmapBackend, RamBackend, Workload
from repro.core.backend import AdoptBackend, is_mapped
from repro.workloads import (
    load_workload,
    save_workload,
    save_zipf_workload_chunked,
    zipf_workload,
)


def _workloads_equal(a: Workload, b: Workload) -> bool:
    return (
        np.array_equal(a.event_rates, b.event_rates)
        and np.array_equal(a.interest_indptr, b.interest_indptr)
        and np.array_equal(a.interest_topics, b.interest_topics)
        and a.message_size_bytes == b.message_size_bytes
    )


class TestBackends:
    def test_ram_backend_copies_views(self):
        base = np.arange(10, dtype=np.int64)
        view = base[2:8]
        adopted = RamBackend().adopt(view, "interest_topics")
        assert not np.shares_memory(adopted, base)
        assert not adopted.flags.writeable
        np.testing.assert_array_equal(adopted, view)

    def test_ram_backend_keeps_owned_arrays(self):
        arr = np.arange(5, dtype=np.int64)
        assert RamBackend().adopt(arr, "x") is arr
        assert not arr.flags.writeable

    def test_adopt_backend_is_zero_copy(self):
        base = np.arange(10, dtype=np.int64)
        view = base[1:9]
        adopted = AdoptBackend().adopt(view, "x")
        assert adopted is view
        assert not adopted.flags.writeable

    def test_mmap_backend_adopts_as_is(self, tmp_path):
        path = tmp_path / "arr.npy"
        np.save(path, np.arange(8, dtype=np.int64))
        mapped = np.load(path, mmap_mode="r")
        adopted = MmapBackend(tmp_path / "cache").adopt(mapped, "interest_topics")
        assert adopted is mapped
        assert is_mapped(adopted)

    def test_mmap_backend_spills_large_caches(self, tmp_path):
        backend = MmapBackend(tmp_path / "cache")
        big = np.arange(200_000, dtype=np.int64)  # > 1 MB
        spilled = backend.cache("pair_keys", big)
        assert is_mapped(spilled)
        assert (tmp_path / "cache" / "pair_keys.npy").exists()
        np.testing.assert_array_equal(spilled, big)

    def test_mmap_backend_keeps_small_caches_in_ram(self, tmp_path):
        backend = MmapBackend(tmp_path / "cache")
        small = np.arange(16, dtype=np.int64)
        assert backend.cache("tiny", small) is small
        assert not (tmp_path / "cache").exists()

    def test_mmap_backend_requires_a_cache_dir(self):
        with pytest.raises(TypeError):
            MmapBackend()
        with pytest.raises(TypeError):
            MmapBackend(None)

    def test_mmap_backend_adopts_as_adopt_backend_does(self, tmp_path):
        view = np.arange(10, dtype=np.int64)[1:9]
        assert isinstance(MmapBackend(tmp_path), AdoptBackend)
        assert MmapBackend(tmp_path).adopt(view, "x") is view
        assert not view.flags.writeable

    def test_is_mapped_walks_view_chains(self, tmp_path):
        path = tmp_path / "arr.npy"
        np.save(path, np.arange(64, dtype=np.int64))
        mapped = np.load(path, mmap_mode="r")
        # ascontiguousarray strips the memmap subclass but not the map.
        stripped = np.ascontiguousarray(mapped)
        assert is_mapped(mapped)
        assert is_mapped(stripped[4:32])
        assert not is_mapped(np.arange(64, dtype=np.int64))
        assert not is_mapped(np.array(mapped))  # a real copy

    def test_is_mapped_sees_a_raw_mmap_buffer(self, tmp_path):
        # A frombuffer view over an mmap.mmap object has no memmap in
        # its chain, only the raw map as its base.
        import mmap

        path = tmp_path / "raw.bin"
        path.write_bytes(np.arange(8, dtype=np.int64).tobytes())
        with open(path, "rb") as fh:
            raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        view = np.frombuffer(raw, dtype=np.int64)
        assert view.tolist() == list(range(8))
        assert is_mapped(view)
        assert is_mapped(view[2:5])
        del view
        raw.close()


class TestMmapWorkload:
    def test_mmap_load_is_backed_by_the_file(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        mapped = load_workload(path, mmap=True)
        assert _workloads_equal(mapped, small_zipf)
        assert is_mapped(mapped.interest_topics)
        assert is_mapped(mapped.interest_indptr)
        assert is_mapped(mapped.event_rates)
        assert isinstance(mapped.backend, MmapBackend)

    def test_members_are_stored_uncompressed(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                assert info.compress_type == zipfile.ZIP_STORED, info.filename

    def test_subscriber_range_shares_the_map(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        mapped = load_workload(path, mmap=True)
        shard = mapped.subscriber_range(50, 150)
        assert shard.num_subscribers == 100
        assert np.shares_memory(shard.interest_topics, mapped.interest_topics)
        assert is_mapped(shard.interest_topics)
        for v in range(100):
            np.testing.assert_array_equal(shard.interest(v), mapped.interest(50 + v))

    def test_pair_keys_spilled_when_sorted(self, tmp_path):
        # Generators emit per-subscriber ascending interests, so the
        # sorted pair keys are one multiply-add with no sort, and a
        # mmap-backed workload spills them to its cache directory (the
        # audit reads them out of core).
        ram = zipf_workload(100, 30_000, mean_interest=6.0, seed=9)
        path = save_workload(ram, tmp_path / "trace")
        mapped = load_workload(path, mmap=True)
        got = mapped.pair_keys()
        assert got.nbytes >= 1 << 20  # above the spill threshold
        assert is_mapped(got)
        expected = np.sort(
            ram.pair_subscribers() * ram.num_topics + ram.interest_topics
        )
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(ram.pair_keys(), expected)

    def test_scan_order_spills_no_subscriber_copy(self, tmp_path):
        # The scan order's subscriber column is the pair_subscribers()
        # cache: three scan-order sidecars, not four, with the RAM
        # workload's values.
        ram = zipf_workload(100, 30_000, mean_interest=6.0, seed=9)
        path = save_workload(ram, tmp_path / "trace")
        mapped = load_workload(path, mmap=True)
        scan = mapped.rate_descending_pairs()
        assert scan[1] is mapped.pair_subscribers()
        assert sorted(os.listdir(path + ".cache")) == [
            "pair_subscribers.npy",
            "rate_desc_cumsum.npy",
            "rate_desc_rates.npy",
            "rate_desc_topics.npy",
        ]
        for got, want in zip(scan, ram.rate_descending_pairs()):
            assert got.tobytes() == want.tobytes()

    def test_pair_keys_sorted_when_unsorted(self):
        w = Workload([1.0, 2.0, 3.0], [[2, 0], [1], [2, 1, 0]])
        expected = np.sort(w.pair_subscribers() * 3 + w.interest_topics)
        np.testing.assert_array_equal(w.pair_keys(), expected)
        np.testing.assert_array_equal(w.pair_keys(), [0, 2, 4, 6, 7, 8])

    def test_restrict_subscribers_stays_subset_sized(self, tmp_path):
        # Slicing a few rows out of an mmap-backed workload must not
        # materialize parent-pair-sized (or parent-subscriber-sized)
        # temporaries on the Python heap.
        parent = zipf_workload(100, 50_000, mean_interest=6.0, seed=9)
        path = save_workload(parent, tmp_path / "big")
        mapped = load_workload(path, mmap=True)
        keep = np.arange(1_000, 2_000, dtype=np.int64)

        tracemalloc.start()
        try:
            sub = mapped.restrict_subscribers(keep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        # Parent flats are ~300k int64 (~2.4 MB); the restriction only
        # touches ~6k pairs, so a generous bound still catches any
        # parent-sized temporary.
        assert peak < 1_000_000, f"peak traced {peak} bytes"
        assert sub.num_subscribers == 1_000
        for i, v in enumerate(range(1_000, 1_010)):
            np.testing.assert_array_equal(sub.interest(i), parent.interest(v))


class TestChunkedGenerator:
    def test_roundtrip_and_validity(self, tmp_path):
        path = save_zipf_workload_chunked(
            tmp_path / "chunked", 40, 500, mean_interest=4.0, seed=3,
            chunk_subscribers=128,
        )
        # The in-RAM load re-validates the CSR contract fully.
        w = load_workload(path)
        assert w.num_subscribers == 500
        assert w.num_topics == 40
        assert w.num_pairs > 500
        assert int(w.interest_sizes().min()) >= 1
        # Per-subscriber ascending + duplicate-free, like zipf_workload.
        for v in range(0, 500, 37):
            topics = w.interest(v)
            assert (np.diff(topics) > 0).all()
        # Same marginal rate table as the in-RAM generator.
        ref = zipf_workload(40, 10, seed=3)
        np.testing.assert_array_equal(w.event_rates, ref.event_rates)

    def test_deterministic_across_calls(self, tmp_path):
        a = load_workload(save_zipf_workload_chunked(
            tmp_path / "a", 30, 300, seed=5, chunk_subscribers=100
        ))
        b = load_workload(save_zipf_workload_chunked(
            tmp_path / "b", 30, 300, seed=5, chunk_subscribers=100
        ))
        assert _workloads_equal(a, b)

    def test_mmap_readback(self, tmp_path):
        path = save_zipf_workload_chunked(
            tmp_path / "c", 30, 300, seed=5, chunk_subscribers=100
        )
        mapped = load_workload(path, mmap=True)
        assert is_mapped(mapped.interest_topics)
        assert _workloads_equal(mapped, load_workload(path))

    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            save_zipf_workload_chunked(tmp_path / "x", 0, 10)
        with pytest.raises(ValueError):
            save_zipf_workload_chunked(tmp_path / "x", 10, 0)
        with pytest.raises(ValueError):
            save_zipf_workload_chunked(tmp_path / "x", 10, 10, chunk_subscribers=0)
