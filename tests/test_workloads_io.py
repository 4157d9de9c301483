"""Tests for workload serialization (npz) and sampling."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import Workload
from repro.core.workload import WorkloadError
from repro.resilience.integrity import member_digest
from repro.workloads import (
    GENERATOR_VERSION,
    TraceCorruptionError,
    load_workload,
    sample_subscribers,
    save_workload,
    save_zipf_workload_chunked,
    uniform_workload,
    zipf_workload,
)


class TestIO:
    def test_roundtrip(self, tmp_path, small_zipf):
        path = tmp_path / "trace.npz"
        save_workload(small_zipf, path)
        loaded = load_workload(path)
        assert loaded.num_topics == small_zipf.num_topics
        assert loaded.num_subscribers == small_zipf.num_subscribers
        assert np.array_equal(loaded.event_rates, small_zipf.event_rates)
        assert loaded.message_size_bytes == small_zipf.message_size_bytes
        for v in range(small_zipf.num_subscribers):
            assert np.array_equal(loaded.interest(v), small_zipf.interest(v))

    def test_roundtrip_with_empty_interest(self, tmp_path):
        w = Workload([3.0], [[], [0], []])
        path = tmp_path / "w.npz"
        save_workload(w, path)
        loaded = load_workload(path)
        assert loaded.num_subscribers == 3
        assert loaded.interest(0).size == 0
        assert loaded.interest(1).tolist() == [0]

    def test_bad_version_rejected(self, tmp_path, small_zipf):
        path = tmp_path / "trace.npz"
        save_workload(small_zipf, path)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_workload(path)


class TestFormatVersions:
    """The versioned on-disk format: the v3 header and mmap gating."""

    def test_v3_header_fields(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        with np.load(path) as data:
            assert int(data["version"]) == 3
            assert int(data["generator_version"]) == GENERATOR_VERSION
            assert "interest_indptr" in data
            for member in (
                "event_rates",
                "interest_indptr",
                "interest_topics",
                "message_size_bytes",
            ):
                assert "digest_" + member in data.files

    def test_compressed_v3_roundtrips_but_rejects_mmap(self, tmp_path, small_zipf):
        # save_workload writes stored members; deflate them by hand.
        path = save_workload(small_zipf, tmp_path / "packed")
        members = dict(np.load(path))
        np.savez_compressed(path, **members)
        loaded = load_workload(path, verify=True)  # RAM load is fine
        assert np.array_equal(loaded.interest_topics, small_zipf.interest_topics)
        with pytest.raises(ValueError, match="mmap"):
            load_workload(path, mmap=True)

    def test_mmap_load_values_match_ram_load(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        mapped = load_workload(path, mmap=True)
        plain = load_workload(path)
        assert np.array_equal(mapped.event_rates, plain.event_rates)
        assert np.array_equal(mapped.interest_indptr, plain.interest_indptr)
        assert np.array_equal(mapped.interest_topics, plain.interest_topics)
        assert mapped.message_size_bytes == plain.message_size_bytes


class TestSampling:
    def test_fraction_one_returns_same(self, small_zipf):
        assert sample_subscribers(small_zipf, 1.0) is small_zipf

    def test_half_sample_size(self, small_zipf):
        sampled = sample_subscribers(small_zipf, 0.5, seed=1)
        assert sampled.num_subscribers == 100
        assert sampled.num_topics == small_zipf.num_topics

    def test_minimum_one_subscriber(self, small_zipf):
        sampled = sample_subscribers(small_zipf, 1e-6, seed=1)
        assert sampled.num_subscribers == 1

    def test_deterministic(self, small_zipf):
        a = sample_subscribers(small_zipf, 0.3, seed=7)
        b = sample_subscribers(small_zipf, 0.3, seed=7)
        assert all(
            np.array_equal(a.interest(v), b.interest(v))
            for v in range(a.num_subscribers)
        )

    def test_invalid_fraction(self, small_zipf):
        with pytest.raises(ValueError):
            sample_subscribers(small_zipf, 0.0)
        with pytest.raises(ValueError):
            sample_subscribers(small_zipf, 1.5)


class TestSyntheticGenerators:
    def test_zipf_rates_decreasing(self):
        w = zipf_workload(20, 50, seed=0)
        rates = w.event_rates
        assert all(rates[i] >= rates[i + 1] for i in range(19))
        assert rates.min() >= 1

    def test_zipf_determinism(self):
        a = zipf_workload(20, 50, seed=2)
        b = zipf_workload(20, 50, seed=2)
        assert np.array_equal(a.event_rates, b.event_rates)
        assert a.num_pairs == b.num_pairs

    def test_uniform_bounds(self):
        w = uniform_workload(10, 30, rate_low=5, rate_high=9, seed=0)
        assert w.event_rates.min() >= 5
        assert w.event_rates.max() <= 10

    def test_interest_sizes_at_least_one(self):
        w = uniform_workload(10, 50, mean_interest=0.1, seed=0)
        assert all(w.interest(v).size >= 1 for v in range(50))

    def test_invalid_populations(self):
        with pytest.raises(ValueError):
            zipf_workload(0, 10)
        with pytest.raises(ValueError):
            uniform_workload(10, 0)
        with pytest.raises(ValueError):
            uniform_workload(10, 10, rate_low=0)


def _corrupt_member(path, member, mutate):
    """Rewrite an npz with one member mutated, digests left stale."""
    data = dict(np.load(path))
    arr = np.array(data[member])
    mutate(arr)
    data[member] = arr
    np.savez(path, **data)


def _rewrite_member_npy_version(path, member, version):
    """Rewrite one member of a stored npz with another ``.npy`` header version."""
    import io
    import zipfile

    with zipfile.ZipFile(path) as zf:
        blobs = {name: zf.read(name) for name in zf.namelist()}
    arr = np.load(io.BytesIO(blobs[member + ".npy"]))
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=version)
    blobs[member + ".npy"] = buf.getvalue()
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, blob in blobs.items():
            zf.writestr(name, blob)


class TestTraceIntegrity:
    """v3 digests: every member's corruption is caught, by name."""

    MEMBERS = (
        "event_rates",
        "interest_indptr",
        "interest_topics",
        "message_size_bytes",
    )

    @pytest.mark.parametrize("mmap", [False, True], ids=["ram", "mmap"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rate_behind_valid_digests_rejected(
        self, tmp_path, small_zipf, mmap, bad
    ):
        # Digests check a file's bytes, not its values: a writer that
        # stored a NaN digested the NaN.
        path = save_workload(small_zipf, tmp_path / "trace")
        members = dict(np.load(path))
        rates = members["event_rates"].copy()
        rates[3] = bad
        members["event_rates"] = rates
        members["digest_event_rates"] = np.uint32(member_digest(rates))
        np.savez(path, **members)
        with pytest.raises(WorkloadError, match="finite"):
            load_workload(path, mmap=mmap, verify=True)

    @pytest.mark.parametrize("member", MEMBERS)
    def test_corrupt_member_detected_by_name(self, tmp_path, small_zipf, member):
        path = save_workload(small_zipf, tmp_path / "trace")

        def bump(arr):
            arr.flat[0] = arr.flat[0] + 1  # works for 0-d scalars too

        _corrupt_member(path, member, bump)
        with pytest.raises(TraceCorruptionError, match=member):
            load_workload(path)

    @pytest.mark.parametrize("member", MEMBERS)
    def test_missing_member_detected_by_name(self, tmp_path, small_zipf, member):
        path = save_workload(small_zipf, tmp_path / "trace")
        data = dict(np.load(path))
        del data[member]
        np.savez(path, **data)
        with pytest.raises(TraceCorruptionError, match=member):
            load_workload(path)

    @pytest.mark.parametrize("member", MEMBERS)
    def test_stripped_digest_refused_unless_unverified(
        self, tmp_path, small_zipf, member
    ):
        path = save_workload(small_zipf, tmp_path / "trace")
        data = dict(np.load(path))
        del data["digest_" + member]
        np.savez(path, **data)
        for verify in (None, True):
            with pytest.raises(TraceCorruptionError, match=f"'digest_{member}'"):
                load_workload(path, verify=verify)
        unverified = load_workload(path, verify=False)
        assert np.array_equal(unverified.interest_topics, small_zipf.interest_topics)
        mapped = load_workload(path, mmap=True)  # lazy: checks nothing
        assert np.array_equal(mapped.event_rates, small_zipf.event_rates)

    def test_verify_false_skips_the_check(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        _corrupt_member(path, "event_rates", lambda a: a.__setitem__(0, 1e9))
        loaded = load_workload(path, verify=False)
        assert loaded.event_rates[0] == 1e9

    def test_mmap_lazy_by_default_but_verify_opt_in(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        _corrupt_member(path, "event_rates", lambda a: a.__setitem__(0, 1e9))
        # Default mmap load trusts the file (lazy)...
        mapped = load_workload(path, mmap=True)
        assert mapped.event_rates[0] == 1e9
        # ...verify=True streams the members through the CRC.
        with pytest.raises(TraceCorruptionError, match="event_rates"):
            load_workload(path, mmap=True, verify=True)

    def test_mmap_verify_clean_file_passes(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        mapped = load_workload(path, mmap=True, verify=True)
        assert np.array_equal(mapped.event_rates, small_zipf.event_rates)

    def test_mmap_verify_names_missing_digest(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        data = dict(np.load(path))
        del data["digest_interest_topics"]
        np.savez(path, **data)
        with pytest.raises(TraceCorruptionError, match="digest_interest_topics"):
            load_workload(path, mmap=True, verify=True)

    def test_mmap_reads_npy_format_2_members(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        _rewrite_member_npy_version(path, "interest_topics", (2, 0))
        mapped = load_workload(path, mmap=True, verify=True)
        assert np.array_equal(mapped.interest_topics, small_zipf.interest_topics)
        assert np.array_equal(mapped.interest_indptr, small_zipf.interest_indptr)

    def test_mmap_rejects_unknown_npy_header_version(self, tmp_path, small_zipf):
        path = save_workload(small_zipf, tmp_path / "trace")
        _rewrite_member_npy_version(path, "event_rates", (3, 0))
        with pytest.raises(ValueError, match=r"npy header version \(3, 0\)"):
            load_workload(path, mmap=True)

    def test_mmap_rejects_corrupt_local_header(self, tmp_path, small_zipf):
        import zipfile

        path = save_workload(small_zipf, tmp_path / "trace")
        with zipfile.ZipFile(path) as zf:
            offset = zf.getinfo("interest_indptr.npy").header_offset
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(b"JUNK")
        with pytest.raises(ValueError, match="corrupt local header"):
            load_workload(path, mmap=True)


class TestChunkedDigests:
    def test_member_digests_pinned(self, tmp_path):
        # The chunk writer's distinct keys come from one sort; the file
        # must carry the digests the earlier np.unique-based writer did.
        path = save_zipf_workload_chunked(
            tmp_path / "z", 300, 30_000, seed=5, chunk_subscribers=10_000
        )
        with np.load(path) as data:
            digests = {
                name: int(data[name])
                for name in data.files
                if name.startswith("digest_")
            }
        assert digests == {
            "digest_event_rates": 3340084768,
            "digest_interest_indptr": 4260836696,
            "digest_interest_topics": 2248848529,
            "digest_message_size_bytes": 2814463511,
        }


class TestChunkedResume:
    """Interrupted chunked generation resumes bit-exactly from parts."""

    ARGS = dict(mean_interest=4.0, seed=3, chunk_subscribers=64)

    def _workloads_equal(self, a, b):
        return (
            np.array_equal(a.event_rates, b.event_rates)
            and np.array_equal(a.interest_indptr, b.interest_indptr)
            and np.array_equal(a.interest_topics, b.interest_topics)
            and a.message_size_bytes == b.message_size_bytes
        )

    def _crash_at_chunk(self, monkeypatch, crash_chunk):
        import repro.workloads.io as io_mod

        real = io_mod._draw_zipf_chunk
        state = {"armed": True}

        def flaky(chunk, *args, **kwargs):
            if state["armed"] and chunk == crash_chunk:
                state["armed"] = False
                raise RuntimeError("simulated crash")
            return real(chunk, *args, **kwargs)

        monkeypatch.setattr(io_mod, "_draw_zipf_chunk", flaky)
        return state

    def test_crash_leaves_no_final_file_then_resumes(
        self, tmp_path, monkeypatch
    ):
        ref = load_workload(
            save_zipf_workload_chunked(tmp_path / "ref", 30, 200, **self.ARGS)
        )
        target = tmp_path / "out"
        self._crash_at_chunk(monkeypatch, crash_chunk=2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            save_zipf_workload_chunked(target, 30, 200, **self.ARGS)
        final = str(target) + ".npz"
        assert not os.path.exists(final)  # atomic: no half-valid trace
        assert os.path.exists(final + ".manifest.json")
        assert os.path.exists(os.path.join(final + ".parts", "chunk_0.npz"))
        # The re-run skips completed chunks and matches an uninterrupted
        # draw bit for bit; sidecar state is cleaned up on success.
        path = save_zipf_workload_chunked(target, 30, 200, **self.ARGS)
        assert self._workloads_equal(load_workload(path), ref)
        assert not os.path.exists(final + ".manifest.json")
        assert not os.path.exists(final + ".parts")

    def test_resumed_chunks_are_actually_reused(self, tmp_path, monkeypatch):
        import repro.workloads.io as io_mod

        target = tmp_path / "out"
        self._crash_at_chunk(monkeypatch, crash_chunk=2)
        with pytest.raises(RuntimeError):
            save_zipf_workload_chunked(target, 30, 200, **self.ARGS)

        drawn = []
        real = io_mod._draw_zipf_chunk

        def counting(chunk, *args, **kwargs):
            drawn.append(chunk)
            return real(chunk, *args, **kwargs)

        monkeypatch.setattr(io_mod, "_draw_zipf_chunk", counting)
        save_zipf_workload_chunked(target, 30, 200, **self.ARGS)
        assert 0 not in drawn and 1 not in drawn  # completed parts reused
        assert 2 in drawn

    @pytest.mark.parametrize("damage", ["corrupt", "missing"])
    def test_damaged_part_is_redrawn(self, tmp_path, monkeypatch, damage):
        import repro.workloads.io as io_mod

        ref = load_workload(
            save_zipf_workload_chunked(tmp_path / "ref", 30, 200, **self.ARGS)
        )
        target = tmp_path / "out"
        self._crash_at_chunk(monkeypatch, crash_chunk=2)
        with pytest.raises(RuntimeError):
            save_zipf_workload_chunked(target, 30, 200, **self.ARGS)
        part = os.path.join(str(target) + ".npz.parts", "chunk_0.npz")
        if damage == "corrupt":
            _corrupt_member(part, "flat", lambda a: a.__setitem__(0, a[0] + 1))
        else:
            os.remove(part)

        drawn = []
        real = io_mod._draw_zipf_chunk

        def counting(chunk, *args, **kwargs):
            drawn.append(chunk)
            return real(chunk, *args, **kwargs)

        monkeypatch.setattr(io_mod, "_draw_zipf_chunk", counting)
        path = save_zipf_workload_chunked(target, 30, 200, **self.ARGS)
        assert 0 in drawn and 1 not in drawn  # only the damaged part redrawn
        assert self._workloads_equal(load_workload(path), ref)

    def test_param_mismatch_discards_partial_state(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out"
        self._crash_at_chunk(monkeypatch, crash_chunk=2)
        with pytest.raises(RuntimeError):
            save_zipf_workload_chunked(target, 30, 200, **self.ARGS)
        # Different seed: the stale manifest must not leak chunks in.
        args = dict(self.ARGS, seed=9)
        path = save_zipf_workload_chunked(target, 30, 200, **args)
        ref = load_workload(
            save_zipf_workload_chunked(tmp_path / "ref", 30, 200, **args)
        )
        assert self._workloads_equal(load_workload(path), ref)

    def test_interrupted_save_workload_preserves_old_file(
        self, tmp_path, small_zipf, monkeypatch
    ):
        import repro.resilience.integrity as integrity_mod

        path = save_workload(small_zipf, tmp_path / "trace")
        before = open(path, "rb").read()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", explode)
        with pytest.raises(OSError, match="disk full"):
            save_workload(small_zipf, path)
        assert open(path, "rb").read() == before  # old file untouched
        leftovers = [
            name
            for name in os.listdir(tmp_path)
            if name.endswith(".tmp")
        ]
        assert leftovers == []  # no tmp debris either
