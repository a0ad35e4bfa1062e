"""Result-cache invalidation and garbage collection.

Two contracts: a :data:`BACKEND_VERSION` bump must miss every existing
cache entry (stale kernels can never serve), while identical requests
must hit across executor types (the key is executor-independent); and
``prune`` reclaims disk by age and size without ever breaking reads.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import shutil
import zipfile

import numpy as np
import pytest

from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.platforms.scenarios import build_model
from repro.sim import plan as plan_mod
from repro.sim.executors import PoolExecutor
from repro.sim.plan import ResultCache, SimRequest, request_key
from repro.sim.results import OverheadEstimate


def one_request() -> SimRequest:
    model = build_model("Hera", 1)
    return SimRequest(model=model, T=3600.0, P=1000.0, n_runs=3, n_patterns=4)


def simulate_with(pipeline: SimulationPipeline) -> float:
    from repro.sim.montecarlo import Fidelity

    settings = SimSettings(fidelity=Fidelity(n_runs=3, n_patterns=4), seed=11)
    model = build_model("Hera", 1)
    deferred = pipeline.simulate_mean(model, 3600.0, 1000.0, settings)
    pipeline.resolve()
    return deferred.value


class TestBackendVersionInvalidation:
    def test_version_bump_changes_every_key(self):
        request = one_request()
        old = request_key(request)
        try:
            plan_mod.BACKEND_VERSION += 1
            assert request_key(request) != old
        finally:
            plan_mod.BACKEND_VERSION -= 1

    def test_version_bump_misses_cache(self, tmp_path, monkeypatch):
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            value = simulate_with(pipe)
            assert pipe.cache.misses > 0
        monkeypatch.setattr(plan_mod, "BACKEND_VERSION", plan_mod.BACKEND_VERSION + 1)
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            bumped = simulate_with(pipe)
            hits, misses = pipe.cache_stats
        assert hits == 0 and misses > 0  # stale entries never served
        assert bumped == value  # same kernel in this test: same numbers

    def test_identical_spec_hits_across_executor_types(self, tmp_path):
        # Written serially ...
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            value = simulate_with(pipe)
        # ... read back by a pooled executor ...
        with SimulationPipeline(
            executor=PoolExecutor(2), cache_dir=tmp_path
        ) as pipe:
            assert simulate_with(pipe) == value
            hits, misses = pipe.cache_stats
            assert hits == 1 and misses == 0


class TestCacheGC:
    @staticmethod
    def _fill(cache: ResultCache, n: int, mtime_step: float = 0.0):
        import os
        import time

        now = time.time()
        for i in range(n):
            cache.put_value(f"k{i:02d}", float(i))
            if mtime_step:
                age = (n - i) * mtime_step
                path = cache._path(f"k{i:02d}")
                os.utime(path, (now - age, now - age))

    def test_entries_sorted_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3, mtime_step=100.0)
        entries = cache.entries()
        assert [e.key for e in entries] == ["k00", "k01", "k02"]
        assert all(e.size > 0 for e in entries)

    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats()["entries"] == 0
        self._fill(cache, 4)
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["total_bytes"] == sum(e.size for e in cache.entries())

    def test_prune_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 4, mtime_step=86400.0)  # 4, 3, 2, 1 days old
        removed, kept = cache.prune(max_age_days=2.5)
        assert sorted(e.key for e in removed) == ["k00", "k01"]
        assert len(kept) == 2
        assert cache.get_value("k00") is None  # gone from disk
        assert cache.get_value("k03") == 3.0

    def test_prune_by_size_evicts_oldest(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 5, mtime_step=10.0)
        entry = cache.entries()[0]
        budget_mb = (entry.size * 2.5) / (1024 * 1024)
        removed, kept = cache.prune(max_size_mb=budget_mb)
        assert len(kept) == 2
        assert [e.key for e in kept] == ["k03", "k04"]  # newest survive

    def test_prune_dry_run_keeps_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3, mtime_step=86400.0)
        removed, _ = cache.prune(max_age_days=0.5, dry_run=True)
        assert len(removed) == 3
        assert len(cache.entries()) == 3  # nothing deleted

    def test_prune_noop_without_limits(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 2)
        removed, kept = cache.prune()
        assert removed == [] and len(kept) == 2

    def test_torn_tempfiles_are_not_entries(self, tmp_path):
        """Crash leftovers from atomic writes never surface as entries,
        not even in a copy of the cache directory."""
        cache = ResultCache(tmp_path / "a")
        self._fill(cache, 2)
        torn = tmp_path / "a" / ".deadbeef.123.tmp.npz"
        torn.write_bytes(b"torn write")
        assert len(cache.entries()) == 2
        assert cache.stats()["entries"] == 2
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        copy = ResultCache(tmp_path / "b")
        assert [e.key for e in copy.entries()] == [e.key for e in cache.entries()]
        ok, corrupt = copy.verify()
        assert len(ok) == 2 and corrupt == []


class TestCacheCLI:
    def test_stats_ls_prune(self, tmp_path, capsys):
        from repro.experiments.runner import main

        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 3, mtime_step=86400.0)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "k00" in out and "age" in out
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-age-days", "1.5", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 2 entries" in out
        assert len(cache.entries()) == 3
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-age-days", "1.5", "--yes"]
        ) == 0
        assert len(cache.entries()) == 1

    def test_prune_requires_a_limit(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-age-days", "-1"), ("--max-size-mb", "-0.5"),
         ("--max-age-days", "nan"), ("--max-size-mb", "inf")],
    )
    @pytest.mark.parametrize("mode", ["--dry-run", "--yes"])
    def test_prune_refuses_negative_or_non_finite_limits(
        self, tmp_path, capsys, flag, value, mode
    ):
        """A negative age or size selects every entry: exit 2 from
        argparse, and not one entry is removed."""
        from repro.experiments.runner import main

        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 3, mtime_step=86400.0)
        before = [e.key for e in cache.entries()]
        with pytest.raises(SystemExit) as exc:
            main(["cache", "prune", "--cache-dir", str(tmp_path), flag, value, mode])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {flag}: must be a finite number >= 0, got {value}"
        )
        assert [e.key for e in cache.entries()] == before

    def test_prune_refuses_without_yes_when_not_a_tty(self, tmp_path, capsys):
        """Deleting a (possibly shared) cache needs explicit consent."""
        from repro.experiments.runner import main

        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 3, mtime_step=86400.0)
        assert main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-age-days", "0.5"]
        ) == 1
        out = capsys.readouterr().out
        assert "refusing to delete without --yes" in out
        assert len(cache.entries()) == 3  # nothing deleted

    def test_prune_interactive_confirmation(self, tmp_path, capsys, monkeypatch):
        """A terminal user is prompted; 'n' aborts, 'y' deletes."""
        from repro.experiments import runner

        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 3, mtime_step=86400.0)
        monkeypatch.setattr(runner.sys.stdin, "isatty", lambda: True)
        argv = ["cache", "prune", "--cache-dir", str(tmp_path),
                "--max-age-days", "0.5"]
        monkeypatch.setattr("builtins.input", lambda prompt: "n")
        assert runner.main(argv) == 1
        assert "aborted" in capsys.readouterr().out
        assert len(cache.entries()) == 3
        monkeypatch.setattr("builtins.input", lambda prompt: "y")
        assert runner.main(argv) == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert len(cache.entries()) == 0


class TestCacheVerify:
    """Integrity checks: truncated/corrupt/foreign entries are caught."""

    def test_clean_cache_verifies(self, tmp_path):
        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 3)
        ok, corrupt = cache.verify()
        assert len(ok) == 3 and corrupt == []
        assert cache.verify_entry("k00") == (True, "ok")

    def test_missing_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.verify_entry("nope") == (False, "missing")

    def test_truncated_entry_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 2)
        path = cache._path("k00")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        ok, corrupt = cache.verify()
        assert [e.key for e in ok] == ["k01"]
        assert [e.key for e, _ in corrupt] == ["k00"]

    def test_empty_file_is_corrupt_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 1)
        cache._path("k00").write_bytes(b"")
        assert cache.verify_entry("k00") == (False, "empty file")
        assert cache.stats()["empty_entries"] == 1

    def test_foreign_npz_is_corrupt(self, tmp_path):
        import numpy as np

        cache = ResultCache(tmp_path)
        with open(cache._path("alien"), "wb") as handle:
            np.savez(handle, payload=np.arange(3))
        ok, reason = cache.verify_entry("alien")
        assert not ok and "foreign" in reason

    def test_invalidate_deletes(self, tmp_path):
        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 1)
        assert cache.invalidate("k00")
        assert not cache.invalidate("k00")  # already gone
        assert cache.verify_entry("k00") == (False, "missing")

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value("k", 5.0)
        cache._path("k").write_bytes(b"garbage")
        assert cache.get_value("k") is None  # miss, not an exception

    def test_atomic_store_leaves_no_temp_on_success(self, tmp_path):
        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 3)
        stray = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert stray == []


class TestCacheVerifyCLI:
    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        from repro.experiments.runner import main

        cache = ResultCache(tmp_path)
        TestCacheGC._fill(cache, 3)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "3 entries ok, 0 corrupt" in capsys.readouterr().out
        path = cache._path("k01")
        path.write_bytes(path.read_bytes()[:10])
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "2 entries ok, 1 corrupt" in out and "k01" in out
        # The corrupt entry survives a report-only verify...
        assert cache._path("k01").exists()
        # ... and is removed by --delete.
        assert main(
            ["cache", "verify", "--cache-dir", str(tmp_path), "--delete"]
        ) == 0
        assert "1 corrupt removed" in capsys.readouterr().out
        assert not cache._path("k01").exists()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0


class TestEntryCodec:
    """One-record entries, and entries written by 1.14 and earlier."""

    ESTIMATE = OverheadEstimate(
        mean=1.25, std=0.5, stderr=0.125, ci_low=1.0, ci_high=1.5, n_runs=40
    )

    @staticmethod
    def _legacy(cache: ResultCache, key: str, **fields) -> None:
        """An entry in the 1.14 layout: one ``.npz`` member per field."""
        with open(cache._path(key), "wb") as handle:
            np.savez(handle, **fields)

    def _legacy_pair(self, cache: ResultCache) -> None:
        self._legacy(cache, "est", kind="estimate", **{
            f.name: getattr(self.ESTIMATE, f.name)
            for f in dataclasses.fields(OverheadEstimate)
        })
        self._legacy(cache, "val", kind="value", value=2.5)

    def test_new_entry_is_one_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_estimate("est", self.ESTIMATE)
        cache.put_value("val", 2.5)
        with np.load(cache._path("est")) as data:
            assert data.files == ["entry"]
            record = data["entry"]
            assert record.shape == ()
            assert record.dtype.names == (
                "kind", "mean", "std", "stderr", "ci_low", "ci_high", "n_runs"
            )
        with np.load(cache._path("val")) as data:
            assert data["entry"].dtype.names == ("kind", "value")
        assert cache.get_estimate("est") == self.ESTIMATE
        assert cache.get_value("val") == 2.5

    def test_legacy_entries_get_verify_and_serve(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._legacy_pair(cache)
        assert cache.get_estimate("est") == self.ESTIMATE
        assert cache.get_value("val") == 2.5
        assert cache.verify_entry("est", retain=True) == (True, "ok")
        assert cache.verify_entry("val", retain=True) == (True, "ok")
        assert cache.get_estimate("est") == self.ESTIMATE
        assert cache.get_value("val") == 2.5
        assert (cache.hits, cache.misses) == (4, 0)

    def test_legacy_entries_pass_cache_verify(self, tmp_path, capsys):
        from repro.experiments.runner import main

        cache = ResultCache(tmp_path)
        self._legacy_pair(cache)
        cache.put_value("new", 1.0)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "3 entries ok, 0 corrupt" in capsys.readouterr().out

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, -0.0])
    def test_special_floats_round_trip_bit_exactly(self, tmp_path, special):
        cache = ResultCache(tmp_path)
        estimate = OverheadEstimate(
            mean=special, std=-special, stderr=special, ci_low=-0.0,
            ci_high=special, n_runs=1,
        )
        cache.put_estimate("est", estimate)
        cache.put_value("val", special)
        got = cache.get_estimate("est")
        for name in ("mean", "std", "stderr", "ci_low", "ci_high"):
            want = np.float64(getattr(estimate, name))
            assert np.float64(getattr(got, name)).tobytes() == want.tobytes(), name
        assert np.float64(cache.get_value("val")).tobytes() == np.float64(special).tobytes()

    def test_every_proper_prefix_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_estimate("est", self.ESTIMATE)
        data = cache._path("est").read_bytes()
        for size in range(len(data)):
            cache._path("est").write_bytes(data[:size])
            ok, reason = cache.verify_entry("est")
            assert not ok, f"a {size}-byte prefix of {len(data)} verified: {reason}"
        cache._path("est").write_bytes(data)
        assert cache.verify_entry("est") == (True, "ok")

    @staticmethod
    def _parent_store(cache: ResultCache, key: str, **fields) -> None:
        """An entry as 1.15–1.19 wrote it: ``np.savez`` of the one record."""
        record = np.array(
            tuple(fields.values()),
            dtype=[(name, np.asarray(value).dtype) for name, value in fields.items()],
        )
        buffer = io.BytesIO()
        np.savez(buffer, entry=record)
        cache._path(key).write_bytes(buffer.getvalue())

    SPECIALS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072014e-309)

    @pytest.mark.parametrize("special", SPECIALS, ids=float.hex)
    def test_both_kinds_round_trip_bit_for_bit(self, tmp_path, special):
        cache = ResultCache(tmp_path)
        estimate = OverheadEstimate(
            mean=special, std=-special, stderr=1.0 + special, ci_low=special,
            ci_high=-0.0, n_runs=2**40,
        )
        cache.put_estimate("est", estimate)
        cache.put_value("val", special)
        got = cache.get_estimate("est")
        for f in dataclasses.fields(OverheadEstimate):
            want = getattr(estimate, f.name)
            if isinstance(want, float):
                assert getattr(got, f.name).hex() == want.hex(), f.name
            else:
                assert getattr(got, f.name) == want
        assert cache.get_value("val").hex() == special.hex()

    def test_parent_encoder_entries_read_verify_and_serve(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._parent_store(cache, "est", kind="estimate", **{
            f.name: getattr(self.ESTIMATE, f.name)
            for f in dataclasses.fields(OverheadEstimate)
        })
        self._parent_store(cache, "val", kind="value", value=2.5)
        assert cache.verify_entry("est", retain=True) == (True, "ok")
        assert cache.verify_entry("val") == (True, "ok")
        assert cache.get_estimate("est") == self.ESTIMATE
        assert cache.get_estimate("est") == self.ESTIMATE  # from disk
        assert cache.get_value("val") == 2.5
        assert (cache.hits, cache.misses) == (3, 0)

    def test_written_entries_are_byte_stable(self, tmp_path):
        # No timestamp or pid in the bytes: equal entries are equal files.
        cache = ResultCache(tmp_path)
        cache.put_value("a", 2.5)
        cache.put_value("b", 2.5)
        assert cache._path("a").read_bytes() == cache._path("b").read_bytes()

    def test_flipped_payload_byte_is_a_crc_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_estimate("est", self.ESTIMATE)
        path = cache._path("est")
        data = bytearray(path.read_bytes())
        data[data.index(b"\x00\x00\x00\x00\x00\x00\xf4?")] ^= 0x01  # mean's low byte
        path.write_bytes(bytes(data))
        ok, reason = cache.verify_entry("est")
        assert not ok and "CRC-32 mismatch" in reason
        assert cache.get_estimate("est") is None
        assert cache.misses == 1

    @pytest.mark.parametrize("where", [
        -22,  # end-of-central-directory signature
        -10,  # central directory size, in the end record
        -22 - 46 - len("entry.npy"),  # central directory entry signature
    ])
    def test_a_damaged_directory_record_is_corrupt(self, tmp_path, where):
        # The zip records carry no CRC of their own: each must be checked.
        cache = ResultCache(tmp_path)
        cache.put_value("val", 2.5)
        path = cache._path("val")
        data = bytearray(path.read_bytes())
        data[where] ^= 0x01
        path.write_bytes(bytes(data))
        ok, reason = cache.verify_entry("val")
        assert not ok and reason.startswith("unreadable (CorruptEntry:"), reason
        assert cache.get_value("val") is None

    def test_a_payload_longer_than_its_header_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        header = io.BytesIO()
        np.save(header, np.float64(2.5))
        with zipfile.ZipFile(cache._path("long"), "w") as archive:  # stored
            archive.writestr("value.npy", header.getvalue() + b"\0" * 8)
        ok, reason = cache.verify_entry("long")
        assert not ok and "payload bytes" in reason

    def test_an_unknown_array_is_foreign(self, tmp_path):
        cache = ResultCache(tmp_path)
        with open(cache._path("alien"), "wb") as handle:
            np.savez(handle, kind=np.arange(3))
        ok, reason = cache.verify_entry("alien")
        assert not ok and "foreign" in reason

    def test_a_compressed_member_is_refused(self, tmp_path):
        cache = ResultCache(tmp_path)
        with open(cache._path("zipped"), "wb") as handle:
            np.savez_compressed(handle, kind="value", value=2.5)
        ok, reason = cache.verify_entry("zipped")
        assert not ok and "not stored uncompressed" in reason


class TestEntryDurability:
    """Entries are never fsynced; a damaged one recomputes (see DESIGN.md)."""

    def test_a_cache_does_not_fsync(self, tmp_path, monkeypatch):
        calls: list[int] = []

        class CountingOs:
            def fsync(self, fd):
                calls.append(fd)
                return os.fsync(fd)

            def __getattr__(self, name):
                return getattr(os, name)

        monkeypatch.setattr(plan_mod, "os", CountingOs())
        cache = ResultCache(tmp_path)
        cache.put_value("v", 1.0)
        assert calls == []
        assert cache.get_value("v") == 1.0

    def test_empty_and_truncated_entries_recompute_and_rewrite(self, tmp_path):
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            values = [simulate_with(pipe), self._other(pipe)]
        cache = ResultCache(tmp_path)
        first, second = (e.path for e in cache.entries())
        good = {first: first.read_bytes(), second: second.read_bytes()}
        first.write_bytes(b"")  # what a power loss can leave unsynced
        second.write_bytes(good[second][: len(good[second]) // 2])
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            assert [simulate_with(pipe), self._other(pipe)] == values
            assert pipe.cache_stats == (0, 2)
        for path, data in good.items():
            assert path.read_bytes() == data  # rewritten, whole again
        with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
            assert [simulate_with(pipe), self._other(pipe)] == values
            assert pipe.cache_stats == (2, 0)

    @staticmethod
    def _other(pipeline: SimulationPipeline) -> float:
        from repro.sim.montecarlo import Fidelity

        settings = SimSettings(fidelity=Fidelity(n_runs=3, n_patterns=4), seed=12)
        deferred = pipeline.simulate_mean(build_model("Hera", 1), 3600.0, 1000.0, settings)
        pipeline.resolve()
        return deferred.value


class TestCacheCommandsOnAMissingDirectory:
    """A mistyped --cache-dir is an error, not an empty healthy cache."""

    @pytest.mark.parametrize("argv", [
        ["stats"], ["ls"], ["verify"], ["prune", "--max-age-days", "1", "--yes"],
    ], ids=lambda argv: argv[0])
    def test_fails_and_writes_nothing(self, tmp_path, capsys, argv):
        from repro.experiments.runner import main

        missing = tmp_path / "no-such-cache"
        assert main(["cache", argv[0], "--cache-dir", str(missing), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro-experiments cache {argv[0]}: error: "
            f"no cache directory at {missing}\n"
        )
        assert list(tmp_path.iterdir()) == []
