"""Run manifests: checkpoint + fate log, config hashing, resume validation."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.sim import plan as plan_mod
from repro.sim.faults import SimulatedCrash
from repro.sim.manifest import (
    DEFAULT_RUNS_DIR,
    FATES_LOG_NAME,
    RunManifest,
    RunRecorder,
    _read_fates_log,
    check_inputs,
    config_hash,
    manifest_path,
    validate_resume,
)
from repro.sim.plan import ResultCache
from repro.sim.results import OverheadEstimate


class _Event:
    """Stand-in for a PointEvent (only key/status are read)."""

    def __init__(self, key, status):
        self.key = key
        self.status = status


class TestConfigHash:
    def test_execution_flags_are_ignored(self):
        base = ["fig5", "--runs", "6", "--cache-dir", "c"]
        noisy = base + [
            "--jobs", "4", "--progress",
            "--run-id", "x", "--runs-dir", "r", "--resume",
            "--fault-plan", "crash-after=3",
        ]
        assert config_hash(base) == config_hash(noisy)

    def test_inline_form_is_ignored_too(self):
        base = ["fig5", "--runs", "6"]
        assert config_hash(base) == config_hash(base + ["--jobs=4"])

    def test_result_relevant_flags_change_the_hash(self):
        assert config_hash(["fig5", "--runs", "6"]) != config_hash(
            ["fig5", "--runs", "7"]
        )
        assert config_hash(["fig5", "--seed", "1"]) != config_hash(
            ["fig5", "--seed", "2"]
        )

    def test_backend_version_enters_the_hash(self, monkeypatch):
        before = config_hash(["fig5"])
        monkeypatch.setattr(plan_mod, "BACKEND_VERSION", plan_mod.BACKEND_VERSION + 1)
        # config_hash reads the symbol through its own import; patch both.
        import repro.sim.manifest as manifest_mod

        monkeypatch.setattr(
            manifest_mod, "BACKEND_VERSION", plan_mod.BACKEND_VERSION
        )
        assert config_hash(["fig5"]) != before


class TestManifestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        manifest = RunManifest(run_id="r1", argv=("fig5", "--runs", "6"))
        manifest.fates["k1"] = "computed"
        path = manifest_path(tmp_path, "r1")
        RunRecorder(path, manifest)  # writes immediately
        loaded = RunManifest.load(path)
        assert loaded.run_id == "r1"
        assert loaded.argv == ("fig5", "--runs", "6")
        assert loaded.fates == {"k1": "computed"}
        assert loaded.config == manifest.config

    def test_incompatible_format_refuses(self):
        with pytest.raises(ReproError, match="format"):
            RunManifest.from_json({"format": 999, "run_id": "x"})

    def test_missing_manifest_refuses(self, tmp_path):
        with pytest.raises(ReproError, match="no run manifest"):
            RunManifest.load(tmp_path / "nope" / "manifest.json")

    def test_counts(self):
        manifest = RunManifest(run_id="r", argv=("cmd",))
        manifest.fates.update(k1="computed", k2="computed", k3="served")
        assert manifest.counts() == {"computed": 2, "served": 1}


class TestRecorder:
    def test_create_refuses_existing_run(self, tmp_path):
        RunRecorder.create(tmp_path, "r1", ["cmd"])
        with pytest.raises(ReproError, match="already has a manifest"):
            RunRecorder.create(tmp_path, "r1", ["cmd"])

    def test_journal_is_a_consistent_prefix(self, tmp_path):
        recorder = RunRecorder.create(tmp_path, "r1", ["cmd"])
        recorder.on_event(_Event("k1", "computed"))
        recorder.on_event(_Event("k2", "computed"))
        # The on-disk manifest already holds both fates, mid-run.
        on_disk = RunManifest.load(manifest_path(tmp_path, "r1"))
        assert on_disk.fates == {"k1": "computed", "k2": "computed"}
        assert on_disk.status == "running"
        recorder.finish()
        assert RunManifest.load(recorder.path).status == "complete"

    def test_events_without_keys_pass(self, tmp_path):
        recorder = RunRecorder.create(tmp_path, "r1", ["cmd"])
        recorder.on_event(_Event(None, "computed"))
        assert recorder.manifest.fates == {}

    def test_resume_accounting(self, tmp_path):
        recorder = RunRecorder.create(tmp_path, "r1", ["cmd"])
        recorder.on_event(_Event("k1", "computed"))
        recorder.on_event(_Event("k2", "computed"))
        resumed = RunRecorder.resume(tmp_path, "r1", ["cmd", "--jobs", "4"])
        assert resumed.manifest.resumes == 1
        # k1 served from cache (reused), k2 recomputed (the smell), k3 new.
        resumed.on_event(_Event("k1", "served"))
        resumed.on_event(_Event("k2", "computed"))
        resumed.on_event(_Event("k3", "computed"))
        assert resumed.manifest.reused == 1
        assert resumed.manifest.recomputed == 1
        assert len(resumed.manifest.fates) == 3

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        recorder = RunRecorder.create(tmp_path, "r1", ["cmd"])
        run_dir = recorder.path.parent

        def siblings():
            return sorted(p.name for p in run_dir.iterdir() if p != recorder.path)

        for i in range(5):
            recorder.on_event(_Event(f"k{i}", "computed"))
            assert siblings() == [FATES_LOG_NAME]  # the log, never a temp
        recorder.write()  # a mid-run compaction
        assert siblings() == []
        recorder.on_event(_Event("k5", "computed"))
        assert siblings() == [FATES_LOG_NAME]
        recorder.finish()
        assert siblings() == []
        json.loads(recorder.path.read_text())  # always valid JSON

    def test_one_log_line_per_fate_change(self, tmp_path):
        recorder = RunRecorder.create(tmp_path, "r1", ["cmd"])
        checkpoint = recorder.path.read_bytes()
        for status in ("computed", "computed", "served", "served"):
            recorder.on_event(_Event("k1", status))
        lines = (recorder.path.parent / FATES_LOG_NAME).read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            ["k1", "computed"], ["k1", "served"],
        ]
        # Journaling a fate appends; it never rewrites the checkpoint.
        assert recorder.path.read_bytes() == checkpoint
        recorder.close()


class TestFateLog:
    #: The fate of ``k<i>`` in an abandoned run: computed and served
    #: lines interleave, as on a resumed round.
    MIXED = ("computed", "served")

    def _fates(self, n):
        return {f"k{i}": self.MIXED[i % 2] for i in range(n)}

    def _abandoned(self, tmp_path, n):
        """A run hard-killed after ``n`` fates: no close, no compaction.

        Right after each ``on_event`` returns, the log on disk already
        holds every delivered line, served ones included: a ``kill -9``
        never loses a flushed write.
        """
        recorder = RunRecorder.create(tmp_path, "r1", ["cmd"])
        for i in range(n):
            recorder.on_event(_Event(f"k{i}", self.MIXED[i % 2]))
            assert _read_fates_log(recorder.log_path) == self._fates(i + 1)
        recorder._log.close()  # the kill: the handle dies, nothing compacts
        return recorder.path

    def test_hard_kill_recovers_the_delivered_prefix(self, tmp_path):
        path = self._abandoned(tmp_path, 4)
        assert json.loads(path.read_text())["fates"] == {}  # checkpoint only
        loaded = RunManifest.load(path)
        assert loaded.fates == self._fates(4)
        assert loaded.status == "running"

    def test_resume_compacts_a_hard_killed_log(self, tmp_path):
        path = self._abandoned(tmp_path, 3)
        resumed = RunRecorder.resume(tmp_path, "r1", ["cmd"])
        assert not (path.parent / FATES_LOG_NAME).exists()
        assert json.loads(path.read_text())["fates"] == resumed.manifest.fates
        resumed.on_event(_Event("k0", "served"))
        resumed.on_event(_Event("k1", "served"))
        assert resumed.manifest.reused == 2
        resumed.close()

    @pytest.mark.parametrize("tail", [b'["k3", "comp', b'["k3", "computed"]'])
    def test_torn_last_line_is_ignored(self, tmp_path, tail):
        path = self._abandoned(tmp_path, 3)
        with open(path.parent / FATES_LOG_NAME, "ab") as handle:
            handle.write(tail)  # no newline: the kill tore this write
        loaded = RunManifest.load(path)
        assert loaded.fates == {"k0": "computed", "k1": "served", "k2": "computed"}

    def test_unparsable_line_ends_the_replay(self, tmp_path):
        path = self._abandoned(tmp_path, 1)
        with open(path.parent / FATES_LOG_NAME, "ab") as handle:
            handle.write(b'garbage\n["k9", "computed"]\n["k8", "bogus"]\n')
        assert RunManifest.load(path).fates == {"k0": "computed"}

    def test_retired_skipped_fate_ends_the_replay(self, tmp_path):
        """``skipped`` (sharded runs, removed in 1.18) is no longer a fate."""
        path = self._abandoned(tmp_path, 1)
        with open(path.parent / FATES_LOG_NAME, "ab") as handle:
            handle.write(b'["k7", "skipped"]\n["k9", "computed"]\n')
        assert RunManifest.load(path).fates == {"k0": "computed"}

    def test_crash_inside_the_block_compacts_as_running(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            with RunRecorder.create(tmp_path, "r1", ["cmd"]) as recorder:
                recorder.on_event(_Event("k1", "computed"))
                raise SimulatedCrash("injected")
        assert [p.name for p in recorder.path.parent.iterdir()] == ["manifest.json"]
        on_disk = json.loads(recorder.path.read_text())
        assert on_disk["status"] == "running"
        assert on_disk["fates"] == {"k1": "computed"}

    def test_finish_then_close_writes_once(self, tmp_path, monkeypatch):
        writes = []
        with RunRecorder.create(tmp_path, "r1", ["cmd"]) as recorder:
            monkeypatch.setattr(
                RunRecorder, "write",
                lambda self, _w=RunRecorder.write: (writes.append(1), _w(self)),
            )
            recorder.on_event(_Event("k1", "computed"))
            recorder.finish()
        assert len(writes) == 1  # closing a finished journal is free
        assert [p.name for p in recorder.path.parent.iterdir()] == ["manifest.json"]
        assert RunManifest.load(recorder.path).status == "complete"


class TestJournalDurability:
    """The checkpoint is the one fsync: no entry and no log line pays one."""

    def test_a_journaled_run_fsyncs_once_per_checkpoint_write(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.runner import main
        from repro.sim.faults import CRASH_EXIT_CODE

        runs_dir = tmp_path / "runs"
        checkpoint_tmp = runs_dir / "r1" / f".manifest.json.{os.getpid()}.tmp"
        synced: list[str] = []
        writes: list[int] = []
        real_fsync, real_write = os.fsync, RunRecorder.write

        def fsync(fd):
            inode = os.fstat(fd).st_ino
            checkpoint = checkpoint_tmp.exists() and checkpoint_tmp.stat().st_ino == inode
            synced.append("checkpoint" if checkpoint else "other")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(
            RunRecorder, "write", lambda self: (writes.append(1), real_write(self))
        )
        args = [
            "fig5", "--runs", "4", "--patterns", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(runs_dir), "--run-id", "r1",
        ]
        # A crashed run, then its resume: create, crash-time close,
        # the reopened journal's validated first write, and finish.
        assert main(args + ["--fault-plan", "crash-after=3"]) == CRASH_EXIT_CODE
        assert main(args + ["--resume"]) == 0
        manifest = RunManifest.load(manifest_path(runs_dir, "r1"))
        computed = sum(fate == "computed" for fate in manifest.fates.values())
        assert computed > 0 and len(ResultCache(tmp_path / "cache").entries()) > 0
        assert len(writes) == 4
        assert synced == ["checkpoint"] * len(writes)

class TestValidateResume:
    def _manifest(self, fates):
        manifest = RunManifest(run_id="r", argv=("cmd",))
        manifest.fates.update(fates)
        return manifest

    def test_classifies_reusable_missing_stale_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_value("good", 1.0)
        cache.put_value("bad", 2.0)
        cache._path("bad").write_bytes(b"torn")
        manifest = self._manifest(
            {"good": "computed", "bad": "computed", "gone": "computed",
             "old": "computed"}
        )
        report = validate_resume(
            manifest, ["good", "bad", "gone", "new"], cache
        )
        assert report.reusable == ("good",)
        assert report.invalidated == ("bad",)
        assert report.missing == ("gone",)
        assert report.stale == ("old",)
        assert report.pending == 4
        # The corrupt entry was deleted so it reads as a clean miss.
        assert not cache._path("bad").exists()

    def test_backend_change_flags(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        manifest = self._manifest({})
        assert not validate_resume(manifest, [], cache).backend_changed
        manifest.backend_version -= 1
        assert validate_resume(manifest, [], cache).backend_changed

    def test_config_change_flags(self, tmp_path):
        cache = ResultCache(tmp_path)
        manifest = self._manifest({})
        assert not validate_resume(manifest, [], cache).config_changed
        report = validate_resume(manifest, [], cache, argv=["cmd", "--seed", "9"])
        assert report.config_changed
        # Execution-flag drift does not count.
        report = validate_resume(manifest, [], cache, argv=["cmd", "--jobs", "8"])
        assert not report.config_changed

    def test_later_staging_rounds_accumulate(self, tmp_path):
        """A round that declares more points as it goes (an adaptive
        resume) checks each journaled fate when its key turns up;
        only what is never declared stays stale."""
        cache = ResultCache(tmp_path)
        for key in ("w0", "w1", "w1bad"):
            cache.put_value(key, 1.0)
        cache._path("w1bad").write_bytes(b"torn")
        manifest = self._manifest(
            {"w0": "computed", "w1": "computed", "w1bad": "computed",
             "never": "computed"}
        )
        manifest.backend_version -= 1
        first = validate_resume(manifest, ["w0", "new"], cache)
        assert first.reusable == ("w0",)
        assert first.stale == ("never", "w1", "w1bad")
        assert first.backend_changed
        report = validate_resume(manifest, ["w1", "w1bad"], cache, report=first)
        assert report.reusable == ("w0", "w1")
        assert report.invalidated == ("w1bad",)
        assert report.stale == ("never",)
        assert report.pending == 4
        assert report.backend_changed  # the first round's finding carries
        assert not cache._path("w1bad").exists()

    def test_report_lines_are_stderr_ready(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = validate_resume(self._manifest({}), [], cache)
        assert all(line.startswith("[resume]") for line in report.lines())


class TestVerifyOnceServe:
    """A resume reads each reusable entry once: verify, then serve."""

    def _loads(self, monkeypatch) -> list[str]:
        loads: list[str] = []
        real = ResultCache._read

        def counting(path):
            loads.append(Path(path).stem)
            return real(path)

        monkeypatch.setattr(ResultCache, "_read", staticmethod(counting))
        return loads

    def _cache(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path)
        cache.put_estimate("est", OverheadEstimate(
            mean=1.5, std=0.1, stderr=0.01, ci_low=1.4, ci_high=1.6, n_runs=4))
        cache.put_value("val", 2.0)
        cache.put_value("bad", 3.0)
        cache._path("bad").write_bytes(b"torn")
        return cache

    def test_reusable_entries_are_served_without_a_second_read(
        self, tmp_path, monkeypatch
    ):
        cache = self._cache(tmp_path)
        manifest = RunManifest(run_id="r", argv=("cmd",))
        manifest.fates.update(est="computed", val="computed", bad="computed")
        loads = self._loads(monkeypatch)
        report = validate_resume(manifest, ["est", "val", "bad"], cache)
        assert report.reusable == ("est", "val")
        assert sorted(loads) == ["bad", "est", "val"]  # the verification reads
        loads.clear()
        assert cache.get_estimate("est").mean == 1.5
        assert cache.get_value("val") == 2.0
        assert cache.get_value("bad") is None  # invalidated: a clean miss
        assert loads == []
        assert (cache.hits, cache.misses) == (2, 1)
        # Each payload is dropped on first serve: the next get reads disk.
        assert cache.get_value("val") == 2.0
        assert loads == ["val"]

    def test_a_legacy_entry_is_read_once_too(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        with open(cache._path("old"), "wb") as handle:  # the 1.14 layout
            np.savez(handle, kind="value", value=4.0)
        manifest = RunManifest(run_id="r", argv=("cmd",))
        manifest.fates["old"] = "computed"
        loads = self._loads(monkeypatch)
        assert validate_resume(manifest, ["old"], cache).reusable == ("old",)
        assert cache.get_value("old") == 4.0
        assert loads == ["old"]

    def test_cache_verify_retains_nothing(self, tmp_path, monkeypatch):
        cache = self._cache(tmp_path)
        ok, corrupt = cache.verify()
        assert [entry.key for entry, _ in corrupt] == ["bad"]
        loads = self._loads(monkeypatch)
        assert cache.get_estimate("est").mean == 1.5
        assert cache.get_value("val") == 2.0
        assert sorted(loads) == ["est", "val"]

    def test_a_retained_payload_keeps_its_kind(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.verify_entry("val", retain=True) == (True, "ok")
        assert cache.get_estimate("val") is None  # a value is not an estimate
        assert cache.misses == 1


def test_default_runs_dir_is_hidden():
    assert DEFAULT_RUNS_DIR.startswith(".")


class TestInputDigests:
    def test_create_pins_the_input_file(self, tmp_path):
        spec = tmp_path / "study.toml"
        spec.write_text("a = 1\n")
        recorder = RunRecorder.create(tmp_path / "runs", "r1", ["sweep"],
                                      inputs=[str(spec)])
        stored = json.loads(recorder.path.read_text())["inputs"]
        assert list(stored) == [str(spec)]
        manifest = RunManifest.load(recorder.path)
        check_inputs(manifest)  # unchanged bytes resume
        spec.write_text("a = 2\n")
        with pytest.raises(ReproError, match=f"{spec}: changed since run 'r1'"):
            check_inputs(manifest)

    def test_commands_without_inputs_stay_free_of_the_key(self, tmp_path):
        recorder = RunRecorder.create(tmp_path, "r1", ["fig5"])
        assert "inputs" not in json.loads(recorder.path.read_text())
        check_inputs(RunManifest.load(recorder.path))  # nothing to check

    def test_a_vanished_input_is_refused(self, tmp_path):
        manifest = RunManifest(run_id="r1", argv=("sweep",),
                               inputs={str(tmp_path / "gone.toml"): "0" * 64})
        with pytest.raises(ReproError, match="unreadable input file"):
            check_inputs(manifest)
