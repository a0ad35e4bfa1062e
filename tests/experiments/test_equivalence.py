"""Registry-vs-legacy equivalence: every study, every executor, bit for bit.

The goldens under ``goldens/figures_fast.json`` are the tables the
pre-registry figure modules printed at FAST fidelity with the default
seed (captured before the refactor).  Every registry-built study must
reproduce them byte-identically — serially, over a process pool, served
from a copied cache directory, and under the event-driven scheduler at
any in-flight window — because
the plan/key layer guarantees the same chunk jobs, seeds and (chunk-
ordered) reduction whatever the executor or completion interleaving.
``goldens/all_jobs2.txt`` additionally pins the full ``all --jobs 2``
CLI transcript, which the scheduled run must emit byte-for-byte.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import main
from repro.experiments.spec import run_study, stage_study

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "figures_fast.json").read_text()
)

#: FAST fidelity, default seed — exactly how the goldens were captured.
SETTINGS = SimSettings()

ALL_STUDIES = sorted(REGISTRY)


def run_tables(name: str, pipeline=None) -> list[str]:
    results = run_study(REGISTRY[name], settings=SETTINGS, pipeline=pipeline)
    return [r.table() for r in results]


class TestSerialGolden:
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_matches_prerefactor_tables(self, name):
        assert run_tables(name) == GOLDENS[name]


class TestPooledGolden:
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_pool_executor_bit_identical(self, name):
        with SimulationPipeline(jobs=2) as pipe:
            got = run_tables(name, pipeline=pipe)
        assert got == GOLDENS[name]


class TestCopiedCacheGolden:
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_copied_cache_serves_golden(self, name, tmp_path):
        # One host computes every point into its content-addressed
        # cache directory ...
        with SimulationPipeline(jobs=1, cache_dir=tmp_path / "a") as pipe:
            stage_study(REGISTRY[name], settings=SETTINGS, pipeline=pipe)
            pipe.resolve()
        # ... the directory is copied to another host ...
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        # ... and a run served from the copy must be bit-identical to
        # the tables computed in place.
        with SimulationPipeline(jobs=1, cache_dir=tmp_path / "b") as pipe:
            got = run_tables(name, pipeline=pipe)
            hits, misses = pipe.cache_stats
        assert got == GOLDENS[name]
        assert misses == 0, "the copied cache must cover every simulated point"


class TestScheduledGolden:
    """Event-driven scheduling: any window, any executor, same bytes."""

    @pytest.mark.parametrize("name", ALL_STUDIES)
    @pytest.mark.parametrize("inflight", [1, 8])
    def test_scheduled_windows_bit_identical(self, name, inflight):
        with SimulationPipeline(jobs=2, max_inflight=inflight) as pipe:
            got = run_tables(name, pipeline=pipe)
        assert got == GOLDENS[name]

    def test_all_cli_scheduled_matches_wave_golden(self, capsys):
        """`all --jobs 2 --max-inflight 8` == the pre-scheduler golden.

        The golden transcript was captured from the wave-barriered
        runner; the event-driven global window must emit the identical
        bytes (the last line is a normalized `[done in Xs]`).
        """
        golden = (Path(__file__).parent / "goldens" / "all_jobs2.txt").read_text()
        assert main(["all", "--jobs", "2", "--max-inflight", "8"]) == 0
        out = capsys.readouterr().out
        normalized = re.sub(r"\[done in [0-9.]+s\]", "[done in Xs]", out)
        assert normalized == golden


class TestSchedulerCLI:
    def test_max_inflight_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--max-inflight", "0"])
        assert exc.value.code == 2
        assert "argument --max-inflight" in capsys.readouterr().err

    def test_progress_lines_on_stderr_only(self, capsys):
        assert main(["fig2", "--progress", "--runs", "4", "--patterns", "6"]) == 0
        captured = capsys.readouterr()
        assert "[progress] fig2" in captured.err
        assert captured.err.count("[progress]") == 11  # one per point
        assert "[progress]" not in captured.out
        assert "Figure 2" in captured.out

    def test_progress_line_counts_computed_and_served(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        base = ["fig2", "--progress", "--runs", "4", "--patterns", "6"]
        assert main(base + cache) == 0
        cold = capsys.readouterr().err.splitlines()
        assert "[progress] fig2 11/11 computed=11 served=0" in cold
        assert main(base + cache) == 0
        warm = capsys.readouterr().err.splitlines()
        assert "[progress] fig2 11/11 computed=0 served=11" in warm

    def test_progress_off_by_default(self, capsys):
        assert main(["fig2", "--runs", "4", "--patterns", "6"]) == 0
        assert "[progress]" not in capsys.readouterr().err

    def test_dry_run_reports_without_executing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["fig5", "--dry-run", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "[dry-run] fig5: 54 points (54 unique, 0 deduped), " \
            "0 cache hits, 54 to compute -> 54 chunk jobs" in out
        assert "nothing executed" in out
        assert "Figure 5" not in out  # no tables
        assert list(Path(cache).glob("*.npz")) == []  # nothing simulated

    def test_dry_run_sees_warm_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["fig5", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "fig5", "--dry-run", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "54 cache hits, 0 to compute -> 0 chunk jobs" in out


class TestCacheCopyCLI:
    def test_copied_cache_dir_serves_uncached_tables(self, tmp_path, capsys):
        """Sharing results between hosts: copy a --cache-dir, verify it,
        and the copy serves every point with the uncached tables."""
        base = ["--runs", "4", "--patterns", "6"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fig5", *base, "--cache-dir", str(a)]) == 0
        capsys.readouterr()
        shutil.copytree(a, b)
        assert main(["cache", "verify", "--cache-dir", str(b)]) == 0
        assert "[verify] 54 entries ok, 0 corrupt" in capsys.readouterr().out
        assert main(["fig5", *base, "--cache-dir", str(b)]) == 0
        copied_tables = capsys.readouterr().out
        assert main(["fig5", *base]) == 0
        fresh_tables = capsys.readouterr().out

        def strip_volatile(text: str) -> str:
            return "\n".join(
                line
                for line in text.splitlines()
                if not line.startswith(("[done in", "[cache]"))
            )

        assert strip_volatile(copied_tables) == strip_volatile(fresh_tables)
        assert "[cache] 54 hits, 0 misses" in copied_tables

    def test_point_accounting_balances(self, tmp_path):
        """Every declaration is either computed or served, never dropped."""
        for expected in ("computed", "served"):
            with SimulationPipeline(jobs=1, cache_dir=tmp_path) as pipe:
                stage_study(REGISTRY["fig5"], settings=SETTINGS, pipeline=pipe)
                stage_study(REGISTRY["fig5"], settings=SETTINGS, pipeline=pipe)
                submitted = pipe.pending_points
                pipe.resolve()
                fates = {}
                for labels, metric in pipe.metrics.labeled("points"):
                    status = labels["status"]
                    fates[status] = fates.get(status, 0) + metric.value
            # The duplicate study re-declares every point; fates count
            # declarations, so both copies of a point count.
            assert submitted == 2 * 54
            assert fates == {expected: submitted}
        assert len(list(tmp_path.glob("*.npz"))) == 54


class TestStreamingAll:
    def test_all_streams_in_registry_order(self, capsys):
        assert main(["all", "--no-sim"]) == 0
        out = capsys.readouterr().out
        positions = [out.index(marker) for marker in
                     ("Figure 2", "Figure 3(a)", "Figure 5(a)", "Extension")]
        assert positions == sorted(positions)

    def test_figure_emitted_before_later_waves_resolve(self):
        """fig2's table is ready while fig5's points are still pending."""
        from repro.io.stream import StreamingEmitter
        import io

        with SimulationPipeline(jobs=1) as pipe:
            first = stage_study(REGISTRY["fig2"], settings=SETTINGS, pipeline=pipe)
            pipe.resolve()
            # fig5 is staged only after fig2's round resolved.
            later = stage_study(REGISTRY["fig5"], settings=SETTINGS, pipeline=pipe)
            buffer = io.StringIO()
            emitter = StreamingEmitter(stream=buffer)
            emitter.add(first)
            emitter.add(later)
            emitter.pump()
            assert "Figure 2" in buffer.getvalue()
            assert "Figure 5" not in buffer.getvalue()
            assert later.n_pending > 0 and not later.ready()
            pipe.resolve()
            emitter.pump()
        assert "Figure 5(c)" in buffer.getvalue()
