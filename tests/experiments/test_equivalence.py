"""Registry-vs-legacy equivalence: every study, every executor, bit for bit.

The goldens under ``goldens/figures_fast.json`` are the tables the
pre-registry figure modules printed at FAST fidelity with the default
seed (captured before the refactor).  Every registry-built study must
reproduce them byte-identically — serially, over a process pool, as
two merged shards, and under the event-driven scheduler at any in-flight window — because
the plan/key layer guarantees the same chunk jobs, seeds and (chunk-
ordered) reduction whatever the executor or completion interleaving.
``goldens/all_jobs2.txt`` additionally pins the full ``all --jobs 2``
CLI transcript, which the scheduled run must emit byte-for-byte.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.experiments.common import SimSettings
from repro.experiments.pipeline import SimulationPipeline
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import main
from repro.experiments.spec import run_study, stage_study
from repro.sim.executors import ShardedExecutor, merge_shard_dirs

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


class TestShardedGolden:
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_two_shards_merge_to_golden(self, name, tmp_path):
        # Each shard computes its deterministic slice into its own
        # content-addressed directory ...
        for index in (0, 1):
            shard_dir = tmp_path / f"s{index}"
            executor = ShardedExecutor(index, 2)
            with SimulationPipeline(executor=executor, cache_dir=shard_dir) as pipe:
                staged = stage_study(
                    REGISTRY[name], settings=SETTINGS, pipeline=pipe
                )
                pipe.resolve()
                del staged  # shard runs never assemble
        # ... the shards merge into one cache ...
        merged = tmp_path / "merged"
        merge_shard_dirs([tmp_path / "s0", tmp_path / "s1"], merged)
        # ... and an unsharded run served from the merged cache must be
        # bit-identical to the single-machine tables.
        with SimulationPipeline(jobs=1, cache_dir=merged) as pipe:
            got = run_tables(name, pipeline=pipe)
            hits, misses = pipe.cache_stats
        assert got == GOLDENS[name]
        assert misses == 0, "merged shards must cover every simulated point"

    def test_shards_partition_points(self, tmp_path):
        """The two fig5 shards are disjoint and cover all 54 points."""
        counts = []
        for index in (0, 1):
            shard_dir = tmp_path / f"s{index}"
            executor = ShardedExecutor(index, 2)
            with SimulationPipeline(executor=executor, cache_dir=shard_dir) as pipe:
                stage_study(REGISTRY["fig5"], settings=SETTINGS, pipeline=pipe)
                pipe.resolve()
            counts.append(len(list(shard_dir.glob("*.npz"))))
        assert all(c > 0 for c in counts)
        copied, skipped = merge_shard_dirs(
            [tmp_path / "s0", tmp_path / "s1"], tmp_path / "merged"
        )
        assert skipped == 0  # disjoint
        assert copied == sum(counts)


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


class TestShardCLI:
    def test_sweep_merge_roundtrip_matches_unsharded(self, tmp_path, capsys):
        """The acceptance flow: 2-shard `sweep fig5` + `merge` == unsharded."""
        base = ["--runs", "10", "--patterns", "20"]
        for index in ("0", "1"):
            assert main(
                ["sweep", "fig5", *base, "--shard-index", index,
                 "--shard-count", "2", "--shard-dir", str(tmp_path / f"s{index}")]
            ) == 0
        shard_out = capsys.readouterr().out
        assert "Figure 5" not in shard_out  # shard runs do not emit tables
        assert "[shard 0/2]" in shard_out and "[shard 1/2]" in shard_out
        assert main(
            ["merge", str(tmp_path / "s0"), str(tmp_path / "s1"),
             "--cache-dir", str(tmp_path / "merged")]
        ) == 0
        capsys.readouterr()
        assert main(["fig5", *base, "--cache-dir", str(tmp_path / "merged")]) == 0
        merged_tables = capsys.readouterr().out
        assert main(["fig5", *base]) == 0
        fresh_tables = capsys.readouterr().out

        def strip_volatile(text: str) -> str:
            return "\n".join(
                line
                for line in text.splitlines()
                if not line.startswith(("[done in", "[cache]"))
            )

        assert strip_volatile(merged_tables) == strip_volatile(fresh_tables)
        assert "0 misses" in merged_tables

    def test_shard_summary_line_is_pinned(self, tmp_path, capsys):
        """The shard summary reads the metrics registry: jobs from
        ``scheduler_jobs``, skips from ``points{status=skipped}``."""
        lines = []
        for index in ("0", "1"):
            shard_dir = tmp_path / f"s{index}"
            assert main(
                ["sweep", "fig5", "--shard-index", index, "--shard-count", "2",
                 "--shard-dir", str(shard_dir)]
            ) == 0
            lines += [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("[shard")
            ]
        assert lines == [
            f"[shard 0/2] 28 jobs computed, 26 points skipped -> {tmp_path / 's0'}",
            f"[shard 1/2] 26 jobs computed, 28 points skipped -> {tmp_path / 's1'}",
        ]

    def test_shard_flags_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig5", "--shard-count", "2"])  # no --shard-dir
        with pytest.raises(SystemExit):
            main(["fig5", "--shard-index", "1"])  # no --shard-count
        with pytest.raises(SystemExit):
            main(
                ["fig5", "--shard-index", "5", "--shard-count", "2",
                 "--shard-dir", str(tmp_path)]
            )

    def test_shard_refuses_cache_flags(self, tmp_path):
        """--cache-dir/--no-cache would be silently overridden: refuse."""
        shard = ["--shard-index", "0", "--shard-count", "2",
                 "--shard-dir", str(tmp_path / "s0")]
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["fig5", *shard, "--cache-dir", str(tmp_path / "warm")])
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["fig5", *shard, "--no-cache"])

    def test_shard_accounting_balances(self, tmp_path):
        """computed-or-served + skipped declarations == submitted points."""
        executor = ShardedExecutor(0, 2)
        with SimulationPipeline(executor=executor, cache_dir=tmp_path) as pipe:
            stage_study(REGISTRY["fig5"], settings=SETTINGS, pipeline=pipe)
            stage_study(REGISTRY["fig5"], settings=SETTINGS, pipeline=pipe)
            submitted = pipe.pending_points
            pipe.resolve()
            # The duplicate study re-declares every point; skipped counts
            # declarations, so both copies of a foreign point count.
            skipped = sum(
                metric.value
                for labels, metric in pipe.metrics.labeled("points")
                if labels["status"] == "skipped"
            )
            assert submitted == 2 * 54
            assert 0 < skipped < submitted
            served = submitted - skipped
            owned_unique = len(list(tmp_path.glob("*.npz")))
            # Each owned unique point serves both of its declarations.
            assert served == 2 * owned_unique


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
