"""The benchmark's workloads: seeded inputs, one timed command each, checks.

A workload turns the benchmark's ``--seed`` into the program's inputs (an
argv and, for the scenario family, a generated TOML file), runs one timed
command per repetition in a fresh interpreter, and checks every output:

* ``figures-paper``: ``all --all-platforms --paper --jobs 2``, no cache and
  no journal.  Checked byte for byte against a ``--jobs 1`` run.
* ``family-resume``: a generated fig5 scenario family (18 members, 972
  points) run by ``scenario report`` into a fresh cache and run journal,
  crashed after 486 points by the fault harness (untimed), then
  ``resume <id>`` (timed).  Checked against an untimed cold run of the
  same family and against the durability guarantee: the journal holds
  exactly the delivered prefix, the resume reuses all of it and recomputes
  none of it.

At the reference seed the table bytes must also match ``digests.json``,
recorded from the program before any benchmark-driven change.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from measure import CommandResult, run_command

HERE = Path(__file__).resolve().parent

#: Seed whose table digests are pinned in ``digests.json``.
REFERENCE_SEED = 1

#: The scenario family's shape.  Only the master seed and the jitter width
#: depend on the workload seed, so the member and point counts never do.
FAMILY_PLATFORMS = ("Hera", "Coastal")
FAMILY_JITTER_DRAWS = 2
FAMILY_REPLICATES = 3
FIG5_POINTS_PER_MEMBER = 54  # 27 error rates x 2 simulated columns
FAMILY_MEMBERS = len(FAMILY_PLATFORMS) * (1 + FAMILY_JITTER_DRAWS) * FAMILY_REPLICATES
FAMILY_POINTS = FAMILY_MEMBERS * FIG5_POINTS_PER_MEMBER
#: The fault harness crashes the journaled run after half its points.
CRASH_AFTER = FAMILY_POINTS // 2

#: Points ``all --all-platforms --paper`` declares (every study, every
#: platform column); the seed moves sampled values, never the grid.
FIGURES_POINTS = 277

#: Exit code of a run killed by the fault harness's ``crash-after``.
CRASH_EXIT_CODE = 86

_STRIPPED_PREFIXES = (b"[done in ", b"[cache] ")


def table_bytes(stdout: bytes) -> bytes:
    """Stdout without the timing and cache-statistics lines."""
    return b"".join(
        line
        for line in stdout.splitlines(keepends=True)
        if not line.startswith(_STRIPPED_PREFIXES)
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, so it is stable across processes
    # and Python versions (unlike hash()).
    return random.Random(f"perfbench:{workload}:{seed}")


def figures_seed(seed: int) -> int:
    """The program's ``--seed`` for ``figures-paper``."""
    return _rng("figures-paper", seed).randrange(2**31)


@dataclass(frozen=True)
class FamilyInputs:
    master_seed: int
    jitter_width: float

    def toml(self) -> str:
        platforms = ", ".join(f'"{p}"' for p in FAMILY_PLATFORMS)
        return (
            "[scenario]\n"
            'name = "bench_family"\n'
            'study = "fig5"\n'
            f"seed = {self.master_seed}\n"
            f"replicates = {FAMILY_REPLICATES}\n"
            "\n"
            "[[transform]]\n"
            'kind = "platforms"\n'
            f"platforms = [{platforms}]\n"
            "\n"
            "[[transform]]\n"
            'kind = "jitter"\n'
            'axis = "lambda_ind"\n'
            'mode = "multiplicative"\n'
            'distribution = "uniform"\n'
            f"width = {self.jitter_width}\n"
            f"count = {FAMILY_JITTER_DRAWS}\n"
        )


def family_inputs(seed: int) -> FamilyInputs:
    """The scenario family's inputs for one workload seed."""
    rng = _rng("family", seed)
    return FamilyInputs(
        master_seed=rng.randrange(2**31),
        jitter_width=round(rng.uniform(0.05, 0.15), 4),
    )


FAMILY_TOML = "family.toml"


def family_report_argv(run_id: str) -> list[str]:
    return ["scenario", "report", FAMILY_TOML, "--cache-dir", "cache",
            "--run-id", run_id]


def figures_argv(seed: int, jobs: int = 2) -> list[str]:
    return ["all", "--all-platforms", "--paper", "--jobs", str(jobs),
            "--seed", str(figures_seed(seed))]


# -- one repetition ----------------------------------------------------------


@dataclass
class Sample:
    """One timed command: its result and what its checks found."""

    result: CommandResult
    tables: bytes
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _manifest(rep: Path, run_id: str) -> dict:
    return json.loads((rep / ".repro-runs" / run_id / "manifest.json").read_text())


def _expect(errors: list[str], cond: bool, message: str) -> None:
    if not cond:
        errors.append(message)


def _expect_exit(errors: list[str], what: str, result: CommandResult, code: int = 0):
    if result.returncode != code:
        tail = result.stderr.strip().splitlines()[-3:]
        errors.append(f"{what} exited {result.returncode}, expected {code}: {tail}")


class Workload:
    """A named workload: inputs from a seed, set-up, and one timed command."""

    name: str
    points: int

    def __init__(self, seed: int, python: str, env: dict):
        self.seed = seed
        self.python = python
        self.env = env
        #: Commands run, and commands that failed a check, this run.
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Digest of the table bytes every timed repetition must reproduce.
        self.expected: str | None = None
        #: Whether the reference seed's tables must match ``digests.json``.
        self.pinned = True

    def run(self, argv: list[str], cwd: Path, tracer: list[str] | None = None
            ) -> CommandResult:
        """One ``repro`` command, plain or under the tracer script."""
        self.attempted += 1
        prefix = ["-m", "repro"] if tracer is None else tracer
        return run_command([self.python, *prefix, *argv], cwd, self.env)

    def record_failure(self, what: str, errors: list[str]) -> None:
        self.failed += 1
        self.errors.extend(f"{what}: {e}" for e in errors)

    def prepare(self, workdir: Path) -> None:
        """Untimed, once per benchmark run: reference outputs."""

    def repeat(self, rep: Path, tracer: list[str] | None = None) -> Sample:
        raise NotImplementedError

    def reference_digest(self) -> str | None:
        if not self.pinned or self.seed != REFERENCE_SEED:
            return None
        return json.loads((HERE / "digests.json").read_text())[self.name]

    def check_tables(self, sample: Sample) -> None:
        if self.expected is not None and digest(sample.tables) != self.expected:
            sample.errors.append("table bytes differ from the reference run")
        ref = self.reference_digest()
        if ref is not None and digest(sample.tables) != ref:
            sample.errors.append(
                f"table digest {digest(sample.tables)[:16]} differs from the "
                f"recorded reference {ref[:16]} (seed {REFERENCE_SEED})"
            )


class FiguresPaper(Workload):
    name = "figures-paper"
    points = FIGURES_POINTS

    def prepare(self, workdir: Path) -> None:
        rep = workdir / "jobs1"
        rep.mkdir()
        result = self.run(figures_argv(self.seed, jobs=1), rep)
        errors: list[str] = []
        _expect_exit(errors, "all --jobs 1", result)
        if errors:
            self.record_failure("reference", errors)
        self.expected = digest(table_bytes(result.stdout))

    def repeat(self, rep: Path, tracer: list[str] | None = None) -> Sample:
        result = self.run(figures_argv(self.seed), rep, tracer)
        sample = Sample(result, table_bytes(result.stdout))
        _expect_exit(sample.errors, "all --jobs 2", result)
        if result.returncode == 0:
            self.check_tables(sample)
            leftovers = sorted(p.name for p in rep.iterdir())
            _expect(sample.errors, not leftovers,
                    f"a run without cache or journal left files: {leftovers}")
        return sample


class FamilyResume(Workload):
    name = "family-resume"
    points = FAMILY_POINTS

    def write_inputs(self, rep: Path) -> None:
        (rep / FAMILY_TOML).write_text(family_inputs(self.seed).toml())

    def check_cold(self, rep: Path, run_id: str, sample: Sample) -> None:
        errors = sample.errors
        _expect_exit(errors, "scenario report", sample.result)
        if sample.result.returncode != 0:
            return
        _expect(errors, f"[cache] 0 hits, {FAMILY_POINTS} misses" in sample.result.stderr,
                f"cold run did not compute all {FAMILY_POINTS} points")
        manifest = _manifest(rep, run_id)
        _expect(errors, manifest["status"] == "complete", "journal not sealed")
        _expect(errors, len(manifest["fates"]) == FAMILY_POINTS,
                f"journal holds {len(manifest['fates'])} fates, not {FAMILY_POINTS}")
        self.check_tables(sample)


    def prepare(self, workdir: Path) -> None:
        self.expected = self.cold_digest(workdir)
        self.crashed = workdir / "crashed"
        self.crashed.mkdir()
        errors = self.crash(self.crashed)
        if errors:
            self.record_failure("crash set-up", errors)

    def cold_digest(self, workdir: Path) -> str:
        """The digest of one untimed cold run of the same family: the
        tables the resume must print."""
        rep = workdir / "cold"
        rep.mkdir()
        self.write_inputs(rep)
        result = self.run(family_report_argv("cold"), rep)
        sample = Sample(result, table_bytes(result.stdout))
        self.check_cold(rep, "cold", sample)
        if not sample.ok:
            self.record_failure("cold reference", sample.errors)
        shutil.rmtree(rep)
        return digest(sample.tables)

    def crash(self, rep: Path) -> list[str]:
        """Untimed set-up: journal the family and crash half-way through."""
        self.write_inputs(rep)
        crash = self.run(
            [*family_report_argv("crashed"), "--fault-plan",
             f"crash-after={CRASH_AFTER}"],
            rep,
        )
        errors: list[str] = []
        _expect_exit(errors, "crash-after run", crash, CRASH_EXIT_CODE)
        if errors:
            return errors
        # Durability: the journal holds exactly the delivered prefix, and
        # every journaled fate has its cache entry on disk.
        manifest = _manifest(rep, "crashed")
        fates = manifest["fates"]
        _expect(errors, manifest["status"] == "running", "crashed journal is sealed")
        _expect(errors, len(fates) == CRASH_AFTER,
                f"crashed journal holds {len(fates)} fates, not {CRASH_AFTER}")
        missing = [k for k in fates if not (rep / "cache" / f"{k}.npz").is_file()]
        _expect(errors, not missing, f"{len(missing)} journaled points have no cache entry")
        return errors

    def repeat(self, rep: Path, tracer: list[str] | None = None) -> Sample:
        # Every repetition resumes its own copy of the crashed run's files.
        shutil.copytree(self.crashed, rep, dirs_exist_ok=True)
        result = self.run(["resume", "crashed"], rep, tracer)
        sample = Sample(result, table_bytes(result.stdout))
        errors = sample.errors
        _expect_exit(errors, "resume", result)
        if result.returncode != 0:
            return sample
        _expect(errors, f"[resume] {CRASH_AFTER} reusable from cache, 0 invalidated "
                f"(corrupt), 0 missing, 0 stale" in result.stderr,
                f"resume validation did not reuse all {CRASH_AFTER} journaled points")
        _expect(errors, f"round delivered: {CRASH_AFTER} reused, 0 recomputed, "
                f"0 invalidated" in result.stderr, "resume recomputed journaled work")
        _expect(errors, f"[cache] {CRASH_AFTER} hits, {FAMILY_POINTS - CRASH_AFTER} "
                f"misses" in result.stderr, "resume computed a journaled point again")
        manifest = _manifest(rep, "crashed")
        _expect(errors, manifest["status"] == "complete", "resumed journal not sealed")
        _expect(errors, (manifest["reused"], manifest["recomputed"]) == (CRASH_AFTER, 0),
                f"manifest reused/recomputed = {manifest['reused']}/{manifest['recomputed']}")
        _expect(errors, len(manifest["fates"]) == FAMILY_POINTS,
                f"resumed journal holds {len(manifest['fates'])} fates")
        self.check_tables(sample)
        return sample


WORKLOADS = {w.name: w for w in (FiguresPaper, FamilyResume)}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
