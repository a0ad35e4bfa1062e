"""The study registry: every experiment of the evaluation, as data.

One :class:`~repro.experiments.spec.StudySpec` per figure/extension,
declared as ``SPEC`` in its figure module.  A spec is the study's only
entry point: :func:`~repro.experiments.spec.run_study` runs one
(library), :func:`~repro.experiments.spec.stage_study` stages one onto
a shared pipeline (CLI).  The runner derives its subcommands, help text
and the ``index --check`` drift guard from this table, so a figure
exists exactly once: here.  User-defined studies (TOML files) resolve
through :func:`find_spec` as well, which is what a scenario file's
``study =`` entry calls.

The table keeps what the CLI needs to build its parser (name,
description, platform flag) as plain data in :data:`STUDIES`; a study
module, and with it numpy and the model code, is imported only when
its spec is read (``REGISTRY[name]``, :func:`get_spec`,
:func:`find_spec`).
"""

from __future__ import annotations

import importlib
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ..exceptions import InvalidParameterError

if TYPE_CHECKING:
    from .spec import StudySpec

__all__ = ["REGISTRY", "STUDIES", "StudyEntry", "get_spec", "find_spec"]


class StudyEntry(NamedTuple):
    """A registered study as data: its spec's CLI fields and its module."""

    name: str
    description: str
    supports_all_platforms: bool
    #: Module declaring the study's ``SPEC``, relative to this package.
    module: str


#: Registry order is presentation order: the ``all`` command and the
#: report emit studies in this sequence.  Each row repeats its spec's
#: fields; ``tests/test_lazy_start.py`` pins them equal.
STUDIES: tuple[StudyEntry, ...] = (
    StudyEntry("fig2", "optimal patterns per scenario and platform", True,
               ".fig2_scenarios"),
    StudyEntry("fig3", "sweep of the processor count (period, overhead, "
               "first-order gap)", False, ".fig3_processors"),
    StudyEntry("fig4", "sweep of the sequential fraction alpha", False,
               ".fig4_alpha"),
    StudyEntry("fig5", "sweep of the error rate (alpha = 0.1) with slope fits",
               False, ".fig5_error_rate"),
    StudyEntry("fig6", "sweep of the error rate for perfectly parallel jobs "
               "(alpha = 0)", False, ".fig6_alpha_zero"),
    StudyEntry("fig7", "sweep of the downtime D", False, ".fig7_downtime"),
    StudyEntry("ext-segments", "extension: interleaved verifications "
               "(segments per checkpoint)", False, ".ext_segments"),
    StudyEntry("ext-weibull", "extension: robustness under Weibull fail-stop "
               "arrivals", False, ".ext_weibull"),
    StudyEntry("ext-weakscaling", "extension: weak vs strong scaling under "
               "failures", False, ".ext_weakscaling"),
    StudyEntry("ext-nodes", "extension: per-node failure laws vs the "
               "aggregated platform", False, ".ext_nodes"),
)


class _Registry(Mapping):
    """Study name -> :class:`StudySpec`, importing each module on first read."""

    def __init__(self, entries: tuple[StudyEntry, ...]):
        self._modules = {entry.name: entry.module for entry in entries}

    def __getitem__(self, name: str) -> StudySpec:
        module = self._modules[name]
        return importlib.import_module(module, __package__).SPEC

    def __contains__(self, name: object) -> bool:
        return name in self._modules

    def __iter__(self) -> Iterator[str]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


REGISTRY: Mapping[str, StudySpec] = _Registry(STUDIES)


def get_spec(name: str) -> StudySpec:
    """Look up a registered study by CLI name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown study {name!r}; registered: {', '.join(REGISTRY)}"
        ) from None


def find_spec(name_or_path: str) -> StudySpec:
    """Resolve a registry name or a ``.toml`` study file to a spec."""
    if name_or_path in REGISTRY:
        return REGISTRY[name_or_path]
    path = Path(name_or_path)
    if path.suffix.lower() == ".toml" or path.exists():
        from .spec import load_toml_spec

        return load_toml_spec(path)
    raise InvalidParameterError(
        f"{name_or_path!r} is neither a registered study "
        f"({', '.join(REGISTRY)}) nor a TOML spec file"
    )
