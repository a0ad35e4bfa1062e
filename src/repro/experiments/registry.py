"""The study registry: every experiment of the evaluation, as data.

One :class:`~repro.experiments.spec.StudySpec` per figure/extension,
collected from the figure modules.  A spec is the study's only entry
point: :func:`~repro.experiments.spec.run_study` runs one (library),
:func:`~repro.experiments.spec.stage_study` stages one onto a shared
pipeline (CLI).  The runner derives its subcommands, help text and the
``index --check`` drift guard from this table, so a figure exists
exactly once: here.  User-defined studies
(TOML files) resolve through :func:`find_spec` as well, which is what
``repro-experiments sweep`` calls.
"""

from __future__ import annotations

from pathlib import Path

from ..exceptions import InvalidParameterError
from . import (
    ext_nodes,
    ext_segments,
    ext_weakscaling,
    ext_weibull,
    fig2_scenarios,
    fig3_processors,
    fig4_alpha,
    fig5_error_rate,
    fig6_alpha_zero,
    fig7_downtime,
)
from .spec import StudySpec, load_toml_spec

__all__ = ["REGISTRY", "get_spec", "find_spec"]

_MODULES = (
    fig2_scenarios,
    fig3_processors,
    fig4_alpha,
    fig5_error_rate,
    fig6_alpha_zero,
    fig7_downtime,
    ext_segments,
    ext_weibull,
    ext_weakscaling,
    ext_nodes,
)

#: Registry order is presentation order: the ``all`` command and the
#: report emit studies in this sequence.
REGISTRY: dict[str, StudySpec] = {m.SPEC.name: m.SPEC for m in _MODULES}


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
        return load_toml_spec(path)
    raise InvalidParameterError(
        f"{name_or_path!r} is neither a registered study "
        f"({', '.join(REGISTRY)}) nor a TOML spec file"
    )
