"""Experiment harness: one module per figure of the evaluation section.

Each module declares its study as a ``SPEC``
(:class:`~repro.experiments.spec.StudySpec`);
``run_study(module.SPEC, ...)`` returns ``list[FigureResult]`` (one
per sub-figure), and :mod:`repro.experiments.runner` is the CLI that
prints them as aligned tables and optional CSVs.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".": (
        "fig2_scenarios", "fig3_processors", "fig4_alpha", "fig5_error_rate",
        "fig6_alpha_zero", "fig7_downtime", "ext_nodes", "ext_segments",
        "ext_weakscaling", "ext_weibull", "scenarios",
    ),
    ".analytic": ("AnalyticMemo", "AnalyticPoint", "evaluate_analytic", "model_key"),
    ".common": ("FigureResult", "SimSettings"),
    ".pipeline": ("Deferred", "SimulationPipeline", "materialize"),
    ".registry": ("REGISTRY", "find_spec", "get_spec"),
    ".runner": ("main", "print_input_tables"),
    ".spec": (
        "AxisSpec", "PanelSpec", "StudySpec", "load_toml_spec", "run_study",
        "stage_study",
    ),
})

__all__ = [
    "AnalyticMemo",
    "AnalyticPoint",
    "evaluate_analytic",
    "model_key",
    "FigureResult",
    "SimSettings",
    "Deferred",
    "SimulationPipeline",
    "materialize",
    "REGISTRY",
    "get_spec",
    "find_spec",
    "StudySpec",
    "AxisSpec",
    "PanelSpec",
    "run_study",
    "stage_study",
    "load_toml_spec",
    "fig2_scenarios",
    "fig3_processors",
    "fig4_alpha",
    "fig5_error_rate",
    "fig6_alpha_zero",
    "fig7_downtime",
    "ext_nodes",
    "ext_segments",
    "ext_weakscaling",
    "ext_weibull",
    "main",
    "print_input_tables",
    "scenarios",
]
