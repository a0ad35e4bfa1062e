"""Lazy CLI start: the parser loads no numpy and no study machinery.

``import repro.experiments.runner`` plus ``build_parser()`` is the fixed
cost of every ``repro-experiments`` command.  It reads only the
registry's rows and :mod:`repro.constants`; each command imports its
own machinery when it runs, and the package ``__init__``s re-export
lazily (PEP 562).  These tests pin what the parser may load, that the
data it is built from matches the code it stands for, and that the
lazy packages still expose their whole ``__all__``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import REGISTRY, STUDIES
from repro.experiments.runner import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"

#: Module-name prefixes the parser must not load.
HEAVY = (
    "numpy",
    "repro.core",
    "repro.optimize",
    "repro.sim",
    "repro.experiments.fig",
    "repro.experiments.ext_",
    "repro.experiments.scenarios",
    "repro.experiments.spec",
    "repro.experiments.pipeline",
    "repro.experiments.analytic",
)

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.extensions",
    "repro.io",
    "repro.obs",
    "repro.optimize",
    "repro.platforms",
    "repro.sim",
)


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _subcommand(name: str):
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a.choices, dict)
    )
    return subparsers.choices[name]


def _choices(name: str, dest: str) -> tuple:
    action = next(a for a in _subcommand(name)._actions if a.dest == dest)
    return tuple(action.choices)


class TestParserLoadsNothingHeavy:
    def test_build_parser_loads_no_numpy_and_no_study(self):
        loaded = json.loads(_fresh(
            "import json, sys\n"
            "import repro.experiments.runner as runner\n"
            "runner.build_parser()\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        ))
        heavy = [m for m in loaded if m.startswith(HEAVY)]
        assert heavy == []

    def test_import_repro_loads_no_numpy(self):
        loaded = json.loads(_fresh(
            "import json, sys\n"
            "import repro\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        ))
        assert [m for m in loaded if m.startswith(HEAVY)] == []


class TestRegistryRows:
    def test_rows_equal_each_spec(self):
        assert [row.name for row in STUDIES] == list(REGISTRY)
        for row in STUDIES:
            spec = REGISTRY[row.name]
            assert (row.name, row.description, row.supports_all_platforms) == (
                spec.name, spec.description, spec.supports_all_platforms,
            )
            module = importlib.import_module(row.module, "repro.experiments")
            assert module.SPEC is spec

    def test_membership_does_not_read_the_spec(self):
        assert "fig5" in REGISTRY and "fig9" not in REGISTRY
        with pytest.raises(KeyError):
            REGISTRY["fig9"]


class TestParserChoices:
    @pytest.mark.parametrize("command", ["fig2", "fig5", "all", "report"])
    def test_platform_choices_are_the_catalog(self, command):
        from repro.platforms.catalog import PLATFORMS, get_platform

        choices = _choices(command, "platform")
        assert choices == tuple(PLATFORMS)
        assert all(get_platform(name).name == name for name in choices)

    @pytest.mark.parametrize("command", ["fig5", "all", "sweep"])
    def test_method_choices_are_the_monte_carlo_backends(self, command):
        from repro.sim.montecarlo import METHODS, resolve_method

        choices = _choices(command, "method")
        assert choices == METHODS
        concrete = {resolve_method(m, 1, 1) for m in choices}
        assert concrete == set(choices) - {"auto"}

    def test_defaults_are_the_owning_modules(self):
        from repro.obs.trace import TRACE_NAME
        from repro.sim.manifest import DEFAULT_RUNS_DIR
        from repro.sim.rng import DEFAULT_SEED, make_rng

        import repro.constants as constants

        args = build_parser().parse_args(["fig5"])
        assert args.seed == DEFAULT_SEED == constants.DEFAULT_SEED
        assert make_rng().random() == make_rng(DEFAULT_SEED).random()
        assert DEFAULT_RUNS_DIR == constants.DEFAULT_RUNS_DIR
        assert TRACE_NAME == constants.TRACE_NAME


class TestLazyPackages:
    def test_every_export_is_listed_and_resolves(self):
        """In a fresh interpreter, ``dir()`` lists each ``__all__`` name
        before it is first read, and every one then resolves."""
        report = json.loads(_fresh(
            "import importlib, json\n"
            f"packages = {list(LAZY_PACKAGES)!r}\n"
            "out = {}\n"
            "for name in packages:\n"
            "    mod = importlib.import_module(name)\n"
            "    listed = set(dir(mod))\n"
            "    out[name] = [n for n in mod.__all__\n"
            "                 if n not in listed or getattr(mod, n) is None]\n"
            "print(json.dumps(out))\n"
        ))
        assert report == {name: [] for name in LAZY_PACKAGES}

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, package):
        mod = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            mod.no_such_name

    def test_star_import(self):
        import repro

        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["build_model"] is repro.platforms.scenarios.build_model
