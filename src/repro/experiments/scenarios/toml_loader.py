"""Scenario TOML files: declarative transform chains over a base study.

The file format (see ``examples/scenario_jitter.toml``)::

    [scenario]
    name = "fig5_jitter"
    study = "fig5"            # registry name or a study TOML path
    platform = "Hera"         # optional (default: the study's first)
    seed = 20160913           # optional master seed
    replicates = 3            # shorthand for one resample transform

    [[transform]]
    kind = "jitter"           # jitter | resample | platforms
    axis = "lambda_ind"
    mode = "multiplicative"   # default
    distribution = "uniform"  # uniform | lognormal | normal
    width = 0.05
    count = 2
    include_base = true       # default

    [aggregate]               # optional
    quantiles = [0.05, 0.95]
    flip_tolerance = 0.05
    consistency = false       # per-row CARVE consistency score column

    [adaptive]                # optional: adaptive replicate scheduling
    enabled = true            # default when the table is present
    min_replicates = 3        # wave-0 batch
    max_replicates = 12       # hard replicate ceiling
    wave = 2                  # replicates per follow-up wave
    band_tol = 0.05           # relative band-width delta threshold
    stable_waves = 2          # consecutive quiet waves to converge

Every validation failure raises
:class:`~repro.exceptions.InvalidParameterError` with the file path and
an actionable message — the loader is the user-facing surface of the
scenario lab, so unknown axis names, malformed distributions and
conflicting replicate counts must fail loudly, not mid-run.
"""

from __future__ import annotations

from pathlib import Path

from ...exceptions import InvalidParameterError
from ...platforms.catalog import PLATFORM_NAMES
from ...sim.rng import DEFAULT_SEED
from ..registry import find_spec
from .adaptive import AdaptivePolicy
from .aggregate import BandSpec
from .scenario_set import ScenarioSet
from .transforms import Jitter, PlatformProduct, Resample

__all__ = ["load_scenario_toml", "TRANSFORM_KINDS"]

TRANSFORM_KINDS = ("jitter", "resample", "platforms")

_JITTER_KEYS = {
    "kind", "axis", "mode", "distribution", "width", "count", "include_base",
}


def _fail(path: Path, message: str) -> InvalidParameterError:
    return InvalidParameterError(f"{path}: {message}")


def _jitter_from_table(path: Path, i: int, table: dict) -> Jitter:
    axis = table.get("axis")
    if axis is None:
        raise _fail(path, f"transform {i} (jitter) needs an 'axis'")
    if "width" not in table:
        raise _fail(path, f"transform {i} (jitter) needs a 'width'")
    unknown = set(table) - _JITTER_KEYS
    if unknown:
        raise _fail(
            path,
            f"transform {i} (jitter) has unknown keys: "
            f"{', '.join(sorted(unknown))}",
        )
    try:
        return Jitter(
            axis=str(axis),
            width=float(table["width"]),
            count=int(table.get("count", 1)),
            mode=str(table.get("mode", "multiplicative")),
            distribution=str(table.get("distribution", "uniform")),
            include_base=bool(table.get("include_base", True)),
        )
    except (TypeError, ValueError) as exc:
        raise _fail(path, f"transform {i} (jitter): {exc}") from exc
    except InvalidParameterError as exc:
        raise _fail(path, f"transform {i}: {exc}") from None


_ADAPTIVE_KEYS = {
    "enabled", "min_replicates", "max_replicates", "wave", "band_tol",
    "stable_waves",
}

_ADAPTIVE_CONVERSIONS = (
    ("min_replicates", int),
    ("max_replicates", int),
    ("wave", int),
    ("band_tol", float),
    ("stable_waves", int),
)


def _adaptive_from_table(path: Path, payload: dict):
    """Parse the optional ``[adaptive]`` table into (policy, enabled).

    The table enables adaptive mode unless it says ``enabled = false``
    (then it only supplies the policy the ``--adaptive`` CLI flag runs).
    """
    table = payload.get("adaptive")
    if table is None:
        return None, False
    if not isinstance(table, dict):
        raise _fail(path, "[adaptive] must be a table")
    unknown = set(table) - _ADAPTIVE_KEYS
    if unknown:
        raise _fail(
            path,
            f"[adaptive] has unknown keys: {', '.join(sorted(unknown))}",
        )
    enabled = table.get("enabled", True)
    if not isinstance(enabled, bool):
        raise _fail(path, "[adaptive] enabled must be a boolean")
    kwargs = {}
    try:
        for key, convert in _ADAPTIVE_CONVERSIONS:
            if key in table:
                kwargs[key] = convert(table[key])
        policy = AdaptivePolicy(**kwargs)
    except (TypeError, ValueError) as exc:
        raise _fail(path, f"[adaptive]: {exc}") from exc
    except InvalidParameterError as exc:
        raise _fail(path, f"[adaptive]: {exc}") from None
    return policy, enabled


def load_scenario_toml(
    path: str | Path, seed: int | None = None
) -> ScenarioSet:
    """Build a :class:`ScenarioSet` from a scenario TOML file.

    ``seed`` overrides the file's master seed (the CLI's ``--seed``).
    """
    import tomllib

    path = Path(path)
    try:
        payload = tomllib.loads(path.read_text())
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise InvalidParameterError(
            f"cannot load scenario file {path}: {exc}"
        ) from exc

    scenario = payload.get("scenario")
    if scenario is None:
        raise _fail(path, "missing [scenario] table")
    study = scenario.get("study")
    if not study:
        raise _fail(path, "[scenario] needs a 'study' (registry name or TOML path)")
    try:
        spec = find_spec(str(study))
    except InvalidParameterError as exc:
        raise _fail(path, str(exc)) from None

    name = str(scenario.get("name", path.stem))
    platform = scenario.get("platform")
    if platform is not None and platform not in PLATFORM_NAMES:
        raise _fail(
            path,
            f"unknown platform {platform!r} "
            f"(Table II has {', '.join(PLATFORM_NAMES)})",
        )
    master_seed = scenario.get("seed", DEFAULT_SEED)
    if seed is not None:
        master_seed = seed
    try:
        master_seed = int(master_seed)
    except (TypeError, ValueError) as exc:
        raise _fail(path, f"[scenario] seed: {exc}") from exc
    if master_seed < 0:
        raise _fail(path, f"[scenario] seed must be a non-negative integer, got {master_seed}")

    transforms = []
    resample_counts = []
    shorthand_replicates = None
    if "replicates" in scenario:
        try:
            shorthand_replicates = int(scenario["replicates"])
        except (TypeError, ValueError) as exc:
            raise _fail(path, f"[scenario] replicates: {exc}") from exc
        resample_counts.append(shorthand_replicates)
    tables = payload.get("transform", [])
    if not isinstance(tables, list):
        raise _fail(
            path,
            "transform must be an array of tables — write [[transform]], "
            "not [transform]",
        )
    for i, table in enumerate(tables):
        kind = table.get("kind")
        if kind not in TRANSFORM_KINDS:
            raise _fail(
                path,
                f"transform {i} has unknown kind {kind!r} "
                f"(one of {', '.join(TRANSFORM_KINDS)})",
            )
        if kind == "jitter":
            transforms.append(_jitter_from_table(path, i, table))
        elif kind == "resample":
            if "replicates" not in table:
                raise _fail(path, f"transform {i} (resample) needs 'replicates'")
            try:
                count = int(table["replicates"])
                resample_counts.append(count)
                # In place, honoring the file's declared chain order.
                transforms.append(Resample(count))
            except (TypeError, ValueError) as exc:
                raise _fail(path, f"transform {i} (resample): {exc}") from exc
            except InvalidParameterError as exc:
                raise _fail(path, f"transform {i}: {exc}") from None
        else:  # platforms
            platforms = table.get("platforms")
            if not platforms:
                raise _fail(
                    path, f"transform {i} (platforms) needs a 'platforms' list"
                )
            try:
                transforms.append(PlatformProduct(tuple(str(p) for p in platforms)))
            except InvalidParameterError as exc:
                raise _fail(path, f"transform {i}: {exc}") from None
    if len(resample_counts) > 1:
        raise _fail(
            path,
            f"conflicting replicate counts {resample_counts}: give either "
            "[scenario] replicates or one resample transform, not both",
        )
    if shorthand_replicates is not None:
        try:
            transforms.append(Resample(shorthand_replicates))
        except InvalidParameterError as exc:
            raise _fail(path, str(exc)) from None
    if not transforms:
        raise _fail(
            path,
            "no transforms: add [[transform]] tables and/or [scenario] replicates",
        )

    agg = payload.get("aggregate", {})
    quantiles = agg.get("quantiles", (0.05, 0.95))
    if not isinstance(quantiles, (list, tuple)) or len(quantiles) != 2:
        raise _fail(path, "[aggregate] quantiles must be a [lo, hi] pair")
    consistency = agg.get("consistency", False)
    if not isinstance(consistency, bool):
        raise _fail(path, "[aggregate] consistency must be a boolean")
    try:
        band = BandSpec(
            q_lo=float(quantiles[0]),
            q_hi=float(quantiles[1]),
            flip_tolerance=float(agg.get("flip_tolerance", 0.05)),
            consistency=consistency,
        )
    except (TypeError, ValueError) as exc:
        raise _fail(path, f"[aggregate]: {exc}") from exc
    except InvalidParameterError as exc:
        raise _fail(path, f"[aggregate]: {exc}") from None

    adaptive_policy, adaptive_enabled = _adaptive_from_table(path, payload)

    try:
        sset = ScenarioSet(
            name=name,
            spec=spec,
            transforms=transforms,
            master_seed=int(master_seed),
            platform=platform,
            band=band,
            adaptive=adaptive_policy,
        )
    except InvalidParameterError as exc:
        raise _fail(path, str(exc)) from None
    sset.adaptive_enabled = adaptive_enabled
    return sset
