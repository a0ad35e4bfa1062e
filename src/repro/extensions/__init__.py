"""Extensions beyond the paper (its cited companions and future work).

``twolevel``
    Patterns with several verified segments per checkpoint — the
    interleaved-verification design of the paper's reference [2]
    (Benoit, Cavelan, Robert, Sun, IPDPS'16), built on this library's
    substrate: exact expectation, first-order optima, Monte-Carlo
    validation.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".twolevel": (
        "SegmentedSolution", "expected_segmented_time", "optimal_segment_count",
        "optimal_segmented_pattern", "optimize_segments", "segmented_overhead",
        "segmented_period",
    ),
})

__all__ = [
    "expected_segmented_time",
    "segmented_overhead",
    "segmented_period",
    "optimal_segment_count",
    "optimal_segmented_pattern",
    "optimize_segments",
    "SegmentedSolution",
]
