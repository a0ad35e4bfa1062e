"""In-process executor: no pool."""

from __future__ import annotations

from .base import Executor

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Run every job in the calling process, in submission order."""

    workers = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"
