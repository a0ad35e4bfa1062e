"""Reporting: ASCII tables, CSV export and streaming emission."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".csvout": ("write_csv",),
    ".stream": ("StreamingEmitter",),
    ".tables": ("format_cell", "render_table"),
})

__all__ = ["render_table", "format_cell", "write_csv", "StreamingEmitter"]
