"""Version information for :mod:`repro`."""

__version__ = "1.28.0"
