"""Version information for :mod:`repro`."""

__version__ = "1.29.0"
