"""Loaded before any test module: mrtrace is imported first, so it pins
OpenBLAS to one thread as the CLI runs, for every test in the session."""

import sys

assert "numpy" not in sys.modules, "numpy was imported before mrtrace could pin OpenBLAS"

import mrtrace  # noqa: E402,F401
