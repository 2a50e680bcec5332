"""Exact symbolic engine and numerical verifier for the dual Hamiltonian
structures of the NLS hierarchy.

``import nlsdual`` loads ringcore, laxalg and hierarchy.  ``brackets`` and
``numlab`` are imported on first access (``nlsdual.numlab`` or
``from nlsdual import brackets``): numlab is the only module that needs
numpy, so exact work never pays numpy's import, and the CLI commands that
use no bracket do not compile the bracket engine.
"""

from importlib import import_module

from . import ringcore, laxalg, hierarchy

__all__ = ["ringcore", "laxalg", "hierarchy", "brackets", "numlab"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("brackets", "numlab"):
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
