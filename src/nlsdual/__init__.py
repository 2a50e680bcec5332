"""Exact symbolic engine and numerical verifier for the dual Hamiltonian
structures of the NLS hierarchy.

The exact layers are imported with the package.  ``numlab``, the only module
that needs numpy, is imported on first access (``nlsdual.numlab`` or
``from nlsdual import numlab``), so exact work never pays numpy's import.
"""

from importlib import import_module

from . import ringcore, laxalg, hierarchy, brackets

__all__ = ["ringcore", "laxalg", "hierarchy", "brackets", "numlab"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "numlab":
        return import_module(".numlab", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
