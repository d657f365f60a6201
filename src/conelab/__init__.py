"""Exact arithmetic for matrix realizations of homogeneous convex cones.

Each public name is loaded from its module on first access (PEP 562), so
importing the package loads none of its modules and a program that uses one
of them pays for what that one imports.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module of conelab that defines it
_EXPORTS = {
    "backend_name": "backend",
    "build_rank3_cone": "rank3",
    "bundled_family_3_5_7": "rank3",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("conelab." + _EXPORTS[name]), name)
    globals()[name] = value
    return value
