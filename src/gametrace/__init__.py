"""Gameplay event-log feature pipeline and from-scratch classifiers.

The package imports none of its submodules: import the one you use, such
as ``gametrace.aggregation``, so that a command runs only what it calls.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy_module(name: str):
    """Submodule ``gametrace.<name>``, registered in ``sys.modules`` now and
    run at its first attribute access (the stdlib ``LazyLoader`` recipe).
    A submodule that is already imported is returned as it is."""
    full = f"{__name__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__name__], name, module)
    return module
