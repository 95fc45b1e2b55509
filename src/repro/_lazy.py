"""PEP 562 lazy exports for the package ``__init__`` modules.

Each package lists its public names with the leaf module that defines
them.  A name's module is imported on first attribute access and the
value is cached on the package, so importing any ``repro`` submodule
runs only these cheap package inits: ``repro list`` loads no simulator,
while ``from repro.sim import run_workload`` works as before.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps each public name to the module it is imported from.
    """
    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        # Cache on the package: the next access skips __getattr__.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__, sorted(exports)
