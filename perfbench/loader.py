"""Import ``qmpc`` from the checkout's ``src`` directory and nowhere else.

On Python < 3.12 slices are unhashable, and ``dataclasses`` rejects the
``field(default=slice(0, 0))`` default of ``OcpInstance.eq_pin_x``, so
``import qmpc`` fails there. This loader compiles ``qmpc/ocp.py`` with that
one default spelled as a ``default_factory``, which builds the same value.
When the source no longer holds the old spelling, nothing is rewritten. The
rewritten module is compiled in memory and never written to ``__pycache__``.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_OLD = "field(default=slice(0, 0))"
_NEW = "field(default_factory=lambda: slice(0, 0))"


class _OcpLoader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        source = self.get_source(fullname).replace(_OLD, _NEW)
        return compile(source, self.path, "exec", dont_inherit=True)


class _OcpFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path, target=None):
        if fullname != "qmpc.ocp":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or not isinstance(spec.loader, importlib.machinery.SourceFileLoader):
            return spec
        spec.loader = _OcpLoader(spec.loader.name, spec.loader.path)
        return spec


def import_qmpc():
    """Import and return the ``qmpc`` package found under ``SRC``.

    Raises ImportError when the checkout holds no ``src/qmpc`` package, so a
    copy of the benchmark without the program fails instead of measuring a
    package installed elsewhere.
    """
    pkg = SRC / "qmpc" / "__init__.py"
    if not pkg.is_file():
        raise ImportError(f"no qmpc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if sys.version_info < (3, 12):
        sys.meta_path.insert(0, _OcpFinder())
    import qmpc

    if Path(qmpc.__file__).resolve() != pkg.resolve():
        raise ImportError(f"qmpc was imported from {qmpc.__file__}, not from {SRC}")
    return qmpc
