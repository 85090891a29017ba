"""scipy's compiled extension modules, loaded without their package ``__init__``.

The package calls four of scipy's binaries: LAPACK (``linalg._flapack``)
and the Levinson recursion (``linalg._solve_toeplitz``) for every operator,
and, for the Bessel form and adaptive quadrature only, the special-function
ufuncs (``special._special_ufuncs``) and QUADPACK (``integrate._quadpack``).
Each is one extension file.  Three of them import nothing of scipy, but
the Cython-built ``_solve_toeplitz`` imports ``scipy._cyutility`` and with
it the top-level ``scipy`` package, so loading it runs that package's
``__init__`` (and no subpackage's).  The subpackage ``__init__`` files
around the four do no numerics but import most of scipy:
``scipy.linalg``'s array-API shim pulls in ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``, ``scipy.integrate`` imports ``scipy.linalg``, and
``scipy.special`` loads every special-function binary, about 40 MB of
resident memory between them.  :func:`load` runs none of them.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path


def load(subpackage: str, name: str):
    """The compiled module ``scipy.<subpackage>.<name>``, without the package ``__init__``.

    A module already in ``sys.modules`` is reused; otherwise the extension
    file in scipy's ``<subpackage>/`` directory is loaded and registered
    there, so a later ``import scipy.<subpackage>`` reuses it: its objects
    are the ones scipy hands out.
    """
    fullname = f"scipy.{subpackage}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    directory = Path(find_spec("scipy").origin).parent / subpackage
    for path in (directory / (name + suffix) for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            loader = ExtensionFileLoader(fullname, str(path))
            module = module_from_spec(spec_from_file_location(fullname, path, loader=loader))
            loader.exec_module(module)
            sys.modules[fullname] = module
            return module
    suffixes = ", ".join(EXTENSION_SUFFIXES)
    raise ImportError(f"no compiled {fullname} at {directory / name} + one of {suffixes}",
                      name=fullname, path=str(directory / name))
