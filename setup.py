"""Build script: compiles the optional octagon-closure extension.

The extension is built from ``_closure.pyx`` when Cython is installed and
from the shipped, generated ``_closure.c`` otherwise.  The package works
without it (a numpy fallback is selected at import time), so a missing
compiler must not fail the install.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

source = "src/concurrel/domains/_closure" + (".pyx" if cythonize else ".c")
ext_modules = [Extension("concurrel.domains._closure", [source], optional=True)]
if cythonize:
    ext_modules = cythonize(ext_modules, language_level=3)

setup(ext_modules=ext_modules)
