"""Build script: compiles the optional octagon-closure extension.

The extension is one hand-written C source, ``_closure.c``, and needs only a
C compiler and the Python headers.  The package works without it (the numpy
kernel is selected at import time), so a missing compiler must not fail the
install.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("concurrel.domains._closure", ["src/concurrel/domains/_closure.c"], optional=True),
])
