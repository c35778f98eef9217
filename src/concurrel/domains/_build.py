"""Build and load the compiled octagon kernel, ``_closure.c``.

The kernel is a contract of eight entry points, one per octagon
operation's matrix work, the tight closure and the batched containment test
among them (the header of ``_closure.c`` lists them); ``_closure_py`` is its
numpy twin.

``octagon`` calls ``load_compiled()`` when it is imported.  The first call
compiles the C source with the compiler and flags Python was built with
(``LDSHARED``, ``CCSHARED``, ``-O2`` and the include directories of Python
and of numpy's C API) into the package's ``__pycache__/`` directory, and
every later call, in any process, loads the file from there.  The file is
named by the CRC-32 of the source, ``EXT_SUFFIX``, numpy's version (the
kernel uses numpy's C API, so its ABI) and the compile command, so a changed
source, another interpreter or another numpy builds a new file and never
loads a stale one.  CRC-32 comes from ``zlib``, which numpy has already
imported; ``hashlib`` would load OpenSSL into every process that imports
the package.  The compiler writes to a unique temporary name that is then
renamed into place, so processes that build at once never load a
half-written file.  A build then removes the other (stale) kernels of this
``EXT_SUFFIX`` beside it.

The cache is written even when ``PYTHONDONTWRITEBYTECODE`` is set: it holds
no bytecode, and every process would otherwise pay for a build (about
0.15 s on a 2-vCPU x86-64 host).  Any failure (no compiler, no headers, a
compile error, an unwritable directory, a load error, numpy headers that do
not match the numpy in use) returns None, and ``octagon`` uses the numpy
kernel.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import os
import shlex
import sysconfig
import zlib
from pathlib import Path
from types import ModuleType

import numpy as np

NAME = "concurrel.domains._closure"
SOURCE = Path(__file__).with_name("_closure.c")
CACHE = Path(__file__).with_name("__pycache__")


def _flags() -> list[str]:
    """The compile command, without its input and output files."""
    config = sysconfig.get_config_var
    return [*shlex.split(config("LDSHARED") or ""), *shlex.split(config("CCSHARED") or ""),
            "-O2", f"-I{sysconfig.get_paths()['include']}", f"-I{np.get_include()}"]


def _compile(flags: list[str], path: Path) -> bool:
    """Compile the source to ``path`` through a unique temporary file beside
    it; False when the compiler fails."""
    import subprocess  # only a cache miss needs these two
    import tempfile

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix="_closure.", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*flags, str(SOURCE), "-o", tmp], check=True, capture_output=True,
                       timeout=300)
        os.replace(tmp, path)
        return True
    except subprocess.SubprocessError:
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_compiled(cache: str | os.PathLike | None = None) -> ModuleType | None:
    """The compiled kernel module, built into ``cache`` (the package's
    ``__pycache__/`` by default) when no file there matches the source and
    the compiler; None when it cannot be built or loaded."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    try:
        flags = _flags()
        key = zlib.crc32("\0".join([suffix, np.__version__, *flags]).encode(),
                         zlib.crc32(SOURCE.read_bytes()))
        path = Path(CACHE if cache is None else cache, f"_closure.{key:08x}{suffix}")
        if not path.exists():
            if not _compile(flags, path):
                return None
            for stale in set(path.parent.glob(f"_closure.*{suffix}")) - {path}:
                with contextlib.suppress(OSError):
                    stale.unlink()
        loader = importlib.machinery.ExtensionFileLoader(NAME, str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(NAME, path, loader=loader))
        loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None
