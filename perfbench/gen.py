"""Seeded generator of scaled concurrent programs with planted asserts.

Each program has one ``main`` thread that creates and joins ``workers``
worker threads.  Every worker runs a counted loop; each iteration enters one
critical section on one of the program's mutexes.  Mutex ``aK`` protects the
globals ``gK_0 .. gK_{G-1}``, and every writer keeps the chain invariant
``gK_0 <= gK_1 <= ... <= gK_{G-1}`` while it holds ``aK`` (all globals
start at 0, and each write raises ``gK_0`` and re-derives the rest from it).

Asserts are planted with a label that holds by construction:

* ``True`` asserts hold in every execution (the chain invariant read under
  its mutex, the non-negativity of ``gK_0``, the loop counter at exit);
* ``False`` asserts are violated in every execution that reaches them, and
  every one of them is reached in every execution (they negate a ``True``
  assert at the same point).

The shape (threads, mutexes, globals, locals, statement skeleton and which
worker uses which mutex, up to renaming) is a function of the ``Shape``
alone, so every seed gives programs of the same size and structure; the
seed picks the constants and the renaming of the mutexes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    workers: int  # worker thread templates, each created once by main
    mutexes: int
    globals_per_mutex: int  # 2 or 3


@dataclass(frozen=True)
class Planted:
    line: int
    label: bool  # True: holds in every execution; False: always violated


@dataclass(frozen=True)
class Generated:
    name: str
    source: str
    asserts: tuple[Planted, ...]


LOOP_BOUND = 3

# Distinct program sets.  The benchmark seed is taken modulo SEEDS, so that
# every seed has a recorded dump reference (perfbench/record.py).
SEEDS = 50

# The program set of one scaled-analyze round, with 15, 17, 19 and 21 int
# variables in the universe.  The two workers use two mutexes at most; the
# globals of any further mutex are declared but touched by no thread, so
# they grow the full-universe DBM without adding statements, the cost that
# support-sized octagons would remove.  Analysis time grows steeply with
# the universe: with the numpy closure kernel on a 2-vCPU x86-64 machine, a
# 42-variable program of this kind took about 20 s and 1.8 GB under the
# clusters preset, and this set takes about 0.4 s per analysis.  A run
# needs about 100 analyses for ten of them to lie above the 90th
# percentile, so the set stays small.
SHAPES = (
    Shape(workers=2, mutexes=1, globals_per_mutex=2),
    Shape(workers=2, mutexes=2, globals_per_mutex=2),
    Shape(workers=2, mutexes=3, globals_per_mutex=2),
    Shape(workers=2, mutexes=4, globals_per_mutex=2),
)


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.asserts: list[Planted] = []

    def emit(self, text: str) -> None:
        self.lines.append(text)

    def plant(self, indent: str, cond: str, label: bool) -> None:
        self.emit(f"{indent}assert({cond});")
        self.asserts.append(Planted(len(self.lines), label))


def _gname(k: int, j: int) -> str:
    return f"g{k}_{j}"


def _section(w: _Writer, rng: random.Random, shape: Shape, wi: int, k: int,
             offsets: list[int], indent: str) -> None:
    """One critical section of worker ``wi`` on mutex ``ak``; every writer of
    ``ak`` uses the same ``offsets`` between consecutive globals."""
    xs = [f"x{wi}_{j}" for j in range(shape.globals_per_mutex)]
    w.emit(f"{indent}lock(a{k});")
    for j, x in enumerate(xs):
        w.emit(f"{indent}{x} = {_gname(k, j)};")
    w.plant(indent, f"{xs[0]} <= {xs[1]}", True)
    w.plant(indent, f"{xs[1]} < {xs[0]}", False)
    w.plant(indent, f"{xs[0]} >= 0", True)
    w.emit(f"{indent}{xs[0]} = {xs[0]} + {rng.randint(1, 3)};")
    for j in range(1, len(xs)):
        w.emit(f"{indent}{xs[j]} = {xs[j - 1]} + {offsets[j - 1]};")
    for j, x in enumerate(xs):
        w.emit(f"{indent}{_gname(k, j)} = {x};")
    w.emit(f"{indent}unlock(a{k});")


def generate(seed: int, index: int, shape: Shape) -> Generated:
    """Program ``index`` of the set for ``seed``; same arguments, same text."""
    rng = random.Random(f"perfbench-scaled/{seed}/{index}")
    w = _Writer()
    name = f"scaled_s{seed}_p{index}"
    w.emit(f"// generated by perfbench/gen.py: seed {seed}, program {index}, {shape}")
    gs = [_gname(k, j) for k in range(shape.mutexes) for j in range(shape.globals_per_mutex)]
    w.emit(f"global {', '.join(gs)};")
    w.emit(f"mutex {', '.join(f'a{k}' for k in range(shape.mutexes))};")
    for k in range(shape.mutexes):
        for j in range(shape.globals_per_mutex):
            w.emit(f"protect {_gname(k, j)} with a{k};")

    w.emit("")
    w.emit("thread main {")
    for wi in range(shape.workers):
        w.emit(f"  t{wi} = create(w{wi});")
    for wi in range(shape.workers):
        w.emit(f"  r{wi} = join(t{wi});")
    mutex = list(range(shape.mutexes))
    rng.shuffle(mutex)
    k = mutex[0]
    offsets = [[rng.randint(1, 3) for _ in range(shape.globals_per_mutex - 1)]
               for _ in range(shape.mutexes)]
    w.emit(f"  lock(a{k});")
    w.emit(f"  u = {_gname(k, 0)};")
    w.emit(f"  v = {_gname(k, 1)};")
    w.plant("  ", "u <= v", True)
    w.plant("  ", "v < u", False)
    w.emit(f"  unlock(a{k});")
    w.emit("}")

    for wi in range(shape.workers):
        i, bound = f"i{wi}", LOOP_BOUND
        w.emit("")
        w.emit(f"thread w{wi} {{")
        w.emit(f"  {i} = 0;")
        w.emit(f"  while ({i} < {bound}) {{")
        k = mutex[wi % shape.mutexes]
        _section(w, rng, shape, wi, k, offsets[k], "    ")
        w.emit(f"    {i} = {i} + 1;")
        w.emit("  }")
        w.plant("  ", f"{i} == {bound}", True)
        w.plant("  ", f"{i} < {bound}", False)
        w.emit(f"  return x{wi}_0;")
        w.emit("}")
    return Generated(name, "\n".join(w.lines) + "\n", tuple(w.asserts))


def generate_set(seed: int, shapes=SHAPES) -> list[Generated]:
    return [generate(seed, i, shape) for i, shape in enumerate(shapes)]
