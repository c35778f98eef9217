"""Shared generators and the brute-force concretization oracle for domain tests."""

from itertools import combinations, product
from random import Random

from concurrel.domains import RelDomain, Universe
from concurrel.frontend.ast import BinOp, Cmp, IntLit, Var

OPS = ["<=", "<", ">=", ">", "==", "!="]


def make_domain(numeric: str, names=("v", "w", "x", "y", "z")) -> RelDomain:
    return RelDomain(Universe(tuple(names), ("self",)), numeric)


def use_kernel(monkeypatch, module):
    """Run the octagon operations on the closure kernel ``module`` for the
    rest of the test."""
    from concurrel.domains import octagon

    monkeypatch.setattr(octagon, "_kernel", module)
    monkeypatch.setattr(octagon, "tight_close_inplace", module.tight_close_inplace)


def eq(dom: RelDomain, a, b) -> bool:
    return dom.leq(a, b) and dom.leq(b, a)


def decompose(dom: RelDomain, r, k: int) -> dict:
    """The restrictions of ``r`` to every set of at most ``k`` variables."""
    out = {}
    for size in range(1, k + 1):
        for q in combinations(dom.universe.all_vars, size):
            out[frozenset(q)] = dom.restrict(r, set(q))
    return out


def recompose(dom: RelDomain, d: dict):
    return dom.meet_all(d.values())


def random_relation(dom: RelDomain, rng: Random, steps: int | None = None):
    names = dom.universe.int_vars
    r = dom.top()
    for _ in range(rng.randint(1, 6) if steps is None else steps):
        x, y = rng.choice(names), rng.choice(names)
        c = rng.randint(0, 4)
        roll = rng.random()
        if roll < 0.2:
            r = dom.assign_expr(r, x, IntLit(c))
        elif roll < 0.4:
            r = dom.assign_expr(r, x, BinOp("+", Var(y), IntLit(rng.randint(-2, 2))))
        elif roll < 0.5:  # negation forms x := c − y (covers x := −x too)
            r = dom.assign_expr(r, x, BinOp("-", IntLit(c), Var(y)))
        elif roll < 0.8:
            r = dom.guard(r, Cmp(rng.choice(OPS), Var(x), Var(y)))
        else:
            r = dom.guard(r, Cmp(rng.choice(["<=", ">="]), Var(x), IntLit(c)))
    return r


def satisfiable_relation(dom: RelDomain, rng: Random):
    """A random relation other than ⊥, whose numeric component a backend
    may take as an operand."""
    while (r := random_relation(dom, rng)).bot:
        pass
    return r


def gamma(dom: RelDomain, r, names, lo=0, hi=4) -> set[tuple]:
    """Concretization by enumeration over small boxes."""
    box = list(product(range(lo, hi + 1), repeat=len(names)))
    inside = dom.contains_many(r, dict(zip(names, zip(*box))), len(box))
    return {vals for vals, ok in zip(box, inside) if ok}


def eval_expr(e, store) -> int:
    match e:
        case IntLit(v):
            return v
        case Var(n):
            return store[n]
        case BinOp("+", l, rr):
            return eval_expr(l, store) + eval_expr(rr, store)
        case BinOp("-", l, rr):
            return eval_expr(l, store) - eval_expr(rr, store)
        case BinOp("*", l, rr):
            return eval_expr(l, store) * eval_expr(rr, store)
    raise TypeError(e)


def eval_cmp(c: Cmp, store) -> bool:
    l, r = eval_expr(c.left, store), eval_expr(c.right, store)
    return {"==": l == r, "!=": l != r, "<": l < r, "<=": l <= r,
            ">": l > r, ">=": l >= r}[c.op]


def pairwise_eq_join(nb, a, b):
    """The eqconst join by its definition: keep each pair i, j that both a
    and b make equal, and each constant both give a variable (O(n²) pairs)."""
    from concurrel.domains.eqconst import _canon

    pairs = {(i, j) for i in range(nb.n) for j in range(i + 1, nb.n)
             if nb.implies_eq(a, i, j) and nb.implies_eq(b, i, j)}
    consts = [(i, ca) for i in range(nb.n)
              if (ca := nb._const_of(a, i)) is not None and ca == nb._const_of(b, i)]
    return _canon(pairs, consts)
