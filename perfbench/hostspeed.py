"""Host-speed reference: a fixed piece of engine-free Python work, timed
between operations, by which the benchmark's times are normalised.

The benchmark runs on shared virtual machines whose speed moves by tens of
percent over minutes, slower than one run can average out.  A chunk of
reference work is timed after every operation, and an operation's time is
divided by the slowdown that the chunks just before and just after it show
(their mean time over `NOMINAL_S`).  Reported times are therefore seconds
on a host where one chunk takes `NOMINAL_S`.

A chunk mixes the kinds of work the engine's time goes to: integer
arithmetic in a loop, products of sparse polynomials held as dicts from
exponent tuples to coefficients, and short-lived objects that are built,
sorted and merged.  Each kind alone slowed more, or less, than the engine
when the host slowed; the mix followed it most closely (README.md, host
noise).  The reference shares no code with the engine, so a change to the
engine never moves it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# A round value within the 0.020-0.037 s one chunk took on the host the
# figures in README.md come from; fixed, so normalised times compare across runs.
NOMINAL_S = 0.030
P = 5


def _poly(rng, nvars, nterms):
    return {tuple(rng.randrange(5) for _ in range(nvars)): rng.randrange(1, P) for _ in range(nterms)}


_rng = random.Random(20111)
_A = _poly(_rng, 4, 60)
_B = _poly(_rng, 4, 60)


def _mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = (out.get(e, 0) + c1 * c2) % P
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _loop():
    s = 0
    for i in range(75_000):
        s = (s * 31 + i) % 1_000_003
    return s


class _Term:
    __slots__ = ("exps", "coeff")

    def __init__(self, exps, coeff):
        self.exps = exps
        self.coeff = coeff


def _churn():
    out = []
    for k in range(35):
        terms = [_Term((i % 7, (i * k) % 5, i % 3), (i * k) % P + 1) for i in range(200)]
        terms.sort(key=lambda t: t.exps, reverse=True)
        merged = {}
        for t in terms:
            merged[t.exps] = (merged.get(t.exps, 0) + t.coeff) % P
        out.append(merged)
    return out


def chunk():
    """Seconds taken by one chunk of reference work."""
    gc.collect()
    t0 = time.perf_counter()
    _loop()
    for _ in range(3):
        _mul(_A, _B)
    _churn()
    return time.perf_counter() - t0


def slowdown(chunks):
    """How much slower than nominal the host ran while `chunks` were timed."""
    return statistics.mean(chunks) / NOMINAL_S
