"""Truncated formal power series over an arbitrary exact coefficient ring.

A series is a plain list [c_0, c_1, ..., c_order].  The coefficient ring is
supplied as (zero, one, mul); coefficients must support + and -.  Over
Lin coefficients this drives the star involution (series reversion) and
its Lagrange oracle (powers); Fraction coefficients work the same way.

All operations truncate at the ring's fixed order; nothing here is lazy.
"""

from __future__ import annotations

from typing import Callable, Sequence


class SeriesOps:
    def __init__(self, order: int, zero, one, mul: Callable):
        self.order = order
        self.zero = zero
        self.one = one
        self.cmul = mul

    def pad(self, f: Sequence) -> list:
        out = list(f[: self.order + 1])
        out.extend(self.zero for _ in range(self.order + 1 - len(out)))
        return out

    def mul(self, f, g) -> list:
        f, g = self.pad(f), self.pad(g)
        out = [self.zero for _ in range(self.order + 1)]
        for i, a in enumerate(f):
            if a == self.zero:
                continue
            for j in range(self.order + 1 - i):
                b = g[j]
                if b != self.zero:
                    out[i + j] = out[i + j] + self.cmul(a, b)
        return out

    def pow(self, f, k: int) -> list:
        out = self.pad([self.one])
        for _ in range(k):
            out = self.mul(out, f)
        return out

    def reversion(self, f) -> list:
        """Compositional inverse of f = t + c_2 t^2 + ...; same shape back.

        Coefficient recursion: g_k = -sum_{m=2..k} f_m (g^m)_k, which only
        touches already-known coefficients since g has no constant term.
        """
        f = self.pad(f)
        if f[0] != self.zero or f[1] != self.one:
            raise ValueError("reversion needs f = t + higher-order terms")
        g = [self.zero, self.one] + [self.zero] * (self.order - 1)
        for k in range(2, self.order + 1):
            power = g  # g^m computed incrementally from m=1
            acc = self.zero
            for m in range(2, k + 1):
                power = self.mul(power, g)
                if f[m] != self.zero:
                    acc = acc + self.cmul(f[m], power[k])
            g[k] = self.zero - acc
        return g
