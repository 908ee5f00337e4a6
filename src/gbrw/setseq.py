"""Deterministic sequences of index sets M_k, each a subset of {1,...,k-1}.

These drive the product-recycling rules eta_k = xi_k * prod_{j in M_k} xi_j
and the convergence diagnostics on the sets themselves.  Every set is an
integer interval, held as its bounds: M_k = {lo_k, ..., hi_k}.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Bound = Callable[[np.ndarray], np.ndarray]


class SetSequence:
    """A total map step k -> M_k = {lo(k), ..., hi(k)}, empty when hi(k) < lo(k).

    ``lo`` and ``hi`` map an array of steps (int32 below 2**31 steps) to fresh
    arrays of the bounds there, in its dtype; parameters are clipped to that.
    """

    def __init__(self, kind: str, lo: Bound, hi: Bound, params: str = ""):
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.params = params

    @property
    def name(self) -> str:
        return f"{self.kind}({self.params})" if self.params else self.kind

    def bounds(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """lo, hi with M_k = {lo[k-1], ..., hi[k-1]} for k <= horizon; every
        empty set as lo = 1, hi = 0, so equal sets have equal bounds."""
        k = np.arange(1, horizon + 1, dtype=np.int32 if horizon < 2 ** 31 else np.int64)
        lo, hi = self.lo(k), self.hi(k)
        empty = hi < lo
        bad = ~empty & ((lo < 1) | (hi >= k))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"M_{i + 1} = {{{lo[i]},...,{hi[i]}}} is not a subset "
                             f"of {{1,...,{i}}}")
        lo[empty], hi[empty] = 1, 0
        return lo, hi

    def __repr__(self):
        return f"SetSequence({self.name})"


def _prefix(kind: str, length: Bound, params: str = "") -> SetSequence:
    """M_k = {1, ..., length(k)} clipped to {1,...,k-1}."""
    return SetSequence(kind, np.ones_like, lambda k: np.minimum(length(k), k - 1),
                       params)


def _floor_power(k: np.ndarray, alpha: float) -> np.ndarray:
    """int(k ** alpha) as the scalar pow rounds it.  numpy's pow can differ in
    the last place, which moves the floor only next to an integer (k = 27,
    alpha = 1/3), so the scalar pow recomputes the steps there.  One float64
    array of the steps is the only temporary wider than the result."""
    power = np.power(k, alpha, dtype=np.float64)
    tol = 1e-12 * power.max(initial=0.0)
    out = power.astype(k.dtype)
    power -= out  # the fractional part; then its distance from 1/2
    power -= 0.5
    np.abs(power, out=power)
    near = np.flatnonzero(power >= 0.5 - tol)
    out[near] = [int(int(j) ** alpha) for j in k[near]]
    return out


def prefix_fraction(lam: float) -> SetSequence:
    """M_k = {1, ..., floor(lam * k)} clipped to {1,...,k-1}."""
    if not 0 < lam < 1:
        raise ValueError("lam must lie strictly between 0 and 1")
    return _prefix("prefix", lambda k: (lam * k).astype(k.dtype), f"{lam:g}")


def prefix_log() -> SetSequence:
    """M_k = {1, ..., floor(ln k)}."""
    return _prefix("prefix-log", lambda k: np.log(k).astype(k.dtype))


def prefix_power(alpha: float) -> SetSequence:
    """M_k = {1, ..., floor(k**alpha)}, a regularly varying prefix length."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return _prefix("prefix-pow", lambda k: _floor_power(k, alpha), f"{alpha:g}")


def capped_prefix(m: int) -> SetSequence:
    """M_k = {1, ..., min(m, k-1)}; constant {1,...,m} once k > m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _prefix("capped", lambda k: np.full_like(k, min(m, np.iinfo(k.dtype).max)), str(m))


def sliding_window(m: int) -> SetSequence:
    """M_k = {k-m, ..., k-1}, truncated at 1 for the first steps."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return SetSequence("window", lambda k: np.maximum(k - min(m, np.iinfo(k.dtype).max), 1),
                       lambda k: k - 1, str(m))
