"""Deterministic sequences of index sets M_k, each a subset of {1,...,k-1}.

These drive the product-recycling rules eta_k = xi_k * prod_{j in M_k} xi_j
and the convergence diagnostics on the sets themselves.
"""

from __future__ import annotations

import math
from typing import Callable

from .algebra import EMPTY_SET, IndexSet


class SetSequence:
    """A total map step k -> M_k with M_k a subset of {1,...,k-1}."""

    def __init__(self, kind: str, fn: Callable[[int], IndexSet], params: str = ""):
        self.kind = kind
        self.fn = fn
        self.params = params

    @property
    def name(self) -> str:
        return f"{self.kind}({self.params})" if self.params else self.kind

    def at(self, k: int) -> IndexSet:
        if k < 1:
            raise ValueError("step must be >= 1")
        m = self.fn(k)
        if m.members and m.members[-1] > k - 1:
            raise ValueError(f"M_{k} = {m} is not a subset of {{1,...,{k - 1}}}")
        return m

    def prefix(self, horizon: int) -> list[IndexSet]:
        return [self.at(k) for k in range(1, horizon + 1)]

    def __repr__(self):
        return f"SetSequence({self.name})"


def _prefix_set(length: int, k: int) -> IndexSet:
    length = max(0, min(length, k - 1))
    return IndexSet(range(1, length + 1)) if length else EMPTY_SET


def prefix_fraction(lam: float) -> SetSequence:
    """M_k = {1, ..., floor(lam * k)} clipped to {1,...,k-1}."""
    if not 0 < lam < 1:
        raise ValueError("lam must lie strictly between 0 and 1")
    return SetSequence("prefix", lambda k: _prefix_set(int(lam * k), k), f"{lam:g}")


def prefix_log() -> SetSequence:
    """M_k = {1, ..., floor(ln k)}."""
    return SetSequence("prefix-log", lambda k: _prefix_set(int(math.log(k)), k))


def prefix_power(alpha: float) -> SetSequence:
    """M_k = {1, ..., floor(k**alpha)}, a regularly varying prefix length."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return SetSequence(
        "prefix-pow", lambda k: _prefix_set(int(k ** alpha), k), f"{alpha:g}"
    )


def capped_prefix(m: int) -> SetSequence:
    """M_k = {1, ..., min(m, k-1)}; constant {1,...,m} once k > m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return SetSequence("capped", lambda k: _prefix_set(m, k), str(m))


def sliding_window(m: int) -> SetSequence:
    """M_k = {k-m, ..., k-1}, truncated at 1 for the first steps."""
    if m < 1:
        raise ValueError("m must be >= 1")

    def fn(k: int) -> IndexSet:
        lo = max(1, k - m)
        return IndexSet(range(lo, k)) if k > 1 else EMPTY_SET

    return SetSequence("window", fn, str(m))


def custom_sequence(fn: Callable[[int], IndexSet], name: str = "custom") -> SetSequence:
    def wrapped(k: int) -> IndexSet:
        m = fn(k)
        return m if isinstance(m, IndexSet) else IndexSet(m)

    return SetSequence(name, wrapped)
