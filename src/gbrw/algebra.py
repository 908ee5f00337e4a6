"""Sign-valued boolean functions over the subset lattice.

A function psi : {-1,+1}^n -> {-1,+1} admits a unique product
representation over the building blocks u_[K] = max_{k in K} u_k (with
u_[empty] = -1): psi(u) = prod_K u_[K]^beta_K, beta_K in {0,1}.  Inputs are
indexed by the bitmask of coordinates carrying -1, which makes
u_[K] = -1 exactly when K is a submask, and turns conversion between truth
tables and beta coefficient families into the self-inverse GF(2) subset
zeta transform.

Index sets are int bitmasks throughout, bit k-1 standing for index k: a
``BetaFamily`` holds its members as one sorted tuple of masks, which the
moment engine reads directly; the subset transform packs tables 64 entries
to a word.  One encoder, ``member_text``, sorts members by their masks'
bytes and gathers csv cells from tables of per-byte text.  Products of
maxima expand over their sub-collections through one ``union_table``, which
both the linearization here and the moment engine's subset sums read.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .dyadic import Dyadic

#: Largest n for which 2**n state enumerations are attempted.
DEFAULT_ENUM_CAP = 24
#: Largest family size for which 2**|family| expansions are attempted.
DEFAULT_EXPANSION_CAP = 20


class CapacityError(RuntimeError):
    """An enumeration would exceed its size cap."""


# The two checks read the caps when called, so every table and expansion in
# the package is held to the module's one value of each.
def check_enum_cap(n: int, what: str):
    if n > DEFAULT_ENUM_CAP:
        raise CapacityError(f"{what} {n} exceeds enumeration cap {DEFAULT_ENUM_CAP}")


def check_expansion_cap(n: int, what: str):
    if n > DEFAULT_EXPANSION_CAP:
        raise CapacityError(f"{what} {n} exceeds expansion cap {DEFAULT_EXPANSION_CAP}")


def mask_of(u: Sequence[int]) -> int:
    """Bitmask of the coordinates of u equal to -1 (bit k-1 for u_k)."""
    m = 0
    for i, v in enumerate(u):
        if v == -1:
            m |= 1 << i
        elif v != 1:
            raise ValueError(f"coordinate {i + 1} is {v}, expected -1 or +1")
    return m


def check_masks(masks: Sequence[int]) -> None:
    """Reject negative masks: an index set's mask (bit k-1 for index k) is
    a non-negative int."""
    low = min(masks, default=0)
    if low < 0:
        raise ValueError(f"mask {low} is negative")


def subset_max(u: Sequence[int], mask: int) -> int:
    """max_{k in K} u_k over the index set K of the mask (bit k-1 for index
    k), with the empty-set convention u_[empty] = -1."""
    check_masks((mask,))
    if not mask:
        return -1
    if mask.bit_length() > len(u):
        raise ValueError(
            f"index {mask.bit_length()} out of range for a vector of length {len(u)}"
        )
    return max(u[k] for k in range(mask.bit_length()) if mask >> k & 1)


def mask_levels(n: int) -> np.ndarray:
    """Popcounts of the masks 0 .. 2**n - 1 as uint8, built by doubling so
    that no wider temporary is held."""
    out = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        np.add(out[:1 << i], 1, out=out[1 << i:2 << i])
    return out


# ---------------------------------------------------------------------------
# Truth tables


class TruthTable:
    """Sign table of a function on {-1,+1}^arity, indexed by -1 bitmasks."""

    __slots__ = ("arity", "signs")

    def __init__(self, arity: int, signs: np.ndarray):
        signs = np.array(signs, dtype=np.int8)  # the one copy the table owns
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if signs.shape != (1 << arity,):
            raise ValueError(f"expected {1 << arity} entries, got {signs.shape}")
        # -1 <= s <= 1 and s != 0, checked without a temporary array
        if (signs.min() < -1 or signs.max() > 1
                or np.count_nonzero(signs) < signs.size):
            raise ValueError("table values must be -1 or +1")
        self._own(arity, signs)

    def _own(self, arity: int, signs: np.ndarray) -> None:
        signs.setflags(write=False)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def adopt(cls, arity: int, signs: np.ndarray) -> "TruthTable":
        """A table over ``signs``, int8 signs of 2**arity masks that nothing
        else writes: made read-only, neither copied nor checked."""
        table = cls.__new__(cls)
        table._own(arity, signs)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("TruthTable is immutable")

    @classmethod
    def constant(cls, arity: int, value: int) -> "TruthTable":
        return cls(arity, np.full(1 << arity, value, dtype=np.int8))

    @classmethod
    def from_function(cls, arity: int, fn: Callable[[tuple[int, ...]], int]) -> "TruthTable":
        check_enum_cap(arity, "truth table arity")
        signs = np.empty(1 << arity, dtype=np.int8)
        for mask in range(1 << arity):
            u = tuple(-1 if (mask >> k) & 1 else 1 for k in range(arity))
            signs[mask] = fn(u)
        return cls(arity, signs)

    @classmethod
    def from_neg_bits(cls, bits: np.ndarray) -> "TruthTable":
        """Build from a 0/1 array marking the inputs mapped to -1."""
        bits = np.asarray(bits)
        arity = int(bits.size).bit_length() - 1
        if bits.size != 1 << arity:
            raise ValueError("bit array length must be a power of two")
        return cls(arity, 1 - 2 * bits.astype(np.int8))

    def sign_at(self, mask: int) -> int:
        return int(self.signs[mask])

    def sign(self, u: Sequence[int]) -> int:
        if len(u) < self.arity:
            raise ValueError(f"need {self.arity} coordinates, got {len(u)}")
        return int(self.signs[mask_of(u[: self.arity])])

    def negatives_parity(self) -> int:
        """Parity of the number of inputs mapped to -1."""
        return int(np.count_nonzero(self.signs < 0)) & 1

    def _level_values(self) -> tuple[np.ndarray, bool]:
        """One value per count of -1 coordinates, and whether the table is
        that profile at every input."""
        nu = mask_levels(self.arity)
        out = np.empty(self.arity + 1, dtype=np.int8)
        out[nu] = self.signs  # every level occurs, each takes one of its values
        return out, bool(np.array_equal(out[nu], self.signs))

    def is_symmetric(self) -> bool:
        """True when the value depends on the input only through its sum."""
        return self._level_values()[1]

    def popcount_profile(self) -> np.ndarray:
        """Value on inputs with nu coordinates equal to -1, for nu = 0..arity.

        Raises ValueError when the table is not permutation invariant.
        """
        out, symmetric = self._level_values()
        if not symmetric:
            raise ValueError("table is not permutation invariant")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TruthTable)
            and self.arity == other.arity
            and bool(np.array_equal(self.signs, other.signs))
        )

    def __repr__(self):
        if self.arity <= 5:
            body = "".join("-" if s < 0 else "+" for s in self.signs)
            return f"TruthTable({self.arity}, {body!r})"
        return f"TruthTable(arity={self.arity})"


# ---------------------------------------------------------------------------
# Beta coefficient families


class BetaFamily:
    """The index sets carrying exponent 1 in the max-basis product form.

    A family at ``step`` n describes the multiplier applied to the n-th
    increment, a function of the first n-1 increments; members are subsets
    of {1, ..., n-1} and the empty set encodes a constant sign flip.  They
    are stored as ``masks``, one sorted tuple of distinct int bitmasks (bit
    k-1 for index k); ``sorted_masks`` and ``member_strings`` order and
    print them.
    """

    __slots__ = ("step", "masks")

    def __init__(self, step: int, masks: Iterable[int] = ()):
        if step < 1:
            raise ValueError("step must be >= 1")
        masks = tuple(sorted(set(map(operator.index, masks))))
        if masks and masks[0] < 0:
            raise ValueError(f"member mask {masks[0]} is negative")
        if masks and masks[-1] >> (step - 1):
            raise ValueError(f"member {member_strings(masks[-1:])[0]} "
                             f"not a subset of {{1,...,{step - 1}}}")
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def adopt(cls, step: int, masks: tuple[int, ...]) -> "BetaFamily":
        """A family over ``masks``, a tuple already sorted, distinct and inside
        {1,...,step-1}: neither sorted nor checked."""
        family = cls.__new__(cls)
        object.__setattr__(family, "step", step)
        object.__setattr__(family, "masks", masks)
        return family

    def __setattr__(self, name, value):
        raise AttributeError("BetaFamily is immutable")

    @property
    def arity(self) -> int:
        return self.step - 1

    @property
    def contains_full_set(self) -> bool:
        # the full set is the largest possible mask
        return bool(self.masks) and self.masks[-1] == (1 << self.arity) - 1

    def evaluate(self, u: Sequence[int]) -> int:
        """prod over members K of u_[K]; +1 for the empty family."""
        if self.masks and self.masks[-1].bit_length() > len(u):
            raise ValueError(f"index {self.masks[-1].bit_length()} out of range "
                             f"for a vector of length {len(u)}")
        neg = mask_of(u[:self.arity])
        # u_[K] = -1 exactly when K is a submask of the -1 coordinates
        flips = sum(1 for m in self.masks if not m & ~neg)
        return -1 if flips & 1 else 1

    def __eq__(self, other):
        return (
            isinstance(other, BetaFamily)
            and self.step == other.step
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.step, self.masks))

    def __len__(self):
        return len(self.masks)

    def __repr__(self):
        body = ", ".join(member_strings(self.masks))
        return f"BetaFamily(step={self.step}, members=[{body}])"


@functools.cache
def _byte_keys() -> np.ndarray:
    """Every byte value's bits reversed, then complemented: index sets of one size
    order lexicographically as their masks' bytes, low byte first, through these."""
    return np.array([255 - int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


@functools.cache
def _byte_text(j: int, last: bool) -> np.ndarray:
    """Text of every value v of byte j of a mask, a row per character: column v
    lists its indices among 8j+1..8j+8, column 256 + v the same after a comma
    (read after a non-zero byte).  Byte 0 opens the "{", the last closes the "}"."""
    texts = [",".join(str(8 * j + k + 1) for k in range(8) if v >> k & 1) for v in range(256)]
    texts += ["," + t if t else t for t in texts]
    texts = np.array([("{" * (j == 0) + t + "}" * last).encode() for t in texts])
    return np.ascontiguousarray(texts.view(np.uint8).reshape(512, -1).T)


def _member_order(masks: Sequence[int] | np.ndarray) -> tuple[np.ndarray, ...]:
    """Order of the masks' index sets by size, then indices; the masks' little-endian
    bytes (row j holds byte j, at least one) and the sets' sizes, narrow to radix-sort, in it."""
    words = np.asarray(masks)  # an object array past 64 bits
    size = max(1, (int(words.max(initial=0)).bit_length() + 7) // 8)
    if size <= 8:  # the bytes of uint64 words
        raw = words.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :size].T
    else:
        raw = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks),
                            np.uint8).reshape(len(masks), size).T
    sizes = sum(np.bitwise_count(row).astype(np.min_scalar_type(8 * len(raw))) for row in raw)
    order = np.lexsort((*(_byte_keys()[row] for row in raw[::-1]), sizes))
    return order, raw.take(order, axis=1), sizes[order]


def sorted_masks(masks: Sequence[int]) -> list[int]:
    """The masks ordered as their index sets by size, then lexicographically."""
    return [masks[i] for i in _member_order(masks)[0].tolist()]


def member_text(masks: Sequence[int] | np.ndarray) -> np.ndarray:
    """The index sets as csv cells "{i,j,...}", in ``sorted_masks`` order: a uint8
    matrix, a row per character and a column per set, zero around each byte's text.
    The first and last rows quote the sets of two or more indices (with commas)."""
    _, raw, sizes = _member_order(masks)
    tables = [_byte_text(j, j == len(raw) - 1) for j in range(len(raw))]
    text = np.zeros((2 + sum(map(len, tables)), raw.shape[1]), np.uint8)
    text[0] = text[-1] = (sizes >= 2) * ord('"')
    earlier = np.zeros(raw.shape[1], np.intp)  # 256 after a non-zero byte
    start = 1
    for row, table in zip(raw, tables):
        np.take(table, row | earlier, axis=1, out=text[start:start + len(table)], mode="clip")
        earlier[row != 0] = 256
        start += len(table)
    return text


def member_cells(masks: Sequence[int] | np.ndarray) -> np.ndarray:
    """``member_strings`` in an S-dtype array as wide as the longest."""
    return np.array(member_strings(masks), dtype="S")


def member_strings(masks: Sequence[int] | np.ndarray) -> list[str]:
    """The index sets of the masks as "{i,j,...}", in ``sorted_masks`` order."""
    text = member_text(masks)
    text[0], text[-1] = 0, ord("\n")  # lines, in place of the quotes
    return text.T.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


# ---------------------------------------------------------------------------
# Conversions between the two representations


def subset_xor_transform(bits: np.ndarray) -> np.ndarray:
    """GF(2) zeta transform along the last axis: out[S] = XOR of in[K], K subset of S.

    The transform is an involution over GF(2), so it performs both
    directions of the truth table <-> beta family conversion.  Accepts a
    stacked array of 0/1 tables and transforms each row, packed 64 entries to
    a little-endian word: passes 0-5 run inside words, the others XOR words.
    """
    bits = np.asarray(bits)
    size = bits.shape[-1]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("last axis length must be a power of two")
    words = np.zeros(bits.shape[:-1] + (-(-size // 64),), "<u8")
    words.view(np.uint8)[..., :-(-size // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    for i in range(min(n, 6)):  # the bits whose index has bit i clear, 0x5555... at i = 0
        words ^= (words & np.uint64((1 << 64) // ((1 << (1 << i)) + 1))) << np.uint64(1 << i)
    for i in range(6, n):
        view = words.reshape(words.shape[:-1] + (-1, 2, 1 << i - 6))
        view[..., 1, :] ^= view[..., 0, :]
    return np.unpackbits(words.view(np.uint8), axis=-1, count=size, bitorder="little")


def truth_to_beta(table: TruthTable) -> BetaFamily:
    """The unique beta family reproducing the table (steps the arity up by one)."""
    coeffs = subset_xor_transform(table.signs < 0)
    return BetaFamily.adopt(table.arity + 1, tuple(np.flatnonzero(coeffs).tolist()))


def beta_to_truth(family: BetaFamily) -> TruthTable:
    """Materialize the sign table of the family's product over all inputs."""
    check_enum_cap(family.arity, "truth table arity")
    bits = np.zeros(1 << family.arity, dtype=np.uint8)
    bits[np.fromiter(family.masks, np.intp, len(family))] = 1  # the members' indicator
    return TruthTable.from_neg_bits(subset_xor_transform(bits))


# ---------------------------------------------------------------------------
# Linearization of products of maxima


def union_table(masks: Sequence[int]) -> np.ndarray:
    """The unions of all 2**len(masks) sub-collections of the masks.

    Row h is the union of the masks that the bits of h select, held as
    uint64 words, least significant first, as many as the widest mask
    needs.  Built by doubling: row h with bit i set is row h - 2**i joined
    with mask i, so the last row is the union of all masks.
    """
    width = max(1, -(-max(masks, default=0).bit_length() // 64))
    table = np.zeros((1 << len(masks), width), dtype=np.uint64)
    for i, m in enumerate(masks):
        words = np.array([m >> (64 * j) & 0xFFFF_FFFF_FFFF_FFFF for j in range(width)],
                         dtype=np.uint64)
        view = table.reshape(-1, 2, 1 << i, width)
        np.bitwise_or(view[:, 0], words, out=view[:, 1])
    return table


@dataclass(frozen=True)
class LinearExpansion:
    """An affine combination of building blocks: constant + sum c_M * u_[M],
    with each index set M held as its mask."""

    constant: Dyadic
    terms: tuple[tuple[int, Dyadic], ...]

    def evaluate(self, u: Sequence[int]) -> Dyadic:
        total = self.constant
        for mask, coeff in self.terms:
            total = total + coeff * subset_max(u, mask)
        return total

    def evaluate_all(self, n: int) -> tuple[np.ndarray, int]:
        """Exact values on all of {-1,+1}^n as (numerators, shared exponent).

        The value at input mask m is numerators[m] / 2**exponent.
        """
        check_enum_cap(n, "expansion evaluation arity")
        exp = max([self.constant.exponent] + [c.exponent for _, c in self.terms],
                  default=0)
        masks = np.arange(1 << n, dtype=np.int64)
        nums = np.full(1 << n, self.constant.numerator << (exp - self.constant.exponent),
                       dtype=np.int64)
        for mask, coeff in self.terms:
            if mask >> n:
                raise ValueError(f"term {member_strings([mask])[0]} exceeds arity {n}")
            # the block over K is -1 on the supersets of K (everywhere for K empty)
            signs = np.where((masks & mask) == mask, -1, 1)
            nums += (coeff.numerator << (exp - coeff.exponent)) * signs
        return nums, exp


def linearize_product(masks: Sequence[int]) -> LinearExpansion:
    """Rewrite prod_j u_[M_j] over the index sets of the masks as an affine
    combination of single blocks.

    For m sets the expansion is (1/2)(-1)^m minus (1/2) sum over
    sub-collections H of (-2)^|H| u_[union of H].  The union table groups
    the sub-collections by union; the coefficients of each distinct union
    are added, and the non-zero terms come out in ``sorted_masks`` order.
    The empty product (m = 0) is 1.
    """
    check_masks(masks)
    unions, where = np.unique(union_table(masks), axis=0, return_inverse=True)
    sizes = mask_levels(len(masks)).astype(np.int64)
    totals = np.zeros(len(unions), dtype=np.int64)
    # -(-2)^|H|, so each union's total is twice its coefficient
    np.add.at(totals, where.ravel(), np.where(sizes & 1, 1, -1) << sizes)
    coeffs = {sum(w << (64 * j) for j, w in enumerate(row)): Dyadic(total, 1)
              for row, total in zip(unions.tolist(), totals.tolist()) if total}
    return LinearExpansion(Dyadic((-1) ** len(masks), 1),
                           tuple((m, coeffs[m]) for m in sorted_masks(list(coeffs))))


def expand_family(family: BetaFamily) -> LinearExpansion:
    """Affine expansion of the family's product over blocks u_[<H>].

    Terms are indexed by sub-collections H of the family, each contributing
    coefficient -(1/2)(-2)^|H| on the block of the union of H.
    """
    check_expansion_cap(len(family), "family size")
    return linearize_product(family.masks)


# ---------------------------------------------------------------------------
# Generic building-block bases from a partial order on the subset lattice


def _strict_submask(a: int, b: int) -> bool:
    return a != b and (a & b) == a


class PartialOrderBasis:
    """Building blocks derived from a labeling of inputs and a strict order.

    ``labels[k_mask]`` gives the input mask labeled by the subset ``k_mask``
    and must be a bijection.  The block attached to K takes the value -1 on
    the input labeled K' exactly when K strictly precedes K' or K = K'.
    Strictness keeps the stored order canonical; the reflexive closure is
    what makes each block see its own label, which is what the triangular
    inversion below needs.
    """

    def __init__(self, arity: int, labels: Sequence[int],
                 precedes: Callable[[int, int], bool], name: str = "custom"):
        size = 1 << arity
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (size,):
            raise ValueError(f"labels must enumerate all {size} inputs")
        if not np.array_equal(np.sort(labels), np.arange(size)):
            raise ValueError("labels is not a bijection")
        self.arity = arity
        self.labels = labels
        self.precedes = precedes
        self.name = name
        inverse = np.empty(size, dtype=np.int64)
        inverse[labels] = np.arange(size)
        self._label_of_input = inverse

    def block_value(self, k_mask: int, input_mask: int) -> int:
        k_prime = int(self._label_of_input[input_mask])
        if k_mask == k_prime or self.precedes(k_mask, k_prime):
            return -1
        return 1

    def block_table(self, k_mask: int) -> TruthTable:
        return TruthTable(self.arity, [self.block_value(k_mask, m)
                                       for m in range(1 << self.arity)])

    def topological_masks(self) -> list[int]:
        """Subset labels ordered so that predecessors come first."""
        order = []
        remaining = set(range(1 << self.arity))
        while remaining:
            layer = [
                k for k in remaining
                if not any(self.precedes(j, k) for j in remaining if j != k)
            ]
            if not layer:
                raise ValueError("order admits no topological enumeration (cycle)")
            order.extend(sorted(layer))
            remaining.difference_update(layer)
        return order

    @classmethod
    def max_basis(cls, arity: int) -> "PartialOrderBasis":
        """Label inputs by their -1 set and order by strict inclusion."""
        labels = np.arange(1 << arity, dtype=np.int64)
        return cls(arity, labels, _strict_submask, name="max")

    @classmethod
    def min_basis(cls, arity: int) -> "PartialOrderBasis":
        """The max basis conjugated by u -> -u: label inputs by their +1 set."""
        full = (1 << arity) - 1
        labels = np.arange(1 << arity, dtype=np.int64) ^ full
        return cls(arity, labels, _strict_submask, name="min")

    @classmethod
    def unordered_basis(cls, arity: int) -> "PartialOrderBasis":
        """No strict relations: block K is -1 only on the input labeled K."""
        labels = np.arange(1 << arity, dtype=np.int64)
        return cls(arity, labels, lambda a, b: False, name="unordered")


def change_basis(table: TruthTable, basis: PartialOrderBasis) -> dict[int, int]:
    """Coefficients gamma with table = prod over K of block_K ** gamma_K,
    keyed by the mask of K.

    Solved by GF(2) elimination along a topological enumeration of the
    order; cost can reach O(4^n) for adversarial orders.
    """
    if basis.arity != table.arity:
        raise ValueError("basis arity does not match table arity")
    order = basis.topological_masks()
    gamma: dict[int, int] = {}
    ones: list[int] = []  # masks with gamma = 1, in topological order
    for k_prime in order:
        input_mask = int(basis.labels[k_prime])
        b = 1 if table.sign_at(input_mask) < 0 else 0
        g = b ^ sum(basis.precedes(k, k_prime) for k in ones) & 1
        gamma[k_prime] = g
        if g:
            ones.append(k_prime)
    return gamma


# ---------------------------------------------------------------------------
# Symmetric (permutation invariant) helpers


def binomial_parity(n: int, k: int) -> int:
    """C(n, k) mod 2 via base-2 digit domination."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return 0 if (k & (n - k)) else 1


def symmetric_profile_to_levels(profile: Sequence[int]) -> np.ndarray:
    """Level exponents lambda_j of a permutation-invariant sign function.

    ``profile[nu]`` is the value on inputs with nu coordinates equal to -1.
    On such inputs the product of all blocks of size j equals
    (-1)^C(nu, j), so the level bits solve the triangular GF(2) system
    b_nu = sum_j C(nu, j) lambda_j.  By Lucas' theorem C(nu, j) is odd
    exactly when j is a submask of nu, so the system is the subset
    transform of the profile's -1 bits, which is its own inverse.
    """
    n = len(profile) - 1
    bits = np.zeros(1 << n.bit_length(), dtype=np.uint8)
    bits[:n + 1] = np.asarray(profile) < 0
    return subset_xor_transform(bits)[:n + 1]


def level_family(step: int, levels: Sequence[int]) -> BetaFamily:
    """Family containing every subset of {1..step-1} whose size has a set level bit."""
    n = step - 1
    check_enum_cap(n, "level family arity")
    active = [j for j, bit in enumerate(levels) if bit]
    if any(j > n for j in active):
        raise ValueError("level index exceeds arity")
    keep = np.isin(np.arange(n + 1), active)[mask_levels(n)]
    return BetaFamily.adopt(step, tuple(np.flatnonzero(keep).tolist()))


def family_levels(family: BetaFamily) -> np.ndarray | None:
    """Level bits when the family is level-constant, else None."""
    n = family.arity
    by_size = Counter(m.bit_count() for m in family.masks)
    levels = np.zeros(n + 1, dtype=np.uint8)
    for size, count in by_size.items():
        if count != math.comb(n, size):
            return None
        levels[size] = 1
    return levels
