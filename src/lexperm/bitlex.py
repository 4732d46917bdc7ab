"""Bitstrings compared lexicographically under a positional priority
order, and ``read_decimals``, the plain-decimal reader of every parser.

A priority order lists positions from most to least significant; at the
first position where two strings differ, the one holding 0 is smaller.
``sort_key`` realizes that order as plain string comparison.  The module
imports only ``errors`` from the package, so every module may use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import FormatError, LengthMismatch


@dataclass(frozen=True, slots=True)
class PriorityOrder:
    """rank[r] is the position inspected at importance level r+1."""

    rank: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rank)
        if sorted(self.rank) != list(range(1, n + 1)):
            raise ValueError(f"rank is not a permutation of 1..{n}")

    @classmethod
    def _unchecked(cls, rank: tuple[int, ...]) -> "PriorityOrder":
        """Wrap a rank list without validating it; only for lists that a
        builder makes a permutation of 1..N by construction."""
        order = object.__new__(cls)
        object.__setattr__(order, "rank", rank)
        return order

    @property
    def degree(self) -> int:
        return len(self.rank)


def identity_order(degree: int) -> PriorityOrder:
    return PriorityOrder(tuple(range(1, degree + 1)))


def parse_order(text: str, degree: int) -> PriorityOrder:
    """Whitespace-separated positions, most significant first, each in
    plain ASCII decimal."""
    ranks = read_decimals(text.split())
    if ranks is None:
        raise FormatError(f"rank in order {text[:40]!r} is not plain decimal")
    if len(ranks) != degree:
        raise LengthMismatch(f"order lists {len(ranks)} ranks, expected {degree}")
    try:
        return PriorityOrder(tuple(ranks))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_order(order: PriorityOrder) -> str:
    return " ".join(map(str, order.rank))


def read_decimals(tokens: Sequence[str]) -> list[int] | None:
    """tokens as nonnegative integers in plain ASCII decimal, or None
    unless every one is (empty tokens, signs, underscores, other scripts'
    digits and numbers too long for ``int()`` included); one check over
    the joined text."""
    digits = "".join(tokens)
    if "" in tokens or (digits and not (digits.isascii() and digits.isdecimal())):
        return None
    try:
        return list(map(int, tokens))
    except ValueError:  # more digits than int() converts
        return None


def read_decimal(token: str) -> int | None:
    """``read_decimals`` of the one token."""
    values = read_decimals((token,))
    return None if values is None else values[0]


def check_bits(bits: str) -> None:
    """Raise ``FormatError`` unless every character of bits is 0 or 1."""
    if bits.strip("01"):
        raise FormatError(f"not a bitstring: {bits!r}")


def sort_key(bits: str, order: PriorityOrder | None = None) -> str:
    """bits reordered most-significant-first; plain string comparison of
    keys realizes the prioritized lexicographic order."""
    if order is None:
        return bits
    if len(bits) != order.degree:
        raise LengthMismatch(f"{len(bits)} bits vs order degree {order.degree}")
    return "".join(bits[p - 1] for p in order.rank)
