"""Permutation algebra on the points {1..N} with cycle-notation I/O.

Conventions fixed here and inherited by every other module:

* composition: (p * q)(i) = p(q(i));
* action on strings: (x . p)(i) = x(p(i)), so acting by p * q equals
  acting by p first and then by q, and appending a generator g to a word
  maps the current product w to w * g.

Membership in a finitely generated subgroup is decided with a
deterministic incremental Schreier-Sims stabilizer chain (fixed base
choice and processing order), so repeated runs build identical
structures.  A generator set builds its chain once, on its first
membership query, and keeps it; every later membership or
raw-permutation check only sifts through it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, count
from math import lcm
from operator import ne
from typing import Iterable, Iterator, Sequence

from .errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    OverlappingCycles,
    UnknownGenerator,
)


class Permutation:
    """A bijection on {1..N}, stored by its support: ``moved`` lists the
    points it moves in ascending order and ``moved_to[k]`` is where
    ``moved[k]`` goes, so a permutation costs its support, not its degree.

    ``image`` is the dense view, ``image[i-1]`` being where point i is
    sent; it is built on each read, except that when every point moves it
    is ``moved_to`` itself.  ``Permutation(image)`` validates a dense
    image.  Equality, hashing and ``repr`` mean "the same map on 1..N"."""

    __slots__ = ("degree", "moved", "moved_to")

    degree: int
    moved: tuple[int, ...]
    moved_to: tuple[int, ...]

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"image is not a permutation of 1..{n}")
        moved = tuple([i for i, v in enumerate(image, start=1) if i != v])
        _set(self, "degree", n)
        _set(self, "moved", moved)
        _set(self, "moved_to", image if len(moved) == n else tuple([image[i - 1] for i in moved]))

    @classmethod
    def _unchecked(
        cls, degree: int, moved: tuple[int, ...], moved_to: tuple[int, ...]
    ) -> "Permutation":
        """Wrap a support without validating it; only for supports derived
        from permutations and ones a builder or parser has already
        checked.  ``moved`` must ascend, and ``moved_to`` must be a
        rearrangement of it that leaves no point where it is.

        Supports are built as lists and then made tuples, so that each
        tuple is allocated once at its final size: ``tuple()`` of an
        iterator of unknown length grows the tuple in steps, and across
        the generators of an instance that fragmented the allocator
        (peak RSS about 0.6 MB higher in the reduce-walk benchmark)."""
        p = object.__new__(cls)
        _set(p, "degree", degree)
        _set(p, "moved", moved)
        _set(p, "moved_to", moved_to)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Permutation")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Permutation")

    def __reduce__(self):
        return Permutation._unchecked, (self.degree, self.moved, self.moved_to)

    def __eq__(self, other):
        if other.__class__ is not Permutation:
            return NotImplemented
        return (
            self.degree == other.degree
            and self.moved == other.moved
            and self.moved_to == other.moved_to
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.moved, self.moved_to))

    def __repr__(self) -> str:
        return f"Permutation(image={self.image!r})"

    @property
    def image(self) -> tuple[int, ...]:
        moved_to = self.moved_to
        if len(moved_to) == self.degree:
            return moved_to
        img = list(range(1, self.degree + 1))
        for i, v in zip(self.moved, moved_to):
            img[i - 1] = v
        return tuple(img)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise IndexOutOfRange(f"point {point} outside 1..{self.degree}")
        k = bisect_left(self.moved, point)
        if k < len(self.moved) and self.moved[k] == point:
            return self.moved_to[k]
        return point

    def is_identity(self) -> bool:
        return not self.moved

    def __str__(self) -> str:
        return format_cycles(self)


_set = object.__setattr__


def identity(degree: int) -> Permutation:
    return Permutation._unchecked(degree, (), ())


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product p * q under the convention (p * q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees {p.degree} and {q.degree} differ")
    # supp(p * q) lies in supp p | supp q, and off its support each map is
    # the identity
    at_p = dict(zip(p.moved, p.moved_to))
    at_q = dict(zip(q.moved, q.moved_to))
    points = sorted(at_p.keys() | at_q.keys())
    out = [at_p.get(b, b) for b in map(at_q.get, points, points)]
    moved = tuple([a for a, b in zip(points, out) if a != b])
    return Permutation._unchecked(p.degree, moved, tuple([b for a, b in zip(points, out) if a != b]))


def inverse(p: Permutation) -> Permutation:
    # p^-1 moves the points p moves, sending p(i) back to i
    back = dict(zip(p.moved_to, p.moved))
    return Permutation._unchecked(p.degree, p.moved, tuple([back[i] for i in p.moved]))


def power(p: Permutation, k: int) -> Permutation:
    """p composed with itself k times (k may be negative)."""
    return power_from_cycles(p, _cycles(p), k)


def power_from_cycles(p: Permutation, cycles: Iterable[Sequence[int]], k: int) -> Permutation:
    """p^k, given the cycles of p that move points: every cycle turns k
    places."""
    to: dict[int, int] = {}
    for cyc in cycles:
        shift = k % len(cyc)
        if shift:
            to.update(zip(cyc, cyc[shift:] + cyc[:shift]))
    moved = tuple([i for i in p.moved if i in to])
    return Permutation._unchecked(p.degree, moved, tuple([to[i] for i in moved]))


def _cycles(p: Permutation) -> list[list[int]]:
    """The cycles of p that move points, each from its smallest member and
    in the order of that member."""
    nxt = dict(zip(p.moved, p.moved_to))
    cycles = []
    for start in p.moved:
        b = nxt.pop(start, None)
        if b is None:
            continue
        cyc = [start]
        while b != start:
            cyc.append(b)
            b = nxt.pop(b)
        cycles.append(cyc)
    return cycles


def perm_order(p: Permutation) -> int:
    """Order of p: the lcm of its cycle lengths."""
    return lcm(*map(len, _cycles(p)))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-tolerant cycle notation like ``(1 2 5)(3 4)``.

    The empty string and ``()`` both denote the identity.  Points are
    plain ASCII decimal (else ``FormatError``); cycles must be disjoint
    (else ``OverlappingCycles``) and stay within 1..degree (else
    ``IndexOutOfRange``).
    """
    stripped = _CYCLE_RE.sub("", text).strip()
    if stripped:
        raise FormatError(f"unparseable cycle text near {stripped[:20]!r}")
    # one check of every point at once, so each cycle only converts
    digits = "".join(text.replace("(", " ").replace(")", " ").replace(",", " ").split())
    if digits and not (digits.isascii() and digits.isdecimal()):
        raise FormatError(f"cycle points are not plain decimal in {text[:40]!r}")
    to: dict[int, int] = {}
    for match in _CYCLE_RE.finditer(text):
        body = match.group(1).replace(",", " ").split()
        if not body:
            continue
        try:
            points = list(map(int, body))
        except ValueError:  # more digits than int() converts
            raise FormatError(f"bad cycle token in {match.group(0)[:40]!r}") from None
        for a, b in zip(points, points[1:] + points[:1]):
            if not 1 <= a <= degree:
                raise IndexOutOfRange(f"point {a} outside 1..{degree}")
            if a in to:
                raise OverlappingCycles(f"point {a} appears in two cycles")
            to[a] = b
    # disjoint cycles within 1..degree form a bijection; a one-point cycle
    # moves nothing
    moved = tuple(sorted([a for a, b in to.items() if a != b]))
    return Permutation._unchecked(degree, moved, tuple([to[a] for a in moved]))


def format_cycles(p: Permutation) -> str:
    """Cycle notation of p, fixed points omitted; identity prints ``()``.

    Cycles start at their smallest member and come in the order of that
    member; a point leaves ``at`` once written, so a later start finds it
    gone."""
    at = dict(zip(p.moved, p.moved_to))
    out: list[str] = []
    for start in p.moved:
        nxt = at.pop(start, 0)
        if nxt:
            out.append(f"({start}")
            while nxt != start:
                out.append(f" {nxt}")
                nxt = at.pop(nxt)
            out.append(")")
    return "".join(out) or "()"


def permute_string(x: str, p: Permutation) -> str:
    """The action x . p with (x . p)(i) = x(p(i))."""
    if len(x) != p.degree:
        raise DegreeMismatch(f"string length {len(x)} vs degree {p.degree}")
    chars = list(x)
    for i, v in zip(p.moved, p.moved_to):
        chars[i - 1] = x[v - 1]
    return "".join(chars)


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """Named generators of a permutation group, all of one degree.

    ``_chain`` is the group's stabilizer chain, built by the first
    ``membership`` query and kept for the set's lifetime; it takes no
    part in equality, hashing, ``repr`` or pickling."""

    degree: int
    names: tuple[str, ...]
    perms: tuple[Permutation, ...]
    _chain: StabilizerChain | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.names) != len(self.perms):
            raise ValueError("names and perms differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names are not unique")
        for p in self.perms:
            if p.degree != self.degree:
                raise DegreeMismatch(
                    f"generator degree {p.degree} differs from {self.degree}"
                )

    def __reduce__(self):
        return GeneratorSet, (self.degree, self.names, self.perms)

    @classmethod
    def from_pairs(cls, degree: int, pairs: Sequence[tuple[str, Permutation]]) -> "GeneratorSet":
        return cls(degree, tuple(n for n, _ in pairs), tuple(p for _, p in pairs))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[tuple[str, Permutation]]:
        return iter(zip(self.names, self.perms))

    def get(self, name: str) -> Permutation:
        try:
            return self.perms[self.names.index(name)]
        except ValueError:
            raise UnknownGenerator(f"no generator named {name!r}") from None


def _resolve(gens: GeneratorSet, word: Sequence[str]) -> Iterator[Permutation]:
    """The generators the word names, in order, looked up by name in one
    dict; ``UnknownGenerator`` when the iteration reaches a letter that
    names none."""
    by_name = dict(zip(gens.names, gens.perms))
    for letter in word:
        g = by_name.get(letter)
        if g is None:
            raise UnknownGenerator(f"no generator named {letter!r}")
        yield g


def apply_word(gens: GeneratorSet, word: Sequence[str]) -> Permutation:
    """Left-to-right product of the named generators (empty word = identity)."""
    out = identity(gens.degree)
    for g in _resolve(gens, word):
        out = compose(out, g)
    return out


def apply_word_to_string(gens: GeneratorSet, x: str, word: Sequence[str]) -> str:
    """x acted on by the word, one generator at a time; each letter
    rewrites only the characters on its generator's support."""
    chars = ["", *x]  # the pad lets 1-based points index the characters
    for g in _resolve(gens, word):
        if len(chars) - 1 != g.degree:
            raise DegreeMismatch(f"string length {len(chars) - 1} vs degree {g.degree}")
        values = list(map(chars.__getitem__, g.moved_to))
        for i, v in zip(g.moved, values):
            chars[i] = v
    return "".join(chars)


def parse_generator_file(text: str, degree: int) -> GeneratorSet:
    """One generator per line: ``name = (a b)(c d)``.  Blank lines and
    lines starting with '#' are ignored."""
    pairs = []
    names: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, cycles = line.partition("=")
        if not sep:
            raise FormatError(f"line {lineno}: missing '=' in generator line")
        name = name.strip()
        if name in names:
            raise FormatError(f"line {lineno}: generator {name!r} is defined twice")
        names.add(name)
        pairs.append((name, parse_cycles(cycles, degree)))
    return GeneratorSet.from_pairs(degree, pairs)


def format_generator_file(gens: GeneratorSet) -> str:
    return "\n".join(f"{name} = {format_cycles(p)}" for name, p in gens) + "\n"


def _zero_based(p: Permutation) -> tuple[int, ...]:
    img = list(range(p.degree))
    for i, v in zip(p.moved, p.moved_to):
        img[i - 1] = v - 1
    return tuple(img)


def _compose0(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p * q on 0-based image tuples."""
    return tuple(map(p.__getitem__, q))


def _invert0(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _support0(p: tuple[int, ...]) -> frozenset[int]:
    """The points that p moves."""
    return frozenset(compress(count(), map(ne, p, count())))


class _Level:
    """One level of a stabilizer chain, on 0-based image tuples.

    ``reps[c]`` maps the base point to c and ``rep_invs[c]`` is its
    inverse.  The orbit only grows, so a representative never changes.
    ``paired[k]`` counts the generators whose Schreier generator with
    ``orbit[k]`` has been sifted; generators are only appended, so those
    are always the first ``paired[k]`` of them.
    """

    __slots__ = ("base", "gens", "gen_invs", "supps", "orbit", "reps", "rep_invs", "rep_supps", "paired")

    def __init__(self, base: int, ident: tuple[int, ...]):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.gen_invs: list[tuple[int, ...]] = []
        self.supps: list[frozenset[int]] = []
        self.orbit = [base]
        self.reps = {base: ident}
        self.rep_invs = {base: ident}
        self.rep_supps = {base: frozenset()}
        self.paired = [0]


class StabilizerChain:
    """Deterministic stabilizer chain for membership tests.

    Incremental Schreier-Sims (Sims 1970; Knuth, "Efficient
    representation of perm groups", 1991) over a flat list of levels;
    level i fixes the base points of the levels above it.  Every
    Schreier generator is sifted at most once: a pair (orbit point,
    generator) that sifted through stays valid because generators are
    only ever added, and a pair whose Schreier generator is provably a
    generator of the next level is not sifted at all.  Closing runs from the deepest level upward and
    restarts at the level where a new strong generator stopped sifting.
    A level's base point is the smallest moved point of the element that
    opened it and the work order is fixed, so the same generators always
    yield the same chain.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self._identity = tuple(range(degree))
        self._levels: list[_Level] = []

    @classmethod
    def from_generators(cls, gens: GeneratorSet) -> "StabilizerChain":
        chain = cls(gens.degree)
        for p in gens.perms:
            chain.add_generator(p)
        return chain

    @property
    def base(self) -> tuple[int, ...]:
        """The base points, 1-based, outermost level first."""
        return tuple(level.base + 1 for level in self._levels)

    def add_generator(self, g: Permutation) -> None:
        if g.degree != self.degree:
            raise DegreeMismatch(f"degree {g.degree} vs chain degree {self.degree}")
        residue, depth = self._sift(_zero_based(g), 0)
        if residue != self._identity:
            self._insert(residue, 0, depth)
            self._close(depth)

    def _sift(self, p: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        """Sift p through the levels from ``start`` on.  Returns the
        residue and the level where it stopped (the number of levels if it
        passed them all); levels whose base point p fixes are skipped."""
        levels = self._levels
        for depth in range(start, len(levels)):
            level = levels[depth]
            c = p[level.base]
            if c != level.base:
                u_inv = level.rep_invs.get(c)
                if u_inv is None:
                    return p, depth
                p = _compose0(u_inv, p)
        return p, len(levels)

    def _insert(self, s: tuple[int, ...], first: int, last: int) -> None:
        """Add s as a strong generator of levels first..last, opening level
        ``last`` at s's smallest moved point if it does not exist yet.

        s fixes the base points of levels first..last-1 and moves that of
        level ``last``, so a generator of a level that fixes the level's
        base point is also a generator of the next level."""
        if last == len(self._levels):
            base = next(i for i, v in enumerate(s) if i != v)
            self._levels.append(_Level(base, self._identity))
        s_inv, s_supp = _invert0(s), _support0(s)
        for level in self._levels[first:last + 1]:
            level.gens.append(s)
            level.gen_invs.append(s_inv)
            level.supps.append(s_supp)

    def _close(self, depth: int) -> None:
        """Complete levels depth..0, given that every deeper level is
        complete."""
        while depth >= 0:
            stop = self._pair_up(depth)
            depth = depth - 1 if stop is None else stop

    def _pair_up(self, depth: int) -> int | None:
        """Grow the orbit of level ``depth`` and sift its unpaired Schreier
        generators.  Returns the level that gained a new strong generator,
        or None once every pair has sifted through."""
        level = self._levels[depth]
        ident = self._identity
        base, orbit, paired = level.base, level.orbit, level.paired
        reps, rep_invs, rep_supps = level.reps, level.rep_invs, level.rep_supps
        gens, gen_invs, supps = level.gens, level.gen_invs, level.supps
        k = 0
        while k < len(orbit):
            b = orbit[k]
            u = reps[b]
            while paired[k] < len(gens):
                i = paired[k]
                paired[k] = i + 1
                g = gens[i]
                if g[base] == base and supps[i].isdisjoint(rep_supps[b]):
                    # g fixes the base point and commutes with u_b, so the
                    # Schreier generator is g itself, which is a strong
                    # generator of the next level already (see _insert).
                    continue
                c = g[b]
                v_inv = rep_invs.get(c)
                if v_inv is None:
                    reps[c] = _compose0(g, u)
                    rep_supps[c] = _support0(reps[c])
                    rep_invs[c] = _compose0(rep_invs[b], gen_invs[i])
                    orbit.append(c)
                    paired.append(0)
                    continue
                schreier = tuple(map(v_inv.__getitem__, map(g.__getitem__, u)))
                if schreier == ident:
                    continue
                residue, stop = self._sift(schreier, depth + 1)
                if residue != ident:
                    self._insert(residue, depth + 1, stop)
                    return stop
            k += 1
        return None

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs chain degree {self.degree}")
        return self._sift(_zero_based(p), 0)[0] == self._identity

    def order(self) -> int:
        out = 1
        for level in self._levels:
            out *= len(level.orbit)
        return out


def membership(gens: GeneratorSet, p: Permutation) -> bool:
    """True iff p lies in the group generated by gens.  The first query
    on a set builds its chain; later ones only sift p through it."""
    if p.degree != gens.degree:
        raise DegreeMismatch(f"degree {p.degree} vs generators {gens.degree}")
    chain = gens._chain
    if chain is None:
        chain = StabilizerChain.from_generators(gens)
        _set(gens, "_chain", chain)
    return chain.contains(p)
