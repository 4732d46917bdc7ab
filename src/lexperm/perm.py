"""Permutation algebra on the points {1..N} with cycle-notation I/O.

Conventions fixed here and inherited by every other module:

* composition: (p * q)(i) = p(q(i));
* action on strings: (x . p)(i) = x(p(i)), so acting by p * q equals
  acting by p first and then by q, and appending a generator g to a word
  maps the current product w to w * g.

Membership in a finitely generated subgroup is decided by the test a
generator set keeps.  A set whose builder knows its group gets a
structural test from that builder: the reduction's ``Layout.generators``
gives its sets one that needs no chain.  Every other set builds a
deterministic incremental Schreier-Sims stabilizer chain (fixed base
choice and processing order, so repeated runs build identical
structures) on its first membership query and keeps it; every later
membership or raw-permutation check only sifts through it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne
from typing import Iterable, Iterator, Protocol, Sequence

from .bitlex import read_decimals
from .errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    LexpermError,
    OverlappingCycles,
    UnknownGenerator,
)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Permutation:
    """A bijection on {1..N}, stored by its support: ``moved`` lists the
    points it moves in ascending order and ``moved_to[k]`` is where
    ``moved[k]`` goes, so a permutation costs its support, not its degree.

    ``image`` is the dense view, ``image[i-1]`` being where point i is
    sent; it is built on each read, except that when every point moves it
    is ``moved_to`` itself.  ``Permutation(image)`` validates a dense
    image.  Equality, hashing and ``repr`` mean "the same map on 1..N".

    ``_kept_cycles`` holds the cycles that move points once ``_cycles``
    has read them (or a builder that laid them out has handed them to
    ``_unchecked``), and is kept for the permutation's lifetime, like
    ``GeneratorSet._membership``.  It takes no part in equality,
    hashing, ``repr`` or pickling, so an equal permutation built
    elsewhere or unpickled decomposes afresh."""

    degree: int
    moved: tuple[int, ...]
    moved_to: tuple[int, ...]
    _kept_cycles: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False, repr=False)

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"image is not a permutation of 1..{n}")
        moved = tuple([i for i, v in enumerate(image, start=1) if i != v])
        _set(self, "degree", n)
        _set(self, "moved", moved)
        _set(self, "moved_to", image if len(moved) == n else tuple([image[i - 1] for i in moved]))
        _set(self, "_kept_cycles", None)

    @classmethod
    def _unchecked(
        cls,
        degree: int,
        moved: tuple[int, ...],
        moved_to: tuple[int, ...],
        cycles: tuple[tuple[int, ...], ...] | None = None,
    ) -> "Permutation":
        """Wrap a support without validating it; only for supports derived
        from permutations and ones a builder or parser has already
        checked.  ``moved`` must ascend, and ``moved_to`` must be a
        rearrangement of it that leaves no point where it is.  A builder
        that lays the cycles out may hand them over as ``cycles``, in the
        form ``_cycles`` returns; they are kept unchecked too.

        Supports are built as lists and then made tuples, so that each
        tuple is allocated once at its final size: ``tuple()`` of an
        iterator of unknown length grows the tuple in steps, and across
        the generators of an instance that fragmented the allocator
        (peak RSS about 0.6 MB higher in the reduce-walk benchmark)."""
        p = object.__new__(cls)
        _set(p, "degree", degree)
        _set(p, "moved", moved)
        _set(p, "moved_to", moved_to)
        _set(p, "_kept_cycles", cycles)
        return p

    def __reduce__(self):
        return Permutation._unchecked, (self.degree, self.moved, self.moved_to)

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


def power_from_cycles(p: Permutation, k: int) -> Permutation:
    """p^k from the cycles of p that move points (its kept ones, read
    once): every cycle turns k places in one image list.  p^k moves what
    p moves unless some cycle's length divides k."""
    img = list(range(p.degree + 1))  # 1-based, entry 0 a pad
    every = True
    for cyc in _cycles(p):
        shift = k % len(cyc)
        if shift:
            for a, b in zip(cyc, cyc[shift:] + cyc[:shift]):
                img[a] = b
        else:
            every = False
    moved = p.moved if every else tuple([i for i in p.moved if img[i] != i])
    return Permutation._unchecked(p.degree, moved, tuple(map(img.__getitem__, moved)))


def _cycles(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """The cycles of p that move points, each from its smallest member and
    in the order of that member.

    The first call walks the support and keeps the result on p; every
    later call returns that same tuple of tuples, which no caller can
    change.  Each cycle is a list made a tuple at its final size (see
    ``Permutation._unchecked``)."""
    cycles = p._kept_cycles
    if cycles is None:
        nxt = dict(zip(p.moved, p.moved_to))
        found = []
        for start in p.moved:
            b = nxt.pop(start, None)
            if b is None:
                continue
            cyc = [start]
            while b != start:
                cyc.append(b)
                b = nxt.pop(b)
            found.append(tuple(cyc))
        cycles = tuple(found)
        _set(p, "_kept_cycles", cycles)
    return cycles


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-tolerant cycle notation like ``(1 2 5)(3 4)``.

    The empty string and ``()`` both denote the identity.  Points are
    plain ASCII decimal (else ``FormatError``); cycles must be disjoint
    (else ``OverlappingCycles``) and stay within 1..degree (else
    ``IndexOutOfRange``).

    Every point is read before any is placed, so a malformed point is
    reported before a range or overlap fault in an earlier cycle.  The
    successor map is built from all points at once; only when it shows an
    overlap or an out-of-range point are the points checked one by one,
    in the order of the text, to report the first fault.
    """
    # the text outside the cycles at even indices, the cycle bodies at odd
    parts = _CYCLE_RE.split(text)
    stripped = "".join(parts[::2]).strip()
    if stripped:
        raise FormatError(f"unparseable cycle text near {stripped[:20]!r}")
    cycles = [body.replace(",", " ").split() for body in parts[1::2]]
    points = read_decimals([token for cycle in cycles for token in cycle])
    if points is None:
        raise FormatError(f"cycle points are not plain decimal in {text[:40]!r}")
    # each point is followed by the next in its cycle, the last by the first
    after = points[1:]
    after.append(0)
    end = 0
    for cycle in cycles:
        if cycle:
            end += len(cycle)
            after[end - 1] = points[end - len(cycle)]
    to = dict(zip(points, after))
    if len(to) < len(points) or (points and (min(points) < 1 or max(points) > degree)):
        # name the first point at fault, in the order of the text
        placed: set[int] = set()
        for a in points:
            if not 1 <= a <= degree:
                raise IndexOutOfRange(f"point {a} outside 1..{degree}")
            if a in placed:
                raise OverlappingCycles(f"point {a} appears in two cycles")
            placed.add(a)
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


class MembershipTest(Protocol):
    """What a generator set keeps to decide membership in its group."""

    def contains(self, p: Permutation) -> bool: ...


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """Named generators of a permutation group, all of one degree.

    ``_membership`` decides ``membership`` for the set and is kept for
    its lifetime: the group's stabilizer chain, built by the first query,
    unless the set's builder put a test that knows the group's structure
    there (``Layout.generators`` does).  It takes no part in equality,
    hashing, ``repr`` or pickling, so an equal set built elsewhere or
    unpickled builds a chain."""

    degree: int
    names: tuple[str, ...]
    perms: tuple[Permutation, ...]
    _membership: MembershipTest | None = field(default=None, init=False, compare=False, repr=False)

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


def _replay(by_name: dict[str, Permutation], values: list, word: Sequence[str]) -> list:
    """A list indexed by 1-based points (entry 0 a pad) acted on by the
    word in place, one generator at a time, each letter rewriting only
    its generator's support; ``by_name`` is a generator set as a dict,
    ``dict(gens)``.  ``UnknownGenerator`` at the first letter that names
    none, ``DegreeMismatch`` at the first whose generator's degree is not
    the list's."""
    for letter in word:
        g = by_name.get(letter)
        if g is None:
            raise UnknownGenerator(f"no generator named {letter!r}")
        if len(values) - 1 != g.degree:
            raise DegreeMismatch(f"string length {len(values) - 1} vs degree {g.degree}")
        permute_in_place(values, g.moved, g.moved_to)
    return values


def apply_word(gens: GeneratorSet, word: Sequence[str]) -> Permutation:
    """Left-to-right product of the named generators (empty word =
    identity): the word replayed on the identity's image list."""
    img = _replay(dict(gens), list(range(gens.degree + 1)), word)
    moved = tuple([i for i, v in enumerate(img) if i != v])
    return Permutation._unchecked(gens.degree, moved, tuple([img[i] for i in moved]))


def apply_word_to_string(gens: GeneratorSet, x: str, word: Sequence[str]) -> str:
    """x acted on by the word: the word replayed on its characters."""
    return "".join(_replay(dict(gens), ["", *x], word))


def permute_in_place(values: list, moved: Sequence[int], moved_to: Sequence[int]) -> None:
    """Act on a list indexed by 1-based points (entry 0 a pad) by the
    permutation with that support: values[i] becomes values[p(i)], which
    multiplies an image list on the right by p."""
    taken = list(map(values.__getitem__, moved_to))
    for i, v in zip(moved, taken):
        values[i] = v


def parse_generator_lines(lines: Iterable[tuple[int, str]], degree: int) -> GeneratorSet:
    """Generators from ``(line number, text)`` pairs, one ``name = (a b)(c
    d)`` per text; every fault, the cycle faults included, keeps its error
    class and names the line number it was given."""
    pairs = []
    names: set[str] = set()
    for lineno, line in lines:
        name, sep, cycles = line.partition("=")
        if not sep:
            raise FormatError(f"line {lineno}: missing '=' in generator line")
        name = name.strip()
        if name.split() != [name]:
            raise FormatError(f"line {lineno}: generator name {name!r} is empty or holds whitespace")
        if name in names:
            raise FormatError(f"line {lineno}: generator {name!r} is defined twice")
        names.add(name)
        try:
            pairs.append((name, parse_cycles(cycles, degree)))
        except LexpermError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return GeneratorSet.from_pairs(degree, pairs)


def generator_lines(gens: GeneratorSet) -> list[str]:
    """One ``name = (cycles)`` line per generator, in order."""
    return [f"{name} = {format_cycles(p)}" for name, p in gens]


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
    """True iff p lies in the group generated by gens, decided by the
    set's own test when its builder gave it one.  Otherwise the first
    query on a set builds its chain and later ones only sift p through
    it."""
    if p.degree != gens.degree:
        raise DegreeMismatch(f"degree {p.degree} vs generators {gens.degree}")
    test = gens._membership
    if test is None:
        test = StabilizerChain.from_generators(gens)
        _set(gens, "_membership", test)
    return test.contains(p)
