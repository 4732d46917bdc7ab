"""Permutation algebra on the points {1..N} with cycle-notation I/O.

Conventions fixed here and inherited by every other module:

* composition: (p * q)(i) = p(q(i));
* action on strings: (x . p)(i) = x(p(i)), so acting by p * q equals
  acting by p first and then by q, and appending a generator g to a word
  maps the current product w to w * g.

Membership in a finitely generated subgroup is decided with a
deterministic incremental Schreier-Sims stabilizer chain (fixed base
choice and processing order), so repeated runs build identical
structures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress, count
from math import gcd
from operator import ne
from random import Random
from typing import Iterator, Sequence

from .errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    OrbitCapExceeded,
    OverlappingCycles,
    UnknownGenerator,
)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {1..N}; ``image[i-1]`` is where point i is sent.

    Equality and hashing depend on ``image`` alone; ``moved`` is computed
    at most once per object."""

    image: tuple[int, ...]
    _moved: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"image is not a permutation of 1..{n}")

    @classmethod
    def _unchecked(
        cls, image: tuple[int, ...], moved: tuple[int, ...] | None = None
    ) -> "Permutation":
        """Wrap an image known to be a permutation without validating it;
        only for products and inverses of permutations and for images a
        builder or parser has already checked.  ``moved``, when given, must
        be the ascending tuple of points the image moves."""
        p = object.__new__(cls)
        object.__setattr__(p, "image", image)
        object.__setattr__(p, "_moved", moved)
        return p

    @property
    def degree(self) -> int:
        return len(self.image)

    @property
    def moved(self) -> tuple[int, ...]:
        """The points p moves (its support), in ascending order."""
        moved = self._moved
        if moved is None:
            moved = tuple(compress(count(1), map(ne, self.image, count(1))))
            object.__setattr__(self, "_moved", moved)
        return moved

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.image):
            raise IndexOutOfRange(f"point {point} outside 1..{len(self.image)}")
        return self.image[point - 1]

    def is_identity(self) -> bool:
        return not self.moved

    def __str__(self) -> str:
        return format_cycles(self)


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(1, degree + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product p * q under the convention (p * q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees {p.degree} and {q.degree} differ")
    # the leading pad lets the 1-based points of q index p's image directly
    return Permutation._unchecked(tuple(map(((0,) + p.image).__getitem__, q.image)))


def inverse(p: Permutation) -> Permutation:
    img = [0] * p.degree
    for i, v in enumerate(p.image, start=1):
        img[v - 1] = i
    # p and its inverse move the same points
    return Permutation._unchecked(tuple(img), p._moved)


def power(p: Permutation, k: int) -> Permutation:
    """p composed with itself k times (k may be negative)."""
    if k < 0:
        return power(inverse(p), -k)
    result = identity(p.degree)
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def perm_order(p: Permutation) -> int:
    """Order of p: the lcm of its cycle lengths."""
    out = 1
    for cyc in cycle_decomposition(p):
        out = out * len(cyc) // gcd(out, len(cyc))
    return out


def cycle_decomposition(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """All cycles of p, fixed points included.

    Each cycle starts at its smallest member and cycles are sorted by
    that member, so the output is canonical.
    """
    image = p.image
    seen = [False] * len(image)
    cycles = []
    for start, nxt in enumerate(image, start=1):
        if seen[start - 1]:
            continue
        seen[start - 1] = True
        cyc = [start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = image[nxt - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-tolerant cycle notation like ``(1 2 5)(3 4)``.

    The empty string and ``()`` both denote the identity.  Cycles must be
    disjoint and stay within 1..degree.
    """
    stripped = _CYCLE_RE.sub("", text).strip()
    if stripped:
        raise OverlappingCycles(f"unparseable cycle text near {stripped[:20]!r}")
    img = list(range(1, degree + 1))
    used: set[int] = set()
    for match in _CYCLE_RE.finditer(text):
        body = match.group(1).replace(",", " ").split()
        if not body:
            continue
        try:
            points = [int(tok) for tok in body]
        except ValueError as exc:
            raise OverlappingCycles(f"bad cycle token in {match.group(0)!r}") from exc
        for pt in points:
            if not 1 <= pt <= degree:
                raise IndexOutOfRange(f"point {pt} outside 1..{degree}")
            if pt in used:
                raise OverlappingCycles(f"point {pt} appears in two cycles")
            used.add(pt)
        for a, b in zip(points, points[1:] + points[:1]):
            img[a - 1] = b
    # disjoint cycles within 1..degree: img is a bijection that moves only
    # points the cycles name
    moved = tuple(sorted(pt for pt in used if img[pt - 1] != pt))
    return Permutation._unchecked(tuple(img), moved)


def format_cycles(p: Permutation) -> str:
    """Cycle notation of p, fixed points omitted; identity prints ``()``.

    Cycles start at their smallest member and come in the order of that
    member, as in cycle_decomposition, but only moved points are walked."""
    image = p.image
    seen: set[int] = set()
    out: list[str] = []
    for start in p.moved:
        if start in seen:
            continue
        out.append(f"({start}")
        nxt = image[start - 1]
        while nxt != start:
            out.append(f" {nxt}")
            seen.add(nxt)
            nxt = image[nxt - 1]
        out.append(")")
    return "".join(out) or "()"


def permute_string(x: str, p: Permutation) -> str:
    """The action x . p with (x . p)(i) = x(p(i))."""
    if len(x) != p.degree:
        raise DegreeMismatch(f"string length {len(x)} vs degree {p.degree}")
    return "".join(x[v - 1] for v in p.image)


def random_permutation(rng: Random, degree: int) -> Permutation:
    img = list(range(1, degree + 1))
    rng.shuffle(img)
    return Permutation(tuple(img))


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """Named generators of a permutation group, all of one degree."""

    degree: int
    names: tuple[str, ...]
    perms: tuple[Permutation, ...]

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


def apply_word(gens: GeneratorSet, word: Sequence[str]) -> Permutation:
    """Left-to-right product of the named generators (empty word = identity)."""
    out = identity(gens.degree)
    for letter in word:
        out = compose(out, gens.get(letter))
    return out


def apply_word_to_string(gens: GeneratorSet, x: str, word: Sequence[str]) -> str:
    """x acted on by the word, one generator at a time; each letter
    rewrites only the characters on its generator's support."""
    chars = list(x)
    for letter in word:
        g = gens.get(letter)
        if len(chars) != g.degree:
            raise DegreeMismatch(f"string length {len(chars)} vs degree {g.degree}")
        values = [chars[g.image[i - 1] - 1] for i in g.moved]
        for i, v in zip(g.moved, values):
            chars[i - 1] = v
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
            raise OverlappingCycles(f"line {lineno}: missing '=' in generator line")
        name = name.strip()
        if name in names:
            raise FormatError(f"line {lineno}: generator {name!r} is defined twice")
        names.add(name)
        pairs.append((name, parse_cycles(cycles, degree)))
    return GeneratorSet.from_pairs(degree, pairs)


def format_generator_file(gens: GeneratorSet) -> str:
    return "\n".join(f"{name} = {format_cycles(p)}" for name, p in gens) + "\n"


def enumerate_group(gens: GeneratorSet, cap: int = 10**6) -> set[Permutation]:
    """Brute-force closure of the generated group (test oracle)."""
    elements = {identity(gens.degree)}
    frontier = [identity(gens.degree)]
    while frontier:
        nxt = []
        for p in frontier:
            for _, g in gens:
                q = compose(p, g)
                if q not in elements:
                    if len(elements) >= cap:
                        raise OrbitCapExceeded(f"group closure exceeds cap {cap}")
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    return elements


def orbit_of_string(gens: GeneratorSet, x: str, cap: int = 10**6) -> set[str]:
    """BFS closure of x under the generators acting on strings."""
    if len(x) != gens.degree:
        raise DegreeMismatch(f"string length {len(x)} vs degree {gens.degree}")
    orbit = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for s in frontier:
            for _, g in gens:
                t = permute_string(s, g)
                if t not in orbit:
                    if len(orbit) >= cap:
                        raise OrbitCapExceeded(f"orbit exceeds cap {cap}")
                    orbit.add(t)
                    nxt.append(t)
        frontier = nxt
    return orbit


def _zero_based(p: Permutation) -> tuple[int, ...]:
    return tuple([v - 1 for v in p.image])


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

    @property
    def orbit_lengths(self) -> tuple[int, ...]:
        return tuple(len(level.orbit) for level in self._levels)

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
    """True iff p lies in the group generated by gens."""
    if p.degree != gens.degree:
        raise DegreeMismatch(f"degree {p.degree} vs generators {gens.degree}")
    return StabilizerChain.from_generators(gens).contains(p)
