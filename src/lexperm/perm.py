"""Permutation algebra on the points {1..N} with cycle-notation I/O.

Conventions fixed here and inherited by every other module:

* composition: (p * q)(i) = p(q(i));
* action on strings: (x . p)(i) = x(p(i)), so acting by p * q equals
  acting by p first and then by q, and appending a generator g to a word
  maps the current product w to w * g.

Membership in a finitely generated subgroup is decided with a
deterministic stabilizer chain (natural base order, fixed processing
order), so repeated runs build identical structures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from random import Random
from typing import Iterator, Sequence

from .errors import (
    DegreeMismatch,
    IndexOutOfRange,
    OrbitCapExceeded,
    OverlappingCycles,
    UnknownGenerator,
)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {1..N}; ``image[i-1]`` is where point i is sent."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"image is not a permutation of 1..{n}")

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.image):
            raise IndexOutOfRange(f"point {point} outside 1..{len(self.image)}")
        return self.image[point - 1]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def __str__(self) -> str:
        return format_cycles(self)


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(1, degree + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product p * q under the convention (p * q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees {p.degree} and {q.degree} differ")
    pi = p.image
    return Permutation(tuple(pi[v - 1] for v in q.image))


def inverse(p: Permutation) -> Permutation:
    img = [0] * p.degree
    for i, v in enumerate(p.image, start=1):
        img[v - 1] = i
    return Permutation(tuple(img))


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
    return Permutation(tuple(img))


def format_cycles(p: Permutation) -> str:
    """Cycle notation of p, fixed points omitted; identity prints ``()``."""
    parts = [
        "(" + " ".join(map(str, cyc)) + ")"
        for cyc in cycle_decomposition(p)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


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
    """x acted on by the word, one generator at a time."""
    for letter in word:
        x = permute_string(x, gens.get(letter))
    return x


def parse_generator_file(text: str, degree: int) -> GeneratorSet:
    """One generator per line: ``name = (a b)(c d)``.  Blank lines and
    lines starting with '#' are ignored."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, cycles = line.partition("=")
        if not sep:
            raise OverlappingCycles(f"line {lineno}: missing '=' in generator line")
        pairs.append((name.strip(), parse_cycles(cycles, degree)))
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


class StabilizerChain:
    """Deterministic stabilizer chain for membership tests.

    Base points are chosen as the smallest moved point at each level and
    Schreier generators are processed in orbit-discovery order, so the
    same generators always yield the same chain.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.base_point: int | None = None
        self.level_gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self._next: StabilizerChain | None = None

    @classmethod
    def from_generators(cls, gens: GeneratorSet) -> "StabilizerChain":
        chain = cls(gens.degree)
        for p in gens.perms:
            chain.add_generator(p)
        return chain

    def add_generator(self, g: Permutation) -> None:
        if g.degree != self.degree:
            raise DegreeMismatch(f"degree {g.degree} vs chain degree {self.degree}")
        if g.is_identity():
            return
        if self.base_point is None:
            self.base_point = next(
                i for i in range(1, self.degree + 1) if g(i) != i
            )
            self.transversal = {self.base_point: identity(self.degree)}
            self._next = StabilizerChain(self.degree)
        self.level_gens.append(g)
        self._close()

    def _close(self) -> None:
        base = self.base_point
        assert base is not None and self._next is not None
        orbit = [base]
        trans = {base: identity(self.degree)}
        i = 0
        while i < len(orbit):
            b = orbit[i]
            i += 1
            for g in self.level_gens:
                c = g(b)
                if c not in trans:
                    trans[c] = compose(g, trans[b])
                    orbit.append(c)
        self.transversal = trans
        for b in orbit:
            ub = trans[b]
            for g in self.level_gens:
                schreier = compose(inverse(trans[g(b)]), compose(g, ub))
                if schreier.is_identity():
                    continue
                residue = self._next.sift(schreier)
                if not residue.is_identity():
                    self._next.add_generator(residue)

    def sift(self, p: Permutation) -> Permutation:
        """Sift p through the chain; the residue is the identity iff p is
        a member (the chain is kept complete at all times)."""
        level: StabilizerChain | None = self
        while level is not None and level.base_point is not None:
            u = level.transversal.get(p(level.base_point))
            if u is None:
                return p
            p = compose(inverse(u), p)
            level = level._next
        return p

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs chain degree {self.degree}")
        return self.sift(p).is_identity()

    def order(self) -> int:
        out = 1
        level: StabilizerChain | None = self
        while level is not None and level.base_point is not None:
            out *= len(level.transversal)
            level = level._next
        return out


def membership(gens: GeneratorSet, p: Permutation) -> bool:
    """True iff p lies in the group generated by gens."""
    if p.degree != gens.degree:
        raise DegreeMismatch(f"degree {p.degree} vs generators {gens.degree}")
    return StabilizerChain.from_generators(gens).contains(p)
