"""Ground-truth enumeration of small circulants up to graph isomorphism.

Independent of every counting formula: connection sets are enumerated
exhaustively, grouped into multiplier orbits (S -> m*S for units m, an
explicit isomorphism x -> m*x, so members of an orbit are always isomorphic),
and each orbit is represented by its least mask.  Nothing here assumes the
converse (that isomorphic circulants are multiplier related), so the oracle
is a genuine cross-check for the formulas.

covers(n, klass) is the oracle's range: every class to order 16, and class
u, surveyed over negation-closed sets only, to 27.  cayley_classes counts
d, u, o and t by Burnside, without a survey, at any order: a unit m acts on
the phi(d) elements of each order d | n as it acts on U(d), so its cycles
there, and whether negation fixes or pairs them, come from ord_d(m) and
numtheory's divisor-totient table of n.

A survey indexes the eligible sets by bits over atoms (elements, or pairs
{s, n-s} when undirected) so that ascending indices are ascending masks; an
orbit table records the orbit of every index, and two half-width lookup
tables per unit mark each orbit from its least index.  Orbits are bucketed
by their spectrum mod a prime P, over which the DFT diagonalises every
circulant: the key, the characteristic polynomial mod P at a generic point,
is an isomorphism invariant, so an orbit alone in its bucket is a class of
its own.  A shared bucket is split by a second invariant, the joint
spectrum of A and A o A^2 (the adjacency matrix and its entrywise product
with its square, see _joint_key).  Only orbits sharing both keys are
canonically labeled, one representative each, and orbits sharing a
certificate form one class: certificates decide every merge, and the
invariants only ever separate.

A survey keys and certifies only the orbits with at most half the atoms.
Complementation maps classes of valency k onto classes of valency n-1-k and
orbits onto orbits, so each class above the middle is the complement of one
below it, orbit by orbit; complementing any member of an orbit lands in the
complement orbit, so the link is one lookup in the orbit table.  A
tournament or self-complementary circulant has valency (n-1)/2, so at even
n the classes t, sd and su are empty and are answered without a survey.

The canonical labeler is a self-contained individualization-refinement
search over vertex partitions: refinement by out/in neighbour counts (see
_refine), branching on the smallest non-singleton cell, the lexicographically
least adjacency encoding over all leaves, and pruning by the automorphisms
known a priori or found at equal leaves (see _StabiliserNode).  Practical for
graphs up to a few dozen vertices.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from sys import byteorder
from typing import NamedTuple

from .errors import InexactDivisionError, UnsupportedOrderError
from .counting import VALENCY_CLASSES, CountResult
from .algebra import UniPoly
from .numtheory import divisor_totients

_DIRECTED_LIMIT = 16    # every class: all 2^(n-1) connection sets
_UNDIRECTED_LIMIT = 27  # class u: the 2^(n//2) unions of pairs {s, n-s}


class _ConnectionFields(NamedTuple):
    order: int
    members: frozenset[int]


class ConnectionSet(_ConnectionFields):
    """A circulant's defining set: S subset of {1, .., n-1}; arc u -> u+s.

    _make and _replace skip the range check, so nothing here constructs
    through them.
    """

    __slots__ = ()

    def __new__(cls, order: int, members: frozenset[int]):
        if order < 1:
            raise ValueError("order must be positive")
        for s in members:
            if not 0 < s < order:
                raise ValueError(f"connection set element {s} outside 1..{order - 1}")
        return super().__new__(cls, order, members)

    @classmethod
    def from_mask(cls, order: int, mask: int) -> "ConnectionSet":
        return cls(order, frozenset(_mask_to_set(mask)))

    @property
    def valency(self) -> int:
        return len(self.members)

    def complement(self) -> "ConnectionSet":
        """Complement within the loopless complete digraph."""
        return ConnectionSet(self.order,
                             frozenset(range(1, self.order)) - self.members)

    def is_undirected(self) -> bool:
        return all((self.order - s) % self.order in self.members for s in self.members)

    def is_oriented(self) -> bool:
        return all((self.order - s) % self.order not in self.members for s in self.members)

    def is_tournament(self) -> bool:
        return (self.order % 2 == 1 and self.is_oriented()
                and self.valency == (self.order - 1) // 2)


def _mask_to_set(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _units(n: int) -> list[int]:
    return [m for m in range(1, n) if gcd(m, n) == 1]


def _adjacency(n: int, members) -> list[int]:
    """Out-neighbour masks of the circulant: row v is the connection mask
    rotated by v."""
    mask = sum(1 << s for s in members)
    full = (1 << n) - 1
    return [((mask << v) | (mask >> (n - v))) & full for v in range(n)]


# The field F_P: every n <= 40 divides P - 1, so F_P holds an n-th root of
# unity and the DFT diagonalises every circulant of order n over it.
_P = 53429314570632001          # 10 * lcm(1..40) + 1, a prime
_G = 47                         # the least primitive root mod P
_R = 0x9E3779B97F4A7C15 % _P    # a generic point, not a small rational
_T = 0xC2B2AE3D27D4EB4F % _P    # a second one, the weight of A o A^2


def _root_of_unity(n: int) -> int:
    """omega of exact order n in F_P: g^((P-1)/n) for the primitive root g."""
    if (_P - 1) % n:
        raise ValueError(f"F_P holds no root of unity of order {n}")
    return pow(_G, (_P - 1) // n, _P)


def _halves(values: list[int], base: int = 0) -> tuple[list[int], list[int]]:
    """Sums of values over every subset of the low len(values)//2 bits and
    of the rest: base plus the sum over index x is lo[x & low] + hi[x >> half]."""
    tables = ([base], [0])
    for i, v in enumerate(values):
        sums = tables[i >= len(values) // 2]
        sums += [t + v for t in sums]
    return tables


def _spectrum_keys(n: int, atoms: list[set[int]], indices):
    """Pi_j (r - lambda_j) mod P for the set S at each index: lambda_j = sum
    over S of omega^(js), j = 1..n-1, are its eigenvalues mod P but |S|, so
    this is its characteristic polynomial at r over r - |S|; a unit permutes
    the j.  Each atom holds its -lambda_j mod P in 64-bit lanes of one
    integer; with r added, an index's lane sums stay below 40 P < 2^64.
    """
    omega = _root_of_unity(n)
    powers = [pow(omega, k, _P) for k in range(n)]
    lanes = range(n - 1)
    lo, hi = _halves([sum(-sum(powers[(j + 1) * s % n] for s in atom) % _P << 64 * j
                          for j in lanes) for atom in atoms],
                     sum(_R << 64 * j for j in lanes))
    half, low = len(atoms) // 2, (1 << len(atoms) // 2) - 1
    for x in indices:
        packed = lo[x & low] + hi[x >> half]
        yield prod(memoryview(packed.to_bytes(8 * len(lanes), byteorder)).cast("Q")) % _P


def _joint_key(n: int):
    """The function taking the mask of S to det(r I - (A + t A o A^2)) mod P,
    A the circulant of S.

    A o A^2, the entrywise product, is the circulant weighting each s in S
    by the pairs (a, b) in S^2 with a + b = s, so A + t A o A^2 has the
    eigenvalues sum over S of (1 + t w_s) omega^(js), j = 0..n-1.  A
    relabeling conjugates A, A^2 and their entrywise product alike, so the
    key is an isomorphism invariant.  A o A^2 alone vanishes for every
    sum-free S; joined with A it separates orbits that share A's spectrum.

    w_s is digit s of the mask's square with 8-bit digits, folded mod
    z^n - 1 (each digit counts at most |S| < 256 pairs).  Element s holds its
    -omega^(js) mod P in 128-bit lanes of one integer; 1 + t w_s < 40 P, so
    with r added a lane's sum stays below 40 * 40 P^2 + P < 2^128.
    """
    omega = _root_of_unity(n)
    lanes = [sum(-pow(omega, j * s, _P) % _P << 128 * j for j in range(n))
             for s in range(n)]
    base = sum(_R << 128 * j for j in range(n))
    low = (1 << 8 * n) - 1

    def key(mask: int) -> int:
        members = _mask_to_set(mask)
        pairs = sum(1 << 8 * s for s in members) ** 2
        pairs = (pairs & low) + (pairs >> 8 * n)
        packed = base + sum((1 + _T * (pairs >> 8 * s & 255)) * lanes[s]
                            for s in members)
        raw = packed.to_bytes(16 * n, "little")
        return prod(int.from_bytes(raw[i:i + 16], "little")
                    for i in range(0, 16 * n, 16)) % _P

    return key


def _grouped(ids: list[int], key) -> list[list[int]]:
    """ids grouped by key(i), each group in the order of ids; a lone id is
    a group of its own without a call to key."""
    if len(ids) == 1:
        return [ids]
    groups: dict = {}
    for i in ids:
        groups.setdefault(key(i), []).append(i)
    return list(groups.values())


def _refine(n: int, out_adj, in_adj, cells, fresh):
    """Coarsest stable refinement of an ordered partition.

    Cell order stays isomorphism-invariant: sub-cells replace their parent in
    the order of their (sorted) neighbour-count signatures.

    A pass counts out- and in-neighbours only against the cells indexed by
    fresh, in cell order.  The caller passes (0,) for the one-cell root, and
    the index of [v] after individualizing v out of a stable partition: the
    count against the rest of v's old cell is the count against that cell,
    which every cell agrees on, minus the count against [v].  A pass that
    splits a cell makes every fragment but the last fresh for the next pass;
    the last one's count is the parent cell's uniform count minus the
    others'.  So every dropped coordinate is constant within a cell or fixed
    by coordinates earlier in cell order, and the fresh ones alone give the
    same buckets in the same sorted order as counting against every cell.
    A pass with no split leaves fresh empty and ends the loop.  Signatures
    pack the counts into one integer, width bits each, in that order.
    """
    width = n.bit_length()
    while fresh:
        masks = [sum(1 << v for v in cells[i]) for i in fresh]
        fresh = []
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                out_row, in_row = out_adj[v], in_adj[v]
                sig = 0
                for m in masks:
                    sig = ((sig << width | (out_row & m).bit_count()) << width
                           | (in_row & m).bit_count())
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
                continue
            fresh.extend(range(len(new_cells), len(new_cells) + len(buckets) - 1))
            new_cells.extend(buckets[sig] for sig in sorted(buckets))
        cells = new_cells
    return cells


def digraph_certificate(out_adj: list[int], known_automorphisms=()) -> int:
    """Canonical form of a digraph on vertices 0..n-1 as a single integer.

    Equal certificates imply isomorphism by construction (the encoding is the
    adjacency matrix of a relabeling); within the search's reach the converse
    holds too because every choice made is isomorphism-invariant.
    known_automorphisms (vertex permutations as tuples) seed the pruning.
    """
    n = len(out_adj)
    in_adj = [0] * n
    for v in range(n):
        row = out_adj[v]
        while row:
            low = row & -row
            in_adj[low.bit_length() - 1] |= 1 << v
            row ^= low

    best_enc: list[int | None] = [None]
    best_lab: list[list[int] | None] = [None]
    path: list[_StabiliserNode] = []    # open nodes, root first

    def encode(cells):
        lab = [0] * n
        for pos, cell in enumerate(cells):
            lab[cell[0]] = pos
        enc = 0
        for u in range(n):
            row = out_adj[u]
            base = lab[u] * n
            while row:
                low = row & -row
                enc |= 1 << (base + lab[low.bit_length() - 1])
                row ^= low
        return enc, lab

    def search(cells, fixed, stab):
        target = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
                target = i
        if target is None:
            enc, lab = encode(cells)
            if best_enc[0] is None or enc < best_enc[0]:
                best_enc[0] = enc
                best_lab[0] = lab
            elif enc == best_enc[0]:
                # two labelings with one encoding compose to an automorphism;
                # the open node at depth d gets it iff it fixes fixed[:d]
                inverse = [0] * n
                for v in range(n):
                    inverse[best_lab[0][v]] = v
                g = tuple(inverse[lab[v]] for v in range(n))
                for depth, node in enumerate(path):
                    if depth and g[fixed[depth - 1]] != fixed[depth - 1]:
                        break
                    node.add(g)
            return
        cell = cells[target]
        node = _StabiliserNode(n, cell, stab)
        path.append(node)
        explored: list[int] = []
        for v in sorted(cell):
            if explored and node.in_orbit_of(v, explored):
                continue
            rest = [w for w in cell if w != v]
            sub = cells[:target] + [[v], rest] + cells[target + 1:]
            search(_refine(n, out_adj, in_adj, sub, (target,)), fixed + (v,),
                   [g for g in node.stab if g[v] == v])
            explored.append(v)
        path.pop()

    search(_refine(n, out_adj, in_adj, [list(range(n))], (0,)), (),
           [tuple(g) for g in known_automorphisms])
    return best_enc[0]


class _StabiliserNode:
    """An open search node: the known automorphisms that fix its
    individualized prefix pointwise, and their orbits on its target cell.

    Such automorphisms map the refined partition onto itself, so the orbits
    of the group they generate never leave the cell; a union-find over the
    cell's points holds them and grows with the stabiliser.
    """

    __slots__ = ("cell", "stab", "root")

    def __init__(self, n: int, cell: list[int], stab: list[tuple[int, ...]]):
        self.cell = cell
        self.stab: list[tuple[int, ...]] = []
        self.root = list(range(n))
        for g in stab:
            self.add(g)

    def find(self, v: int) -> int:
        root = self.root
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    def add(self, g: tuple[int, ...]) -> None:
        self.stab.append(g)
        for u in self.cell:
            w = g[u]
            if w != u:
                a, b = self.find(u), self.find(w)
                if a != b:
                    self.root[max(a, b)] = min(a, b)

    def in_orbit_of(self, v: int, explored: list[int]) -> bool:
        """Does v share an orbit with an explored sibling?  Such a branch
        repeats a subtree already searched."""
        r = self.find(v)
        return any(self.find(u) == r for u in explored)


def canonical_form(cs: ConnectionSet) -> bytes:
    """Certificate of a circulant; equal bytes <=> isomorphic digraphs.

    The rotation v -> v+1 and every multiplier fixing the set are passed to
    the search as known automorphisms (they are isomorphisms by definition,
    independent of any theory about which circulants are multiplier related).
    """
    n = cs.order
    out_adj = _adjacency(n, cs.members)
    autos = [tuple((v + 1) % n for v in range(n))]
    for m in _units(n):
        if m != 1 and {m * s % n for s in cs.members} == cs.members:
            autos.append(tuple(m * v % n for v in range(n)))
    enc = digraph_certificate(out_adj, autos)
    return bytes([n]) + enc.to_bytes((n * n + 7) // 8, "big")


# ---------------------------------------------------------------------------
# Exhaustive survey of one order
# ---------------------------------------------------------------------------

class _ClassInfo(NamedTuple):
    """One class of a survey."""
    valency: int
    orbit_count: int   # multiplier orbits merged into this class
    undirected: bool
    oriented: bool
    tournament: bool
    self_complementary: bool


class _Survey:
    """All isomorphism classes of one order, with per-class predicates."""

    def __init__(self, n: int, undirected_only: bool = False):
        # bit i of an index is atoms[i]: element i + 1, or the pair {s, n-s}
        # for s = n//2 - i, so ascending indices are ascending masks.  orbit[x]
        # is the orbit of index x, -1 until marked, and a sentinel -1 ends the
        # scan.  The first unmarked index is its orbit's least mask, and
        # marking its images under the unit group (two half tables per unit)
        # marks the orbit.
        atoms = ([{s, n - s} for s in range(n // 2, 0, -1)] if undirected_only
                 else [{s} for s in range(1, n)])
        bit_of = {s: i for i, atom in enumerate(atoms) for s in atom}
        units = [_halves([1 << bit_of[m * min(atom) % n] for atom in atoms])
                 for m in _units(n) or [1]]
        half, low = len(atoms) // 2, (1 << len(atoms) // 2) - 1
        full = (1 << len(atoms)) - 1
        from array import array   # only surveys need it; it slows every cold start
        orbit = array("i", [-1]) * (full + 2)
        reps, x = [], 0
        while x <= full:
            for lo, hi in units:
                orbit[lo[x & low] + hi[x >> half]] = len(reps)
            reps.append(x)
            x = orbit.index(-1, x + 1)
        mask_lo, mask_hi = _halves([sum(1 << s for s in atom) for atom in atoms])
        orbit_reps = self.orbit_reps = [mask_lo[x & low] + mask_hi[x >> half]
                                        for x in reps]
        # only the lower orbits, with at most half the atoms, are keyed: those
        # with distinct spectra mod P are not isomorphic; a shared spectrum is
        # split by the joint key of A and A o A^2, and only orbits that share
        # both keys are told apart or merged by certificates
        lower = [i for i, x in enumerate(reps) if 2 * x.bit_count() <= len(atoms)]
        spectrum = dict(zip(lower, _spectrum_keys(n, atoms, (reps[i] for i in lower))))
        joint_key = _joint_key(n)
        groups = [ids for shared in _grouped(lower, spectrum.__getitem__)
                  for split in _grouped(shared, lambda i: joint_key(orbit_reps[i]))
                  for ids in _grouped(split, lambda i: canonical_form(
                      ConnectionSet.from_mask(n, orbit_reps[i])))]
        # complementation is a bijection on classes that maps orbits to
        # orbits, so each class above the middle is, orbit by orbit, the
        # complement of one below it (a middle class's is at the middle);
        # complementing any member of an orbit lands in the complement orbit
        groups += [sorted(orbit[full ^ reps[i]] for i in ids) for ids in groups
                   if 2 * reps[ids[0]].bit_count() < len(atoms)]
        groups.sort()
        class_of_orbit = self.class_of_orbit = [0] * len(reps)
        for c, ids in enumerate(groups):
            for i in ids:
                class_of_orbit[i] = c
        neg_lo, neg_hi = units[-1]      # the unit n - 1 negates
        self.classes: list[_ClassInfo] = []
        for c, ids in enumerate(groups):
            x = reps[ids[0]]
            neg = neg_lo[x & low] + neg_hi[x >> half]
            valency = orbit_reps[ids[0]].bit_count()
            # a complement has valency n - 1 - valency, so only a class at
            # the middle valency, whose orbits are all lower, can be its own
            middle = 2 * valency == n - 1
            self.classes.append(_ClassInfo(
                valency, len(ids), neg == x, not neg & x, not neg & x and middle,
                middle and class_of_orbit[orbit[full ^ x]] == c))

    def select(self, klass: str):
        pred = _CLASS_PREDICATES[klass]
        return [c for c in self.classes if pred(c)]


_CLASS_PREDICATES = {
    "d": lambda c: True,
    "u": lambda c: c.undirected,
    "o": lambda c: c.oriented,
    "t": lambda c: c.tournament,
    "sd": lambda c: c.self_complementary,
    "su": lambda c: c.self_complementary and c.undirected,
}


@lru_cache(maxsize=None)
def _survey(n: int, undirected_only: bool) -> _Survey:
    return _Survey(n, undirected_only)


def covers(n: int, klass: str) -> bool:
    """Does the oracle answer at order n for the class?"""
    limit = _UNDIRECTED_LIMIT if klass == "u" else _DIRECTED_LIMIT
    return klass in _CLASS_PREDICATES and 1 <= n <= limit


def _chosen(n: int, klass: str) -> list[_ClassInfo]:
    """The classes of order n in klass; an unknown class or an order out of
    range raises UnsupportedOrderError.  A tournament or self-complementary
    circulant has valency (n - 1)/2, so at even n those classes are empty
    without a survey."""
    if klass not in _CLASS_PREDICATES:
        raise UnsupportedOrderError(f"unknown class {klass!r}")
    if not covers(n, klass):
        raise UnsupportedOrderError(f"order {n} out of oracle range for class {klass!r}")
    if n % 2 == 0 and klass in ("t", "sd", "su"):
        return []
    return _survey(n, n > _DIRECTED_LIMIT).select(klass)


def enumerate_circulants(n: int, klass: str) -> CountResult:
    """Count isomorphism classes of order-n circulants in the given class.

    Valency series included for d, u, o (valency is a class invariant: all
    connection sets of one class share their size).
    """
    chosen = _chosen(n, klass)
    if klass in VALENCY_CLASSES:
        top = max((c.valency for c in chosen), default=0)
        coeffs = [0] * (top + 1)
        for c in chosen:
            coeffs[c.valency] += 1
        return CountResult(n, klass, len(chosen), UniPoly(coeffs), provenance="oracle")
    return CountResult(n, klass, len(chosen), provenance="oracle")


def cayley_classes(n: int, klass: str) -> int:
    """Orbits of class-eligible connection sets under S -> m*S, m a unit.

    d, u, o, t are counted by Burnside over the unit group (no isomorphism
    testing, so any order is cheap) from the cycle type of each multiplier,
    read off the divisors of n (see _cycle_type), and the Burnside sum must
    divide exactly by |U(n)|; sd and su need certificates and stay within
    the oracle's range.
    """
    if klass not in ("d", "u", "o", "t"):
        return sum(c.orbit_count for c in _chosen(n, klass))
    if n < 1:
        raise UnsupportedOrderError(f"order must be positive, got {n}")
    levels = divisor_totients(n)[1:]
    units = _units(n) or [1]  # the unit group mod 1 is trivial
    total = 0
    for m in units:
        pairs, self_negating = _cycle_type(levels, m)
        if klass == "d":
            total += 1 << (2 * pairs + self_negating)
        elif klass == "u":
            # m and negation together must fix the set: a union of the
            # negation-closed cycles and of the pairs {C, -C}
            total += 1 << (pairs + self_negating)
        elif klass == "o":
            total += 3 ** pairs
        else:  # t: one of each negation pair; at even n, n/2 negates itself
            total += 0 if self_negating else 2 ** pairs
    count, rem = divmod(total, len(units))
    if rem:
        raise InexactDivisionError(
            f"Burnside sum at order {n} leaves {rem} mod |U(n)| = {len(units)}")
    return count


def _cycle_type(levels: list[tuple[int, int]], m: int) -> tuple[int, int]:
    """(number of cycle pairs {C, -C} with C != -C, number of cycles with
    C = -C) of s -> m*s on Z_n minus 0; levels holds (d, phi(d)) for the
    divisors d > 1 of n.

    The elements of order d are (n/d)*U(d), on which m acts as m mod d acts
    on U(d): in phi(d)/l cycles of length l = ord_d(m).  Negation commutes
    with m, so a cycle x<m> is its own negative exactly when -1 is a power
    of m mod d, for every cycle of the level at once; at d = 2 it always is.
    """
    pairs = self_negating = 0
    for d, phi in levels:
        x = m % d
        length, negated = 1, x == d - 1
        while x != 1:
            x = x * m % d
            length += 1
            negated |= x == d - 1
        if negated:
            self_negating += phi // length
        else:
            pairs += phi // length // 2
    return pairs, self_negating


def non_ci_count(n: int, klass: str) -> tuple[int, int]:
    """(classes merging >= 2 multiplier orbits, orbits inside such classes)."""
    multi = [c for c in _chosen(n, klass) if c.orbit_count >= 2]
    return len(multi), sum(c.orbit_count for c in multi)


def classify_self_complementary(n: int) -> tuple[int, int, int]:
    """Partition of the self-complementary directed classes of odd order n
    into (undirected, tournament, mixed)."""
    if n % 2 == 0:
        raise UnsupportedOrderError("self-complementary classification needs odd order")
    undirected = tournament = mixed = 0
    for c in _chosen(n, "sd"):
        if c.undirected:
            undirected += 1
        elif c.tournament:
            tournament += 1
        else:
            mixed += 1
    return undirected, tournament, mixed
