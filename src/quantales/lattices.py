'Finite posets, bounded lattices and their morphisms.'

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np


class LatticeError(Exception):
    'Base for order-structure validation failures.'


class NotAPoset(LatticeError):
    'The relation is not reflexive, antisymmetric, and transitive.'


class NotALattice(LatticeError):
    'Some pair of elements lacks a least upper bound or a greatest lower bound.'


class NotAnIdeal(LatticeError):
    'A set of elements is not the down-set of its join, or an ideal generator is out of range.'


@dataclass(frozen=True)
class Verdict:
    'Boolean decision; a negative one carries a witness for diagnosis.'

    holds: bool
    witness: object = None

    def __bool__(self):
        return self.holds


# Whole-table kernels.  Each check builds its failure mask in the scan order
# of the loop it stands for (row-major over the loop's indices, restricted to
# the loop's triangle), so the first True entry is the first witness that loop
# would have met.  Blocks keep every n x n x n temporary within 2**13 entries:
# at 8 bytes an entry that is 64 KiB, below the 128 KiB from which malloc
# maps fresh pages.  Larger temporaries get fresh pages or reused ones
# depending on incidental heap layout, so the same call costs more in some
# processes than in others.

_BLOCK = 1 << 13


def blocks(n, width):
    """Row-major blocks of the n x n index grid, as (rows, cols) slice pairs.

    A block has at most 2**13 // width cells (one at the least), so a
    temporary holding width entries per cell stays within 2**13 entries.
    """
    cells = max(1, _BLOCK // max(width, 1))
    if cells >= n:
        step = cells // max(n, 1)
        for start in range(0, n, step):
            yield slice(start, start + step), slice(0, n)
    else:
        for i in range(n):
            for start in range(0, n, cells):
                yield slice(i, i + 1), slice(start, start + cells)


def stack_blocks(k, n, width):
    """Blocks of a stack of k n x n grids, as (tables, rows, cols) slice triples.

    Whole grids go together while a temporary holding width entries per cell
    of all of them stays within 2**13 entries; a larger grid goes alone, in
    the row-major blocks of blocks(n, width)."""
    per_table = n * n * max(width, 1)
    if per_table <= _BLOCK:
        step = _BLOCK // per_table
        for start in range(0, k, step):
            yield slice(start, start + step), slice(0, n), slice(0, n)
    else:
        for t in range(k):
            for rows, cols in blocks(n, width):
                yield slice(t, t + 1), rows, cols


def first_true(mask):
    'Index tuple of the first True entry of mask in row-major order, or None.'
    if mask.size:
        k = mask.argmax()
        if mask.flat[k]:
            return tuple(int(i) for i in np.unravel_index(k, mask.shape))
    return None


def first_law_failure(masks):
    'First (x, y) where some mask holds, with the index of the first mask holding there.'
    union = masks[0]
    for mask in masks[1:]:
        union = union | mask
    hit = first_true(union)
    if hit is None:
        return None
    return hit + (next(k for k, mask in enumerate(masks) if mask[hit]),)


def unpreserved(mapping, tables):
    'Per (source, target) table pair, where mapping[source[x, y]] != target[mapping[x], mapping[y]].'
    f = np.asarray(mapping, dtype=np.intp)
    return [f[source] != target[f[:, None], f] for source, target in tables]


def first_in_blocks(n, failures):
    """First (x, y, z) in row-major order where failures(rows, cols) holds, or None.

    failures returns the mask for x in rows and y in cols, of shape
    (rows, cols, n); the blocks of the n x n grid are scanned in order.
    """
    for rows, cols in blocks(n, n):
        hit = first_true(failures(rows, cols))
        if hit is not None:
            return hit[0] + rows.start, hit[1] + cols.start, hit[2]
    return None


def distributivity_failure(times, join):
    'First (x, y, z) with z >= y where times[x, y v z] != times[x, y] v times[x, z], or None.'
    ar = np.arange(len(join))

    def failures(rows, cols):
        t = times[rows]
        unequal = t[:, join[cols]] != join[t[:, cols, None], t[:, None, :]]
        return unequal & (ar[cols, None] <= ar)

    return first_in_blocks(len(join), failures)


def _pack(rows):
    """The rows of a bool matrix as bitsets, 64 to a little-endian uint64: bit k
    of word w of a row is its column 64 * w + k, and the bits past the last
    column are clear."""
    n, m = rows.shape
    out = np.zeros((n, -(-m // 64) * 8), dtype=np.uint8)
    out[:, :-(-m // 8)] = np.packbits(rows, axis=1, bitorder='little')
    return out.view('<u8')


def _pack_pair(up, down):
    """Two n x n bool matrices packed row by row (see _pack) and stacked, as
    [matrix, word, row]: [0] from up, [1] from down.  Words outermost, so that
    a reduction over the words adds whole slabs."""
    n = len(up)
    return _pack(np.concatenate((up, down))).reshape(2, n, -(-n // 64)).transpose(0, 2, 1).copy()


def _joins_and_meets(leq):
    """Join and meet tables of a partial order, stacked, with the masks of the
    pairs that have no join or no meet; an entry under the mask is arbitrary.

    x < y forces |down(x)| < |down(y)|, so sorting by down-set size gives a
    linear extension, and a least common upper bound, if there is one, is the
    first common upper bound in it.  The up-sets are packed in that order and
    the down-sets in its reverse, not in index order as a poset packs them,
    so each pair reads its candidate off the first set bit of two ANDed rows.
    The candidate is the bound exactly when its own up-set (down-set) holds
    all the common bounds, that is when the two counts agree (after Ait-Kaci,
    Boyer, Lincoln and Nasr, Efficient implementation of lattice operations,
    TOPLAS 11(1), 1989)."""
    n = len(leq)
    up, down = leq.sum(axis=1), leq.sum(axis=0)
    order = np.argsort(down, kind='stable')
    reverse = order[::-1]
    # position p is order[p] on the join side and reverse[p] on the meet side,
    # found at p and n + p of the flat arrays
    element = np.concatenate((order, reverse))
    size = np.concatenate((up[order], down[reverse]))
    # [side, word, x]: bits 64 * word onwards of x's row
    bits = _pack_pair(leq[:, order], leq.T[:, reverse])
    words = bits.shape[1]
    # w ^ (w - 1) sets the bits up to the first set bit of w, so a word's first
    # set bit stands at flat position start + that count.  A pair without
    # common bounds may read any position: it counts 0 common bounds, and
    # every element has a nonempty up-set and down-set
    start = np.arange(-1, 64 * words - 1, 64).reshape(1, words, 1, 1) + np.array(
        [0, n]).reshape(2, 1, 1, 1)
    tables = np.empty((2, n, n), dtype=np.intp)
    missing = np.empty((2, n, n), dtype=bool)
    for r, c in blocks(n, 2 * words):
        common = bits[:, :, r, None] & bits[:, :, None, c]
        upto = np.bitwise_count(common ^ (common - np.uint64(1)))
        first = np.where(common != 0, upto + start, 2 * n - 1).min(axis=1)
        tables[:, r, c] = element[first]
        missing[:, r, c] = np.bitwise_count(common).sum(axis=1) != size[first]
    return tables, missing


def _covers_and_gap(words, leq=None):
    """The cover matrix ([x, y]: y covers x) of an order packed as its up-sets
    and down-sets (see FinitePoset._order_words), and, when leq is given, the
    first (x, y) in row-major order with some z between them, x <= z <= y,
    although x <= y fails, or None; the cover matrix is None when there is
    such a pair.

    Some z lies between x and y exactly when up(x) AND down(y) is not empty,
    and in an order y covers x exactly when that set is {x, y}: the strict
    up-set of x and the strict down-set of y are disjoint."""
    up, down = words
    n = up.shape[1]
    cover = np.empty((n, n), dtype=bool)
    for rows, cols in blocks(n, len(up)):
        between = np.add.reduce(np.bitwise_count(up[:, rows, None] & down[:, None, cols]))
        if leq is not None:
            hit = first_true((between != 0) & ~leq[rows, cols])
            if hit is not None:
                return None, (hit[0] + rows.start, hit[1] + cols.start)
        cover[rows, cols] = between == 2
    return cover, None


class FinitePoset:
    'Finite partial order over an indexed tuple of unique labels.'

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise NotAPoset('element labels are not unique')
        n = len(self.elements)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise NotAPoset('relation shape %r does not match %d elements' % (leq.shape, n))
        diagonal = leq.diagonal()
        if not diagonal.all():
            raise NotAPoset('not reflexive at %r' % (self.elements[int(diagonal.argmin())],))
        self._admit(leq, _pack_pair(leq, leq.T))

    def _admit(self, leq, words, passed=None):
        """Keep leq, a reflexive relation on self.elements packed as words (see
        _order_words), once it is antisymmetric and transitive; the first pair
        that fails either is named, in that order.  passed is the (cover, gap)
        of the transitivity pass when the caller has run it already."""
        ar = np.arange(len(leq))
        hit = first_true(leq & leq.T & (ar[:, None] < ar))
        if hit is not None:
            i, j = hit
            raise NotAPoset(
                'not antisymmetric: %r and %r' % (self.elements[i], self.elements[j]))
        cover, gap = passed or _covers_and_gap(words, leq)
        if gap is not None:
            i, j = gap
            raise NotAPoset(
                'not transitive: missing %r <= %r' % (self.elements[i], self.elements[j]))
        for table in (leq, words, cover):
            table.setflags(write=False)
        self.leq = leq
        # the transitivity check has packed the order and found its covers
        self._order_words, self._cover_matrix = words, cover

    @classmethod
    def _generated_by(cls, elements, rel):
        """The order a reflexive relation of the caller's own generates on
        unique labels, checked as the constructor checks it.  A relation that
        is already transitive is its own closure: the transitivity pass runs
        first, and such a relation is packed and passed once and never
        closed.  Any other stops at the pass's first gap and is closed then.
        The pass is skipped when no element is below every element, as in the
        covers an emitted document lists: such a relation is not the order of
        a bounded lattice, so it is closed first, which changes nothing when
        it was transitive after all."""
        poset = cls.__new__(cls)
        poset.elements = elements
        passed = None
        if rel.all(axis=1).any():
            words = _pack_pair(rel, rel.T)
            passed = _covers_and_gap(words, rel)
        if passed is None or passed[1] is not None:
            for k in range(len(rel)):
                rel |= np.outer(rel[:, k], rel[k])
            words, passed = _pack_pair(rel, rel.T), None
        poset._admit(rel, words, passed)
        return poset

    @classmethod
    def _from_order(cls, elements, leq, cover=None):
        """The poset on a relation already known to be a partial order: the
        restriction of one to a subset, or the product of several.  Both stay
        reflexive, antisymmetric and transitive, so only the labels are checked.
        leq is a bool array of the caller's own, which is frozen here, and so
        is cover, its cover matrix when the caller knows it: on a convex
        subset such as an interval, the parent's cover matrix restricted."""
        poset = cls.__new__(cls)
        poset.elements = tuple(elements)
        if len(set(poset.elements)) != len(poset.elements):
            raise NotAPoset('element labels are not unique')
        leq.setflags(write=False)
        poset.leq = leq
        if cover is not None:
            cover.setflags(write=False)
            poset._cover_matrix = cover
        return poset

    def __len__(self):
        return len(self.elements)

    @cached_property
    def index(self):
        return {label: i for i, label in enumerate(self.elements)}

    @cached_property
    def _order_words(self):
        """The order as bitsets in index order (see _pack_pair), read-only:
        [0, :, x] holds the z >= x and [1, :, y] the z <= y.  Packed once per
        poset, by the checked constructor or on first use."""
        out = _pack_pair(self.leq, self.leq.T)
        out.setflags(write=False)
        return out

    @cached_property
    def _cover_matrix(self):
        '[i, j]: j covers i, that is i < j with nothing strictly between.'
        out = _covers_and_gap(self._order_words)[0]
        out.setflags(write=False)
        return out

    @cached_property
    def covers(self):
        'Hasse diagram edges as pairs (lower, upper) of indices.'
        lower, upper = self._cover_matrix.nonzero()
        return tuple(zip(lower.tolist(), upper.tolist()))

    @cached_property
    def join_irreducibles(self):
        """Indices with exactly one lower cover, ascending.  In a finite lattice these
        are the join-irreducibles, and every element is the join of those below it."""
        out = (self._cover_matrix.sum(axis=0) == 1).nonzero()[0]
        out.setflags(write=False)
        return out


class FiniteLattice:
    'Finite bounded lattice with precomputed join and meet tables.'

    def __init__(self, poset):
        self.poset = poset
        n = len(poset)
        leq = poset.leq
        (join, meet), (no_join, no_meet) = _joins_and_meets(leq)
        hit = first_law_failure((no_join, no_meet))
        if hit is not None:
            i, j, law = hit
            raise NotALattice('no %s for %r and %r' % (
                ('join', 'meet')[law], poset.elements[i], poset.elements[j]))
        join.setflags(write=False)
        meet.setflags(write=False)
        self.join_table = join
        self.meet_table = meet
        bottoms = leq.all(axis=1).nonzero()[0]
        tops = leq.all(axis=0).nonzero()[0]
        # pairwise joins and meets force unique global bounds on a nonempty carrier
        if len(bottoms) != 1 or len(tops) != 1:
            raise LatticeError('no unique bottom and top among %d elements' % (n,))
        self.bottom = int(bottoms[0])
        self.top = int(tops[0])

    @property
    def elements(self):
        return self.poset.elements

    # each element read is one ndarray.item on a table, which gives a plain
    # int or bool; nothing derived from a table is kept on the object, since a
    # copy.copy that swaps a table would go on reading the stale copy

    def __len__(self):
        return len(self.poset.elements)

    def label(self, i):
        return self.poset.elements[i]

    def leq(self, i, j):
        return self.poset.leq.item(i, j)

    def join(self, i, j):
        return self.join_table.item(i, j)

    def meet(self, i, j):
        return self.meet_table.item(i, j)

    def join_all(self, items):
        'Join of an iterable of indices, folded in order; empty join is bottom.'
        join, out = self.join_table.item, self.bottom
        for i in items:
            out = join(out, i)
        return out

    def meet_all(self, items):
        'Meet of an iterable of indices, folded in order; empty meet is top.'
        meet, out = self.meet_table.item, self.top
        for i in items:
            out = meet(out, i)
        return out

    def down_set(self, i):
        return frozenset(int(k) for k in np.nonzero(self.poset.leq[:, i])[0])

    def up_set(self, i):
        return frozenset(int(k) for k in np.nonzero(self.poset.leq[i])[0])


def build_lattice(elements, leq_pairs):
    'Lattice from order pairs on labels; the relation is closed reflexively and transitively.'
    elements = tuple(elements)
    index = {label: i for i, label in enumerate(elements)}
    if len(index) != len(elements):
        raise NotAPoset('element labels are not unique')
    rel = np.eye(len(elements), dtype=bool)
    lower, upper = _pair_positions(list(leq_pairs), index)
    rel[lower, upper] = True
    return FiniteLattice(FinitePoset._generated_by(elements, rel))


def _pair_positions(pairs, index):
    """The positions of the lower and of the upper labels of the pairs, read
    in one pass when every pair is two declared labels.  Otherwise the pairs
    are read one at a time, so that the first pair that is not raises what
    unpacking or looking it up raises, or NotAPoset for an undeclared label."""
    try:
        if set(map(len, pairs)) <= {2}:
            at = np.fromiter(map(index.get, chain.from_iterable(pairs), repeat(-1)), np.intp)
            if (at >= 0).all():
                return at.reshape(-1, 2).T
    except TypeError:
        # a pair without a length, or a label that cannot be hashed
        pass
    at = []
    for a, b in pairs:
        if a not in index or b not in index:
            raise NotAPoset('order pair (%r, %r) uses undeclared elements' % (a, b))
        at.append((index[a], index[b]))
    return np.array(at, dtype=np.intp).reshape(-1, 2).T


def irreducibles_join_prime(lat):
    'Whether every join-irreducible j is join-prime: j <= x v y forces j <= x or j <= y.'
    # [:, x]: the j <= x, as a bitset over the join-irreducibles, words outermost
    above = _pack(lat.poset.leq.T[:, lat.poset.join_irreducibles]).T.copy()
    join = lat.join_table
    for rows, cols in blocks(len(lat), len(above)):
        # j <= x or j <= y already gives j <= x v y, so only the converse can fail
        if (above[:, join[rows, cols]] != (above[:, rows, None] | above[:, None, cols])).any():
            return False
    return True


def prime_mask(poset, op):
    """[p]: op(x, y) <= p forces x <= p or y <= p, for a table op on the
    elements of poset.  The OR over every pair (x, y) of up(op(x, y)) AND NOT
    up(x) AND NOT up(y) has a bit set at each p that fails, in n**2 *
    ceil(n / 64) words."""
    up = poset._order_words[0]
    outside = ~up
    broken = np.zeros(len(up), dtype=up.dtype)
    for rows, cols in blocks(len(poset), len(up)):
        bad = up[:, op[rows, cols]] & outside[:, rows, None] & outside[:, None, cols]
        broken |= np.bitwise_or.reduce(bad, axis=(1, 2))
    return np.unpackbits(broken.view(np.uint8), count=len(poset), bitorder='little') == 0


def is_distributive(lat):
    'Distributive law over all triples; the witness is the first failing (x, y, z).'
    # a finite lattice is distributive iff its join-irreducibles are join-prime,
    # an n*n*|J| check; only a lattice that fails it is scanned for the witness.
    # Both sides are symmetric in y and z, so the first failure of the full
    # scan lies in the triangle z >= y that distributivity_failure searches
    hit = None if irreducibles_join_prime(lat) else distributivity_failure(
        lat.meet_table, lat.join_table)
    if hit is not None:
        return Verdict(False, tuple(lat.label(i) for i in hit))
    return Verdict(True)


# kept only because perfbench/tracing.py patches its __init__; nothing in src/ builds one
class LatticeMorphism:
    'Map between bounded lattices preserving join, meet, bottom, and top.'

    def __init__(self, source, target, mapping):
        mapping = tuple(map(int, mapping))
        if len(mapping) != len(source):
            raise LatticeError('mapping length does not match source carrier')
        hit = first_law_failure(unpreserved(mapping, (
            (source.join_table, target.join_table), (source.meet_table, target.meet_table))))
        if hit is not None:
            x, y, law = hit
            raise LatticeError('%s not preserved at %r, %r' % (
                ('join', 'meet')[law], source.label(x), source.label(y)))
        if mapping[source.bottom] != target.bottom or mapping[source.top] != target.top:
            raise LatticeError('bounds not preserved')
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, i):
        return self.mapping[i]

    @cached_property
    def image(self):
        return frozenset(self.mapping)

    def is_surjective(self):
        return len(self.image) == len(self.target)

    def is_injective(self):
        return len(set(self.mapping)) == len(self.source)
