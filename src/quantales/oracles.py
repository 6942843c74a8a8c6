"""Independent oracles that the law suite compares the library against.

Each function decides a concept a second way, apart from the code it
checks: the quantale laws over every triple, the radical by iterating
powers, the Boolean center, ideal lifting and localness on the lattice side,
lifting anchor by anchor, and normality by a bitset scan.  Only the law suite
and the tests import this module; no library module does, so an oracle never
shares a fault with what it checks.

The axiom oracle compares both laws on every full triple with numpy, in row
blocks of its own, with no irreducibles and no package helper, associativity
first at the first failing triple in row-major order, as its loop did.  The
other oracles stay plain Python over the stored tables, read once as lists.
Ideal lifting and per-anchor lifting take each existential only over the
precomputed list of the y with x v y = 1.  Normality keeps one Python int
per element as a set of pool elements: for each a it ORs the sets
{f : e*f = 0} over the pool elements e with a v e = 1, then tests every b
with a v b = 1 against {f : b v f = 1}.  That factors the existential over
(e, f) as is_normal's matrix product does, so this oracle is less
independent of is_normal than the pair loop it replaced.  The plain loops
these scans replaced live on in tests/reference_loops.py, and the tests
hold each scan to its loop's verdict and first witness.
"""

import numpy as np

from quantales.lattices import Verdict

# the axiom oracle's row blocks hold at most this many triples, one row at least
_CELLS = 1 << 16


def axiom_failure(q):
    'First (law, (x, y, z)) over every triple where associativity or distributivity fails, or None.'
    mul, join, n = q.mul_table, q.join_table, len(q.mul_table)
    step = max(1, _CELLS // (n * n))
    for start in range(0, n, step):
        rows = mul[start:start + step]
        # [x, y, z]: (x*y)*z against x*(y*z), and x*(y v z) against x*y v x*z
        unassociative = mul[rows] != rows[:, mul]
        undistributive = rows[:, join] != join[rows[:, :, None], rows[:, None, :]]
        failed = unassociative | undistributive
        k = int(failed.argmax())
        if failed.flat[k]:
            x, y, z = np.unravel_index(k, failed.shape)
            law = 'associativity' if unassociative.flat[k] else 'distributivity'
            return law, (start + int(x), int(y), int(z))
    return None


def radical_by_powers(q, a):
    'Join of all c with a stable power below a.'
    return q.join_all(c for c in range(len(q)) if q.leq(q.stable_power(c), a))


def complement_of(lat, x):
    'Index of the lattice complement of x, or None.'
    for y in range(len(lat)):
        if lat.join(x, y) == lat.top and lat.meet(x, y) == lat.bottom:
            return y
    return None


def lattice_boolean_center(lat):
    'Indices of the complemented elements, ascending.'
    return tuple(x for x in range(len(lat)) if complement_of(lat, x) is not None)


def _coprime_lists(join, top):
    'Per x, the y with x v y = 1, ascending.'
    return [[y for y, xy in enumerate(row) if xy == top] for row in join]


def _complemented(coprime, times, bottom):
    'The e with e v f = 1 and e times f = 0 for some f, ascending.'
    return [e for e, row in enumerate(coprime) if any(times[e][f] == bottom for f in row)]


def has_id_blp(lat):
    'Whether complemented elements lift along every ideal quotient; witness (generator, stranded).'
    join, meet = lat.join_table.tolist(), lat.meet_table.tolist()
    leq = lat.poset.leq.tolist()
    coprime = _coprime_lists(join, lat.top)
    center = _complemented(coprime, meet, lat.bottom)
    # the ideal below g is the kernel of x |-> x v g onto [g, 1], whose
    # bottom is g, so y there is complemented when y v z = 1 and y ^ z = g;
    # such a z lies above g already
    for g, above in enumerate(leq):
        lifted = {join[e][g] for e in center}
        for y, row in enumerate(coprime):
            if not above[y] or y in lifted:
                continue
            if any(meet[y][z] == g for z in row):
                return Verdict(False, (lat.label(g), lat.label(y)))
    return Verdict(True)


def lattice_is_id_local(lat):
    'Exactly one maximal ideal: one element below top with nothing strictly between.'
    n = len(lat)
    maximal = [m for m in range(n) if m != lat.top
               and all(x in (m, lat.top) for x in range(n) if lat.leq(m, x))]
    return len(maximal) == 1


def has_lp_per_anchor(q):
    'Whether each [a) lifts its complemented elements from the center; witness (anchor, stranded).'
    join, mul = q.join_table.tolist(), q.mul_table.tolist()
    leq = q.poset.leq.tolist()
    coprime = _coprime_lists(join, q.top)
    center = _complemented(coprime, mul, q.bottom)
    for a, above in enumerate(leq):
        lifted = {join[c][a] for c in center}
        # in [a) the product is x*y v a and the bottom is a
        for x, row in enumerate(coprime):
            if above[x] and x not in lifted and any(
                    above[y] and leq[mul[x][y]][a] for y in row):
                return Verdict(False, (q.label(a), q.label(x)))
    return Verdict(True)


def normal_witness(q, pool):
    'First coprime pair with no separating pair in the pool, or None.'
    join, mul = q.join_table.tolist(), q.mul_table.tolist()
    top, bottom = q.top, q.bottom
    pool = sorted({int(f) for f in pool})
    # bit f of covers[x] is set when the pool element f has x v f = 1,
    # and bit f of kills[e] when it has e*f = 0
    covers = [sum(1 << f for f in pool if row[f] == top) for row in join]
    kills = {e: sum(1 << f for f in pool if mul[e][f] == bottom) for e in pool}
    for a, row in enumerate(join):
        # the f that some e in the pool with a v e = 1 annihilates
        separated = 0
        for e in pool:
            if row[e] == top:
                separated |= kills[e]
        for b, ab in enumerate(row):
            if ab == top and not separated & covers[b]:
                return a, b
    return None
