"""Independent oracles that the law suite compares the library against.

Each function decides a concept a second way, apart from the code it
checks: the quantale laws over every triple, the radical by iterating
powers, the Boolean center, ideal lifting and localness on the lattice side,
lifting anchor by anchor, and normality by a plain loop.  Only the law suite
and the tests import this module; no library module does, so an oracle never
shares a fault with what it checks.
"""

from quantales.lattices import Verdict


def axiom_failure(q):
    'First (law, (x, y, z)) over every triple where associativity or distributivity fails, or None.'
    mul, join = q.mul_table.tolist(), q.join_table.tolist()
    n = len(mul)
    for x in range(n):
        for y in range(n):
            xy = mul[x][y]
            for z in range(n):
                if mul[xy][z] != mul[x][mul[y][z]]:
                    return 'associativity', (x, y, z)
                if mul[x][join[y][z]] != join[xy][mul[x][z]]:
                    return 'distributivity', (x, y, z)
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


def has_id_blp(lat):
    'Whether complemented elements lift along every ideal quotient; witness (generator, stranded).'
    center = lattice_boolean_center(lat)
    n = len(lat)
    # the ideal below g is the kernel of x |-> x v g onto [g, 1], whose
    # bottom is g, so y there is complemented when y v z = 1 and y ^ z = g
    for g in range(n):
        lifted = {lat.join(e, g) for e in center}
        for y in range(n):
            if not lat.leq(g, y) or y in lifted:
                continue
            if any(lat.leq(g, z) and lat.join(y, z) == lat.top and lat.meet(y, z) == g
                   for z in range(n)):
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
    n = len(q)
    center = [e for e in range(n)
              if any(q.join(e, f) == q.top and q.mul(e, f) == q.bottom for f in range(n))]
    for a in range(n):
        lifted = {q.join(c, a) for c in center}
        up = [x for x in range(n) if q.leq(a, x)]
        # in [a) the product is x*y v a and the bottom is a
        for x in up:
            if x not in lifted and any(
                    q.join(x, y) == q.top and q.leq(q.mul(x, y), a) for y in up):
                return Verdict(False, (q.label(a), q.label(x)))
    return Verdict(True)


def normal_witness(q, pool):
    'First coprime pair with no separating pair in the pool, or None.'
    n = len(q)
    top, bottom = q.top, q.bottom
    for a in range(n):
        for b in range(n):
            if q.join(a, b) != top:
                continue
            if not any(q.join(a, e) == top and q.join(b, f) == top
                       and q.mul(e, f) == bottom
                       for e in pool for f in pool):
                return a, b
    return None
