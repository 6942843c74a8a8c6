"""Reference loops for the whole-table kernels.

These are the scalar loops the library used before its checks and its
derived structures (intervals, products, decompositions, radical frames,
maps on reticulation classes) and the lifting property (one interval per
anchor) became numpy kernels over whole tables, and
the lattice-side ideal layer (ideals as member sets, prime and maximal
ideals, quotients by an ideal, the star maps) that ideal generators read
through the meet-quantale replaced, and the unstar of one reticulation
element that folded its join alone before one table folded every
element's, and the enumeration that removed duplicate isomorphism classes by n! canonical forms before the
isomorphism search did, and the walk over every labelling of each bounded
order with that search after it, before the orderly walk built only the
first labelling of each class, and the generate-and-test enumeration (every
cartesian candidate table, every relation mask) that the backtracking fill
and the walk over bounded orders replaced, and the triple loop that found
the covers of the spectrum for the dot export before FinitePoset.covers did,
and the least-bounds search over n**3 booleans that built the join and meet
tables before the bit-packed up-sets did, and a join-prime check by list
reads that holds the packed one to is_distributive's verdict at sizes where
that triple loop is too slow, and the chain and set-family frames as the
generators built them from label pairs and product loops before they read the order matrix and its meet table,
and the lattice from label pairs that looked each pair up in turn and
always closed the relation before build_lattice read the pairs in one pass
and closed only a relation that is not yet transitive,
and the instance reader that checked, looked up and stored each product
triple in turn before it read the multiplication into arrays, and the test
of property (*) that joined every small element with every central one per
element before one read of the join table did, and the element reads that
went through int(table[i, j]) behind one or two delegating calls, with the
residuum and kernel scans over them, before each read became one
ndarray.item, and the emitter that built the document as lists for
json.dumps before it wrote the text from each label's encoding, and the
center-laws check that tested distributivity over each central e at every
pair (a, b) before one mask per e did, and the suite's own oracles as
plain loops before they became scans: normality over every coprime pair
against every separating pair of the pool, lifting anchor by anchor and
ideal lifting generator by generator with each existential over the whole
carrier, and the residuation-adjunction check over every triple, and the
radical-laws, class-map-laws, coprime-products and
interval-radical-commutes checks and the axiom oracle as the element loops
they were before each became masks over whole tables.
They stay here as test oracles only: test_kernels.py requires every
kernel to give the same tables or verdict, or to raise the same exception
class with the same message and witness, as the loop it replaced, the
search to find an isomorphism exactly when the canonical forms agree, and
the fill and the walk to keep what the generate-and-test loops kept, and
test_oracles.py holds each scan in quantales.oracles to its loop here.  The
normality verdicts read the pair loop normal_witness below, which shares no
code with the bitset scan the law suite uses.  The interval loop reads join
and meet, like the multiplication, off the parent's tables joined with the
anchor, as an interval now restricts its parent's lattice instead of
building its own.
The interval, product and radical frame loops keep their tables unchecked,
as the package adopts them, and prove them as the package does: the
interval, the frame and the reticulation by quantale_morphism_checks on the
map they are the image of (the frame and the reticulation also by
induced_order_checks, the reticulation first by the power criterion), the
product by nothing, since its laws hold coordinate by coordinate.
Nothing under src/ imports this module.
"""

import json
from functools import cached_property
from itertools import permutations, product as cartesian

import numpy as np

from quantales import suite
from quantales.io import (
    FORMAT, MAX_ELEMENTS, InvalidParameter, ParseError, ValidationError, _bounded, _dot_graph,
    _positive_int, _set_label, _string_list, generate)
from quantales.lattices import (
    FiniteLattice, FinitePoset, LatticeError, LatticeMorphism, NotALattice,
    NotAnIdeal, NotAPoset, Verdict, blocks)
from quantales.oracles import lattice_boolean_center
from quantales.quantale import (
    AxiomError, EmptyProduct, IntervalQuantale, NotAssociative, NotCommutative, NotDistributive,
    NotUnital, PreconditionFailed, Quantale, QuantaleError, QuantaleMorphism, TrivialQuantale,
    _isomorphism, _profile, find_quantale_isomorphism, jacobson_radical, negation)
from quantales.reticulation import AxiomViolation, NotAReticulation, reticulate
from quantales.suite import PASS, REFUTED, BoundExceeded


def poset_checks(elements, leq):
    'The FinitePoset checks: reflexivity and antisymmetry in scan order, then transitivity.'
    elements = tuple(elements)
    n = len(elements)
    for i in range(n):
        if not leq[i, i]:
            raise NotAPoset('not reflexive at %r' % (elements[i],))
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i, j] and leq[j, i]:
                raise NotAPoset(
                    'not antisymmetric: %r and %r' % (elements[i], elements[j]))
    two_step = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
    gap = two_step & ~leq
    if gap.any():
        i, j = (int(v[0]) for v in np.nonzero(gap))
        raise NotAPoset(
            'not transitive: missing %r <= %r' % (elements[i], elements[j]))


def covers(poset):
    'Hasse diagram edges as pairs (lower, upper) of indices.'
    n = len(poset)
    leq = poset.leq
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i, j]:
                continue
            between = any(
                leq[i, k] and leq[k, j] for k in range(n) if k != i and k != j)
            if not between:
                out.append((i, j))
    return tuple(out)


def irreducibles_join_prime(lat):
    """Whether every element with exactly one lower cover in covers(lat.poset) is
    join-prime, over the pairs x <= y in index order: is_distributive's verdict
    on a lattice, at |J| n**2 / 2 list reads, so that it reaches 129 points."""
    n = len(lat)
    leq, join = lat.poset.leq.tolist(), lat.join_table.tolist()
    lower = [0] * n
    for _, y in covers(lat.poset):
        lower[y] += 1
    for j in (y for y in range(n) if lower[y] == 1):
        for x in range(n):
            for y in range(x, n):
                if leq[j][join[x][y]] and not (leq[j][x] or leq[j][y]):
                    return False
    return True


def export_spec_dot(q):
    'The spectrum view of io.export_dot, with the covers found by its own triple loop.'
    spec = list(q.spectrum)
    maxima = set(q.maximal_elements)
    edges = []
    for si, p in enumerate(spec):
        for sj, r in enumerate(spec):
            if p == r or not q.leq(p, r):
                continue
            if not any(q.leq(p, t) and q.leq(t, r) for t in spec if t not in (p, r)):
                edges.append((si, sj))
    shapes = {si: ', peripheries=2' for si, p in enumerate(spec) if p in maxima}
    return _dot_graph([q.label(p) for p in spec], edges, shapes)


def least_bounds(leq):
    'Least common upper bound of every pair under leq, and the mask of pairs without one.'
    n = len(leq)
    up = leq.sum(axis=1)
    best = np.empty((n, n), dtype=np.intp)
    count = np.empty((n, n), dtype=np.intp)
    for rows, cols in blocks(n, n):
        common = leq[rows, None, :] & leq[None, cols, :]
        # a least common bound lies below all the others, so it alone has the
        # largest up-set, and that up-set is exactly the common bounds
        best[rows, cols] = (common * up).argmax(axis=2)
        count[rows, cols] = common.sum(axis=2)
    return best, up[best] != count


def _unique_bound(poset, i, j, upper):
    leq = poset.leq
    if upper:
        bounds = np.nonzero(leq[i] & leq[j])[0]
        extremal = [k for k in bounds if all(leq[k, m] for m in bounds)]
        kind = 'join'
    else:
        bounds = np.nonzero(leq[:, i] & leq[:, j])[0]
        extremal = [k for k in bounds if all(leq[m, k] for m in bounds)]
        kind = 'meet'
    if len(extremal) != 1:
        raise NotALattice('no %s for %r and %r' % (
            kind, poset.elements[i], poset.elements[j]))
    return int(extremal[0])


def lattice_tables(poset):
    'Join table, meet table, bottom and top as FiniteLattice built them.'
    n = len(poset)
    leq = poset.leq
    join = np.empty((n, n), dtype=np.intp)
    meet = np.empty((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(i, n):
            join[i, j] = join[j, i] = _unique_bound(poset, i, j, upper=True)
            meet[i, j] = meet[j, i] = _unique_bound(poset, i, j, upper=False)
    bottoms = [k for k in range(n) if leq[k].all()]
    tops = [k for k in range(n) if leq[:, k].all()]
    # pairwise joins and meets force unique global bounds on a finite carrier
    assert len(bottoms) == 1 and len(tops) == 1
    return join, meet, bottoms[0], tops[0]


def is_distributive(lat):
    'Distributive law over all triples; the witness is the first failing (x, y, z).'
    n = len(lat)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = lat.meet(x, lat.join(y, z))
                rhs = lat.join(lat.meet(x, y), lat.meet(x, z))
                if lhs != rhs:
                    return Verdict(False, (lat.label(x), lat.label(y), lat.label(z)))
    return Verdict(True)


def lattice_morphism_checks(source, target, mapping):
    'The validation LatticeMorphism ran on a mapping, in its scan order.'
    mapping = tuple(int(m) for m in mapping)
    if len(mapping) != len(source):
        raise LatticeError('mapping length does not match source carrier')
    for x in range(len(source)):
        for y in range(x, len(source)):
            if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                raise LatticeError('join not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
            if mapping[source.meet(x, y)] != target.meet(mapping[x], mapping[y]):
                raise LatticeError('meet not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
    if mapping[source.bottom] != target.bottom or mapping[source.top] != target.top:
        raise LatticeError('bounds not preserved')


def validate(lattice, mul):
    'The quantale axioms in the order Quantale._validate scanned them.'
    n = len(lattice)
    lab = lattice.label
    for i in range(n):
        for j in range(i + 1, n):
            if mul[i, j] != mul[j, i]:
                raise NotCommutative(
                    'x*y != y*x at (%r, %r)' % (lab(i), lab(j)), (lab(i), lab(j)))
    top = lattice.top
    for x in range(n):
        if mul[x, top] != x:
            raise NotUnital('x*1 != x at %r' % (lab(x),), (lab(x),))
    bottom = lattice.bottom
    for x in range(n):
        # multiplying by the empty join must give the empty join
        if mul[x, bottom] != bottom:
            raise NotDistributive('x*0 != 0 at %r' % (lab(x),), (lab(x),))
    for x in range(n):
        for y in range(n):
            for z in range(y, n):
                j = lattice.join(y, z)
                if mul[x, j] != lattice.join(mul[x, y], mul[x, z]):
                    raise NotDistributive(
                        'x*(y v z) != x*y v x*z at (%r, %r, %r)' % (lab(x), lab(y), lab(z)),
                        (lab(x), lab(y), lab(z)))
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                if mul[mul[x, y], z] != mul[x, mul[y, z]]:
                    raise NotAssociative(
                        '(x*y)*z != x*(y*z) at (%r, %r, %r)' % (lab(x), lab(y), lab(z)),
                        (lab(x), lab(y), lab(z)))


def stable_power(q, a):
    'Limit of the descending chain a >= a^2 >= a^3 >= ...'
    prev = a
    nxt = q.mul(a, a)
    while nxt != prev:
        prev, nxt = nxt, q.mul(nxt, a)
    return prev


def maximal_candidates(q):
    n = len(q)
    return tuple(
        m for m in range(n) if m != q.top
        and all(x == q.top or x == m for x in range(n) if q.leq(m, x)))


def spectrum(q):
    'Indices below top where x*y <= p forces x <= p or y <= p, ascending.'
    n = len(q)
    out = []
    for p in range(n):
        if p == q.top:
            continue
        if all(q.leq(x, p) or q.leq(y, p)
               for x in range(n) for y in range(x, n)
               if q.leq(q.mul(x, y), p)):
            out.append(p)
    result = tuple(out)
    for m in maximal_candidates(q):
        # every maximal element is m-prime: a cover argument via distributivity
        assert m in result, 'maximal element %r is not m-prime' % (q.label(m),)
    return result


def center(q):
    'Indices of complemented elements: e v f = 1 and e*f = 0 for some f.'
    n = len(q)
    out = []
    for e in range(n):
        if any(q.join(e, f) == q.top and q.mul(e, f) == q.bottom
               for f in range(n)):
            out.append(e)
    out = tuple(out)
    for e in range(n):
        # cross-check the complement definition against e v (e -> 0) = 1
        assert (e in out) == (q.join(e, negation(q, e)) == q.top)
    for e in out:
        for x in range(n):
            # central elements multiply like meet
            assert q.mul(e, x) == q.meet(e, x)
    return out


def quantale_morphism_checks(source, target, mapping):
    """The validation QuantaleMorphism runs on a mapping, in its scan order:
    every pair, row by row, since the source of an interval's surjection may
    hold a table that is not symmetric."""
    mapping = tuple(int(m) for m in mapping)
    if len(mapping) != len(source):
        raise QuantaleError('mapping length does not match source carrier')
    if mapping[source.bottom] != target.bottom:
        raise QuantaleError('bottom not preserved')
    for x in range(len(source)):
        for y in range(len(source)):
            if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                raise QuantaleError('join not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
            if mapping[source.mul(x, y)] != target.mul(mapping[x], mapping[y]):
                raise QuantaleError('multiplication not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
    if mapping[source.top] != target.top:
        raise QuantaleError('unit not preserved')


def reticulation_verify(ret):
    'The checks Reticulation._verify runs on the class map, in its order and scan order.'
    source, lam, lattice = ret.source, ret.lam, ret.lattice
    n = len(source)
    if set(lam) != set(range(len(ret.classes))):
        raise AxiomViolation('class map is not surjective')
    quantale_morphism_checks(source, ret, lam)
    for a in range(n):
        for b in range(n):
            below = lattice.leq(lam[a], lam[b])
            eventually = source.leq(stable_power(source, a), b)
            if below != eventually:
                raise AxiomViolation(
                    'power criterion fails at %r, %r' % (source.label(a), source.label(b)))
    induced_order_checks(ret, AxiomViolation, 'class')


def induced_order_checks(q, error, what):
    'The order against the one join and meet induce, pair by pair, as _check_induced_order reads it.'
    for x in range(len(q)):
        for y in range(len(q)):
            below = q.leq(x, y)
            for law, induced in (('join', q.join(x, y) == y), ('meet', q.meet(x, y) == x)):
                if below != induced:
                    raise error('%s order is not the one its %s induces at %r, %r' % (
                        what, law, q.label(x), q.label(y)))


def _adopted(poset, join, meet, bottom, top, mul):
    'A quantale holding the order, tables and bounds unchecked, as a derived quantale adopts them.'
    q = Quantale.__new__(Quantale)
    join, meet, mul = (np.array(t, dtype=np.intp) for t in (join, meet, mul))
    q._adopt(poset, join, meet, bottom, top, mul)
    return q


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


def has_id_blp_per_generator(lat):
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


def residuation_adjunction(member, residuum_of):
    """The residuation-adjunction check as a loop over every triple (a, b, c),
    with the table of b -> c read off residuum_of(q, b, c)."""
    q = member.quantale
    n = len(q)
    res = [[residuum_of(q, b, c) for c in range(n)] for b in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if q.leq(a, res[b][c]) != q.leq(q.mul(a, b), c):
                    return REFUTED, 'adjunction fails at (%r, %r, %r)' % (
                        q.label(a), q.label(b), q.label(c))
    return PASS, ''


def _normality_verdict(q, pool):
    witness = normal_witness(q, pool)
    if witness is None:
        return Verdict(True)
    return Verdict(False, tuple(q.label(i) for i in witness))


def is_normal(q):
    'Every cover a v b = 1 splits by e, f with a v e = b v f = 1 and e*f = 0.'
    return _normality_verdict(q, range(len(q)))


def is_b_normal(q):
    'Normality with the separating pair drawn from the Boolean center.'
    return _normality_verdict(q, q.center)


def interval_quantale(parent, anchor):
    """Carrier, positions, quantale and canonical surjection of [anchor): the
    order checked, and join, meet and multiplication the parent's, each
    relativized by joining the anchor, looked up entry by entry.  The tables
    are kept unchecked; the checks of the surjection, onto, prove them."""
    carrier = [x for x in range(len(parent)) if parent.leq(anchor, x)]
    sub = parent.lattice.poset.leq[np.ix_(carrier, carrier)]
    position = {x: i for i, x in enumerate(carrier)}

    def relative(op):
        return np.array([[position[parent.join(op(x, y), anchor)] for y in carrier]
                         for x in carrier], dtype=np.intp)

    part = _adopted(
        FinitePoset([parent.label(x) for x in carrier], sub), relative(parent.join),
        relative(parent.meet), position[anchor], position[parent.top], relative(parent.mul))
    mapping = tuple(position[parent.join(x, anchor)] for x in range(len(parent)))
    quantale_morphism_checks(parent, part, mapping)
    return tuple(carrier), position, part, QuantaleMorphism(parent, part, mapping)


def element_has_lp(q, a):
    'Whether [a) lifts its center, as the interval and its canonical surjection decided it.'
    _, _, part, u = interval_quantale(q, a)
    image = frozenset(u.mapping[e] for e in center(q))
    part_center = center(part)
    if not image <= frozenset(part_center):
        raise QuantaleError('a complemented element maps outside the target center')
    for e in part_center:
        if e not in image:
            return Verdict(False, part.label(e))
    return Verdict(True)


def has_lp(q):
    'Lifting property, one interval per anchor; witness (anchor, stranded element).'
    for a in range(len(q)):
        lifted = element_has_lp(q, a)
        if not lifted:
            return Verdict(False, (q.label(a), lifted.witness))
    return Verdict(True)


def product(factors):
    """Componentwise product quantale with its projection morphisms: the order
    checked, and join, meet, bounds and multiplication the factors' read
    coordinate by coordinate, entry by entry, and kept unchecked."""
    factors = list(factors)
    if not factors:
        raise EmptyProduct('need at least one factor')
    tuples = list(cartesian(*[range(len(f)) for f in factors]))
    position = {t: k for k, t in enumerate(tuples)}
    labels = ['(%s)' % ','.join(str(f.label(i)) for f, i in zip(factors, t))
              for t in tuples]
    leq = np.ones((1, 1), dtype=bool)
    for f in factors:
        # cartesian order puts the first factor outermost, as kron does
        leq = np.kron(leq, f.lattice.poset.leq)

    def componentwise(op):
        return np.array([[position[tuple(op(f)(i, j) for f, i, j in zip(factors, left, right))]
                          for right in tuples] for left in tuples], dtype=np.intp)

    prod = _adopted(
        FinitePoset(labels, leq), componentwise(lambda f: f.join),
        componentwise(lambda f: f.meet), position[tuple(f.bottom for f in factors)],
        position[tuple(f.top for f in factors)], componentwise(lambda f: f.mul))
    projections = [
        QuantaleMorphism(prod, f, tuple(t[k] for t in tuples))
        for k, f in enumerate(factors)]
    return prod, projections


def decompose_by_elements(q, anchors):
    'Isomorphism from the interval above the meet of the anchors onto the product of their intervals.'
    anchors = list(anchors)
    if not anchors:
        raise PreconditionFailed('need at least one element')
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            if q.join(anchors[i], anchors[j]) != q.top:
                raise PreconditionFailed(
                    'elements %d and %d do not join to top' % (i, j))
    base = q.meet_all(anchors)
    source = IntervalQuantale(q, base)
    parts = [IntervalQuantale(q, a) for a in anchors]
    # positions in each part's carrier, looked up rather than read off to_interval
    positions = [{x: i for i, x in enumerate(p.carrier)} for p in parts]
    if len(parts) == 1:
        target = parts[0]
        # x v a, as for each factor of a product below: on a table whose join
        # is redrawn, x >= a need not give x v a = x
        mapping = tuple(positions[0][q.join(x, anchors[0])] for x in source.carrier)
    else:
        target, _ = product(parts)
        # the product was built over cartesian(*factor index ranges), so the
        # same tuple order recovers positions in its carrier
        tuples = list(cartesian(*[range(len(p)) for p in parts]))
        position = {t: k for k, t in enumerate(tuples)}
        mapping = tuple(
            position[tuple(at[q.join(x, a)] for at, a in zip(positions, anchors))]
            for x in source.carrier)
    u = QuantaleMorphism(source, target, mapping)
    if len(set(u.mapping)) != len(source) or not u.is_surjective():
        raise QuantaleError('decomposition map is not bijective')
    return u


def radical_frame(parent):
    """Carrier, frame and positions of the radical frame, after the checks
    RadicalFrame runs: every radical a radical element, the radicals closed
    under meet, the unit kept, the order the tables induce and the radical map
    a morphism.  The tables are looked up entry by entry and kept unchecked."""
    n = len(parent)
    rho = parent.radical_of
    for x in range(n):
        if rho(rho(x)) != rho(x):
            raise QuantaleError('the radical of %r is not a radical element' % (parent.label(x),))
    carrier = tuple(a for a in range(n) if rho(a) == a)
    for a in carrier:
        for b in carrier:
            if rho(parent.meet(a, b)) != parent.meet(a, b):
                raise QuantaleError('radicals are not closed under meet at %r, %r' % (
                    parent.label(a), parent.label(b)))
    to_frame = {a: i for i, a in enumerate(carrier)}
    join = [[to_frame[rho(parent.join(a, b))] for b in carrier] for a in carrier]
    meet = [[to_frame[parent.meet(a, b)] for b in carrier] for a in carrier]
    sub = parent.lattice.poset.leq[np.ix_(carrier, carrier)]
    frame = _adopted(
        FinitePoset([parent.label(a) for a in carrier], sub), join, meet,
        to_frame[rho(parent.bottom)], to_frame[rho(parent.top)], meet)
    if carrier[frame.top] != parent.top:
        raise QuantaleError('frame top is not the unit')
    induced_order_checks(frame, QuantaleError, 'frame')
    quantale_morphism_checks(parent, frame, [to_frame[rho(x)] for x in range(n)])
    return carrier, frame, to_frame


def lift_morphism(u):
    'The induced map on reticulations of a quantale morphism.'
    ra = reticulate(u.source)
    rb = reticulate(u.target)
    mapping = [None] * len(ra)
    for ci, members in enumerate(ra.classes):
        images = {rb.lam[u(c)] for c in members}
        if len(images) != 1:
            raise QuantaleError('lifted map is not well defined on class %d' % (ci,))
        mapping[ci] = images.pop()
    quantale_morphism_checks(ra, rb, mapping)
    lifted = QuantaleMorphism(ra, rb, mapping)
    for c in range(len(u.source)):
        if lifted(ra.lam[c]) != rb.lam[u(c)]:
            raise AxiomViolation('lifted map breaks the class maps at %r' % (u.source.label(c),))
    return lifted


def factor_through(quotient, r, p, lifted):
    'interval_reticulation_iso: the map on the quotient that the lifted map factors through.'
    mapping = [None] * len(quotient)
    for x in range(len(r.lattice)):
        qx = p(x)
        lx = lifted(x)
        if mapping[qx] is None:
            mapping[qx] = lx
        elif mapping[qx] != lx:
            raise QuantaleError('lifted map does not factor through the quotient')
    return tuple(mapping)


def check_unicity(reticulation, candidate, lam):
    'Isomorphism onto a candidate reticulation, a meet-quantale, after checking its axioms.'
    q = reticulation.source
    for x in range(len(candidate)):
        for y in range(len(candidate)):
            if candidate.mul(x, y) != candidate.meet(x, y):
                raise NotAReticulation('candidate multiplication is not its meet',
                                       (candidate.label(x), candidate.label(y)))
    lam = tuple(int(x) for x in lam)
    n = len(q)
    if len(lam) != n:
        raise NotAReticulation('candidate map length does not match the carrier')
    if set(lam) != set(range(len(candidate))):
        raise NotAReticulation('candidate map is not surjective')
    for a in range(n):
        for b in range(n):
            if not candidate.leq(lam[q.join(a, b)], candidate.join(lam[a], lam[b])):
                raise NotAReticulation(
                    'candidate breaks the join axiom', (q.label(a), q.label(b)))
            if lam[q.mul(a, b)] != candidate.meet(lam[a], lam[b]):
                raise NotAReticulation(
                    'candidate breaks the product axiom', (q.label(a), q.label(b)))
            if candidate.leq(lam[a], lam[b]) != q.leq(q.stable_power(a), b):
                raise NotAReticulation(
                    'candidate breaks the power axiom', (q.label(a), q.label(b)))
    mapping = [None] * len(reticulation)
    for ci, members in enumerate(reticulation.classes):
        images = {lam[c] for c in members}
        if len(images) != 1:
            raise NotAReticulation(
                'candidate classes do not refine radical classes', (ci,))
        mapping[ci] = images.pop()
    quantale_morphism_checks(reticulation, candidate, mapping)
    if len(set(mapping)) != len(reticulation) or set(mapping) != set(range(len(candidate))):
        raise NotAReticulation('comparison map is not bijective')
    iso = QuantaleMorphism(reticulation, candidate, mapping)
    for c in range(n):
        if iso(reticulation.lam[c]) != lam[c]:
            raise NotAReticulation('comparison map breaks the class maps', (q.label(c),))
    return iso


class LatticeIdeal:
    'Join-closed down-set containing bottom; principal in any finite lattice.'

    def __init__(self, lattice, members):
        members = frozenset(int(m) for m in members)
        if lattice.bottom not in members:
            raise NotAnIdeal('ideal must contain bottom')
        for x in members:
            for k in range(len(lattice)):
                if lattice.leq(k, x) and k not in members:
                    raise NotAnIdeal('not downward closed at %r' % (lattice.label(k),))
            for y in members:
                if lattice.join(x, y) not in members:
                    raise NotAnIdeal('not join-closed at %r, %r' % (
                        lattice.label(x), lattice.label(y)))
        self.lattice = lattice
        self.members = members

    @cached_property
    def generator(self):
        'Largest member; the ideal is exactly its down-set.'
        return self.lattice.join_all(self.members)

    def labels(self):
        return tuple(self.lattice.label(i) for i in sorted(self.members))


def all_ideals(lat):
    'Every ideal, one per element since finite ideals are principal down-sets.'
    return [LatticeIdeal(lat, lat.down_set(x)) for x in range(len(lat))]


def principal_ideal(lat, x):
    return LatticeIdeal(lat, lat.down_set(x))


def prime_ideals(lat):
    'Proper ideals whose generator is meet-prime.'
    out = []
    n = len(lat)
    for p in range(n):
        if p == lat.top:
            continue
        prime = all(
            lat.leq(x, p) or lat.leq(y, p)
            for x in range(n) for y in range(n)
            if lat.leq(lat.meet(x, y), p))
        if prime:
            out.append(principal_ideal(lat, p))
    return out


def maximal_ideals(lat):
    'Maximal proper ideals; their generators are the coatoms of the carrier.'
    out = []
    n = len(lat)
    for m in range(n):
        if m == lat.top:
            continue
        if all(x == lat.top or x == m for x in range(n) if lat.leq(m, x)):
            out.append(principal_ideal(lat, m))
    return out


def quotient_by_ideal(lat, ideal):
    'Quotient by the congruence a ~ b iff a v e = b v e for some ideal member e.'
    if ideal.lattice is not lat:
        raise NotAnIdeal('ideal belongs to a different lattice')
    g = ideal.generator
    # joining with the generator dominates joining with any member, so classes
    # are the fibers of x |-> x v g and the quotient is the upper interval [g, 1]
    reps = [x for x in range(len(lat)) if lat.leq(g, x)]
    sub = lat.poset.leq[np.ix_(reps, reps)]
    quotient = FiniteLattice(FinitePoset([lat.label(x) for x in reps], sub))
    quotient = Quantale(quotient, quotient.meet_table)
    to_class = {x: qi for qi, x in enumerate(reps)}
    mapping = tuple(to_class[lat.join(x, g)] for x in range(len(lat)))
    return quotient, LatticeMorphism(lat, quotient, mapping)


def star(r, a):
    'Ideal of the classes of the elements below a.'
    members = {r.lam[c] for c in range(len(r.source)) if r.source.leq(c, a)}
    return LatticeIdeal(r.lattice, members)


def unstar(r, ideal):
    'Join of the elements whose class lies in the ideal.'
    if ideal.lattice is not r.lattice:
        raise NotAnIdeal('ideal does not live in this reticulation lattice')
    return r.source.join_all(c for c in range(len(r.source)) if r.lam[c] in ideal.members)


def unstar_at(r, x):
    'Join, folded element by element, of the elements whose class lies below the reticulation element x.'
    if not 0 <= x < len(r):
        raise NotAnIdeal('%r is not an element of the reticulation lattice' % (x,))
    return r.source.join_all(c for c in range(len(r.source)) if r.poset.leq[r.lam[c], x])


def has_id_blp(lat):
    'Whether complemented elements lift along every ideal quotient; witness is (ideal, stranded label).'
    center = lattice_boolean_center(lat)
    for ideal in all_ideals(lat):
        quotient, p = quotient_by_ideal(lat, ideal)
        lifted = {p(e) for e in center}
        for e in lattice_boolean_center(quotient):
            if e not in lifted:
                return Verdict(False, (ideal, quotient.label(e)))
    return Verdict(True)


def lattice_is_id_local(lat):
    'Exactly one maximal ideal.'
    return len(maximal_ideals(lat)) == 1


# ---------------------------------------------------------------------------
# enumeration by generate-and-test, as it was before the backtracking fill and
# the walk over bounded orders

def mul_candidates(lattice):
    'Symmetric unital tables within the derived bound x*y <= x^y.'
    n = len(lattice)
    top = lattice.top
    pairs = [(i, j) for i in range(n) for j in range(i, n) if top not in (i, j)]
    domains = [sorted(lattice.down_set(lattice.meet(i, j))) for i, j in pairs]
    for choice in cartesian(*domains):
        mul = np.empty((n, n), dtype=np.intp)
        mul[top] = np.arange(n)
        mul[:, top] = np.arange(n)
        for (i, j), value in zip(pairs, choice):
            mul[i, j] = mul[j, i] = value
        yield mul


def lattices_by_mask_scan(n):
    'All lattices on n points up to isomorphism, in a deterministic order.'
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = ['x%d' % i for i in range(n)]
    out = []
    for mask in range(1 << len(slots)):
        rel = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(slots):
            # index order is a linear extension, so i < j covers every poset
            if mask >> bit & 1:
                rel[i, j] = True
        try:
            lattice = FiniteLattice(FinitePoset(labels, rel))
        except (NotAPoset, NotALattice):
            continue
        # non-distributive lattices have no meet-quantale, so compare tables
        tables = (lattice.poset.leq, lattice.meet_table)
        if all(_isomorphism(tables, (k.poset.leq, k.meet_table)) is None for k in out):
            out.append(lattice)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration by the walk over every labelling of each bounded order and the
# isomorphism search after it, as it was before the orderly walk

def bounded_orders(n):
    """Order relations on range(n) with 0 at the bottom, n - 1 at the top and index
    order a linear extension, as boolean matrices, every labelling of each.  The
    up-sets are chosen from row n - 2 down to row 1, each row's up-sets ascending
    as bit masks, which is the order of the masks over all pairs i < j that such a
    relation sets."""
    ups = [(1 << n) - 1 if i == 0 else 1 << i for i in range(n)]

    def rows(i):
        if i < 1:
            yield np.array([[u >> j & 1 for j in range(n)] for u in ups], dtype=bool).reshape(n, n)
            return
        for free in range(1 << (n - 2 - i)):
            above = (free << (i + 1)) | (1 << (n - 1))
            closure = 0
            for j in range(i + 1, n):
                if above >> j & 1:
                    closure |= ups[j]
            # transitive: whatever lies above an element above i lies above i
            if closure == above:
                ups[i] = 1 << i | above
                yield from rows(i - 1)

    yield from rows(n - 2)


def enumerate_lattices_by_search(n):
    """All lattices on n points up to isomorphism: each lattice of the walk is built,
    and kept unless the isomorphism search matches it to one kept already."""
    labels = ['x%d' % i for i in range(n)]
    out = []
    # kept lattices by sorted profile: only those with an equal one can match
    kept = {}
    for rel in bounded_orders(n):
        try:
            lattice = FiniteLattice(FinitePoset._from_order(labels, rel))
        except NotALattice:
            continue
        # non-distributive lattices have no meet-quantale, so compare tables
        tables = (lattice.poset.leq, lattice.meet_table)
        profile = _profile(*tables)
        rivals = kept.setdefault(tuple(sorted(profile)), [])
        if all(_isomorphism(tables, k, (profile, k_profile)) is None
               for k, k_profile in rivals):
            rivals.append((tables, profile))
            out.append(lattice)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration by n! canonical forms, as it was before the isomorphism search

def enumerate_lattices(n):
    'All lattices on n points up to isomorphism, in a deterministic order.'
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = ['x%d' % i for i in range(n)]
    seen = set()
    out = []
    for mask in range(1 << len(slots)):
        rel = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(slots):
            # index order is a linear extension, so i < j covers every poset
            if mask >> bit & 1:
                rel[i, j] = True
        try:
            lattice = FiniteLattice(FinitePoset(labels, rel))
        except (NotAPoset, NotALattice):
            continue
        canon = min(
            tuple(bool(rel[p[i], p[j]]) for i in range(n) for j in range(n))
            for p in permutations(range(n)))
        if canon not in seen:
            seen.add(canon)
            out.append(lattice)
    return tuple(out)


def relation_canon(lattice):
    'The canonical form enumerate_lattices computes inline: the least relabelled order relation.'
    n = len(lattice)
    rel = lattice.poset.leq
    return min(
        tuple(bool(rel[p[i], p[j]]) for i in range(n) for j in range(n))
        for p in permutations(range(n)))


def _canonical_form(q):
    n = len(q)
    leq = q.lattice.poset.leq
    mul = q.mul_table
    best = None
    for p in permutations(range(n)):
        inverse = [0] * n
        for new, old in enumerate(p):
            inverse[old] = new
        form = (
            tuple(bool(leq[p[i], p[j]]) for i in range(n) for j in range(n)),
            tuple(inverse[mul[p[i], p[j]]] for i in range(n) for j in range(n)))
        if best is None or form < best:
            best = form
    return best


def enumerate_quantales(max_size, bound=5):
    'Every quantale with at most max_size elements, one per isomorphism class.'
    if max_size > bound:
        raise BoundExceeded('size %d exceeds the enumeration bound %d' % (max_size, bound))
    out = []
    for n in range(1, max_size + 1):
        seen = set()
        for lattice in enumerate_lattices(n):
            for mul in mul_candidates(lattice):
                try:
                    q = Quantale(lattice, mul)
                except AxiomError:
                    continue
                canon = _canonical_form(q)
                if canon not in seen:
                    seen.add(canon)
                    out.append(q)
    return tuple(out)


def element_profile(leq, op):
    'Per element x: #{y <= x}, #{y >= x}, #{y : op(x, y) = x} and #{y : op(x, y) = bottom}.'
    n, leq, op = len(leq), leq.tolist(), op.tolist()
    bottom = next(x for x in range(n) if all(leq[x]))
    return [(sum(leq[y][x] for y in range(n)), sum(leq[x]),
             sum(op[x][y] == x for y in range(n)), sum(op[x][y] == bottom for y in range(n)))
            for x in range(n)]


def enumerate_quantales_per_table(max_size, bound=5):
    """Every quantale with at most max_size elements, one per isomorphism class:
    a Quantale built and validated per filled table, kept unless
    find_quantale_isomorphism matches it to a class already kept on the same
    lattice with the same sorted profile."""
    if max_size > bound:
        raise BoundExceeded('size %d exceeds the enumeration bound %d' % (max_size, bound))
    out = []
    for n in range(1, max_size + 1):
        for lattice in suite.enumerate_lattices(n):
            kept = {}
            for mul in suite._mul_candidates(lattice):
                q = Quantale(lattice, mul)
                rivals = kept.setdefault(tuple(sorted(q._element_profile)), [])
                if all(find_quantale_isomorphism(q, k) is None for k in rivals):
                    rivals.append(q)
                    out.append(q)
    return tuple(out)


# ---------------------------------------------------------------------------
# the lattice from label pairs, as build_lattice made it before it read the
# pairs in one pass and closed only a relation the transitivity pass finds a
# gap in: each pair looked up in turn, then the relation always closed and
# checked

def build_lattice(elements, leq_pairs):
    'Lattice from order pairs on labels; the relation is closed reflexively and transitively.'
    elements = tuple(elements)
    index = {label: i for i, label in enumerate(elements)}
    if len(index) != len(elements):
        raise NotAPoset('element labels are not unique')
    n = len(elements)
    rel = np.eye(n, dtype=bool)
    for a, b in leq_pairs:
        if a not in index or b not in index:
            raise NotAPoset('order pair (%r, %r) uses undeclared elements' % (a, b))
        rel[index[a], index[b]] = True
    for k in range(n):
        rel |= np.outer(rel[:, k], rel[k])
    return FiniteLattice(FinitePoset(elements, rel))


# ---------------------------------------------------------------------------
# frames from label pairs closed by the build_lattice loop above, with product
# loops, as the chain and set-family generators built them before the order
# matrix did

def generate_chain(arg):
    head, _, variant = arg.partition(',')
    k = _positive_int(head, 'chain length')
    _bounded(k, 'chain:%d' % k)
    if variant != 'frame':
        raise InvalidParameter('unknown chain variant %r, expected "frame"' % (variant,))
    labels = [str(i) for i in range(k)]
    lattice = build_lattice(labels, [(str(i), str(i + 1)) for i in range(k - 1)])
    mul = [[min(i, j) for j in range(k)] for i in range(k)]
    return Quantale(lattice, mul)


def frame_of_sets(sets):
    sets = sorted(sets, key=lambda s: (len(s), _set_label(s)))
    labels = [_set_label(s) for s in sets]
    pairs = [(labels[i], labels[j]) for i in range(len(sets)) for j in range(len(sets))
             if sets[i] <= sets[j]]
    lattice = build_lattice(labels, pairs)
    pos = {frozenset(s): i for i, s in enumerate(sets)}
    mul = [[pos[frozenset(a & b)] for b in sets] for a in sets]
    return Quantale(lattice, mul)


# ---------------------------------------------------------------------------
# the instance reader with its per-triple multiplication loop

def instance_from_dict(doc):
    if not isinstance(doc, dict):
        raise ParseError('top level must be an object', '$')
    fmt = doc.get('format')
    if fmt is not None and fmt != FORMAT:
        raise ParseError('unsupported format %r, expected %r' % (fmt, FORMAT), 'format')
    if 'elements' not in doc:
        if 'generator' in doc:
            if not isinstance(doc['generator'], str):
                raise ParseError('expected a string', 'generator')
            return generate(doc['generator'])
        raise ParseError('need either elements or a generator', '$')

    elements = _string_list(doc, 'elements')
    if not elements:
        raise ParseError('at least one element is required', 'elements')
    if len(elements) > MAX_ELEMENTS:
        raise ParseError('%d elements is too many, the bound is %d' % (
            len(elements), MAX_ELEMENTS), 'elements')
    if len(set(elements)) != len(elements):
        raise ParseError('element labels are not unique', 'elements')
    index = {label: i for i, label in enumerate(elements)}

    pairs = doc.get('leq', [])
    if not isinstance(pairs, list):
        raise ParseError('expected a list', 'leq')
    for k, pair in enumerate(pairs):
        where = 'leq[%d]' % k
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError('expected a pair [lower, upper]', where)
        for label in pair:
            if not isinstance(label, str) or label not in index:
                raise ParseError('unknown element %r' % (label,), where)
    try:
        lattice = build_lattice(elements, [tuple(p) for p in pairs])
    except LatticeError as exc:
        raise ValidationError(str(exc), type(exc).__name__) from None

    triples = doc.get('mul', [])
    if not isinstance(triples, list):
        raise ParseError('expected a list', 'mul')
    table = {}
    for k, triple in enumerate(triples):
        where = 'mul[%d]' % k
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ParseError('expected a triple [x, y, xy]', where)
        for label in triple:
            if not isinstance(label, str) or label not in index:
                raise ParseError('unknown element %r' % (label,), where)
        x, y, z = (index[label] for label in triple)
        if table.get((x, y), z) != z:
            raise ParseError('conflicting products for (%r, %r)' % (triple[0], triple[1]), where)
        table[(x, y)] = z

    # fill the mirror of each listed pair, then the unit row, and demand the rest
    for (x, y), z in list(table.items()):
        table.setdefault((y, x), z)
    top = lattice.top
    for x in range(len(elements)):
        table.setdefault((x, top), x)
        table.setdefault((top, x), x)
    mul = [[0] * len(elements) for _ in range(len(elements))]
    for x in range(len(elements)):
        for y in range(len(elements)):
            if (x, y) not in table:
                raise ParseError(
                    'missing product for (%r, %r)' % (elements[x], elements[y]), 'mul')
            mul[x][y] = table[(x, y)]
    try:
        return Quantale(lattice, mul)
    except AxiomError as exc:
        raise ValidationError(str(exc), type(exc).__name__, exc.witness) from None


# ---------------------------------------------------------------------------
# property (*) tested element by element

def has_property_star(q):
    'Every element splits as c v e with c below the radical and e complemented.'
    if len(q) == 1:
        raise TrivialQuantale('one-point carrier')
    r = jacobson_radical(q)
    small = [c for c in range(len(q)) if q.leq(c, r)]
    center = q.center
    for a in range(len(q)):
        if not any(q.join(c, e) == a for c in small for e in center):
            return Verdict(False, q.label(a))
    return Verdict(True)


# ---------------------------------------------------------------------------
# element reads as int(table[i, j]) behind the lattice's methods, the folds
# and scans over them, and the emitter that handed the document to json.dumps

def read_len(lattice):
    return len(lattice.poset)


def read_label(lattice, i):
    return lattice.poset.elements[i]


def read_leq(lattice, i, j):
    return bool(lattice.poset.leq[i, j])


def read_join(lattice, i, j):
    return int(lattice.join_table[i, j])


def read_meet(lattice, i, j):
    return int(lattice.meet_table[i, j])


def read_mul(q, i, j):
    return int(q.mul_table[i, j])


def join_all(lattice, items):
    out = lattice.bottom
    for i in items:
        out = read_join(lattice, out, i)
    return out


def meet_all(lattice, items):
    out = lattice.top
    for i in items:
        out = read_meet(lattice, out, i)
    return out


def residuum(q, a, b):
    'Largest x with a*x <= b.'
    lattice = q.lattice
    return join_all(lattice, (x for x in range(read_len(lattice))
                              if read_leq(lattice, read_mul(q, a, x), b)))


def negation_by_residuum(q, a):
    'Largest x with a*x = 0.'
    return residuum(q, a, q.lattice.bottom)


def center_laws(member):
    """The center-laws check as a triple loop over e, a and b, in the order
    suite._check_center_laws keeps: central e in set order, then for each a the
    meet law, the residuum law and distributivity over e at every b."""
    q = member.quantale
    n = len(q)
    central = set(q.center)
    for a in range(n):
        coend = q.join(a, negation_by_residuum(q, a)) == q.top
        if (a in central) != coend:
            return REFUTED, 'center membership differs from a v a~ = 1 at %r' % (
                q.label(a),)
    for a in range(n):
        for b in range(a, n):
            if q.join(a, b) == q.top and q.mul(a, b) == q.bottom and not (
                    a in central and b in central):
                return REFUTED, 'coprime pair (%r, %r) with zero product not central' % (
                    q.label(a), q.label(b))
    for e in central:
        for a in range(n):
            if q.meet(e, a) != q.mul(e, a):
                return REFUTED, 'e^a != e*a at (%r, %r)' % (q.label(e), q.label(a))
            if residuum(q, e, a) != q.join(negation_by_residuum(q, e), a):
                return REFUTED, 'e -> a != e~ v a at (%r, %r)' % (q.label(e), q.label(a))
            for b in range(n):
                if q.join(q.meet(a, b), e) != q.meet(q.join(a, e), q.join(b, e)):
                    return REFUTED, 'join over e not distributive at (%r, %r, %r)' % (
                        q.label(a), q.label(b), q.label(e))
    return PASS, '%d central elements' % len(central)


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


def coprime_products(member):
    'The coprime-products check as a loop over each coprime pair (a, b) and every c.'
    q = member.quantale
    n = len(q)
    top = q.top
    pairs = suite._coprime_pairs(q)
    for a, b in pairs:
        if q.mul(a, b) != q.meet(a, b):
            return REFUTED, 'x*y != x^y for coprime (%r, %r)' % (q.label(a), q.label(b))
        if q.join(q.stable_power(a), q.stable_power(b)) != top:
            return REFUTED, 'powers of coprime (%r, %r) are not coprime' % (
                q.label(a), q.label(b))
        for c in range(n):
            if q.join(a, c) == top and q.join(a, q.mul(b, c)) != top:
                return REFUTED, '%r coprime to %r and %r but not to their product' % (
                    q.label(a), q.label(b), q.label(c))
            if q.leq(a, c) and q.join(a, q.mul(b, c)) != c:
                return REFUTED, 'a v b*c != c at (%r, %r, %r)' % (
                    q.label(a), q.label(b), q.label(c))
    return PASS, '%d coprime pairs' % len(pairs)


def radical_laws(member):
    'The radical-laws check as loops over every a, then every pair (a, b).'
    q = member.quantale
    n = len(q)
    rho = q.radical_of
    for a in range(n):
        if not q.leq(a, rho(a)):
            return REFUTED, 'a <= rho(a) fails at %r' % (q.label(a),)
        if rho(rho(a)) != rho(a):
            return REFUTED, 'rho not idempotent at %r' % (q.label(a),)
        if (rho(a) == q.top) != (a == q.top):
            return REFUTED, 'rho(a) = 1 iff a = 1 fails at %r' % (q.label(a),)
        power = a
        while True:
            if rho(power) != rho(a):
                return REFUTED, 'rho of a power differs at %r' % (q.label(a),)
            following = q.mul(power, a)
            if following == power:
                break
            power = following
    for a in range(n):
        for b in range(n):
            if rho(q.meet(a, b)) != q.meet(rho(a), rho(b)):
                return REFUTED, 'rho(a^b) != rho(a)^rho(b) at (%r, %r)' % (
                    q.label(a), q.label(b))
            if rho(q.mul(a, b)) != q.meet(rho(a), rho(b)):
                return REFUTED, 'rho(ab) != rho(a)^rho(b) at (%r, %r)' % (
                    q.label(a), q.label(b))
            if rho(q.join(a, b)) != rho(q.join(rho(a), rho(b))):
                return REFUTED, 'rho(a v b) != rho(rho(a) v rho(b)) at (%r, %r)' % (
                    q.label(a), q.label(b))
            if (q.join(rho(a), rho(b)) == q.top) != (q.join(a, b) == q.top):
                return REFUTED, 'coprimality of radicals differs at (%r, %r)' % (
                    q.label(a), q.label(b))
    return PASS, ''


def class_map_laws(member):
    'The class-map-laws check as a loop over every pair (a, b), the laws at a first.'
    q = member.quantale
    ret = reticulate(q)
    lam, lat = ret.lam, ret
    n = len(q)
    if set(lam) != set(range(len(lat))):
        return REFUTED, 'class map is not surjective'
    if lam[q.bottom] != lat.bottom or lam[q.top] != lat.top:
        return REFUTED, 'bounds not preserved'
    for a in range(n):
        if lam[q.radical_of(a)] != lam[a]:
            return REFUTED, 'class differs from radical class at %r' % (q.label(a),)
        if lam[q.stable_power(a)] != lam[a]:
            return REFUTED, 'class of a stable power differs at %r' % (q.label(a),)
        for b in range(n):
            if lam[q.join(a, b)] != lat.join(lam[a], lam[b]):
                return REFUTED, 'join breaks at (%r, %r)' % (q.label(a), q.label(b))
            if lam[q.mul(a, b)] != lat.meet(lam[a], lam[b]):
                return REFUTED, 'product breaks at (%r, %r)' % (q.label(a), q.label(b))
            if lat.leq(lam[a], lam[b]) != q.leq(q.stable_power(a), b):
                return REFUTED, 'order criterion breaks at (%r, %r)' % (
                    q.label(a), q.label(b))
    return PASS, ''


def interval_radical_commutes(member):
    'The interval-radical-commutes check as a loop over every anchor a and every x.'
    q = member.quantale
    for a in range(len(q)):
        part, u = suite._interval(q, a)
        for x in range(len(q)):
            if part.carrier[part.radical_of(u(x))] != q.radical_of(q.join(a, x)):
                return REFUTED, 'rho(x v a) mismatch at (%r, %r)' % (
                    q.label(a), q.label(x))
    return PASS, ''


def kernel(u):
    'Join of everything the morphism sends to bottom.'
    lattice = u.source.lattice
    return join_all(lattice, (x for x in range(read_len(lattice))
                              if u(x) == u.target.bottom))


def emit_instance(q, generator=None):
    'Canonical document for a quantale, built as lists and written by json.dumps.'
    lab = q.label
    top = q.top
    doc = {
        'format': FORMAT,
        'elements': list(q.elements),
        'leq': [[lab(a), lab(b)] for a, b in q.lattice.poset.covers],
        'mul': [[lab(i), lab(j), lab(read_mul(q, i, j))]
                for i in range(len(q)) for j in range(i, len(q))
                if i != top and j != top],
    }
    if generator is not None:
        doc['generator'] = generator
    return json.dumps(doc, indent=2) + '\n'
