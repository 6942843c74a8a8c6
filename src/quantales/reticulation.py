'Reticulation of a finite quantale: radical classes, star maps, and transport isomorphisms.'

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from quantales.lattices import (
    DistLattice,
    FinitePoset,
    LatticeIdeal,
    LatticeMorphism,
    NotAnIdeal,
    all_ideals,
    first_law_failure,
    prime_ideals,
    maximal_ideals,
    quotient_by_ideal,
    unpreserved,
)
from quantales.quantale import (
    NotUnital,
    Quantale,
    QuantaleError,
    interval_quantale,
    radical_frame,
)


class AxiomViolation(QuantaleError):
    'A reticulation invariant failed during construction; indicates a bug.'


class NotAReticulation(QuantaleError):
    'A candidate lattice-with-surjection fails a reticulation axiom.'

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Reticulation:
    'Quotient of the carrier by equal radicals, carrying join and multiplication classwise.'

    def __init__(self, source):
        self.source = source
        n = len(source)
        by_radical = {}
        for c in range(n):
            by_radical.setdefault(source.radical_of(c), []).append(c)
        # canonical class order: ascending minimum-index representative
        groups = sorted(by_radical.items(), key=lambda kv: kv[1][0])
        self.classes = tuple(tuple(members) for _, members in groups)
        self.representatives = tuple(members[0] for _, members in groups)
        radicals = [rad for rad, _ in groups]
        lam = [0] * n
        for ci, (_, members) in enumerate(groups):
            for c in members:
                lam[c] = ci
        self.lam = tuple(lam)
        leq = source.lattice.poset.leq[np.ix_(radicals, radicals)]
        labels = [source.label(rep) for rep in self.representatives]
        self.lattice = DistLattice(FinitePoset(labels, leq))
        self._verify()

    def __len__(self):
        return len(self.classes)

    @cached_property
    def as_quantale(self):
        'The quotient lattice as a quantale with multiplication equal to meet.'
        return Quantale(self.lattice, self.lattice.meet_table)

    def _verify(self):
        source, lam, lattice = self.source, self.lam, self.lattice
        if set(lam) != set(range(len(self.classes))):
            raise AxiomViolation('class map is not surjective')
        classes = np.asarray(lam)
        masks = unpreserved(classes, (
            (source.lattice.join_table, lattice.join_table),
            (source.mul_table, lattice.meet_table)))
        # [a, b]: class(a) <= class(b) against a's stable power lying below b
        below = lattice.poset.leq[classes[:, None], classes]
        masks.append(below != source.lattice.poset.leq[source.stable_powers])
        hit = first_law_failure(masks)
        if hit is not None:
            a, b, law = hit
            raise AxiomViolation(
                ('join not classwise at %r, %r', 'product does not meet classwise at %r, %r',
                 'power criterion fails at %r, %r')[law] % (source.label(a), source.label(b)))
        if lam[source.bottom] != lattice.bottom or lam[source.top] != lattice.top:
            raise AxiomViolation('bounds not preserved by the class map')


@cache
def reticulate(q):
    'The reticulation of a quantale; cached per quantale object.'
    return Reticulation(q)


def _induced(classes, image):
    """Map on classes induced by image, and the first class that image splits, or None.
    classes[x] is the class of x, all of 0..k-1 occur, and a class goes where its first member goes."""
    classes, image = np.asarray(classes), np.asarray(image)
    _, first = np.unique(classes, return_index=True)
    mapping = image[first]
    split = classes[mapping[classes] != image]
    return tuple(mapping.tolist()), (int(split.min()) if split.size else None)


def _star(r, a):
    'Ideal of the classes of the elements below a.'
    members = {r.lam[c] for c in range(len(r.source)) if r.source.leq(c, a)}
    return LatticeIdeal(r.lattice, members)


def _unstar(r, ideal):
    'Join of the elements whose class lies in the ideal.'
    if ideal.lattice is not r.lattice:
        raise NotAnIdeal('ideal does not live in this reticulation lattice')
    return r.source.join_all(c for c in range(len(r.source)) if r.lam[c] in ideal.members)


def star(q, a):
    'Ideal {class(c) : c <= a} in the reticulation lattice.'
    return _star(reticulate(q), a)


def unstar(q, ideal):
    'Join of the elements whose class belongs to the ideal.'
    return _unstar(reticulate(q), ideal)


def frame_iso(q):
    'The inverse frame isomorphisms between radical elements and reticulation ideals.'
    r = reticulate(q)
    frame = radical_frame(q)
    phi = {a: _star(r, a) for a in frame.carrier}
    psi = {ideal: _unstar(r, ideal) for ideal in all_ideals(r.lattice)}
    if len(set(phi.values())) != len(phi) or set(psi) != set(phi.values()):
        raise QuantaleError('star map is not a bijection onto the ideals')
    for a, ideal in phi.items():
        if psi[ideal] != a:
            raise QuantaleError('star and unstar are not mutually inverse at %r' % (
                q.label(a),))
    for a in frame.carrier:
        for b in frame.carrier:
            ra, rb = frame.to_frame[a], frame.to_frame[b]
            join_dot = frame.carrier[frame.lattice.join(ra, rb)]
            if phi[join_dot].members != {
                    r.lattice.join(i, j) for i in phi[a].members for j in phi[b].members}:
                raise QuantaleError('star does not preserve frame joins')
            if phi[frame.carrier[frame.lattice.meet(ra, rb)]].members != (
                    phi[a].members & phi[b].members):
                raise QuantaleError('star does not preserve meets')
    for ideal in psi:
        for a in frame.carrier:
            # adjunction: unstar(I) <= a iff I contained in star(a)
            if q.leq(psi[ideal], a) != (ideal.members <= phi[a].members):
                raise QuantaleError('adjunction fails at %r' % (q.label(a),))
    return phi, psi


def spectrum_homeomorphism(q):
    'Inverse bijections between the quantale spectrum and the prime reticulation ideals.'
    r = reticulate(q)
    primes = prime_ideals(r.lattice)
    u = {p: _star(r, p) for p in q.spectrum}
    v = {ideal: _unstar(r, ideal) for ideal in primes}
    if set(u.values()) != set(primes) or len(set(u.values())) != len(u):
        raise QuantaleError('spectrum does not biject with prime ideals')
    for p, ideal in u.items():
        if v[ideal] != p:
            raise QuantaleError('spectrum maps are not mutually inverse at %r' % (
                q.label(p),))
    for a in range(len(q)):
        closed = {u[p] for p in q.spectrum if q.leq(a, p)}
        a_star = _star(r, a)
        closed_ideal = {P for P in primes if a_star.members <= P.members}
        if closed != closed_ideal:
            raise QuantaleError('closed-set correspondence fails at %r' % (q.label(a),))
    max_image = {u[m] for m in q.maximal_elements}
    if max_image != set(maximal_ideals(r.lattice)):
        raise QuantaleError('maximal elements do not biject with maximal ideals')
    return u, v


def mu(q):
    'Embedding of the reticulation into the radical frame: class(c) to radical(c).'
    r = reticulate(q)
    frame = radical_frame(q)
    mapping = tuple(
        frame.to_frame[q.radical_of(r.representatives[ci])] for ci in range(len(r)))
    morphism = LatticeMorphism(r.lattice, frame.lattice, mapping)
    if not morphism.is_injective():
        raise QuantaleError('reticulation embedding is not injective')
    if not morphism.is_surjective():
        # every radical element is the radical of itself, so finite carriers
        # force surjectivity
        raise QuantaleError('reticulation embedding is not surjective on a finite carrier')
    for c in range(len(q)):
        if frame.carrier[mapping[r.lam[c]]] != q.radical_of(c):
            raise QuantaleError('triangle radical = mu o class fails at %r' % (q.label(c),))
    return morphism


def lift_morphism(u):
    'The induced map on reticulations of a unital quantale morphism.'
    if not u.unital:
        raise NotUnital('reticulation lifting needs a unital morphism', ())
    ra = reticulate(u.source)
    rb = reticulate(u.target)
    mapping, split = _induced(ra.lam, np.asarray(rb.lam)[list(u.mapping)])
    if split is not None:
        raise QuantaleError('lifted map is not well defined on class %d' % (split,))
    return LatticeMorphism(ra.lattice, rb.lattice, mapping)


def interval_reticulation_iso(q, a):
    'Isomorphism between the reticulation of [a) and the reticulation quotient by star(a).'
    part, u_a = interval_quantale(q, a)
    r = reticulate(q)
    r_part = reticulate(part)
    a_star = star(q, a)
    quotient, p = quotient_by_ideal(r.lattice, a_star)
    lifted = lift_morphism(u_a)
    if {x for x, y in enumerate(lifted.mapping) if y == r_part.lattice.bottom} != a_star.members:
        raise QuantaleError('kernel of the lifted interval map is not star(a)')
    # factor the lifted map through the quotient: classes of the quotient are
    # fibers of join-with-class(a), so any section through p determines it
    mapping, split = _induced(p.mapping, lifted.mapping)
    if split is not None:
        raise QuantaleError('lifted map does not factor through the quotient')
    iso = LatticeMorphism(quotient, r_part.lattice, mapping)
    if not (iso.is_injective() and iso.is_surjective()):
        raise QuantaleError('interval reticulation comparison is not bijective')
    return iso


def boolean_isos(q):
    'The three center bijections: onto B(L(A)), onto B(R(A)), and between them.'
    r = reticulate(q)
    frame = radical_frame(q)
    center = q.center
    center_l = r.as_quantale.center
    center_r = frame.as_quantale.center
    b_lambda = {e: r.lam[e] for e in center}
    b_rho = {e: frame.to_frame[q.radical_of(e)] for e in center}
    embedding = mu(q)
    b_mu = {x: embedding(x) for x in center_l}
    _check_center_bijection(b_lambda, center, center_l, 'reticulation')
    _check_center_bijection(b_rho, center, center_r, 'radical frame')
    _check_center_bijection(b_mu, center_l, center_r, 'embedding')
    for e in center:
        if b_mu[b_lambda[e]] != b_rho[e]:
            raise QuantaleError('center triangle does not commute at %r' % (q.label(e),))
    return b_lambda, b_rho, b_mu


def _check_center_bijection(mapping, source_center, target_center, name):
    if set(mapping) != set(source_center):
        raise QuantaleError('center map on %s has the wrong domain' % (name,))
    if sorted(mapping.values()) != sorted(target_center):
        raise QuantaleError('center map on %s is not onto the target center' % (name,))
    if len(set(mapping.values())) != len(mapping):
        raise QuantaleError('center map on %s is not injective' % (name,))


def check_unicity(reticulation, lattice, lam):
    'Isomorphism onto a candidate reticulation, after checking its axioms.'
    q = reticulation.source
    lam = tuple(int(x) for x in lam)
    if len(lam) != len(q):
        raise NotAReticulation('candidate map length does not match the carrier')
    if set(lam) != set(range(len(lattice))):
        raise NotAReticulation('candidate map is not surjective')
    f = np.asarray(lam)
    # [a, b]: the join axiom class(a v b) <= class(a) v class(b), the product
    # axiom class(a*b) = class(a) ^ class(b), and the power axiom
    # class(a) <= class(b) iff a's stable power lies below b
    hit = first_law_failure([
        ~lattice.poset.leq[f[q.lattice.join_table], lattice.join_table[f[:, None], f]],
        f[q.mul_table] != lattice.meet_table[f[:, None], f],
        lattice.poset.leq[f[:, None], f] != q.lattice.poset.leq[q.stable_powers]])
    if hit is not None:
        a, b, law = hit
        raise NotAReticulation('candidate breaks the %s axiom' % (
            'join', 'product', 'power')[law], (q.label(a), q.label(b)))
    mapping, split = _induced(reticulation.lam, f)
    if split is not None:
        raise NotAReticulation('candidate classes do not refine radical classes', (split,))
    iso = LatticeMorphism(reticulation.lattice, lattice, mapping)
    if not (iso.is_injective() and iso.is_surjective()):
        raise NotAReticulation('comparison map is not bijective')
    return iso
