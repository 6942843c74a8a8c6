"""Reticulation of a finite quantale: radical classes, star maps, and transport isomorphisms.

An ideal of the finite reticulation lattice is the down-set of one element,
its generator, and is passed as that element."""

from __future__ import annotations

import operator
from functools import cache

import numpy as np

from quantales.lattices import (
    FinitePoset,
    NotAnIdeal,
    first_law_failure,
    first_true,
)
from quantales.quantale import (
    Quantale,
    QuantaleError,
    QuantaleMorphism,
    _check_induced_order,
    _element_index,
    interval_quantale,
)


class AxiomViolation(QuantaleError):
    'A reticulation invariant failed during construction; indicates a bug.'


class NotAReticulation(QuantaleError):
    'A candidate lattice-with-surjection fails a reticulation axiom.'

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Reticulation(Quantale):
    """Quotient of the carrier by equal radicals, carrying join and multiplication classwise.

    A bounded distributive lattice is the quantale whose multiplication is meet,
    and the reticulation is that quantale on the classes.  Its order is the
    source's on the radicals of the classes, and so are its join and meet,
    read classwise: lam(rho(a)) = lam(a), lam preserves joins and rho meets.
    _verify is the proof: the class map is onto and a QuantaleMorphism, which
    carries multiplication to meet, so the classes are its image and every
    quantale law of the source holds on them."""

    def __init__(self, source):
        self.source = source
        radical = source.radical_table
        by_radical = {}
        for c, rad in enumerate(radical):
            by_radical.setdefault(rad, []).append(c)
        # a dict keeps its keys in first-occurrence order, so the classes come
        # in the canonical order, ascending by least member
        self.classes = tuple(map(tuple, by_radical.values()))
        self.representatives = tuple(members[0] for members in self.classes)
        position = {rad: k for k, rad in enumerate(by_radical)}
        self.lam = tuple(position[rad] for rad in radical)
        at, lam = np.fromiter(by_radical, np.intp), np.array(self.lam, dtype=np.intp)
        grid = at[:, None], at
        meet = lam[source.meet_table[grid]]
        self._adopt(
            FinitePoset._from_order([source.label(rep) for rep in self.representatives],
                                    source.poset.leq[grid]),
            lam[source.join_table[grid]], meet, lam[source.bottom], lam[source.top], meet)
        self._verify()

    def _verify(self):
        source, lam = self.source, self.lam
        if set(lam) != set(range(len(self.classes))):
            raise AxiomViolation('class map is not surjective')
        QuantaleMorphism(source, self, lam)
        # [a, b]: class(a) <= class(b) against a's stable power lying below b
        classes = np.asarray(lam)
        hit = first_true(self.poset.leq[classes[:, None], classes]
                         != source.poset.leq[source.stable_powers])
        if hit is not None:
            raise AxiomViolation('power criterion fails at %r, %r' % (
                source.label(hit[0]), source.label(hit[1])))
        _check_induced_order(self, AxiomViolation, 'class')


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


def _generator(lattice, members):
    'Join of a mask of lattice elements, which must be exactly the down-set of that join.'
    members = np.asarray(members, dtype=bool)
    g = lattice.join_all(members.nonzero()[0].tolist())
    # in a finite lattice a set is an ideal iff it is the down-set of its join
    stray = first_true(members != lattice.poset.leq[:, g])
    if stray is not None:
        raise NotAnIdeal('not the down-set of its join %r: differs at %r' % (
            lattice.label(g), lattice.label(stray[0])))
    return g


def _star(r, a):
    'Generator of the ideal of the classes of the elements below a.'
    members = np.zeros(len(r), dtype=bool)
    members[np.asarray(r.lam)[r.source.poset.leq[:, a]]] = True
    return _generator(r, members)


def _unstar(r, x):
    'Join of the elements whose class lies below the reticulation element x.'
    if not 0 <= x < len(r):
        raise NotAnIdeal('%r is not an element of the reticulation lattice' % (x,))
    below = r.poset.leq[np.asarray(r.lam), x]
    return r.source.join_all(below.nonzero()[0].tolist())


def star(q, a):
    'Generator of the ideal {class(c) : c <= a} of the reticulation lattice.'
    return _star(reticulate(q), _element_index(q, a))


def unstar(q, x):
    'Join of the elements whose class lies in the ideal generated by x, an integer.'
    # operator.index refuses a float, and reads a bool as 0 or 1 rather than as a mask
    return _unstar(reticulate(q), operator.index(x))


def frame_iso(q):
    'The inverse frame isomorphisms between radical elements and reticulation ideals, by generator.'
    r = reticulate(q)
    frame = q.radical_frame
    phi = {a: _star(r, a) for a in frame.carrier}
    psi = {g: _unstar(r, g) for g in range(len(r))}
    if sorted(phi.values()) != list(psi):
        raise QuantaleError('star map is not a bijection onto the ideals')
    for a, g in phi.items():
        if psi[g] != a:
            raise QuantaleError('star and unstar are not mutually inverse at %r' % (
                q.label(a),))
    # star preserves the frame's joins and meets, and its bounds
    QuantaleMorphism(frame, r, tuple(phi.values()))
    # adjunction: unstar(g) <= a iff g <= star(a)
    hit = first_true(q.poset.leq[list(psi.values())][:, list(frame.carrier)]
                     != r.poset.leq[:, list(phi.values())])
    if hit is not None:
        raise QuantaleError('adjunction fails at %r' % (q.label(frame.carrier[hit[1]]),))
    return phi, psi


def spectrum_homeomorphism(q):
    'Inverse bijections between the spectrum and the prime reticulation ideals, by generator.'
    r = reticulate(q)
    primes = r.spectrum
    u = {p: _star(r, p) for p in q.spectrum}
    v = {g: _unstar(r, g) for g in primes}
    if sorted(u.values()) != list(primes):
        raise QuantaleError('spectrum does not biject with prime ideals')
    for p, g in u.items():
        if v[g] != p:
            raise QuantaleError('spectrum maps are not mutually inverse at %r' % (
                q.label(p),))
    # [a, p]: a below p against star(a) inside the prime ideal u(p)
    stars = [_star(r, a) for a in range(len(q))]
    hit = first_true(q.poset.leq[:, list(u)]
                     != r.poset.leq[stars][:, list(u.values())])
    if hit is not None:
        raise QuantaleError('closed-set correspondence fails at %r' % (q.label(hit[0]),))
    if sorted(u[m] for m in q.maximal_elements) != list(r.maximal_elements):
        raise QuantaleError('maximal elements do not biject with maximal ideals')
    return u, v


def mu(q):
    'Embedding of the reticulation into the radical frame: class(c) to radical(c).'
    r = reticulate(q)
    frame = q.radical_frame
    mapping = frame.to_frame[list(r.representatives)]
    morphism = QuantaleMorphism(r, frame, mapping)
    # every radical element is its own radical, so a finite carrier forces surjectivity
    if not morphism.is_bijective():
        raise QuantaleError('reticulation embedding is not bijective')
    hit = first_true(np.asarray(frame.carrier)[mapping[list(r.lam)]] != q.radical_table)
    if hit is not None:
        raise QuantaleError('triangle radical = mu o class fails at %r' % (q.label(hit[0]),))
    return morphism


def lift_morphism(u):
    'The induced map on reticulations of a quantale morphism.'
    ra = reticulate(u.source)
    rb = reticulate(u.target)
    mapping, split = _induced(ra.lam, np.asarray(rb.lam)[list(u.mapping)])
    if split is not None:
        raise QuantaleError('lifted map is not well defined on class %d' % (split,))
    return QuantaleMorphism(ra, rb, mapping)


def interval_reticulation_iso(q, a):
    'Isomorphism between the reticulation of [a) and the reticulation quotient by star(a).'
    part, u_a = interval_quantale(q, a)
    r = reticulate(q)
    r_part = reticulate(part)
    g = star(q, a)
    quotient, p = interval_quantale(r, g)
    lifted = lift_morphism(u_a)
    if not np.array_equal(np.asarray(lifted.mapping) == r_part.bottom, r.poset.leq[:, g]):
        raise QuantaleError('kernel of the lifted interval map is not star(a)')
    # factor the lifted map through the quotient: classes of the quotient are
    # fibers of join-with-class(a), so any section through p determines it
    mapping, split = _induced(p.mapping, lifted.mapping)
    if split is not None:
        raise QuantaleError('lifted map does not factor through the quotient')
    iso = QuantaleMorphism(quotient, r_part, mapping)
    if not iso.is_bijective():
        raise QuantaleError('interval reticulation comparison is not bijective')
    return iso


def boolean_isos(q):
    'The three center bijections: onto B(L(A)), onto B(R(A)), and between them.'
    r = reticulate(q)
    frame = q.radical_frame
    center = q.center
    center_l = r.center
    center_r = frame.center
    b_lambda = {e: r.lam[e] for e in center}
    b_rho = {e: frame.to_frame.item(e) for e in center}
    embedding = mu(q)
    b_mu = {x: embedding(x) for x in center_l}
    # each map is built over its source center and a target center has no repeats,
    # so one multiset comparison makes a map a bijection onto its target center
    for name, mapping, target in (('reticulation', b_lambda, center_l),
                                  ('radical frame', b_rho, center_r),
                                  ('embedding', b_mu, center_r)):
        if sorted(mapping.values()) != sorted(target):
            raise QuantaleError('center map on %s is not onto the target center' % (name,))
    for e in center:
        if b_mu[b_lambda[e]] != b_rho[e]:
            raise QuantaleError('center triangle does not commute at %r' % (q.label(e),))
    return b_lambda, b_rho, b_mu


def check_unicity(reticulation, candidate, lam):
    'Isomorphism onto a candidate reticulation, a meet-quantale, after checking its axioms.'
    q = reticulation.source
    hit = first_true(candidate.mul_table != candidate.meet_table)
    if hit is not None:
        raise NotAReticulation('candidate multiplication is not its meet',
                               tuple(map(candidate.label, hit)))
    lam = tuple(int(x) for x in lam)
    if len(lam) != len(q):
        raise NotAReticulation('candidate map length does not match the carrier')
    if set(lam) != set(range(len(candidate))):
        raise NotAReticulation('candidate map is not surjective')
    f = np.asarray(lam)
    # [a, b]: the join axiom class(a v b) <= class(a) v class(b), the product
    # axiom class(a*b) = class(a) ^ class(b), and the power axiom
    # class(a) <= class(b) iff a's stable power lies below b
    hit = first_law_failure([
        ~candidate.poset.leq[f[q.join_table], candidate.join_table[f[:, None], f]],
        f[q.mul_table] != candidate.meet_table[f[:, None], f],
        candidate.poset.leq[f[:, None], f] != q.poset.leq[q.stable_powers]])
    if hit is not None:
        a, b, law = hit
        raise NotAReticulation('candidate breaks the %s axiom' % (
            'join', 'product', 'power')[law], (q.label(a), q.label(b)))
    mapping, split = _induced(reticulation.lam, f)
    if split is not None:
        raise NotAReticulation('candidate classes do not refine radical classes', (split,))
    iso = QuantaleMorphism(reticulation, candidate, mapping)
    if not iso.is_bijective():
        raise NotAReticulation('comparison map is not bijective')
    return iso
