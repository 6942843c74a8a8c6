"""The reticulation quotient and the bridges it carries.

An instance is quotiented by "same radical".  The result is a bounded
distributive lattice; its ideals (each the down-set of one element)
recover the radical elements, its prime ideals recover the m-primes, and
its complemented elements recover the center.

Run:  python3 demos/03_quotient_bridges.py
"""

from quantales import (
    boolean_isos, frame_iso, generate, reticulate, spectrum_homeomorphism,
    star, unstar)

q = generate('zn:12')

# the quotient is itself a Quantale whose multiplication is meet
ret = reticulate(q)
classes = {}
for a in range(len(q)):
    classes.setdefault(ret.lam[a], []).append(q.label(a))
print('quotient classes:', sorted(classes.values()))

# class map laws: joins pass through, products become meets
a, b = q.index_of('2'), q.index_of('3')
assert ret.lam[q.mul(a, b)] == ret.meet(ret.lam[a], ret.lam[b])
print('class(2 * 3) = class(2) ^ class(3)')

# star sends an element to the ideal of classes below it, given by its
# generator; unstar joins a class ideal back up; the round trip lands on
# the radical
four = q.index_of('4')
g = star(q, four)
print('star(4) =', tuple(ret.label(x) for x in sorted(ret.down_set(g))))
print('unstar(star(4)) =', q.label(unstar(q, g)), '= rho(4)')

# the two bridges, both verified as they are built:
#   radical elements <-> ideals of the quotient   (inverse frame isomorphisms)
#   m-primes        <-> prime ideals              (with closed sets matching)
phi, psi = frame_iso(q)
print('frame bridge carries %d radical elements' % len(phi))
u, v = spectrum_homeomorphism(q)
print('spectrum bridge carries %d m-primes' % len(u))

# the center travels along both bridges and the triangle of maps commutes
b_lambda, b_rho, b_mu = boolean_isos(q)
for e in b_lambda:
    assert b_mu[b_lambda[e]] == b_rho[e]
print('center triangle commutes over', [q.label(e) for e in sorted(b_lambda)])
