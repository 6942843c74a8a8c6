"""Spectra, radicals, the radical frame, and interval quantales.

Run:  python3 demos/02_spectrum_and_radical.py
"""

from quantales import generate, interval_quantale, jacobson_radical, kernel
from quantales.oracles import radical_by_powers

q = generate('zn:12')
labels = lambda items: [q.label(i) for i in items]

# m-prime elements play the role of prime ideals; maximal elements sit
# directly under the unit
print('m-primes:', labels(q.spectrum))
print('maximal: ', labels(q.maximal_elements))

# the radical of a is the meet of the m-primes above a; an independent
# characterization says c <= rho(a) iff some power of c drops below a
for a in range(len(q)):
    assert q.radical_of(a) == radical_by_powers(q, a)
print('radical table:', {q.label(a): q.label(q.radical_of(a)) for a in range(len(q))})
print('the two radical computations agree on every element')

# radical fixed points form a frame: join is radical-of-join, meet is meet,
# and multiplication collapses to meet, so the frame is itself a Quantale
# whose multiplication is meet; frame.to_frame[x] is the position of rho(x)
# among the radical elements, the index array of the radical morphism
frame = q.radical_frame
print('radical elements:', labels(frame.carrier))
assert all(frame.mul(i, j) == frame.meet(i, j)
           for i in range(len(frame)) for j in range(len(frame)))
assert tuple(frame.to_frame) == frame.radical_morphism.mapping
print('on radical elements multiplication is meet')

# the meet of all maximal elements
print('jacobson radical:', q.label(jacobson_radical(q)))

# every upper interval [a) is itself a quantale with x *_a y = (x*y) v a;
# the inclusion-of-constants map u_a has kernel exactly a, and
# part.to_interval[x], the position of x v a in the carrier, is its index array
ix = q.index_of
part, u = interval_quantale(q, ix('6'))
print('[6) carrier:', labels(part.carrier))
print('kernel of u_6:', q.label(kernel(u)))
two, three = part.to_interval[ix('2')], part.to_interval[ix('3')]
print('2 *_6 3 =', q.label(part.carrier[part.mul(two, three)]))
