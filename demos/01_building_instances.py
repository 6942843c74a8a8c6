"""Building instances three ways: by hand, from a generator, from JSON.

Run:  python3 demos/01_building_instances.py
"""

import math

import numpy as np

from quantales import Quantale, build_lattice, generate, parse_instance, emit_instance
from quantales import NotDistributive

# ---------------------------------------------------------------------------
# by hand: the divisors of 12 ordered by reverse divisibility, with
# multiplication gcd(a*b, 12)

divisors = ['1', '2', '3', '4', '6', '12']
lat = build_lattice(
    divisors,
    [(a, b) for a in divisors for b in divisors if int(a) % int(b) == 0])
ix = lat.poset.index
mul = np.zeros((6, 6), dtype=np.intp)
for a in divisors:
    for b in divisors:
        mul[ix[a], ix[b]] = ix[str(math.gcd(int(a) * int(b), 12))]
d12 = Quantale(lat, mul)
print('hand-built instance:', d12.elements)
print('unit is the top:', d12.label(d12.top))
print('2 * 6 =', d12.label(d12.mul(ix['2'], ix['6'])))

# ---------------------------------------------------------------------------
# from a generator string: same instance in one line

same = generate('zn:12')
assert same.elements == d12.elements
assert (same.mul_table == d12.mul_table).all()
print('generator zn:12 rebuilds the same table')

# other generator families
print('chain:4,frame      ->', generate('chain:4,frame').elements)
print('boolean:2          ->', generate('boolean:2').elements)
print('downsets:z<x,z<y   ->', generate('downsets:z<x,z<y').elements)
print('product of chains  ->', generate('product:chain:2,frame;chain:2,frame').elements)

# ---------------------------------------------------------------------------
# from JSON: emit is canonical and parse inverts it exactly

doc = emit_instance(d12, 'zn:12')
again = parse_instance(doc)
assert again.elements == d12.elements
print('JSON round trip is exact (%d bytes)' % len(doc))

# ---------------------------------------------------------------------------
# the constructor rejects broken tables and names the axiom it lost

broken = mul.copy()
broken[ix['2'], ix['2']] = ix['1']  # a product may never climb above its factors
try:
    Quantale(lat, broken)
except NotDistributive as err:
    print('mutation rejected: NotDistributive, witness', err.witness)
