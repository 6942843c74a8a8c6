"""Fixture corpus, exhaustive enumeration of small instances and the law suite.

Every algebraic law the package relies on is registered here as a named
check.  run_suite evaluates a selection of checks over a corpus and
returns a report whose rows are PASS, REFUTED, NOT-APPLICABLE or
RECORDED.  A REFUTED row carries a payload that rebuilds the instance
and replays the failure; a RECORDED row states a corpus fact that is
tracked rather than asserted.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from time import perf_counter

import numpy as np

from . import io
from .lattices import (
    LatticeError, DistLattice, FiniteLattice, FinitePoset, NotALattice, NotAPoset, first_true)
from .oracles import (
    complement_of, has_id_blp, has_lp_per_anchor, lattice_is_id_local, normal_witness,
    radical_by_powers)
from .properties import (
    element_has_lp, has_lp, has_property_star, hyperarchimedean_equivalents,
    is_b_normal, is_hyperarchimedean, is_local, is_normal, is_semilocal,
    local_decomposition)
from .quantale import (
    AxiomError, Quantale, QuantaleError, QuantaleMorphism, TrivialQuantale,
    _interval_at, _isomorphism, _profile, decompose_by_elements,
    find_quantale_isomorphism, interval_quantale, jacobson_radical, kernel,
    is_injective, negation, product, residuum)
from .reticulation import (
    boolean_isos, check_unicity, frame_iso, interval_reticulation_iso,
    reticulate, spectrum_homeomorphism, star, unstar)

PASS = 'PASS'
REFUTED = 'REFUTED'
NOT_APPLICABLE = 'NOT-APPLICABLE'
RECORDED = 'RECORDED'


class BoundExceeded(QuantaleError):
    'Requested enumeration size above the configured bound.'


@dataclass(frozen=True)
class CorpusMember:
    name: str
    quantale: Quantale = field(compare=False)
    generator: str = None


class Corpus:
    'Named quantale instances; names are unique and order is fixed.'

    def __init__(self, members):
        self.members = tuple(members)
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError('duplicate corpus member names')
        self._by_name = {m.name: m for m in self.members}

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def names(self):
        return tuple(m.name for m in self.members)

    def get(self, name):
        return self._by_name[name]

    def extended(self, other):
        return Corpus(self.members + tuple(other))


FIXTURE_GENERATORS = (
    ('Q1', 'chain:1,frame'),
    ('C2', 'chain:2,frame'),
    ('C3', 'chain:3,frame'),
    ('B4', 'boolean:2'),
    ('W5', 'downsets:z<x,z<y'),
    ('D12', 'zn:12'),
    ('DIV4', 'zn:4'),
    ('DIV8', 'zn:8'),
    ('DIV30', 'zn:30'),
    ('DIV36', 'zn:36'),
    ('C3xC3', 'product:chain:3,frame;chain:3,frame'),
    ('D12xC3', 'product:zn:12;chain:3,frame'),
)


@lru_cache(maxsize=1)
def fixtures():
    'The default corpus: divisor quantales, frames and products of both.'
    return Corpus(
        CorpusMember(name, io.generate(gen), gen) for name, gen in FIXTURE_GENERATORS)


def _bounded_orders(n):
    """Order relations on range(n) with 0 at the bottom, n - 1 at the top and index
    order a linear extension, as boolean matrices.  The up-sets are chosen from
    row n - 2 down to row 1, each row's up-sets ascending as bit masks, which is
    the order of the masks over all pairs i < j that such a relation sets."""
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


def enumerate_lattices(n):
    'All lattices on n points up to isomorphism, in a deterministic order.'
    labels = ['x%d' % i for i in range(n)]
    out = []
    # kept lattices by sorted profile: only those with an equal one can match
    kept = {}
    for rel in _bounded_orders(n):
        try:
            lattice = FiniteLattice(FinitePoset(labels, rel))
        except (NotAPoset, NotALattice):
            continue
        # non-distributive lattices have no meet-quantale, so compare tables
        tables = (lattice.poset.leq, lattice.meet_table)
        rivals = kept.setdefault(tuple(sorted(_profile(*tables))), [])
        if all(_isomorphism(tables, k) is None for k in rivals):
            rivals.append(tables)
            out.append(lattice)
    return tuple(out)


def _mul_candidates(lattice):
    """Symmetric unital tables within the derived bound x*y <= x^y that pass the
    laws Quantale._validate checks, in the order of the cartesian product of the
    entries' ranges.  Entries are filled depth first; each assignment checks the
    laws it has just made decidable, so a failing branch is cut where it fails."""
    n = len(lattice)
    top = lattice.top
    pairs = [(i, j) for i in range(n) for j in range(i, n) if top not in (i, j)]
    domains = [sorted(lattice.down_set(lattice.meet(i, j))) for i, j in pairs]
    join = lattice.join_table.tolist()
    mul = [[-1] * n for _ in range(n)]
    step = [[-1] * n for _ in range(n)]
    mul[top] = list(range(n))
    for x in range(n):
        mul[x][top] = x
    for k, (i, j) in enumerate(pairs):
        step[i][j] = step[j][i] = k
    # triples through the top hold in every such table (unit, and x*y <= x), so
    # only triples of other elements are checked.  A distributivity triple
    # x*(y v z) = x*y v x*z, y <= z, is decided at the step of the last entry it
    # reads.  An associativity triple (x*y)*z = x*(y*z), x <= y <= z by index (the
    # only ones Quantale._validate scans), is queued at the step of its later
    # direct entry and decided once the two entries its products pick are set.
    rest = [x for x in range(n) if x != top]
    distributive = [[] for _ in pairs]
    associative = [[] for _ in pairs]
    for x in rest:
        for y in rest:
            for z in rest:
                if y <= z:
                    yz = join[y][z]
                    distributive[max(step[x][yz], step[x][y], step[x][z])].append((x, yz, y, z))
                if x <= y <= z:
                    associative[max(step[x][y], step[y][z])].append((x, y, z))
    pending = [[] for _ in pairs]

    def holds(k, queued):
        for x, yz, y, z in distributive[k]:
            if mul[x][yz] != join[mul[x][y]][mul[x][z]]:
                return False
        for x, y, z in associative[k]:
            xy, yz = mul[x][y], mul[y][z]
            last = max(step[xy][z], step[x][yz])
            if last > k:
                pending[last].append((x, y, z))
                queued.append(last)
            elif mul[xy][z] != mul[x][yz]:
                return False
        return all(mul[mul[x][y]][z] == mul[x][mul[y][z]] for x, y, z in pending[k])

    def fill(k):
        if k == len(pairs):
            yield np.array(mul, dtype=np.intp)
            return
        i, j = pairs[k]
        for value in domains[k]:
            mul[i][j] = mul[j][i] = value
            queued = []
            if holds(k, queued):
                yield from fill(k + 1)
            for last in queued:
                pending[last].pop()

    yield from fill(0)


def enumerate_quantales(max_size, bound=5):
    'Every quantale with at most max_size elements, one per isomorphism class.'
    if max_size > bound:
        raise BoundExceeded('size %d exceeds the enumeration bound %d' % (max_size, bound))
    out = []
    for n in range(1, max_size + 1):
        for lattice in enumerate_lattices(n):
            # the lattices are pairwise non-isomorphic, so only classes on this one
            # can match, and of those only the ones with the same sorted profile
            kept = {}
            for mul in _mul_candidates(lattice):
                try:
                    q = Quantale(lattice, mul)
                except AxiomError:
                    continue
                rivals = kept.setdefault(
                    tuple(sorted(_profile(lattice.poset.leq, q.mul_table))), [])
                if all(find_quantale_isomorphism(q, k) is None for k in rivals):
                    rivals.append(q)
                    out.append(q)
    return tuple(out)


def enumerated(max_size, bound=5):
    'Corpus over enumerate_quantales, members named by size and position.'
    members = []
    count = {}
    for q in enumerate_quantales(max_size, bound):
        n = len(q)
        count[n] = count.get(n, 0) + 1
        members.append(CorpusMember('E%d.%d' % (n, count[n]), q))
    return Corpus(members)


# ---------------------------------------------------------------------------
# check registry

@dataclass(frozen=True)
class Check:
    name: str
    summary: str
    run: callable = field(compare=False)


CHECKS = {}


def _check(name, summary):
    def register(fn):
        CHECKS[name] = Check(name, summary, fn)
        return fn
    return register


@dataclass(frozen=True)
class CheckResult:
    check: str
    member: str
    status: str
    detail: str = ''
    payload: dict = field(default=None, compare=False)


def _run_check(check, member):
    try:
        outcome = check.run(member)
    except (QuantaleError, LatticeError, AssertionError) as exc:
        # a one-point member has no maximal elements and no splitting, so a law
        # about them does not apply; inside a larger member the same error is a fault
        if isinstance(exc, TrivialQuantale) and len(member.quantale) == 1:
            outcome = (NOT_APPLICABLE, str(exc))
        else:
            outcome = (REFUTED, '%s: %s' % (type(exc).__name__, exc))
    status, detail = outcome
    payload = None
    if status == REFUTED:
        payload = {
            'check': check.name,
            'member': member.name,
            'generator': member.generator,
            'document': io.emit_instance(member.quantale, member.generator),
            'detail': detail,
        }
    return CheckResult(check.name, member.name, status, detail, payload)


def replay(payload):
    'Re-run a refuting report entry from its serialized instance.'
    q = io.parse_instance(payload['document'])
    member = CorpusMember(payload['member'], q, payload.get('generator'))
    return _run_check(CHECKS[payload['check']], member)


@dataclass(frozen=True)
class VerificationReport:
    members: tuple
    checks: tuple
    results: tuple
    timings: dict = field(compare=False)

    def ok(self):
        return not self.failures()

    def failures(self):
        return tuple(r for r in self.results if r.status == REFUTED)

    def counts(self):
        out = {}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_text(self, include_timings=True):
        lines = ['members: %s' % ', '.join(self.members),
                 'checks: %d, entries: %d' % (len(self.checks), len(self.results))]
        for r in self.results:
            row = '%-36s %-8s %s' % (r.check, r.member, r.status)
            if r.detail:
                row += '  [%s]' % r.detail
            lines.append(row)
        counts = self.counts()
        summary = ', '.join('%d %s' % (counts[k], k) for k in
                            (PASS, RECORDED, NOT_APPLICABLE, REFUTED) if k in counts)
        lines.append('result: %s (%s)' % ('PASS' if self.ok() else 'REFUTED', summary))
        if include_timings:
            total = sum(self.timings.values())
            lines.append('timing: total %.2fs' % total)
            for name in self.checks:
                lines.append('timing: %-36s %.3fs' % (name, self.timings[name]))
        return '\n'.join(lines) + '\n'

    def fingerprint(self):
        'Report text without the timing block; identical across reruns.'
        return self.to_text(include_timings=False)


def run_suite(corpus, checks=None):
    'Evaluate the selected checks (default: all) over every corpus member.'
    if checks is None:
        names = list(CHECKS)
    else:
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise ValueError('unknown checks: %s (known: %s)' % (
                ', '.join(unknown), ', '.join(CHECKS)))
        wanted = set(checks)
        names = [c for c in CHECKS if c in wanted]
    results = []
    timings = {}
    for name in names:
        start = perf_counter()
        for member in corpus:
            results.append(_run_check(CHECKS[name], member))
        timings[name] = perf_counter() - start
    return VerificationReport(
        tuple(m.name for m in corpus), tuple(names), tuple(results), timings)


# ---------------------------------------------------------------------------
# shared helpers

# an lru_cache still, because perfbench/tracing.py reads its cache_info()
@lru_cache(maxsize=None)
def _interval(q, a):
    return interval_quantale(q, a)


@lru_cache(maxsize=None)
def _product_structure(generator):
    'Factors, product and projections rebuilt from a product generator string.'
    parts = generator[len('product:'):].split(';')
    factors = [io.generate(part) for part in parts]
    prod, projections = product(factors)
    return tuple(factors), prod, tuple(projections)


def _product_parts(member):
    if not member.generator or not member.generator.startswith('product:'):
        return None
    factors, prod, projections = _product_structure(member.generator)
    if prod.elements != member.quantale.elements:
        raise QuantaleError('product rebuilt from %r differs' % (member.generator,))
    return factors, prod, projections


def _surjection_family(member):
    'The canonical surjections out of a member: every u_a, plus projections.'
    q = member.quantale
    for a in range(len(q)):
        part, u = _interval(q, a)
        yield 'u_%s' % q.label(a), u
    parts = _product_parts(member)
    if parts:
        factors, prod, projections = parts
        for k, proj in enumerate(projections):
            yield 'proj_%d' % (k + 1), proj


def _coprime_pairs(q):
    n = len(q)
    return [(a, b) for a in range(n) for b in range(a, n) if q.join(a, b) == q.top]


def _vacuous(premise):
    return PASS, 'premise is false (%s), implication holds vacuously' % premise


def _transfer(verdict, name, q, targets, passed=''):
    """PASS when the verdict holds on q and on every (where, target) pair with more
    than one element; the pairs are read only while it holds."""
    if not verdict(q):
        return _vacuous('no %s' % name)
    for where, target in targets:
        if len(target) > 1:
            held = verdict(target)
            if not held:
                return REFUTED, '%s lost %s at %r' % (name, where, held.witness)
    return PASS, passed


def _agreement(legs, values=None, passed=None):
    """PASS if the values (by default the legs') agree, else REFUTED with the legs as name=value.
    A PASS shows passed instead when it is given."""
    detail = ' '.join('%s=%s' % leg for leg in legs.items())
    if len(set(legs.values() if values is None else values)) != 1:
        return REFUTED, detail
    return PASS, detail if passed is None else passed


# ---------------------------------------------------------------------------
# base structure

@_check('quantale-axioms',
        'the stored tables satisfy all quantale axioms and survive a round trip')
def _check_axioms(member):
    q = member.quantale
    Quantale(q.lattice, q.mul_table)
    again = io.parse_instance(io.emit_instance(q, member.generator))
    if again.elements != q.elements:
        return REFUTED, 'round trip changes the elements'
    for part, before, after in (
            ('multiplication', q.mul_table, again.mul_table),
            ('order', q.lattice.poset.leq, again.lattice.poset.leq)):
        hit = first_true(before != after)
        if hit is not None:
            return REFUTED, 'round trip changes the %s at (%r, %r)' % (
                part, q.label(hit[0]), q.label(hit[1]))
    return PASS, '%d elements' % len(q)


@_check('residuation-adjunction',
        'a <= (b -> c) exactly when a*b <= c')
def _check_adjunction(member):
    q = member.quantale
    n = len(q)
    res = [[residuum(q, b, c) for c in range(n)] for b in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if q.leq(a, res[b][c]) != q.leq(q.mul(a, b), c):
                    return REFUTED, 'adjunction fails at (%r, %r, %r)' % (
                        q.label(a), q.label(b), q.label(c))
    return PASS, ''


@_check('coprime-products',
        'products of coprime elements behave like meets')
def _check_coprime(member):
    q = member.quantale
    n = len(q)
    top = q.top
    for a, b in _coprime_pairs(q):
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
    return PASS, '%d coprime pairs' % len(_coprime_pairs(q))


@_check('proper-below-maximal',
        'every element below the unit lies below a maximal element')
def _check_proper_below_maximal(member):
    q = member.quantale
    maxima = q.maximal_elements
    for a in range(len(q)):
        if a != q.top and not any(q.leq(a, m) for m in maxima):
            return REFUTED, '%r is below no maximal element' % (q.label(a),)
    return PASS, '%d maximal elements' % len(maxima)


@_check('spectrum-inside-maximals',
        'corpus fact, tracked not asserted: whether every m-prime is maximal')
def _check_spectrum_inside_maximals(member):
    q = member.quantale
    maxima = set(q.maximal_elements)
    strays = [p for p in q.spectrum if p not in maxima]
    if strays:
        return RECORDED, 'fails: %d of %d m-primes are not maximal, first %r' % (
            len(strays), len(q.spectrum), q.label(strays[0]))
    return RECORDED, 'holds: all %d m-primes are maximal' % len(q.spectrum)


@_check('radical-laws',
        'the radical is an idempotent closure that turns products into meets')
def _check_radical_laws(member):
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


@_check('radical-power-oracle',
        'meet of m-primes above a equals the join of elements with a stable power below a')
def _check_radical_oracle(member):
    q = member.quantale
    for a in range(len(q)):
        direct = q.radical_of(a)
        oracle = radical_by_powers(q, a)
        if direct != oracle:
            return REFUTED, 'rho(%r): spectrum meet %r, power oracle %r' % (
                q.label(a), q.label(direct), q.label(oracle))
        for c in range(len(q)):
            if q.leq(c, direct) != q.leq(q.stable_power(c), a):
                return REFUTED, 'power criterion fails at (%r, %r)' % (
                    q.label(c), q.label(a))
    return PASS, ''


@_check('radical-frame-carrier',
        'the radical fixed points form a frame and are exactly the radical image')
def _check_radical_frame_carrier(member):
    q = member.quantale
    frame = q.radical_frame
    image = sorted({q.radical_of(a) for a in range(len(q))})
    if list(frame.carrier) != image:
        return REFUTED, 'fixed points differ from the radical image'
    frame.as_quantale
    frame.radical_morphism
    return PASS, '%d radical elements' % len(frame.carrier)


# ---------------------------------------------------------------------------
# reticulation

@_check('reticulation-axioms',
        'the quotient by equal radicals is a bounded distributive lattice quotient')
def _check_reticulation_axioms(member):
    ret = reticulate(member.quantale)
    return PASS, '%d classes' % len(ret)


@_check('class-map-laws',
        'the class map is a surjective bound-preserving join morphism turning products into meets')
def _check_class_map(member):
    q = member.quantale
    ret = reticulate(q)
    lam, lat = ret.lam, ret.lattice
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


@_check('reticulation-unicity',
        'any lattice satisfying the quotient axioms is isomorphic over the class map')
def _check_unicity(member):
    q = member.quantale
    ret = reticulate(q)
    frame = q.radical_frame
    onto_frame = check_unicity(
        ret, frame.lattice,
        tuple(frame.to_frame[q.radical_of(a)] for a in range(len(q))))
    m = len(ret)
    swap = tuple(m - 1 - i for i in range(m))
    # relabeled[swap[i], swap[j]] = leq[i, j], and swap reverses the indices
    relabeled = ret.lattice.poset.leq[::-1, ::-1]
    copy = DistLattice(FinitePoset(['k%d' % i for i in range(m)], relabeled))
    onto_copy = check_unicity(ret, copy, tuple(swap[ret.lam[a]] for a in range(len(q))))
    if not (onto_frame.is_injective() and onto_copy.is_injective()):
        raise QuantaleError('a matched candidate is not injective')
    return PASS, 'two candidates matched'


@_check('star-unstar-laws',
        'down-classes and class joins are mutually inverse on ideals and radicals')
def _check_star_unstar(member):
    q = member.quantale
    ret = reticulate(q)
    for g in range(len(ret)):
        if star(q, unstar(q, g)) != g:
            return REFUTED, 'star(unstar(I)) != I at ideal %r' % (
                sorted(map(ret.lattice.label, ret.lattice.down_set(g))),)
    for a in range(len(q)):
        if unstar(q, star(q, a)) != q.radical_of(a):
            return REFUTED, 'unstar(star(a)) != rho(a) at %r' % (q.label(a),)
    primes = ret.as_quantale.spectrum
    for p in q.spectrum:
        image = star(q, p)
        if image not in primes:
            return REFUTED, 'star of m-prime %r is not a prime ideal' % (q.label(p),)
        if unstar(q, image) != p:
            return REFUTED, 'unstar(star(p)) != p at m-prime %r' % (q.label(p),)
    spectrum = set(q.spectrum)
    for g in primes:
        if unstar(q, g) not in spectrum:
            return REFUTED, 'unstar of prime ideal %r is not m-prime' % (
                sorted(map(ret.lattice.label, ret.lattice.down_set(g))),)
    return PASS, '%d ideals, %d prime' % (len(ret), len(primes))


@_check('star-of-radical',
        'an element and its radical have the same down-class ideal')
def _check_star_of_radical(member):
    q = member.quantale
    for a in range(len(q)):
        if star(q, a) != star(q, q.radical_of(a)):
            return REFUTED, 'star(a) != star(rho(a)) at %r' % (q.label(a),)
    return PASS, ''


@_check('frame-ideal-isomorphism',
        'radical elements and ideals of the quotient are isomorphic frames')
def _check_frame_iso(member):
    phi, psi = frame_iso(member.quantale)
    return PASS, '%d radical elements' % len(phi)


@_check('spectrum-correspondence',
        'm-primes and prime ideals correspond, matching closed sets and maximals')
def _check_spectrum_correspondence(member):
    u, v = spectrum_homeomorphism(member.quantale)
    return PASS, '%d m-primes' % len(u)


# ---------------------------------------------------------------------------
# the center

@_check('center-laws',
        'complemented elements absorb meets into products and split residua')
def _check_center_laws(member):
    q = member.quantale
    n = len(q)
    central = set(q.center)
    for a in range(n):
        coend = q.join(a, negation(q, a)) == q.top
        if (a in central) != coend:
            return REFUTED, 'center membership differs from a v a~ = 1 at %r' % (
                q.label(a),)
    for a, b in _coprime_pairs(q):
        if q.mul(a, b) == q.bottom and not (a in central and b in central):
            return REFUTED, 'coprime pair (%r, %r) with zero product not central' % (
                q.label(a), q.label(b))
    for e in central:
        for a in range(n):
            if q.meet(e, a) != q.mul(e, a):
                return REFUTED, 'e^a != e*a at (%r, %r)' % (q.label(e), q.label(a))
            if residuum(q, e, a) != q.join(negation(q, e), a):
                return REFUTED, 'e -> a != e~ v a at (%r, %r)' % (q.label(e), q.label(a))
            for b in range(n):
                if q.join(q.meet(a, b), e) != q.meet(q.join(a, e), q.join(b, e)):
                    return REFUTED, 'join over e not distributive at (%r, %r, %r)' % (
                        q.label(a), q.label(b), q.label(e))
    return PASS, '%d central elements' % len(central)


@_check('morphisms-preserve-center',
        'unital morphisms carry complemented elements to complemented elements')
def _check_morphisms_preserve_center(member):
    q = member.quantale
    checked = 0
    for name, u in _surjection_family(member):
        target_center = set(u.target.center)
        for e in q.center:
            if u(e) not in target_center:
                return REFUTED, '%s maps central %r outside the center' % (
                    name, q.label(e))
        checked += 1
    return PASS, '%d morphisms' % checked


@_check('center-is-compact',
        'every central element is a finite join of join-irreducible elements')
def _check_center_compact(member):
    q = member.quantale
    irreducible = q.lattice.poset.join_irreducibles.tolist()
    for e in q.center:
        parts = [j for j in irreducible if q.leq(j, e)]
        if q.join_all(parts) != e:
            return REFUTED, '%r is not the join of its join-irreducibles' % (q.label(e),)
    return PASS, '%d join-irreducibles' % len(irreducible)


@_check('center-in-reticulation',
        'images of central elements are complemented in the quotient and the radical frame')
def _check_center_in_reticulation(member):
    q = member.quantale
    ret = reticulate(q)
    frame = q.radical_frame
    for e in q.center:
        if complement_of(ret.lattice, ret.lam[e]) is None:
            return REFUTED, 'class of central %r has no complement' % (q.label(e),)
        if complement_of(frame.lattice, frame.to_frame[q.radical_of(e)]) is None:
            return REFUTED, 'radical of central %r has no complement' % (q.label(e),)
    return PASS, ''


@_check('center-isomorphisms',
        'the class map, the radical and the comparison map restrict to center bijections')
def _check_center_isomorphisms(member):
    b_lambda, b_rho, b_mu = boolean_isos(member.quantale)
    return PASS, 'center size %d' % len(b_lambda)


@_check('hyperarchimedean-equivalence',
        'powers reaching the center, a Boolean quotient and a maximal spectrum coincide')
def _check_hyperarchimedean(member):
    q = member.quantale
    legs = hyperarchimedean_equivalents(q)
    values = [legs['powers_reach_center'], legs['reticulation_boolean'],
              legs['maximals_exhaust_spectrum']]
    zero_dim = legs['radical_frame_zero_dimensional']
    shown = dict(legs)
    if zero_dim is None:
        shown['radical_frame_zero_dimensional'] = 'n/a (not semiprime)'
    else:
        values.append(zero_dim)
    return _agreement(dict(sorted(shown.items())), values)


# ---------------------------------------------------------------------------
# intervals

@_check('interval-quantales',
        'every up-set carries a quantale whose radical agrees with the ambient one')
def _check_interval_quantales(member):
    q = member.quantale
    for a in range(len(q)):
        part, u = _interval(q, a)
        for x in part.carrier:
            inside = part.carrier[part.radical_of(part.to_interval[x])]
            if inside != q.radical_of(x):
                return REFUTED, 'radical differs on [%r) at %r' % (
                    q.label(a), q.label(x))
    return PASS, '%d intervals' % len(q)


@_check('interval-radical-commutes',
        'joining the anchor and taking radicals commute')
def _check_interval_radical_commutes(member):
    q = member.quantale
    for a in range(len(q)):
        part, u = _interval(q, a)
        for x in range(len(q)):
            if part.carrier[part.radical_of(u(x))] != q.radical_of(q.join(a, x)):
                return REFUTED, 'rho(x v a) mismatch at (%r, %r)' % (
                    q.label(a), q.label(x))
    return PASS, ''


@_check('interval-reticulation',
        'the quotient of an interval is the quotient of the ambient quantale by the anchor class')
def _check_interval_reticulation(member):
    q = member.quantale
    for a in range(len(q)):
        interval_reticulation_iso(q, a)
    return PASS, '%d anchors' % len(q)


# ---------------------------------------------------------------------------
# lifting

@_check('lifting-equivalence',
        'lifting for the quantale, its radical frame and its quotient agree with B-normality for all three')
def _check_lifting_equivalence(member):
    q = member.quantale
    frame = q.radical_frame.as_quantale
    quotient = reticulate(q)
    lifting = {}
    for name, part in (('quantale', q), ('frame', frame)):
        lifting[name] = has_lp(part)
        oracle = has_lp_per_anchor(part)
        if lifting[name] != oracle:
            return REFUTED, '%s-lifting %r, per-anchor oracle %r' % (name, lifting[name], oracle)
    verdicts = {
        'quantale-lifting': bool(lifting['quantale']),
        'frame-lifting': bool(lifting['frame']),
        'quotient-ideal-lifting': bool(has_id_blp(quotient.lattice)),
        'quantale-b-normal': bool(is_b_normal(q)),
        'frame-b-normal': bool(is_b_normal(frame)),
        'quotient-b-normal': normal_witness(
            quotient.as_quantale, quotient.as_quantale.center) is None,
    }
    return _agreement(verdicts)


@_check('local-equivalence',
        'having one maximal element transfers to the radical frame and the quotient')
def _check_local_equivalence(member):
    q = member.quantale
    values = {
        'quantale': is_local(q),
        'frame': is_local(q.radical_frame.as_quantale),
        'quotient': lattice_is_id_local(reticulate(q).lattice),
    }
    return _agreement(values)


@_check('semilocal-equivalence',
        'finitely many maximal elements transfers to the radical frame and the quotient')
def _check_semilocal_equivalence(member):
    q = member.quantale
    values = {
        'quantale': is_semilocal(q),
        'frame': is_semilocal(q.radical_frame.as_quantale),
        'quotient': len(reticulate(q).as_quantale.maximal_elements) >= 0,
    }
    return _agreement(values, passed='finite carriers are always semilocal')


@_check('local-implies-lifting', 'a local quantale lifts every central element')
def _check_local_implies_lifting(member):
    q = member.quantale
    if not is_local(q):
        return _vacuous('not local')
    lifting = has_lp(q)
    if not lifting:
        return REFUTED, 'local but lifting fails at %r' % (lifting.witness,)
    return PASS, 'local and lifting holds'


@_check('chain-reticulation-implies-lifting',
        'a totally ordered quotient forces the lifting property')
def _check_chain_implies_lifting(member):
    q = member.quantale
    lat = reticulate(q).lattice
    m = len(lat)
    chain = all(lat.leq(i, j) or lat.leq(j, i) for i in range(m) for j in range(m))
    if not chain:
        return _vacuous('quotient is not a chain')
    lifting = has_lp(q)
    if not lifting:
        return REFUTED, 'chain quotient but lifting fails at %r' % (lifting.witness,)
    return PASS, 'chain quotient and lifting holds'


@_check('hyperarchimedean-implies-lifting',
        'stable powers landing in the center force the lifting property')
def _check_hyper_implies_lifting(member):
    q = member.quantale
    if not is_hyperarchimedean(q):
        return _vacuous('not hyperarchimedean')
    lifting = has_lp(q)
    if not lifting:
        return REFUTED, 'hyperarchimedean but lifting fails at %r' % (lifting.witness,)
    return PASS, 'hyperarchimedean and lifting holds'


@_check('lifting-passes-to-intervals',
        'the lifting property is inherited by every interval quantale')
def _check_lifting_to_intervals(member):
    q = member.quantale
    intervals = (('on [%r)' % (q.label(a),), _interval(q, a)[0]) for a in range(len(q)))
    return _transfer(has_lp, 'lifting', q, intervals, '%d intervals keep lifting' % len(q))


@_check('kernel-detects-injectivity',
        'a canonical surjection is injective exactly when its kernel is the zero')
def _check_kernel_injectivity(member):
    q = member.quantale
    for name, u in _surjection_family(member):
        zero_kernel = kernel(u) == u.source.bottom
        if is_injective(u) != zero_kernel:
            return REFUTED, '%s: kernel criterion disagrees' % name
    return PASS, ''


@_check('surjections-restrict-to-isomorphisms',
        'a surjection becomes an isomorphism above its kernel')
def _check_surjection_restriction(member):
    q = member.quantale
    checked = 0
    for name, u in _surjection_family(member):
        if not u.is_surjective():
            raise QuantaleError('%s is not surjective' % name)
        part = _interval_at(u.source, kernel(u))
        restriction = QuantaleMorphism(
            part, u.target, tuple(u(x) for x in part.carrier))
        if len(set(restriction.mapping)) != len(part) or not restriction.is_surjective():
            return REFUTED, '%s does not restrict to a bijection' % name
        checked += 1
    return PASS, '%d restrictions' % checked


@_check('surjections-preserve-lifting',
        'the lifting property travels along canonical surjections')
def _check_surjections_preserve_lifting(member):
    targets = (('along %s' % name, u.target) for name, u in _surjection_family(member))
    return _transfer(has_lp, 'lifting', member.quantale, targets)


# ---------------------------------------------------------------------------
# normality


@_check('normality-compact-reduction',
        'normality quantified over all elements agrees with the package verdict')
def _check_normality_reduction(member):
    q = member.quantale
    independent = normal_witness(q, range(len(q))) is None
    if independent != bool(is_normal(q)):
        return REFUTED, 'independent scan disagrees with is_normal'
    return PASS, 'normal=%s (all elements are compact here)' % independent


@_check('b-normality-compact-reduction',
        'B-normality quantified over all elements agrees with the package verdict')
def _check_b_normality_reduction(member):
    q = member.quantale
    independent = normal_witness(q, q.center) is None
    if independent != bool(is_b_normal(q)):
        return REFUTED, 'independent scan disagrees with is_b_normal'
    return PASS, 'b-normal=%s (all elements are compact here)' % independent


@_check('normality-equivalence',
        'normality for the quantale, its radical frame and its quotient coincide')
def _check_normality_equivalence(member):
    q = member.quantale
    quotient = reticulate(q).as_quantale
    values = {
        'quantale': bool(is_normal(q)),
        'frame': bool(is_normal(q.radical_frame.as_quantale)),
        'quotient': normal_witness(quotient, range(len(quotient))) is None,
    }
    return _agreement(values)


@_check('radical-join-collapse',
        'only the unit joins with the intersection of maximals to the unit')
def _check_radical_join_collapse(member):
    q = member.quantale
    r = jacobson_radical(q)
    for a in range(len(q)):
        if q.join(a, r) == q.top and a != q.top:
            return REFUTED, '%r v r = 1 with %r != 1' % (q.label(a), q.label(a))
    return PASS, 'r = %r' % (q.label(r),)


@_check('normality-lifts-radical',
        'a normal quantale lifts the center over the intersection of maximals')
def _check_normality_lifts_radical(member):
    q = member.quantale
    r = jacobson_radical(q)
    if not is_normal(q):
        return _vacuous('not normal')
    verdict = element_has_lp(q, r)
    if not verdict:
        return REFUTED, 'normal but %r lacks lifting at %r' % (
            q.label(r), verdict.witness)
    return PASS, 'normal and %r lifts' % (q.label(r),)


# ---------------------------------------------------------------------------
# the decomposition property

@_check('star-implies-lifting',
        'splitting every element below the radical plus a central part forces lifting')
def _check_star_implies_lifting(member):
    q = member.quantale
    if not has_property_star(q):
        return _vacuous('no splitting')
    lifting = has_lp(q)
    if not lifting:
        return REFUTED, 'splits everywhere but lifting fails at %r' % (lifting.witness,)
    return PASS, 'splitting and lifting both hold'


@_check('star-passes-to-radical-frame',
        'the splitting property transfers to the radical frame')
def _check_star_to_frame(member):
    q = member.quantale
    # a generator, so the frame is read only once q splits
    frame = (('on the radical frame', q.radical_frame.as_quantale) for q in [q])
    return _transfer(has_property_star, 'splitting', q, frame)


@_check('star-passes-to-intervals',
        'the splitting property transfers to every interval quantale')
def _check_star_to_intervals(member):
    q = member.quantale
    intervals = (('on [%r)' % (q.label(a),), _interval(q, a)[0]) for a in range(len(q)))
    return _transfer(has_property_star, 'splitting', q, intervals)


@_check('surjections-preserve-star',
        'the splitting property travels along canonical surjections')
def _check_surjections_preserve_star(member):
    targets = (('along %s' % name, u.target) for name, u in _surjection_family(member))
    return _transfer(has_property_star, 'splitting', member.quantale, targets)


# ---------------------------------------------------------------------------
# products

@_check('coprime-interval-decomposition',
        'intervals over coprime pairs factor the interval over their meet')
def _check_coprime_decomposition(member):
    q = member.quantale
    pairs = _coprime_pairs(q)
    for a, b in pairs:
        decompose_by_elements(q, (a, b))
    return PASS, '%d coprime pairs' % len(pairs)


@_check('coprime-global-decomposition',
        'complementary coprime pairs factor the whole quantale')
def _check_global_decomposition(member):
    q = member.quantale
    count = 0
    for a, b in _coprime_pairs(q):
        if q.meet(a, b) != q.bottom:
            continue
        morphism = decompose_by_elements(q, (a, b))
        if morphism.source.carrier != tuple(range(len(q))):
            raise QuantaleError('(%r, %r) do not factor the carrier' % (q.label(a), q.label(b)))
        count += 1
    return PASS, '%d complementary pairs' % count


@_check('product-recognition',
        'projection kernels of a product are a complete orthogonal central family')
def _check_product_recognition(member):
    parts = _product_parts(member)
    if parts is None:
        return NOT_APPLICABLE, 'not built as a product'
    factors, prod, projections = parts
    q = member.quantale
    central = set(q.center)
    anchors = [kernel(proj) for proj in projections]
    for e in anchors:
        if e not in central:
            return REFUTED, 'projection kernel %r is not central' % (q.label(e),)
    if q.meet_all(anchors) != q.bottom:
        return REFUTED, 'projection kernels do not meet to zero'
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            if q.join(anchors[i], anchors[j]) != q.top:
                return REFUTED, 'projection kernels %d, %d are not coprime' % (i, j)
    for e, factor in zip(anchors, factors):
        part, _ = _interval(q, e)
        if find_quantale_isomorphism(part, factor) is None:
            return REFUTED, '[%r) is not isomorphic to its factor' % (q.label(e),)
    return PASS, '%d factors recovered' % len(factors)


@_check('product-maximals',
        'maximal elements of a product sit in single slots and counts add up')
def _check_product_maximals(member):
    parts = _product_parts(member)
    if parts is None:
        return NOT_APPLICABLE, 'not built as a product'
    factors, prod, projections = parts
    q = member.quantale
    expected = set()
    for slot, factor in enumerate(factors):
        for m in factor.maximal_elements:
            label = '(%s)' % ','.join(
                str(f.label(m if k == slot else f.top))
                for k, f in enumerate(factors))
            expected.add(q.index_of(label))
    if expected != set(q.maximal_elements):
        return REFUTED, 'maximal elements differ from the slotwise family'
    if len(q.maximal_elements) != sum(len(f.maximal_elements) for f in factors):
        return REFUTED, 'maximal counts do not add up'
    radical_label = '(%s)' % ','.join(
        str(f.label(jacobson_radical(f))) for f in factors)
    if jacobson_radical(q) != q.index_of(radical_label):
        return REFUTED, 'the radical is not computed slotwise'
    return PASS, '%d maximal elements across %d factors' % (
        len(q.maximal_elements), len(factors))


@_check('radical-interval-factors',
        'the interval over the radical factors through the maximal intervals')
def _check_radical_interval_factors(member):
    q = member.quantale
    maxima = q.maximal_elements
    if not maxima:
        return NOT_APPLICABLE, 'no maximal elements'
    morphism = decompose_by_elements(q, maxima)
    if morphism.source.anchor != jacobson_radical(q):
        raise QuantaleError('the maximal elements do not meet to the radical')
    return PASS, '%d factors of sizes %s' % (
        len(maxima), [len(q.lattice.up_set(m)) for m in maxima])


@_check('central-below-radical-vanishes',
        'no nonzero central element sits below the intersection of maximals')
def _check_central_below_radical(member):
    q = member.quantale
    r = jacobson_radical(q)
    for e in q.center:
        if q.leq(e, r) and e != q.bottom:
            return REFUTED, 'central %r <= r with %r != 0' % (q.label(e), q.label(e))
    return PASS, ''


@_check('product-lifting-transfer',
        'a product lifts or splits exactly when every factor does')
def _check_product_lifting_transfer(member):
    parts = _product_parts(member)
    if parts is None:
        return NOT_APPLICABLE, 'not built as a product'
    factors, prod, projections = parts
    q = member.quantale
    lift_product = bool(has_lp(q))
    lift_factors = all(bool(has_lp(f)) for f in factors)
    if lift_product != lift_factors:
        return REFUTED, 'lifting: product=%s factors=%s' % (lift_product, lift_factors)
    star_product = bool(has_property_star(q))
    star_factors = all(bool(has_property_star(f)) for f in factors)
    if star_product != star_factors:
        return REFUTED, 'splitting: product=%s factors=%s' % (star_product, star_factors)
    return PASS, 'lifting=%s splitting=%s on both sides' % (lift_product, star_product)


def _local_family_exists(q):
    'Exhaustive search for central elements giving a local factorization.'
    center = q.center
    local_interval = {}
    for e in center:
        part, _ = _interval(q, e)
        local_interval[e] = is_local(part)
    for size in range(1, len(center) + 1):
        for family in combinations(center, size):
            if q.meet_all(family) != q.bottom:
                continue
            if any(q.join(family[i], family[j]) != q.top
                   for i in range(size) for j in range(i + 1, size)):
                continue
            if all(local_interval[e] for e in family):
                return True
    return False


@_check('local-decomposition-equivalence',
        'splitting, lifting, radical lifting and factoring into local intervals coincide')
def _check_local_decomposition(member):
    q = member.quantale
    r = jacobson_radical(q)
    semilocal = is_semilocal(q)
    conditions = {
        'splitting': semilocal and bool(has_property_star(q)),
        'lifting': semilocal and bool(has_lp(q)),
        'radical-lifting': semilocal and bool(element_has_lp(q, r)),
    }
    recipe = local_decomposition(q)
    conditions['constructed-factoring'] = bool(recipe)
    conditions['searched-factoring'] = _local_family_exists(q)
    status, detail = _agreement(conditions)
    if status == PASS and recipe:
        detail += ' idempotents=%s sizes=%s' % (
            [q.label(e) for e in recipe.idempotents],
            [len(f) for f in recipe.factors])
    return status, detail


@_check('semilocal-lifting-agreement',
        'with finitely many maximals, splitting, lifting and radical lifting agree')
def _check_semilocal_agreement(member):
    q = member.quantale
    r = jacobson_radical(q)
    values = {
        'splitting': bool(has_property_star(q)),
        'lifting': bool(has_lp(q)),
        'radical-lifting': bool(element_has_lp(q, r)),
    }
    return _agreement(values)
