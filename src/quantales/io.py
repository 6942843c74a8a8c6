"""Instance documents, named generators and Graphviz export.

An instance document is a JSON object describing a finite quantale by
labels: the element list, an order relation that is closed reflexively
and transitively on load, and a multiplication given as label triples
``[x, y, xy]``.  Products with the unit (the top element) may be
omitted, and only one of ``[x, y, z]`` / ``[y, x, z]`` is required.
"""

import json
import re
from itertools import chain, combinations
from math import isqrt, prod

import numpy as np

from .lattices import FiniteLattice, FinitePoset, LatticeError, first_true
from .quantale import AxiomError, Quantale, _product
from .reticulation import reticulate

FORMAT = 'quantale-instance/1'

# the largest carrier any input path builds; boolean:10 reaches it
MAX_ELEMENTS = 1024
# the largest zn: modulus, whose divisor scan takes isqrt(n) steps
MAX_MODULUS = 10 ** 12


class InstanceError(Exception):
    pass


class ParseError(InstanceError):
    'Structurally broken document.  location points at the offending field.'

    def __init__(self, message, location=None):
        super().__init__(message if location is None else '%s: %s' % (location, message))
        self.location = location


class ValidationError(InstanceError):
    'Well-formed document that does not describe a quantale.'

    def __init__(self, message, axiom, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class UnknownGenerator(InstanceError):
    pass


class InvalidParameter(InstanceError):
    pass


def _string_list(doc, key):
    value = doc.get(key)
    if not isinstance(value, list):
        raise ParseError('expected a list', key)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise ParseError('expected a string', '%s[%d]' % (key, i))
    return value


def parse_instance(text):
    """Quantale described by a JSON document (or by its generator field).

    Raises ParseError for malformed documents, ValidationError when the
    described structure breaks an axiom, and the generator errors when a
    generator-only document names something unknown.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, 'line %d column %d' % (exc.lineno, exc.colno)) from None
    except RecursionError:
        raise ParseError('document nests too deeply', '$') from None
    except ValueError as exc:
        # an integer literal longer than the interpreter converts
        raise ParseError(str(exc).split(';')[0], '$') from None
    return instance_from_dict(doc)


def _label_rows(entries, index, width):
    """The entries as an m x width array of element indices, read in one pass,
    or None when some entry is not a list of width known labels."""
    if not all(issubclass(t, list) for t in set(map(type, entries))):
        return None
    if set(map(len, entries)) - {width}:
        return None
    labels = list(chain.from_iterable(entries))
    if len(labels) != width * len(entries) or not all(
            issubclass(t, str) for t in set(map(type, labels))):
        return None
    try:
        flat = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))
    except KeyError:
        return None
    return flat.reshape(-1, width)


def _first_malformed(entries, index, key, width, shape):
    """Position of the first entry of doc[key] that is not a list of width known
    labels, and the error naming it; called only once the array read has failed."""
    for k, entry in enumerate(entries):
        where = '%s[%d]' % (key, k)
        if not (isinstance(entry, list) and len(entry) == width):
            return k, ParseError('expected %s' % shape, where)
        for label in entry:
            if not isinstance(label, str) or label not in index:
                return k, ParseError('unknown element %r' % (label,), where)
    return len(entries), None


def _first_conflict(rows, n):
    """Position of the first row that repeats the pair of an earlier row with
    another product, or None.  np.unique sorts the pair keys stably, so the
    index it returns per pair is the pair's first row."""
    _, first, pair = np.unique(rows[:, 0] * n + rows[:, 1], return_index=True,
                               return_inverse=True)
    hit = first_true(rows[first[pair], 2] != rows[:, 2])
    return None if hit is None else hit[0]


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
    positions = _label_rows(pairs, index, 2)
    if positions is None:
        raise _first_malformed(pairs, index, 'leq', 2, 'a pair [lower, upper]')[1]
    rel = np.eye(len(elements), dtype=bool)
    rel[positions[:, 0], positions[:, 1]] = True
    try:
        lattice = FiniteLattice(FinitePoset._generated_by(tuple(elements), rel))
    except LatticeError as exc:
        raise ValidationError(str(exc), type(exc).__name__) from None

    triples = doc.get('mul', [])
    if not isinstance(triples, list):
        raise ParseError('expected a list', 'mul')
    rows, malformed = _label_rows(triples, index, 3), None
    if rows is None:
        # only the entries before the first malformed one can hold a conflict to report
        bad, malformed = _first_malformed(triples, index, 'mul', 3, 'a triple [x, y, xy]')
        rows = _label_rows(triples[:bad], index, 3)
    conflict = _first_conflict(rows, len(elements))
    if conflict is not None:
        triple = triples[conflict]
        raise ParseError('conflicting products for (%r, %r)' % (triple[0], triple[1]),
                         'mul[%d]' % conflict)
    if malformed is not None:
        raise malformed

    # the mirror of each listed pair, the listed cells over it, then the unit
    # row and column where still unset, and demand the rest
    n = len(elements)
    mul = np.full((n, n), -1, dtype=np.intp)
    x, y, z = rows.T
    mul[y, x] = z
    mul[x, y] = z
    top, ar = lattice.top, np.arange(n)
    mul[:, top] = np.where(mul[:, top] < 0, ar, mul[:, top])
    mul[top] = np.where(mul[top] < 0, ar, mul[top])
    hit = first_true(mul < 0)
    if hit is not None:
        x, y = hit
        raise ParseError('missing product for (%r, %r)' % (elements[x], elements[y]), 'mul')
    try:
        return Quantale(lattice, mul)
    except AxiomError as exc:
        raise ValidationError(str(exc), type(exc).__name__, exc.witness) from None


# emit_instance writes the text json.dumps(doc, indent=2) gives, piece by
# piece: a value nested at depth d is indented by two spaces per level.  The
# encoder is json.dumps's for indent=2, made once rather than per value
_encode = json.JSONEncoder(indent=2).encode


def _at_depth(text, depth):
    'JSON text written at depth 0, re-indented for depth.'
    return text.replace('\n', '\n' + '  ' * depth)


def _json_rows(rows, written):
    """The list at depth 1 of one list per row of an index array, each item the
    entry of written, a label written for depth 3.  The pieces are laid out in
    an object array, a column at a time, and joined once."""
    m, k = rows.shape
    if not m:
        return '[]'
    pieces = np.empty((m, 2 * k + 1), dtype=object)
    pieces[:, 0] = ',\n    [\n      '
    pieces[0, 0] = '\n    [\n      '
    pieces[:, 1::2] = written[rows]
    pieces[:, 2:-1:2] = ',\n      '
    pieces[:, -1] = '\n    ]'
    return '[%s\n  ]' % ''.join(pieces.ravel().tolist())


def emit_instance(q, generator=None):
    """Canonical document for a quantale; parse_instance inverts it exactly.
    The text is json.dumps(doc, indent=2) + '\\n' for the document with the
    fields format, elements, leq (the covers), mul (index pairs i <= j with
    neither the top) and generator (when given); the pairs and triples are
    written from one encoding per label."""
    written = np.array([_at_depth(_encode(label), 3) for label in q.elements], dtype=object)
    covers = np.array(q.poset.covers, dtype=np.intp).reshape(-1, 2)
    ar = np.arange(len(q))
    x, y = np.nonzero((ar[:, None] <= ar) & (ar[:, None] != q.top) & (ar != q.top))
    fields = [('format', _encode(FORMAT)),
              ('elements', _at_depth(_encode(list(q.elements)), 1)),
              ('leq', _json_rows(covers, written)),
              ('mul', _json_rows(np.stack((x, y, q.mul_table[x, y]), axis=1), written))]
    if generator is not None:
        fields.append(('generator', _at_depth(_encode(generator), 1)))
    return '{\n  %s\n}\n' % ',\n  '.join('"%s": %s' % field for field in fields)


_NAME = re.compile(r'[A-Za-z_][A-Za-z0-9_]*\Z')


def _positive_int(text, what):
    # isdecimal, not isdigit: int() refuses digits such as the superscript two
    if not text.isdecimal() or int(text) < 1:
        raise InvalidParameter('%s must be a positive integer, got %r' % (what, text))
    return int(text)


def _bounded(count, what):
    if count > MAX_ELEMENTS:
        raise InvalidParameter('%s would have %d elements, the bound is %d' % (
            what, count, MAX_ELEMENTS))


def _generate_zn(arg):
    n = _positive_int(arg, 'modulus')
    if n > MAX_MODULUS:
        raise InvalidParameter('modulus %d is too large, the bound is 10**12' % (n,))
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = small + [n // d for d in reversed(small) if d * d != n]
    _bounded(len(divisors), 'zn:%d' % n)
    div = np.array(divisors, dtype=np.int64)
    # order is reverse divisibility: the ideal for d grows as d shrinks
    lattice = FiniteLattice(FinitePoset([str(d) for d in divisors], div[:, None] % div == 0))
    # gcd(a*b, n) = a*gcd(b, n/a) for a dividing n, so no intermediate exceeds n;
    # the divisors ascend, so the position of each product is found by bisection
    mul = np.searchsorted(div, div[:, None] * np.gcd(div, (n // div)[:, None]))
    return Quantale(lattice, mul)


def _meet_frame(labels, leq):
    'Frame on an order matrix: the lattice with its meet as the multiplication.'
    lattice = FiniteLattice(FinitePoset(labels, leq))
    return Quantale(lattice, lattice.meet_table)


def _generate_chain(arg):
    head, _, variant = arg.partition(',')
    k = _positive_int(head, 'chain length')
    _bounded(k, 'chain:%d' % k)
    if variant != 'frame':
        raise InvalidParameter('unknown chain variant %r, expected "frame"' % (variant,))
    ar = np.arange(k)
    return _meet_frame([str(i) for i in range(k)], ar[:, None] <= ar)


def _set_label(names):
    return '{%s}' % ','.join(sorted(names))


def _frame_of_sets(sets):
    'Frame on a family of sets closed under union and intersection.'
    sets = sorted(sets, key=lambda s: (len(s), _set_label(s)))
    points = sorted(set().union(*sets))
    masks = np.array([sum(1 << points.index(p) for p in s) for s in sets])
    # inclusion: a <= b when a has no point outside b
    return _meet_frame([_set_label(s) for s in sets], (masks[:, None] & ~masks) == 0)


def _generate_boolean(arg):
    k = _positive_int(arg, 'atom count')
    if k > 10:
        raise InvalidParameter('atom count %d is too large, the bound is 10' % (k,))
    atoms = [chr(ord('a') + i) for i in range(k)]
    subsets = [frozenset(c) for r in range(k + 1) for c in combinations(atoms, r)]
    return _frame_of_sets(subsets)


def _generate_downsets(arg):
    below = {}
    for item in arg.split(','):
        item = item.strip()
        if not item:
            raise InvalidParameter('empty relation item')
        parts = item.split('<')
        for name in parts:
            if not _NAME.match(name):
                raise InvalidParameter('bad element name %r' % (name,))
            below.setdefault(name, set())
        for lower, upper in zip(parts, parts[1:]):
            below[upper].add(lower)
    names = sorted(below)
    if len(names) > 12:
        raise InvalidParameter('%d points is too large, the bound is 12' % (len(names),))
    for name in names:
        # transitive closure; a point reachable from itself means a cycle
        stack = list(below[name])
        seen = set()
        while stack:
            point = stack.pop()
            if point == name:
                raise InvalidParameter('relations contain a cycle through %r' % (name,))
            if point not in seen:
                seen.add(point)
                stack.extend(below[point])
        below[name] = seen
    downsets = [frozenset(s) for r in range(len(names) + 1)
                for c in combinations(names, r)
                for s in [set(c)] if all(below[n] <= s for n in s)]
    _bounded(len(downsets), 'the down-set frame')
    return _frame_of_sets(downsets)


def _product_factors(arg):
    'The factors that product:arg names, refused as generate refuses that product.'
    parts = arg.split(';')
    if len(parts) < 2:
        raise InvalidParameter('a product needs at least two factors')
    for part in parts:
        if part.startswith('product:'):
            raise InvalidParameter('nested products are not supported')
    factors = [generate(part) for part in parts]
    _bounded(prod(len(f) for f in factors), 'the product')
    return factors


_GENERATORS = {
    'zn': _generate_zn,
    'chain': _generate_chain,
    'boolean': _generate_boolean,
    'downsets': _generate_downsets,
    'product': lambda arg: _product(_product_factors(arg))[0],
}


def generate(spec):
    """Quantale from a generator expression.

    zn:n            ideals of the ring of integers mod n
    chain:k,frame   k-element chain with meet multiplication
    boolean:k       powerset of k atoms with meet multiplication
    downsets:a<b,.. down-sets of the poset presented by the relations
    product:g1;g2   componentwise product of generated factors
    """
    head, sep, rest = spec.partition(':')
    if not sep:
        raise UnknownGenerator('generator %r has no parameters' % (spec,))
    maker = _GENERATORS.get(head)
    if maker is None:
        raise UnknownGenerator('unknown generator %r, expected one of %s'
                               % (head, ', '.join(sorted(_GENERATORS))))
    return maker(rest)


def _dot_quote(text):
    return '"%s"' % text.replace('\\', '\\\\').replace('"', '\\"')


def _dot_graph(names, edges, shapes=None):
    lines = ['digraph {', '  rankdir=BT;', '  node [shape=box];']
    for i, name in enumerate(names):
        extra = shapes.get(i, '') if shapes else ''
        lines.append('  n%d [label=%s%s];' % (i, _dot_quote(name), extra))
    for a, b in edges:
        lines.append('  n%d -> n%d;' % (a, b))
    lines.append('}')
    return '\n'.join(lines) + '\n'


def export_dot(q, view='lattice'):
    'Hasse diagram of the carrier, the spectrum or the reticulation.'
    if view == 'lattice':
        return _dot_graph([q.label(i) for i in range(len(q))], q.poset.covers)
    if view == 'spec':
        spec = list(q.spectrum)
        maxima = set(q.maximal_elements)
        labels = [q.label(p) for p in spec]
        at = np.array(spec, dtype=np.intp)
        edges = FinitePoset._from_order(labels, q.poset.leq[at[:, None], at]).covers
        shapes = {si: ', peripheries=2' for si, p in enumerate(spec) if p in maxima}
        return _dot_graph(labels, edges, shapes)
    if view == 'reticulation':
        ret = reticulate(q)
        names = ['%s' % ','.join(q.label(m) for m in cls) for cls in ret.classes]
        return _dot_graph(names, ret.poset.covers)
    raise InvalidParameter('unknown view %r, expected lattice, spec or reticulation' % (view,))
