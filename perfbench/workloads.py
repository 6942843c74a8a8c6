"""The four workloads: their inputs, their timed bodies and their correctness gates.

Each workload object has four methods:

  setup(seed, work_dir)   build the inputs; timed as part of set-up, not of the body
  run(inputs)             the timed body; returns the raw output
  record(output)          the values a correct output has, as stored in expected.json
  check(output, expected, seed)
                          compare an output with the recorded values; returns
                          (attempted, failed, messages)

Every gate is an explicit comparison, never an ``assert``, so a gate fails the
same way under ``python -O``.  ``verify-corpus`` and ``enumerate-6`` have fixed
inputs and ignore the seed.  For ``analyze-medium`` and ``build-large`` seed 0
gives the canonical inputs; any other seed permutes the element order of each
instance, which yields an isomorphic input, so only order-invariant outputs are
compared there.
"""

import contextlib
import hashlib
import io as _stdio
import json
import random
import re
from collections import Counter
from itertools import combinations
from math import gcd
from pathlib import Path

from quantales import cli, io, lattices, properties, quantale, reticulation, suite


def digest(value):
    'SHA-256 of a JSON-able value or of a string.'
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode('utf-8')).hexdigest()


def _call_cli(argv):
    'Exit code and captured standard output of one CLI invocation.'
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _permutation(seed, n):
    'Identity at seed 0, otherwise a seeded shuffle of range(n).'
    order = list(range(n))
    if seed:
        random.Random(seed * 1_000_003 + n).shuffle(order)
    return order


class VerifyCorpus:
    """The law suite over the fixtures and every instance up to size 5.

    Item: one report row (check x member).  Chosen because it is the law-suite
    path: thousands of tiny instances, so per-call overhead dominates.
    """

    name = 'verify-corpus'
    argv = ('verify', 'fixtures', '--enumerate-up-to', '5', '--no-timings')

    def setup(self, seed, work_dir):
        return list(self.argv)

    def run(self, argv):
        return _call_cli(argv)

    @staticmethod
    def _split(text):
        lines = text.splitlines()
        # members line, checks line, one line per row, result line
        return lines[2:-1], (lines[-1] if lines else '')

    @staticmethod
    def _counts(summary):
        return {status: int(count) for count, status in
                re.findall(r'(\d+) ([A-Z-]+)', summary.partition('(')[2])}

    def record(self, output):
        code, text = output
        rows, summary = self._split(text)
        return {'exit_code': code, 'sha256': digest(text), 'counts': self._counts(summary),
                'rows': [digest(row)[:16] for row in rows]}

    def items(self, expected):
        return len(expected['rows'])

    def check(self, output, expected, seed):
        code, text = output
        rows, summary = self._split(text)
        want = expected['rows']
        bad = [i for i, w in enumerate(want) if i >= len(rows) or digest(rows[i])[:16] != w]
        messages = ['row %d differs: %r' % (i, rows[i] if i < len(rows) else None)
                    for i in bad[:5]]
        if len(rows) != len(want):
            messages.append('%d report rows, expected %d' % (len(rows), len(want)))
        if code != expected['exit_code']:
            messages.append('exit code %r, expected %r' % (code, expected['exit_code']))
        if self._counts(summary) != expected['counts']:
            messages.append('counts %r, expected %r' % (self._counts(summary), expected['counts']))
        if digest(text) != expected['sha256']:
            messages.append('report sha256 %s, expected %s' % (digest(text), expected['sha256']))
        # a wrong report whose rows all match (header or summary) fails every row
        failed = len(bad) if bad or not messages else len(want)
        return len(want), min(failed, len(want)), messages


class Enumerate6:
    """Every quantale with at most 6 elements, one per isomorphism class.

    Item: one isomorphism class.  Chosen because it drives the validation
    reject path over tens of thousands of candidate tables, lattice enumeration
    and the n! canonical form; properties and reticulation do no work here.
    """

    name = 'enumerate-6'

    def setup(self, seed, work_dir):
        return 6

    def run(self, max_size):
        return suite.enumerate_quantales(max_size, bound=max_size)

    @staticmethod
    def _profile(quantales):
        # the canonical labelling is not compared, so a new one can still pass
        out = Counter()
        for q in quantales:
            lifting = '-' if len(q) == 1 else str(bool(properties.has_lp(q)))
            out[(len(q), len(q.maximal_elements), len(q.center), lifting)] += 1
        return out

    @staticmethod
    def _by_size(quantales):
        sizes = Counter(len(q) for q in quantales)
        return [sizes[n] for n in range(1, max(sizes, default=0) + 1)]

    def record(self, output):
        return {'counts_by_size': self._by_size(output),
                'profile': sorted(list(key) + [n] for key, n in self._profile(output).items())}

    def items(self, expected):
        return sum(expected['counts_by_size'])

    def check(self, output, expected, seed):
        attempted = self.items(expected)
        messages = []
        by_size = self._by_size(output)
        if by_size != expected['counts_by_size']:
            messages.append('classes per size %r, expected %r' % (
                by_size, expected['counts_by_size']))
        want = Counter({tuple(row[:4]): row[4] for row in expected['profile']})
        got = self._profile(output)
        extra, missing = got - want, want - got
        if extra or missing:
            messages.append('profile (size, maximal, center, lifting) differs: extra %r, '
                            'missing %r' % (sorted(extra.items())[:5], sorted(missing.items())[:5]))
        failed = max(sum(extra.values()), sum(missing.values()))
        if messages and not failed:
            failed = attempted
        return attempted, min(failed, attempted), messages


class AnalyzeMedium:
    """``quantales analyze FILE`` on five instance files written during set-up.

    Item: one instance.  Chosen because it is the single-instance user path,
    where property verdicts (lifting, local decomposition) take most of the
    time and parsing the instance document takes a tenth.
    """

    name = 'analyze-medium'
    instances = (
        ('zn-5040', 'zn:5040'),
        ('boolean-6', 'boolean:6'),
        ('chain-40', 'chain:40,frame'),
        ('zn-12-x-zn-30', 'product:zn:12;zn:30'),
        ('downsets-3x2', 'downsets:a<b,c<d,e<f'),
    )

    def setup(self, seed, work_dir):
        folder = Path(work_dir) / ('analyze-seed-%d' % seed)
        folder.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, spec in self.instances:
            doc = json.loads(io.emit_instance(io.generate(spec)))
            elements = doc['elements']
            doc['elements'] = [elements[i] for i in _permutation(seed, len(elements))]
            path = folder / ('%s.json' % name)
            path.write_text(json.dumps(doc, indent=2) + '\n', encoding='utf-8')
            paths.append(str(path))
        return paths

    def run(self, paths):
        return [_call_cli(['analyze', path]) for path in paths]

    @staticmethod
    def invariants(text):
        'The parts of an analyze report that do not depend on element order.'
        out = []
        for line in text.splitlines():
            key, _, value = line.partition(': ')
            if key in ('elements', 'm-primes', 'maximal', 'center'):
                value = sorted(value.split(', '))
            elif key in ('covers', 'radical'):
                value = sorted(value.split('; '))
            elif key == 'quotient classes':
                value = sorted(sorted(c.split()) for c in re.findall(r'\[([^\]]*)\]', value))
            elif key.startswith('witness'):
                # which witness is found first depends on the element order
                value = None
            elif key == 'local factorization' and value != 'none':
                # likewise which central element is picked as each anchor
                value = sorted(int(s) for s in value.partition('factor sizes ')[2].split(', '))
            out.append([key, value])
        return out

    def record(self, output):
        return {name: {'exit_code': code, 'sha256': digest(text),
                       'invariants': digest(self.invariants(text))}
                for (name, _), (code, text) in zip(self.instances, output)}

    def items(self, expected):
        return len(self.instances)

    def check(self, output, expected, seed):
        failed = 0
        messages = []
        for (name, _), (code, text) in zip(self.instances, output):
            want = expected[name]
            wrong = []
            if code != want['exit_code']:
                wrong.append('exit code %r' % (code,))
            if seed == 0 and digest(text) != want['sha256']:
                wrong.append('report text differs')
            if digest(self.invariants(text)) != want['invariants']:
                wrong.append('order-invariant report differs')
            if wrong:
                failed += 1
                messages.append('%s: %s' % (name, ', '.join(wrong)))
        missing = len(self.instances) - len(output)
        if missing > 0:
            messages.append('%d instances without output' % missing)
        return len(self.instances), failed + max(missing, 0), messages


def _zn_tables(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    pairs = [(str(a), str(b)) for a in divisors for b in divisors if a % b == 0]
    pos = {d: i for i, d in enumerate(divisors)}
    return [str(d) for d in divisors], pairs, [[pos[gcd(a * b, n)] for b in divisors]
                                               for a in divisors]


def _chain_tables(k):
    labels = [str(i) for i in range(k)]
    return labels, [(str(i), str(i + 1)) for i in range(k - 1)], [
        [min(i, j) for j in range(k)] for i in range(k)]


def _boolean_tables(k):
    atoms = [chr(ord('a') + i) for i in range(k)]
    sets = [frozenset(c) for r in range(k + 1) for c in combinations(atoms, r)]
    sets.sort(key=lambda s: (len(s), '{%s}' % ','.join(sorted(s))))
    labels = ['{%s}' % ','.join(sorted(s)) for s in sets]
    pairs = [(labels[i], labels[j]) for i in range(len(sets)) for j in range(len(sets))
             if sets[i] <= sets[j]]
    pos = {s: i for i, s in enumerate(sets)}
    return labels, pairs, [[pos[a & b] for b in sets] for a in sets]


class BuildLarge:
    """Lattice construction, axiom validation, spectrum, radical table, center
    and reticulation for instances of 64 to 128 elements.

    Item: one instance.  Chosen because it is construction at the sizes where
    whole-table kernels are aimed: the distributivity check, the validation
    accept path and the join/meet tables dominate, and properties do no work.
    The inputs are the raw label tables the package's generators would pass
    to ``build_lattice`` and ``Quantale``, made here so that set-up does not
    already run the construction being timed.
    """

    name = 'build-large'
    instances = (
        ('zn:55440', _zn_tables, 55440),
        ('boolean:7', _boolean_tables, 7),
        ('chain:64,frame', _chain_tables, 64),
    )

    def setup(self, seed, work_dir):
        out = []
        for spec, make, arg in self.instances:
            labels, pairs, mul = make(arg)
            order = _permutation(seed, len(labels))
            new_index = {old: new for new, old in enumerate(order)}
            out.append((spec, [labels[i] for i in order], pairs,
                        [[new_index[mul[i][j]] for j in order] for i in order]))
        return out

    def run(self, inputs):
        out = []
        for spec, labels, pairs, mul in inputs:
            q = quantale.Quantale(lattices.build_lattice(labels, pairs), mul)
            q.spectrum, q.radical_table, q.center  # cached properties: computed on first access
            out.append((q, reticulation.reticulate(q)))
        return out

    @staticmethod
    def positional(q, ret):
        'Indices as computed, valid only for the canonical element order.'
        return digest({'elements': list(q.elements), 'spectrum': list(q.spectrum),
                       'radical': list(q.radical_table), 'center': list(q.center),
                       'classes': [list(c) for c in ret.classes]})

    @staticmethod
    def invariants(q, ret):
        'The same structure by labels, sorted, so that element order does not matter.'
        lab = q.label
        return {'elements': sorted(q.elements),
                'spectrum': sorted(lab(p) for p in q.spectrum),
                'radical': sorted([lab(a), lab(q.radical_of(a))] for a in range(len(q))),
                'center': sorted(lab(e) for e in q.center),
                'classes': sorted(sorted(lab(c) for c in cls) for cls in ret.classes)}

    def record(self, output):
        out = {}
        for (spec, _, _), (q, ret) in zip(self.instances, output):
            inv = self.invariants(q, ret)
            out[spec] = {'positional': self.positional(q, ret), 'invariants': digest(inv),
                         'sizes': {key: len(value) for key, value in inv.items()}}
        return out

    def items(self, expected):
        return len(self.instances)

    def check(self, output, expected, seed):
        failed = 0
        messages = []
        for (spec, _, _), (q, ret) in zip(self.instances, output):
            want = expected[spec]
            wrong = []
            if seed == 0 and self.positional(q, ret) != want['positional']:
                wrong.append('positional digest differs')
            inv = self.invariants(q, ret)
            if digest(inv) != want['invariants']:
                sizes = {key: len(value) for key, value in inv.items()}
                wrong.append('structure differs (sizes %r, expected %r)' % (
                    sizes, want['sizes']))
            if wrong:
                failed += 1
                messages.append('%s: %s' % (spec, ', '.join(wrong)))
        missing = len(self.instances) - len(output)
        if missing > 0:
            messages.append('%d instances without output' % missing)
        return len(self.instances), failed + max(missing, 0), messages


WORKLOADS = {w.name: w for w in (VerifyCorpus(), Enumerate6(), AnalyzeMedium(), BuildLarge())}
