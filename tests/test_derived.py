"""Derived quantales are proved through their index maps, not re-validated.

An interval is the image of its parent under x -> x v a, the radical frame
the image under the radical, the reticulation the image under the class map,
and a product holds each law coordinate by coordinate.  Each is built from
tables read off its source and checked through that one map, so these tests
show two things.  Everything built over the fixtures and every quantale of
at most six elements still passes Quantale._validate.  And a table read the
wrong way (three mutants, patched over _adopt) is refused when it is built
and REFUTED by the check that claims the theorem, under python -O too.  A
product member is matched to its rebuilt product by label, so a member whose
labels lie is refused.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import quantales
from conftest import relabel
from quantales import suite
from quantales.oracles import axiom_failure
from quantales.quantale import (
    IntervalQuantale, Quantale, QuantaleError, RadicalFrame, decompose_by_elements,
    interval_quantale)
from quantales.reticulation import Reticulation, reticulate


def test_every_derived_structure_passes_validation():
    """Each interval, the reticulation of the member and of each interval, the
    radical frame and the product of each coprime decomposition, over the
    fixtures and enumerated(6) less what the axiom oracle refuses."""
    members = list(suite.fixtures()) + list(suite.enumerated(6, bound=6))
    refused = [m.name for m in members if axiom_failure(m.quantale) is not None]
    # E6.85 passes only the sorted-triple associativity scan (ROADMAP item 1)
    assert refused == ['E6.85']
    members = [m for m in members if m.name not in refused]
    assert len(members) == 178
    for member in members:
        q = member.quantale
        n = len(q)
        derived = {'reticulation': reticulate(q), 'radical frame': q.radical_frame}
        for a in range(n):
            part = interval_quantale(q, a)[0]
            derived['[%r)' % (q.label(a),)] = part
            derived['reticulation of [%r)' % (q.label(a),)] = reticulate(part)
        for a in range(n):
            for b in range(a, n):
                if q.join(a, b) == q.top:
                    derived['product over %r, %r' % (q.label(a), q.label(b))] = (
                        decompose_by_elements(q, (a, b)).target)
        for where, d in derived.items():
            try:
                Quantale._validate(d, d.mul_table)
            except QuantaleError as exc:
                pytest.fail('%s of %s: %s' % (where, member.name, exc))


# Each mutant reads one derived table the wrong way, by an _adopt patched over
# the class's, and notes whether what it adopts differs from the right table.
# The pool is built afresh, so that no cache holds a structure built before a
# patch.  Radicals that are not closed under join are rare: E6.34 is the only
# such quantale up to six elements (x1 v x2 = x3, whose radical is x4), and in
# its index order the position of x3 among the radicals is that of x4, so it
# joins the pool with its indices reversed as well.
MUTANTS = textwrap.dedent("""
    import numpy as np

    from quantales import suite
    from quantales.lattices import FiniteLattice, FinitePoset
    from quantales.quantale import IntervalQuantale, Quantale, RadicalFrame
    from quantales.reticulation import Reticulation

    changed = []


    def adopting(wrong):
        'An _adopt that adopts the join, meet and multiplication wrong(self, join, meet, mul) gives.'
        def _adopt(self, poset, join, meet, bottom, top, mul):
            tables = wrong(self, join, meet, mul)
            changed.append(not all(np.array_equal(ours, right) for ours, right in zip(
                tables, (join, meet, mul))))
            join, meet, times = tables
            Quantale._adopt(self, poset, join, meet, bottom, top, times)
        return _adopt


    def interval_mul_without_the_anchor(self, join, meet, mul):
        'x*y at the position of x*y in [a), not of x*y v a.'
        carrier = np.asarray(self.carrier)
        return join, meet, np.searchsorted(
            carrier, self.parent.mul_table[carrier[:, None], carrier])


    def meet_at_the_wrong_representatives(self, join, meet, mul):
        'Each class meet read at the representatives of the classes one place on.'
        reps = np.roll(self.representatives, 1)
        meet = np.asarray(self.lam)[self.source.meet_table[reps[:, None], reps]]
        return join, meet, meet


    def frame_join_without_the_radical(self, join, meet, mul):
        'x v y at the position of x v y among the radicals, not of its radical.'
        at = np.asarray(self.carrier)
        return np.searchsorted(at, self.parent.join_table[at[:, None], at]), meet, mul


    MUTANTS = {
        'interval-quantales': (IntervalQuantale, adopting(interval_mul_without_the_anchor)),
        'reticulation-axioms': (Reticulation, adopting(meet_at_the_wrong_representatives)),
        'radical-frame-carrier': (RadicalFrame, adopting(frame_join_without_the_radical)),
    }


    def pool():
        'The fixtures, the quantales of at most six elements and E6.34 with its indices reversed.'
        enumerated = suite.enumerated(6, bound=6)
        q = enumerated.get('E6.34').quantale
        back = np.arange(len(q))[::-1]
        reversed_e634 = Quantale(
            FiniteLattice(FinitePoset([q.label(i) for i in back], q.poset.leq[np.ix_(back, back)])),
            back[q.mul_table[np.ix_(back, back)]])
        return suite.fixtures.__wrapped__().extended(
            tuple(enumerated) + (suite.CorpusMember('E6.34r', reversed_e634),))
""")


def _builds(check, q):
    'Thunks building, one each, the structures of q whose theorem the check claims.'
    if check == 'interval-quantales':
        return [lambda a=a: IntervalQuantale(q, a) for a in range(len(q))]
    cls = {'reticulation-axioms': Reticulation, 'radical-frame-carrier': RadicalFrame}[check]
    return [lambda: cls(q)]


@pytest.mark.parametrize('check', ['interval-quantales', 'reticulation-axioms',
                                   'radical-frame-carrier'])
def test_a_mutant_table_is_refused_when_built_and_refuted_by_its_check(check, monkeypatch):
    namespace = {}
    exec(MUTANTS, namespace)
    cls, adopt = namespace['MUTANTS'][check]
    changed = namespace['changed']
    monkeypatch.setattr(cls, '_adopt', adopt)
    touched = []
    for member in namespace['pool']():
        for build in _builds(check, member.quantale):
            del changed[:]
            try:
                build()
                refused = False
            except QuantaleError:
                refused = True
            # refused exactly when the mutant changed a table
            assert changed and refused == changed[0], (check, member.name)
            if refused and member.name not in touched:
                touched.append(member.name)
    assert touched
    report = suite.run_suite(namespace['pool'](), checks=[check])
    assert [r.member for r in report.failures()] == touched
    assert all(r.detail.startswith(('QuantaleError', 'AxiomViolation'))
               for r in report.failures())


MUTANTS_VERIFIED = MUTANTS + textwrap.dedent("""
    for check, (cls, adopt) in MUTANTS.items():
        cls._adopt = adopt
        report = suite.run_suite(pool(), checks=[check])
        del cls._adopt
        print(check, [r.member for r in report.failures()][:12], len(report.failures()))
    print(__debug__)
""")


def test_mutant_tables_are_refuted_under_optimisation():
    'The map checks are explicit raises, so python -O refuses what a plain run refuses.'
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quantales.__file__))
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [src, env.get('PYTHONPATH')]))
    runs = [subprocess.run([sys.executable, *flags, '-c', MUTANTS_VERIFIED], env=env,
                           capture_output=True, text=True, timeout=120) for flags in ([], ['-O'])]
    for done in runs:
        assert done.returncode == 0, done.stderr
    plain, optimised = (done.stdout.splitlines() for done in runs)
    assert (plain.pop(), optimised.pop()) == ('True', 'False')
    assert plain == optimised == [
        "interval-quantales ['D12', 'DIV4', 'DIV8', 'DIV36', 'D12xC3', 'E6.9', 'E6.25',"
        " 'E6.34r'] 8",
        "reticulation-axioms ['C2', 'C3', 'B4', 'W5', 'D12', 'DIV4', 'DIV8', 'DIV30', 'DIV36',"
        " 'C3xC3', 'D12xC3', 'E2.1'] 178",
        "radical-frame-carrier ['E6.34r'] 1"]


def test_a_product_member_whose_labels_lie_is_refused(corpus):
    'Two labels of C3xC3 exchanged: matched by label, the projections are no morphisms.'
    member = corpus.get('C3xC3')
    q = member.quantale
    labels = list(q.elements)
    i, j = labels.index('(0,1)'), labels.index('(1,0)')
    labels[i], labels[j] = labels[j], labels[i]
    liar = suite.CorpusMember('C3xC3', relabel(q, range(len(q)), labels), member.generator)
    report = suite.run_suite(suite.Corpus([liar]), checks=['product-recognition'])
    (row,) = report.results
    assert row.status == suite.REFUTED
    assert row.detail.startswith('QuantaleError: join not preserved at')
