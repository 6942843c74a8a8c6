"""Enumeration goldens, suite statuses, determinism, replay of refutations."""

import hashlib
import os
import subprocess
import sys
import textwrap
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import quantales
from quantales import io, properties, quantale, suite
from quantales.lattices import Verdict, build_lattice
from quantales.properties import local_decomposition
from quantales.quantale import (
    AxiomError, IntervalQuantale, Quantale, TrivialQuantale, interval_quantale)


def test_lattice_counts_up_to_isomorphism():
    # Heitzig and Reinhold, Counting finite lattices (Algebra Universalis 48, 2002)
    # and OEIS A006966
    assert [len(suite.enumerate_lattices(n)) for n in range(1, 9)] == [
        1, 1, 1, 2, 5, 15, 53, 222]


def test_quantale_counts_small_sizes():
    sizes = {}
    for q in suite.enumerate_quantales(4):
        sizes[len(q)] = sizes.get(len(q), 0) + 1
    assert sizes == {1: 1, 2: 1, 3: 2, 4: 7}


def test_enumeration_respects_the_bound():
    with pytest.raises(suite.BoundExceeded):
        suite.enumerate_quantales(6)
    sizes = [len(q) for q in suite.enumerate_quantales(6, bound=6)]
    # ROADMAP item 1 turns 130 into 129: one six-chain class passes only the
    # sorted-triple associativity scan
    assert [sizes.count(n) for n in range(1, 7)] == [1, 1, 2, 7, 26, 130]


def test_every_fill_up_to_six_elements_is_accepted():
    'The fill decides the laws validation checks, so validation refuses none of its tables.'
    filled = [(lattice, mul) for n in range(1, 7) for lattice in suite.enumerate_lattices(n)
              for mul in suite._mul_candidates(lattice)]
    assert len(filled) == 181
    for lattice, mul in filled:
        Quantale(lattice, mul)


def _tables_on(lat):
    out = []
    for mul in suite._mul_candidates(lat):
        try:
            out.append(Quantale(lat, mul))
        except AxiomError:
            pass
    return out


def test_four_chain_admits_exactly_six_tables():
    chain = build_lattice(
        ['0', 'a', 'b', '1'],
        [('0', 'a'), ('a', 'b'), ('b', '1'), ('0', 'b'), ('0', '1'), ('a', '1')])
    tables = _tables_on(chain)
    assert len(tables) == 6
    ix = chain.poset.index
    seen = {tuple(q.mul_table[np.ix_([ix['a'], ix['b']], [ix['a'], ix['b']])]
                  .flatten()) for q in tables}
    # the six tables are determined by (a*a, a*b, b*b)
    assert len(seen) == 6


def test_diamond_admits_no_multiplication():
    diamond = build_lattice(
        ['0', 'p', 'q', 'r', '1'],
        [('0', 'p'), ('0', 'q'), ('0', 'r'), ('p', '1'), ('q', '1'),
         ('r', '1'), ('0', '1')])
    assert _tables_on(diamond) == []


def test_square_admits_only_the_frame():
    square = build_lattice(
        ['0', 'a', 'b', '1'],
        [('0', 'a'), ('0', 'b'), ('a', '1'), ('b', '1'), ('0', '1')])
    tables = _tables_on(square)
    assert len(tables) == 1
    q = tables[0]
    assert all(q.mul(i, j) == q.meet(i, j) for i in range(4) for j in range(4))


def test_fixture_corpus_composition(corpus):
    assert len(corpus) == 12
    assert corpus.names()[:3] == ('Q1', 'C2', 'C3')
    assert corpus.get('D12').generator == 'zn:12'
    with pytest.raises(ValueError):
        suite.Corpus(list(corpus) + [corpus.get('Q1')])


def test_enumerated_corpus_names(small_corpus):
    assert small_corpus.names()[0] == 'E1.1'
    assert len(small_corpus) == 37


def test_full_suite_is_green_on_fixtures(corpus):
    report = suite.run_suite(corpus)
    assert report.ok()
    counts = report.counts()
    assert counts.get('REFUTED', 0) == 0
    assert counts['RECORDED'] == len(corpus)  # one tracked fact per member
    assert counts['PASS'] > 500


def test_suite_builds_each_interval_once_per_parent_and_anchor(monkeypatch):
    built = []
    init = IntervalQuantale.__init__

    def counted(self, parent, anchor):
        built.append((parent, anchor))
        init(self, parent, anchor)

    monkeypatch.setattr(IntervalQuantale, '__init__', counted)
    # members generated afresh, so that no earlier test has filled their caches
    corpus = suite.fixtures.__wrapped__()
    assert suite.run_suite(corpus).ok()
    # the list keeps every parent alive, so no two of them share an id
    builds = Counter((id(parent), anchor) for parent, anchor in built)
    assert builds and max(builds.values()) == 1
    q = corpus.get('D12').quantale
    for a in range(len(q)):
        part, u = interval_quantale(q, a)
        assert part is interval_quantale(q, a)[0] and u is part.surjection
    decomposition = local_decomposition(q)
    assert len(decomposition.factors) == 2
    for e, factor in zip(decomposition.idempotents, decomposition.factors):
        assert factor is interval_quantale(q, e)[0]
    assert Counter(id(parent) for parent, _ in built)[id(q)] == len(q)


def test_suite_builds_each_lifting_mask_once_per_quantale_and_anchors(monkeypatch):
    """has_lp is kept on its quantale, so the checks that ask again, over the
    same cached intervals among others, read the kept verdict."""
    built = []
    stranded = properties._stranded

    def counted(q, anchors):
        built.append((q, tuple(np.asarray(anchors).tolist())))
        return stranded(q, anchors)

    monkeypatch.setattr(properties, '_stranded', counted)
    # members generated afresh, so that no earlier test has decided their verdicts
    corpus = suite.Corpus(list(suite.fixtures.__wrapped__()) + list(suite.enumerated(5)))
    assert suite.run_suite(corpus).ok()
    # the list keeps every quantale alive, so no two of them share an id
    builds = Counter((id(q), anchors) for q, anchors in built)
    assert builds and max(builds.values()) == 1
    every_anchor = [q for q, anchors in built if len(anchors) == len(q) > 1]
    assert len(every_anchor) > len(corpus)


def test_the_suite_builds_no_decomposition_product(monkeypatch):
    """Decompositions are proved through their coordinates, so a suite run
    builds only the products its members are generated as: those of
    io.generate's product generator and of suite._product_structure."""
    callers = []
    build = quantale._product

    def traced(factors):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return build(factors)

    for module in (quantale, io, suite):
        monkeypatch.setattr(module, '_product', traced)
    # members generated afresh, so that their products are built under the patch
    corpus = suite.Corpus(list(suite.fixtures.__wrapped__()) + list(suite.enumerated(5)))
    assert suite.run_suite(corpus).ok()
    assert callers
    for names in callers:
        assert 'decompose_by_elements' not in names
        assert names & {'generate', '_product_structure'}


def test_recorded_spectrum_fact_matches_known_split(corpus):
    report = suite.run_suite(corpus, checks=['spectrum-inside-maximals'])
    holds = {r.member for r in report.results if r.detail.startswith('holds')}
    fails = {r.member for r in report.results if r.detail.startswith('fails')}
    assert fails == {'C3', 'W5', 'C3xC3', 'D12xC3'}
    assert holds == set(corpus.names()) - fails
    assert all(r.status == 'RECORDED' for r in report.results)


def test_suite_is_green_on_enumerated_instances(small_corpus):
    report = suite.run_suite(small_corpus)
    assert report.ok(), report.failures()[:3]


def test_the_size_six_suite_report_is_pinned():
    """Every check over every quantale of at most six elements.  It reaches
    E6.34, the one member of that size whose radicals are not closed under
    join, which verify --enumerate-up-to 5 does not.  The one REFUTED row is
    quantale-axioms on E6.85, a table validation accepts (ROADMAP item 1)."""
    report = suite.run_suite(suite.enumerated(6, bound=6))
    assert Counter(r.status for r in report.results) == {
        suite.PASS: 8005, suite.RECORDED: 167, suite.NOT_APPLICABLE: 511, suite.REFUTED: 1}
    assert [(r.check, r.member) for r in report.failures()] == [('quantale-axioms', 'E6.85')]
    assert hashlib.sha256(report.fingerprint().encode()).hexdigest() == (
        '5d64979182c7fa8d86bdb17f9ecd3d23eb626f2142768d0895ae69d28e9d36ea')


def test_the_size_seven_local_decomposition_rows_are_pinned():
    'The five-way factorization law over every quantale of at most seven elements.'
    report = suite.run_suite(suite.enumerated(7, bound=7),
                             checks=['local-decomposition-equivalence'])
    assert Counter(r.status for r in report.results) == {
        suite.PASS: 910, suite.NOT_APPLICABLE: 1}
    assert hashlib.sha256(report.fingerprint().encode()).hexdigest() == (
        '87ab19d8268201a8bf54038d222fcbc97742addd7ce51d5452f8a8f377aaa3e4')


LOCAL_FAMILY_ON_BOOLEAN_7 = textwrap.dedent("""
    from quantales import io, suite

    print(suite._local_family_exists(io.generate('boolean:7')))
""")


def test_local_factorization_search_finishes_on_a_128_element_boolean_algebra():
    """Its 128 central elements have 7 local intervals, one per coatom; a
    search over every family of central elements would not finish."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quantales.__file__))
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [src, env.get('PYTHONPATH')]))
    done = subprocess.run([sys.executable, '-c', LOCAL_FAMILY_ON_BOOLEAN_7],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == 'True\n'


def test_fingerprint_is_deterministic(corpus):
    first = suite.run_suite(corpus, checks=['radical-laws', 'center-laws'])
    second = suite.run_suite(corpus, checks=['radical-laws', 'center-laws'])
    assert first.fingerprint() == second.fingerprint()
    assert 'timing' not in first.fingerprint()
    assert 'timing: total' in first.to_text()


def test_unknown_check_is_an_error(corpus):
    with pytest.raises(ValueError):
        suite.run_suite(corpus, checks=['no-such-law'])


def test_refutation_payload_replays(corpus):
    'A failing check must produce a payload that reproduces the failure.'

    def always_refuted(member):
        q = member.quantale
        if len(q) >= 2:
            return suite.REFUTED, 'carrier has %d elements' % len(q)
        return suite.PASS, ''

    name = 'test-only-refuter'
    suite.CHECKS[name] = suite.Check(name, 'synthetic failing check', always_refuted)
    try:
        report = suite.run_suite(corpus, checks=[name])
        failures = report.failures()
        assert failures and not report.ok()
        payload = failures[0].payload
        assert payload['member'] and payload['document']
        replayed = suite.replay(payload)
        assert replayed.status == suite.REFUTED
        assert replayed.detail == failures[0].detail
    finally:
        del suite.CHECKS[name]


def test_crashing_check_is_reported_not_raised(corpus):
    def crasher(member):
        raise AssertionError('internal invariant violated')

    name = 'test-only-crasher'
    suite.CHECKS[name] = suite.Check(name, 'synthetic crashing check', crasher)
    try:
        report = suite.run_suite(corpus, checks=[name])
        assert not report.ok()
        assert all(r.status == suite.REFUTED for r in report.results)
        assert 'AssertionError' in report.results[0].detail
    finally:
        del suite.CHECKS[name]


ONE_POINT_NOT_APPLICABLE = {
    'radical-join-collapse': 'one-point carrier has no maximal elements',
    'normality-lifts-radical': 'one-point carrier has no maximal elements',
    'star-implies-lifting': 'one-point carrier',
    'star-passes-to-radical-frame': 'one-point carrier',
    'star-passes-to-intervals': 'one-point carrier',
    'surjections-preserve-star': 'one-point carrier',
    'product-recognition': 'not built as a product',
    'product-maximals': 'not built as a product',
    'radical-interval-factors': 'no maximal elements',
    'central-below-radical-vanishes': 'one-point carrier has no maximal elements',
    'product-lifting-transfer': 'not built as a product',
    'local-decomposition-equivalence': 'one-point carrier has no maximal elements',
    'semilocal-lifting-agreement': 'one-point carrier has no maximal elements',
}


def test_one_point_rows_are_unchanged(corpus):
    report = suite.run_suite(suite.Corpus([corpus.get('Q1')]))
    skipped = {r.check: r.detail for r in report.results if r.status == suite.NOT_APPLICABLE}
    assert skipped == ONE_POINT_NOT_APPLICABLE
    assert {r.status for r in report.results if r.check not in skipped} == {
        suite.PASS, suite.RECORDED}
    assert hashlib.sha256(report.fingerprint().encode()).hexdigest() == (
        '2028c9f6cf29fd42199324f3008b2fbfe5de8955bfc90ed8005f2a2828784771')


def test_trivial_quantale_on_a_larger_member_is_refuted(corpus):
    'A one-point interval or target met inside a larger member cannot hide a fault.'

    def meets_a_one_point_target(member):
        raise TrivialQuantale('one-point carrier')

    check = suite.Check('test-only-trivial', 'synthetic check', meets_a_one_point_target)
    result = suite._run_check(check, corpus.get('C2'))
    assert (result.status, result.detail) == (
        suite.REFUTED, 'TrivialQuantale: one-point carrier')
    assert result.payload['member'] == 'C2'
    # on a one-point member the same error means the law does not apply
    result = suite._run_check(check, corpus.get('Q1'))
    assert (result.status, result.detail, result.payload) == (
        suite.NOT_APPLICABLE, 'one-point carrier', None)


TRANSFER_CHECKS = {
    'lifting-passes-to-intervals': "lifting lost on ['0') at 3",
    'surjections-preserve-lifting': 'lifting lost along u_0 at 3',
    'star-passes-to-radical-frame': 'splitting lost on the radical frame at 3',
    'star-passes-to-intervals': "splitting lost on ['0') at 3",
    'surjections-preserve-star': 'splitting lost along u_0 at 3',
}


def test_transfer_checks_name_the_first_target_that_loses_the_property(corpus, monkeypatch):
    member = corpus.get('C3')

    def only_on_the_member(p):
        return Verdict(True) if p is member.quantale else Verdict(False, len(p))

    monkeypatch.setattr(suite, 'has_lp', only_on_the_member)
    monkeypatch.setattr(suite, 'has_property_star', only_on_the_member)
    for name, detail in TRANSFER_CHECKS.items():
        result = suite._run_check(suite.CHECKS[name], member)
        assert (result.status, result.detail) == (suite.REFUTED, detail), name
    # a member without the property keeps nothing to lose
    monkeypatch.setattr(suite, 'has_lp', lambda p: Verdict(False, len(p)))
    monkeypatch.setattr(suite, 'has_property_star', lambda p: Verdict(False, len(p)))
    for name in TRANSFER_CHECKS:
        absent = 'no lifting' if 'lifting' in name else 'no splitting'
        result = suite._run_check(suite.CHECKS[name], member)
        assert (result.status, result.detail) == (
            suite.PASS, 'premise is false (%s), implication holds vacuously' % absent), name


IMPLICATION_CHECKS = {
    'local-implies-lifting': ("local but lifting fails at 'w'", 'not local'),
    'chain-reticulation-implies-lifting': (
        "chain quotient but lifting fails at 'w'", 'quotient is not a chain'),
    'hyperarchimedean-implies-lifting': (
        "hyperarchimedean but lifting fails at 'w'", 'not hyperarchimedean'),
    'star-implies-lifting': ("splits everywhere but lifting fails at 'w'", 'no splitting'),
    'normality-lifts-radical': ("normal but '1' lacks lifting at 'w'", 'not normal'),
}


def test_implication_checks_name_the_failed_conclusion_or_the_false_premise(corpus, monkeypatch):
    'The quotient of C3 is a chain and that of B4 is not; the other verdicts are patched.'
    premises = ('is_local', 'is_hyperarchimedean', 'has_property_star', 'is_normal')
    for name in premises:
        monkeypatch.setattr(suite, name, lambda q: Verdict(True))
    monkeypatch.setattr(suite, 'has_lp', lambda q: Verdict(False, 'w'))
    monkeypatch.setattr(suite, 'element_has_lp', lambda q, a: Verdict(False, 'w'))
    for name, (broken, _) in IMPLICATION_CHECKS.items():
        result = suite._run_check(suite.CHECKS[name], corpus.get('C3'))
        assert (result.status, result.detail) == (suite.REFUTED, broken), name
    for name in premises:
        monkeypatch.setattr(suite, name, lambda q: Verdict(False, 'w'))
    for name, (_, absent) in IMPLICATION_CHECKS.items():
        result = suite._run_check(suite.CHECKS[name], corpus.get('B4'))
        assert (result.status, result.detail) == (
            suite.PASS, 'premise is false (%s), implication holds vacuously' % absent), name


def test_a_kernel_that_disagrees_with_injectivity_is_refuted(corpus, monkeypatch):
    'is_injective compares the kernel criterion with direct injectivity and raises.'
    monkeypatch.setattr('quantales.quantale.kernel', lambda u: u.source.top)
    result = suite._run_check(suite.CHECKS['kernel-detects-injectivity'], corpus.get('C3'))
    assert (result.status, result.detail) == (
        suite.REFUTED, 'QuantaleError: kernel criterion disagrees with direct injectivity')


def test_disagreeing_legs_are_refuted_with_every_leg_shown(corpus, monkeypatch):
    # the quotient leg now claims every quotient is local
    monkeypatch.setattr(suite, 'lattice_is_id_local', lambda lattice: True)
    report = suite.run_suite(corpus, checks=['local-equivalence'])
    details = {r.member: (r.status, r.detail) for r in report.results}
    assert details['D12'] == (suite.REFUTED, 'quantale=False frame=False quotient=True')
    assert details['C3'] == (suite.PASS, 'quantale=True frame=True quotient=True')


def test_semilocal_equivalence_compares_the_counts_of_maximal_elements(corpus, monkeypatch):
    'Equal counts PASS with the fixed text; a reticulation that lost a maximal element is REFUTED.'
    d12 = suite.Corpus([corpus.get('D12')])
    (row,) = suite.run_suite(d12, checks=['semilocal-equivalence']).results
    assert (row.status, row.detail) == (suite.PASS, 'finite carriers are always semilocal')
    monkeypatch.setattr(suite, 'reticulate', lambda q: SimpleNamespace(maximal_elements=(0,)))
    (row,) = suite.run_suite(d12, checks=['semilocal-equivalence']).results
    assert (row.status, row.detail) == (suite.REFUTED, 'quantale=2 frame=2 quotient=1')


def test_report_text_layout(corpus):
    report = suite.run_suite(corpus, checks=['quantale-axioms'])
    text = report.to_text()
    assert text.splitlines()[0].startswith('members: Q1, C2')
    assert text.splitlines()[-1].startswith('timing:')
    assert 'result: PASS' in text


ROUND_TRIP_CORRUPTED = textwrap.dedent("""
    import json
    from quantales import io, suite

    emit = io.emit_instance

    def corrupted(q, generator=None):
        # 1*1 = 0 on the three-chain still parses: it is the quantale of Z/4
        doc = json.loads(emit(q, generator))
        doc['mul'] = [[x, y, '0' if [x, y] == ['1', '1'] else z] for x, y, z in doc['mul']]
        return json.dumps(doc)

    io.emit_instance = corrupted
    member = suite.CorpusMember('C3', io.generate('chain:3,frame'), 'chain:3,frame')
    result = suite._run_check(suite.CHECKS['quantale-axioms'], member)
    print(__debug__, result.status, result.detail)
""")


def test_broken_round_trip_is_refuted_under_optimisation():
    'The round-trip comparison is explicit, so python -O cannot strip it.'
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quantales.__file__))
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [src, env.get('PYTHONPATH')]))
    done = subprocess.run([sys.executable, '-O', '-c', ROUND_TRIP_CORRUPTED],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split('\n')[0] == (
        "False REFUTED round trip changes the multiplication at ('1', '1')")


INJECTIVITY_CROSS_CHECK = textwrap.dedent("""
    from quantales import io
    from quantales.quantale import QuantaleError, QuantaleMorphism, is_injective

    c3, c2 = io.generate('chain:3,frame'), io.generate('chain:2,frame')
    collapse = QuantaleMorphism(c3, c2, (0, 1, 1))
    try:
        print(__debug__, is_injective(collapse))
    except QuantaleError as exc:
        print(__debug__, type(exc).__name__, exc)
""")


def test_injectivity_cross_check_raises_under_optimisation():
    'The kernel cross-check in is_injective is an explicit raise, so python -O keeps it.'
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quantales.__file__))
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [src, env.get('PYTHONPATH')]))
    done = subprocess.run([sys.executable, '-O', '-c', INJECTIVITY_CROSS_CHECK],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split('\n')[0] == (
        'False QuantaleError kernel criterion disagrees with direct injectivity')


CENTER_WITHOUT_TOP = textwrap.dedent("""
    from functools import cached_property

    from quantales import cli
    from quantales.quantale import Quantale

    complete = Quantale.center.func

    def center_without_top(self):
        return tuple(e for e in complete(self) if e != self.top)

    Quantale.center = cached_property(center_without_top)
    Quantale.center.__set_name__(Quantale, 'center')
    code = cli.main(['verify', 'fixtures', '--theorems', 'center-laws', '--no-timings'])
    print(__debug__, code)
""")


def test_mutated_center_is_refuted_through_verify_under_optimisation():
    'A center that drops the top is REFUTED end to end by verify, with python -O too.'
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quantales.__file__))
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [src, env.get('PYTHONPATH')]))
    done = subprocess.run([sys.executable, '-O', '-c', CENTER_WITHOUT_TOP],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == 'False 1'
    refuted = [line for line in lines if 'REFUTED' in line and 'center-laws' in line]
    assert refuted and 'center membership differs from a v a~ = 1' in done.stdout


KERNEL_STRANDS_NOTHING = textwrap.dedent("""
    import numpy as np

    from quantales import cli, properties

    def strands_nothing(q, anchors):
        return np.zeros((len(anchors), len(q)), dtype=bool)

    properties._stranded = strands_nothing
    code = cli.main(['verify', 'fixtures', '--theorems', 'lifting-equivalence', '--no-timings'])
    print(__debug__, code)
""")


def test_lifting_kernel_that_strands_nothing_is_refuted_through_verify_under_optimisation():
    'A lifting kernel that never strands an element is REFUTED by the per-anchor oracle on W5.'
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quantales.__file__))
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [src, env.get('PYTHONPATH')]))
    done = subprocess.run([sys.executable, '-O', '-c', KERNEL_STRANDS_NOTHING],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == 'False 1'
    refuted = [line.split()[:3] for line in lines[2:-2] if 'REFUTED' in line]
    assert refuted == [['lifting-equivalence', 'W5', 'REFUTED']]
    assert ("quantale-lifting Verdict(holds=True, witness=None), per-anchor oracle "
            "Verdict(holds=False, witness=('{z}', '{x,z}'))") in done.stdout
