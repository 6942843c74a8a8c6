"""The oracle boundary: only the law suite imports quantales.oracles.

The oracles decide each concept a second way, so that the suite can compare
the library against something that shares none of its code.  A library
module that imported them would blur that line, and so would an oracle that
called the library, so the source is scanned both ways.  The per-anchor
lifting oracle is also held to the library's lifting kernel, on the pool
that test_kernels.py holds that kernel to the interval loop on.  The axiom
oracle is held to the laws compared on every triple at once, and refutes,
through the suite, a table that validation accepts.  The scans that decide
normality, per-anchor lifting and ideal lifting, and the residuation-adjunction
check, are each held to the plain loop they replaced in reference_loops.py:
the same verdict and the same first witness on the fixtures, on every
instance up to six elements and on drawn tables, unchecked ones included.
"""

import ast
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import quantales
import reference_loops as ref
from quantales import suite
from quantales.oracles import axiom_failure, has_id_blp, has_lp_per_anchor, normal_witness
from quantales.properties import has_lp
from quantales.quantale import Quantale
from quantales.reticulation import reticulate
from test_kernels import (
    M3, N5, NOT_LIFTING, SORTED_SCAN_MISSES, _laws_hold_on_all_triples, chain_tables,
    irreducible_tables, lifting_cases)

PACKAGE = Path(quantales.__file__).parent


def _imported_names(tree):
    'Every module, or name inside a module, an import statement refers to, as a dotted path.'
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # the modules sit directly in the package, so a relative import
            # (from .x import y, from . import x) starts at quantales
            base = '.'.join(filter(None, ('quantales' if node.level else '', node.module)))
            yield base
            yield from ('%s.%s' % (base, alias.name) for alias in node.names)


def _imports_oracles(tree):
    return any(name == 'quantales.oracles' or name.startswith('quantales.oracles.')
               for name in _imported_names(tree))


def importers():
    return {path.name for path in sorted(PACKAGE.glob('*.py'))
            if _imports_oracles(ast.parse(path.read_text(encoding='utf-8')))}


def test_only_the_suite_imports_the_oracles():
    found = importers()
    assert found - {'suite.py'} == set(), 'library modules import the oracles: %s' % (
        ', '.join(sorted(found - {'suite.py'})),)
    # the suite does import them, so the scan is seen to find an import
    assert 'suite.py' in found


def test_the_scan_recognises_every_import_form():
    for source in ('import quantales.oracles', 'from quantales.oracles import normal_witness',
                   'from quantales import oracles', 'from .oracles import complement_of',
                   'from . import oracles as o'):
        assert _imports_oracles(ast.parse(source)), source
    for source in ('from . import io', 'from .lattices import Verdict',
                   'import quantales', 'from quantales import suite'):
        assert not _imports_oracles(ast.parse(source)), source


def _names_taken_from_the_package(tree):
    'Every dotted name an import statement takes from quantales.'
    return {name for name in _imported_names(tree)
            if name == 'quantales' or name.startswith('quantales.')}


def test_the_oracles_take_nothing_from_the_library_but_verdict():
    tree = ast.parse((PACKAGE / 'oracles.py').read_text(encoding='utf-8'))
    assert _names_taken_from_the_package(tree) <= {
        'quantales.lattices', 'quantales.lattices.Verdict'}
    # the oracles do import Verdict, so the scan is seen to find an import
    assert 'quantales.lattices.Verdict' in _names_taken_from_the_package(tree)


def test_the_verdict_scan_recognises_other_imports():
    for source in ('from quantales.lattices import Verdict, all_ideals',
                   'from .reticulation import star', 'import quantales.quantale',
                   'from . import lattices', 'from quantales import Verdict'):
        found = _names_taken_from_the_package(ast.parse(source))
        assert not found <= {'quantales.lattices', 'quantales.lattices.Verdict'}, source


@settings(max_examples=150, deadline=None)
@given(lifting_cases())
@example(NOT_LIFTING[1])
def test_the_per_anchor_lifting_oracle_matches_the_kernel(q):
    assert has_lp_per_anchor(q) == has_lp(q)


@settings(max_examples=150, deadline=None)
@given(st.one_of(irreducible_tables(), chain_tables()))
@example(SORTED_SCAN_MISSES)
def test_the_axiom_oracle_agrees_with_the_laws_on_every_triple(case):
    lattice, mul = case
    tables = SimpleNamespace(mul_table=mul, join_table=lattice.join_table)
    assert (axiom_failure(tables) is None) == _laws_hold_on_all_triples(lattice, mul)


def test_the_axiom_oracle_refutes_a_table_that_validation_accepts():
    lattice, table = SORTED_SCAN_MISSES
    q = Quantale(lattice, table)
    # (x2*x4)*x3 = x0 but x2*(x4*x3) = x1
    assert axiom_failure(q) == ('associativity', (2, 4, 3))
    report = suite.run_suite(suite.Corpus([suite.CorpusMember('E6.85', q)]), ['quantale-axioms'])
    [result] = report.results
    assert result.status == suite.REFUTED
    assert result.detail == (
        "validation accepts a table whose associativity fails at ('x2', 'x4', 'x3')")


# ---------------------------------------------------------------------------
# the scans against the loops they replaced

def _verdict(v):
    return bool(v), v.witness


def _scans_match_the_loops(q, pools):
    for pool in pools:
        assert normal_witness(q, pool) == ref.normal_witness(q, pool), (q.elements, pool)
    assert _verdict(has_lp_per_anchor(q)) == _verdict(ref.has_lp_per_anchor(q)), q.elements
    assert _verdict(has_id_blp(q)) == _verdict(ref.has_id_blp_per_generator(q)), q.elements


def _unchecked(lattice, mul):
    'The lattice with the drawn table held unchecked, as the oracles may meet it.'
    return ref._adopted(lattice.poset, lattice.join_table, lattice.meet_table,
                        lattice.bottom, lattice.top, mul)


@pytest.mark.parametrize('corpus', ['fixtures', 'enumerated(6)'])
def test_the_scans_match_the_loops_on_every_small_member(corpus):
    members = suite.fixtures() if corpus == 'fixtures' else suite.enumerated(6, bound=6)
    check = suite.CHECKS['residuation-adjunction'].run
    for member in members:
        q = member.quantale
        # the suite also asks the quotient and the radical frame
        for part in (q, reticulate(q), q.radical_frame):
            _scans_match_the_loops(part, (range(len(part)), part.center))
        assert check(member) == ref.residuation_adjunction(member, suite.residuum), member.name


@settings(max_examples=150, deadline=None)
@given(lifting_cases())
@example(NOT_LIFTING[0])
@example(NOT_LIFTING[1])
def test_the_scans_match_the_loops_on_drawn_quantales(q):
    _scans_match_the_loops(q, (range(len(q)), q.center))


@settings(max_examples=200, deadline=None)
@given(st.one_of(irreducible_tables(), chain_tables()), st.data())
@example(SORTED_SCAN_MISSES, None)
@example((M3, M3.meet_table), None)
@example((N5, N5.meet_table), None)
def test_the_scans_match_the_loops_on_drawn_tables(case, data):
    lattice, mul = case
    n = len(lattice)
    pools = [range(n)]
    if data is not None:
        pools.append(data.draw(st.lists(st.integers(0, n - 1), unique=True)))
    _scans_match_the_loops(_unchecked(lattice, mul), pools)


ADJUNCTION_MEMBERS = [m for m in suite.fixtures() if len(m.quantale) > 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_wrong_residuum_is_refuted_where_the_loop_refutes_it(data):
    member = data.draw(st.sampled_from(ADJUNCTION_MEMBERS), label='member')
    q = member.quantale
    n = len(q)
    b, c = (data.draw(st.integers(0, n - 1), label=name) for name in 'bc')
    right = suite.residuum(q, b, c)
    wrong = data.draw(st.integers(0, n - 1).filter(lambda v: v != right), label='wrong')
    original = suite.residuum

    def residuum(q, x, y):
        return wrong if (x, y) == (b, c) else original(q, x, y)

    with mock.patch.object(suite, 'residuum', residuum):
        status, detail = suite.CHECKS['residuation-adjunction'].run(member)
    # the adjunction fixes b -> c, so any other value fails at some a
    assert status == suite.REFUTED
    assert (status, detail) == ref.residuation_adjunction(member, residuum)
