"""The oracle boundary: only the law suite imports quantales.oracles.

The oracles decide each concept a second way, so that the suite can compare
the library against something that shares none of its code.  A library
module that imported them would blur that line, and so would an oracle that
called the library, so the source is scanned both ways.  The per-anchor
lifting oracle is also held to the library's lifting kernel, on the pool
that test_kernels.py holds that kernel to the interval loop on.  The axiom
oracle is held to the laws compared on every triple at once, and refutes,
through the suite, a table that validation accepts.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

import quantales
from quantales import suite
from quantales.oracles import axiom_failure, has_lp_per_anchor
from quantales.properties import has_lp
from quantales.quantale import Quantale
from test_kernels import (
    NOT_LIFTING, SORTED_SCAN_MISSES, _laws_hold_on_all_triples, chain_tables,
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
