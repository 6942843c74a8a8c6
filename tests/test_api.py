"""The public surface: one name per operation, and __all__ as the documented API."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import quantales
from quantales import quantale
from quantales.quantale import QuantaleError, QuantaleMorphism, RadicalFrame

ROOT = Path(__file__).resolve().parents[1]


def _bound_names(tree):
    'Public names a module binds at its top level by import or assignment.'
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition('.')[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith('_')}


def _taken_from_the_package(source):
    'Names a source file imports from the quantales package itself.'
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == 'quantales'
            for alias in node.names}


def test_all_lists_exactly_what_the_package_binds():
    init = ast.parse((ROOT / 'src' / 'quantales' / '__init__.py').read_text(encoding='utf-8'))
    assert len(set(quantales.__all__)) == len(quantales.__all__)
    assert set(quantales.__all__) == _bound_names(init)


def test_demos_and_readme_import_only_exported_names():
    sources = [path.read_text(encoding='utf-8') for path in sorted((ROOT / 'demos').glob('*.py'))]
    sources += re.findall(r'```python\n(.*?)```',
                          (ROOT / 'README.md').read_text(encoding='utf-8'), re.S)
    taken = set().union(*map(_taken_from_the_package, sources))
    names = {name for name in taken if not inspect.ismodule(getattr(quantales, name, None))}
    assert {'Quantale', 'generate', 'reticulate', 'local_decomposition'} <= names
    assert names <= set(quantales.__all__), sorted(names - set(quantales.__all__))


@pytest.mark.parametrize('name', [
    'build_quantale', 'radical', 'boolean_center', 'is_isomorphic', 'radical_frame', '_into'])
def test_second_names_are_gone(name):
    assert not hasattr(quantale, name)
    assert not hasattr(quantales, name)


def test_morphisms_always_preserve_the_unit(c3):
    assert list(inspect.signature(QuantaleMorphism).parameters) == ['source', 'target', 'mapping']
    assert not hasattr(QuantaleMorphism, 'boolean_image')
    assert not hasattr(c3, 'unit')
    # x -> x ^ 1 on the three-chain keeps joins, bottom and meets but moves the top
    with pytest.raises(QuantaleError, match='unit not preserved'):
        QuantaleMorphism(c3, c3, (0, 1, 1))


def test_radical_frame_is_built_once_and_matches_a_fresh_one(corpus):
    for member in corpus:
        q = member.quantale
        frame, fresh = q.radical_frame, RadicalFrame(q)
        assert q.radical_frame is frame and fresh is not frame
        assert frame.carrier == fresh.carrier and frame.elements == fresh.elements
        for ours, theirs in (
                (frame.to_frame, fresh.to_frame),
                (frame.poset.leq, fresh.poset.leq),
                (frame.join_table, fresh.join_table),
                (frame.meet_table, fresh.meet_table),
                (frame.mul_table, fresh.mul_table)):
            np.testing.assert_array_equal(ours, theirs, err_msg=member.name)
