"""Fuzz the input paths: every outcome is a result or a usage error.

parse_instance and generate either return a quantale or raise
io.InstanceError, and the command line either succeeds or exits with 2.
Sizes stay small (at most eight elements, moduli up to 30, no digits in
the malformed generator parameters) so that no case starts a large
allocation.
"""

import contextlib
import io as textio
import json
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from quantales import cli, io, suite
from quantales.quantale import Quantale

FUZZ = settings(max_examples=150, deadline=None)

# sizes of the small generated factors, so that products stay within 8 elements
FACTORS = {'chain:1,frame': 1, 'chain:2,frame': 2, 'boolean:1': 2, 'zn:2': 2, 'zn:6': 4,
           'zn:8': 4}


def _product_spec(names):
    return 'product:' + ';'.join(names)


well_formed_specs = st.one_of(
    st.integers(1, 30).map('zn:{}'.format),
    st.integers(1, 8).map('chain:{},frame'.format),
    st.integers(1, 3).map('boolean:{}'.format),
    st.sampled_from(['downsets:a', 'downsets:a<b', 'downsets:a<b,a<c', 'downsets:a,b,c',
                     'downsets:a<b<c']),
    st.lists(st.sampled_from(sorted(FACTORS)), min_size=2, max_size=3).filter(
        lambda names: prod(FACTORS[n] for n in names) <= 8).map(_product_spec),
)

# parameters without ASCII digits, so a malformed spec never names a large
# carrier; the superscript two is a digit to str.isdigit but not to int()
malformed_specs = st.builds(
    '{}{}{}'.format,
    st.sampled_from(['zn', 'chain', 'boolean', 'downsets', 'product', 'ring', '']),
    st.sampled_from([':', '', '::']),
    st.text(alphabet=',;<:abz-_ ²٣', max_size=8))

specs = st.one_of(well_formed_specs, malformed_specs, st.text(max_size=12))

labels = st.sampled_from(['a', 'b', 'c', 'd', '0', '1', '', 'a b', 'é'])
junk = st.one_of(st.none(), st.integers(-2, 2), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.text(max_size=2),
                                                                          st.integers(),
                                                                          max_size=1))


@st.composite
def documents(draw):
    'An instance document: a perturbed emitted one, a random one, or a generator reference.'
    kind = draw(st.sampled_from(['emitted', 'emitted', 'random', 'generator']))
    if kind == 'emitted':
        q = draw(st.sampled_from(SMALL))
        doc = json.loads(io.emit_instance(q))
        names = list(doc['elements'])
        for _ in range(draw(st.integers(0, 2))):
            key = draw(st.sampled_from(['elements', 'leq', 'mul', 'format']))
            value = doc.get(key)
            action = draw(st.sampled_from(['drop', 'relabel', 'replace']))
            if action == 'drop' and isinstance(value, list) and value:
                del value[draw(st.integers(0, len(value) - 1))]
            elif action == 'relabel' and key in ('leq', 'mul') and isinstance(value, list) and value:
                entry = value[draw(st.integers(0, len(value) - 1))]
                if isinstance(entry, list) and entry:
                    entry[draw(st.integers(0, len(entry) - 1))] = draw(st.sampled_from(names))
            else:
                doc[key] = draw(junk)
        return doc
    if kind == 'generator':
        doc = {'generator': draw(st.one_of(specs, junk))}
        if draw(st.booleans()):
            doc['format'] = draw(st.sampled_from([io.FORMAT, 'quantale-instance/0']))
        return doc
    elements = draw(st.one_of(st.lists(labels, max_size=8), junk))
    pool = elements if isinstance(elements, list) and elements else ['a']
    item = st.one_of(st.sampled_from(pool), junk)
    return {
        'elements': elements,
        'leq': draw(st.one_of(st.lists(st.lists(item, min_size=2, max_size=2), max_size=6),
                              junk)),
        'mul': draw(st.one_of(st.lists(st.lists(item, min_size=3, max_size=3), max_size=12),
                              junk)),
    }


texts = st.one_of(documents().map(json.dumps), st.text(max_size=40))

SMALL = list(suite.enumerate_quantales(4))


@FUZZ
@given(texts)
@example('1' * 5000)
@example('{"elements": ["a"], "leq": [], "mul": [["a", "a", "a"]], "x": ' + '9' * 4400 + '}')
def test_parse_instance_returns_a_quantale_or_raises_an_instance_error(text):
    try:
        result = io.parse_instance(text)
    except io.InstanceError:
        return
    assert isinstance(result, Quantale) and len(result) <= io.MAX_ELEMENTS


@FUZZ
@given(specs)
@example('zn:²')
@example('chain:²,frame')
@example('boolean:٣')
def test_generate_returns_a_quantale_or_raises_an_instance_error(spec):
    try:
        result = io.generate(spec)
    except io.InstanceError:
        return
    assert isinstance(result, Quantale) and len(result) <= 8


@pytest.fixture(scope='module')
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp('fuzz')


def _run(argv):
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(texts, st.sampled_from(['analyze', 'lattice', 'spec', 'reticulation']))
def test_cli_succeeds_or_exits_2_on_any_instance_file(workdir, text, command):
    path = workdir / 'instance.json'
    path.write_text(text, encoding='utf-8')
    argv = ['analyze', str(path)] if command == 'analyze' else [
        'export-dot', str(path), '--view', command]
    code, out, err = _run(argv)
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.startswith('error: ') and len(err.splitlines()) == 1, err
    else:
        assert out and not err
