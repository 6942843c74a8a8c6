"""Instance format: parsing, emission, generators, DOT export."""

import json
import time

import pytest

import reference_loops as ref
from quantales import io
from quantales.suite import FIXTURE_GENERATORS


@pytest.mark.parametrize('name,generator', FIXTURE_GENERATORS)
def test_round_trip_is_exact(name, generator):
    q = io.generate(generator)
    doc = io.emit_instance(q, generator)
    again = io.parse_instance(doc)
    assert again.elements == q.elements
    assert (again.mul_table == q.mul_table).all()
    assert (again.lattice.poset.leq == q.lattice.poset.leq).all()
    # emission is canonical: a second pass reproduces the same text
    assert io.emit_instance(again, generator) == doc


def test_emitted_document_shape(d12):
    doc = json.loads(io.emit_instance(d12, 'zn:12'))
    assert doc['format'] == io.FORMAT
    assert doc['generator'] == 'zn:12'
    assert doc['elements'] == list(d12.elements)
    assert all(len(triple) == 3 for triple in doc['mul'])


def test_generate_zn_divisor_order():
    q = io.generate('zn:30')
    assert q.elements == ('1', '2', '3', '5', '6', '10', '15', '30')
    ix = q.index_of
    assert q.label(q.mul(ix('6'), ix('10'))) == '30'  # gcd(60, 30)
    assert q.label(q.join(ix('6'), ix('10'))) == '2'


def test_generate_boolean_and_chain():
    b = io.generate('boolean:3')
    assert len(b) == 8 and b.label(b.top) == '{a,b,c}'
    c = io.generate('chain:4,frame')
    assert c.elements == ('0', '1', '2', '3')
    assert all(c.mul(i, j) == c.meet(i, j) for i in range(4) for j in range(4))


def test_generate_downsets_shape():
    q = io.generate('downsets:z<x,z<y')
    assert len(q) == 5
    assert q.label(q.bottom) == '{}'


def test_generate_product_labels():
    q = io.generate('product:chain:2,frame;chain:2,frame')
    assert set(q.elements) == {'(0,0)', '(0,1)', '(1,0)', '(1,1)'}


FRAME_SPECS = ('chain:1,frame', 'chain:2,frame', 'chain:40,frame', 'boolean:1', 'boolean:6',
               'boolean:7', 'downsets:z<x,z<y', 'downsets:a<b,c<d,e<f',
               'product:chain:3,frame;boolean:2', 'product:zn:12;downsets:z<x,z<y')


@pytest.mark.parametrize('spec', FRAME_SPECS)
def test_frame_generators_match_the_label_pair_loops(spec, monkeypatch):
    built = io.emit_instance(io.generate(spec), spec)
    monkeypatch.setitem(io._GENERATORS, 'chain', ref.generate_chain)
    monkeypatch.setattr(io, '_frame_of_sets', ref.frame_of_sets)
    assert built == io.emit_instance(io.generate(spec), spec)


def test_generator_errors():
    with pytest.raises(io.UnknownGenerator):
        io.generate('rings:12')
    with pytest.raises(io.InvalidParameter):
        io.generate('zn:0')
    with pytest.raises(io.InvalidParameter):
        io.generate('chain:3,opposite')
    with pytest.raises(io.InvalidParameter):
        io.generate('boolean:11')  # size wall
    with pytest.raises(io.InvalidParameter):
        io.generate('downsets:a<b,b<a')  # cycle
    with pytest.raises(io.InvalidParameter):
        io.generate('product:zn:6')  # needs two factors


@pytest.mark.parametrize('spec', [
    'chain:1025,frame',                 # one element over the bound
    'product:boolean:6;boolean:6',      # 4096 elements, refused before product() runs
    'downsets:a,b,c,d,e,f,g,h,i,j,k',   # 2048 down-sets of an antichain
    'zn:963761198400',                  # 6720 divisors
    'zn:1000000000001',                 # modulus above 10**12
])
def test_oversized_requests_fail_fast(spec):
    start = time.perf_counter()
    with pytest.raises(io.InvalidParameter):
        io.generate(spec)
    # the refusal comes before any table is built; building would take minutes
    assert time.perf_counter() - start < 2


def test_zn_scans_divisors_up_to_the_square_root():
    start = time.perf_counter()
    prime = io.generate('zn:1000000007')
    assert time.perf_counter() - start < 2
    assert prime.elements == ('1', '1000000007')
    for n in (1, 16, 36, 720):
        assert io.generate('zn:%d' % n).elements == tuple(
            str(d) for d in range(1, n + 1) if n % d == 0)


def test_parse_bounds_the_element_count():
    doc = json.dumps({'elements': ['x%d' % i for i in range(io.MAX_ELEMENTS + 1)]})
    with pytest.raises(io.ParseError) as err:
        io.parse_instance(doc)
    assert err.value.location == 'elements'


def test_parse_rejects_deep_nesting():
    with pytest.raises(io.ParseError) as err:
        io.parse_instance('[' * 100_000)
    assert err.value.location == '$'


def test_parse_rejects_malformed_json():
    with pytest.raises(io.ParseError) as err:
        io.parse_instance('{"elements": [')
    assert err.value.location


def test_parse_rejects_bad_structure(d12):
    doc = json.loads(io.emit_instance(d12))
    short = dict(doc)
    short['mul'] = doc['mul'][:-1]
    with pytest.raises(io.ParseError):
        io.parse_instance(json.dumps(short))

    conflicted = dict(doc)
    first = doc['mul'][0]
    conflicted['mul'] = doc['mul'] + [[first[0], first[1], doc['elements'][-1]]]
    with pytest.raises(io.ParseError):
        io.parse_instance(json.dumps(conflicted))

    stray = dict(doc)
    stray['leq'] = doc['leq'] + [['1', 'zzz']]
    with pytest.raises(io.ParseError):
        io.parse_instance(json.dumps(stray))


def test_parse_rejects_axiom_violations_with_witness(d12):
    doc = json.loads(io.emit_instance(d12))
    broken = dict(doc)
    # force 2*2 = 1: the product would climb above both factors
    broken['mul'] = [['2', '2', '1'] if t[:2] == ['2', '2'] else t
                     for t in doc['mul']]
    with pytest.raises(io.ValidationError) as err:
        io.parse_instance(json.dumps(broken))
    assert err.value.axiom == 'NotDistributive'
    assert err.value.witness


def test_parse_rejects_non_lattice_orders():
    doc = {'elements': ['a', 'b'], 'leq': [], 'mul': []}
    with pytest.raises(io.ValidationError) as err:
        io.parse_instance(json.dumps(doc))
    assert err.value.axiom == 'NotALattice'


def test_export_dot_views(d12):
    plain = io.export_dot(d12)
    assert plain.startswith('digraph') and 'rankdir=BT' in plain
    assert plain.count('->') == len(d12.lattice.poset.covers)
    spec = io.export_dot(d12, view='spec')
    assert 'peripheries=2' in spec
    retic = io.export_dot(d12, view='reticulation')
    assert '12' in retic
    with pytest.raises(io.InvalidParameter):
        io.export_dot(d12, view='orbit')


def test_spec_view_matches_the_loop(corpus, small_corpus):
    with_edges = 0
    for member in list(corpus) + list(small_corpus):
        spec = io.export_dot(member.quantale, view='spec')
        assert spec == ref.export_spec_dot(member.quantale), member.name
        with_edges += ' -> ' in spec
    # a spectrum with an order relation in it on 28 of the 49 members
    assert with_edges == 28
