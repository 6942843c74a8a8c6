"""Command line behavior: output shape, determinism, exit codes."""

import hashlib
import json
import random
import re

import pytest

from quantales import cli, io, suite


@pytest.fixture()
def d12_file(tmp_path, d12):
    path = tmp_path / 'D12.json'
    path.write_text(io.emit_instance(d12, 'zn:12'), encoding='utf-8')
    return str(path)


def test_analyze_reports_structure(capsys, d12_file):
    assert cli.main(['analyze', d12_file]) == 0
    out = capsys.readouterr().out
    assert 'instance: D12 (6 elements)' in out
    assert 'm-primes: 2, 3' in out
    assert 'rho(12) = 6' in out
    assert 'jacobson radical: 6' in out
    assert 'lifting=True' in out and 'semiprime=False' in out
    assert 'local factorization: idempotents 4, 3' in out


def test_analyze_missing_file_exits_2(capsys):
    assert cli.main(['analyze', '/no/such/file.json']) == 2
    assert 'error' in capsys.readouterr().err


def test_analyze_invalid_instance_exits_2(capsys, tmp_path):
    bad = tmp_path / 'bad.json'
    bad.write_text('{"elements": ["a", "b"], "leq": [], "mul": []}')
    assert cli.main(['analyze', str(bad)]) == 2
    assert 'error' in capsys.readouterr().err


def test_analyze_deeply_nested_document_exits_2(capsys, tmp_path):
    deep = tmp_path / 'deep.json'
    deep.write_text('[' * 100_000)
    assert cli.main(['analyze', str(deep)]) == 2
    assert 'nests too deeply' in capsys.readouterr().err


def test_verify_fixtures_passes(capsys):
    assert cli.main(['verify', 'fixtures', '--no-timings']) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith('result: PASS')
    assert 'REFUTED' not in out.splitlines()[-1]


def test_verify_runs_are_identical_modulo_timing(capsys):
    cli.main(['verify', 'fixtures'])
    first = capsys.readouterr().out
    cli.main(['verify', 'fixtures'])
    second = capsys.readouterr().out
    strip = lambda text: [l for l in text.splitlines() if not l.startswith('timing:')]
    assert strip(first) == strip(second)


def test_verify_selected_checks(capsys):
    assert cli.main(['verify', 'fixtures', '--theorems', 'radical-power-oracle',
                     '--no-timings']) == 0
    out = capsys.readouterr().out
    assert 'checks: 1, entries: 12' in out


def test_verify_unknown_check_exits_2(capsys):
    assert cli.main(['verify', 'fixtures', '--theorems', 'flux-capacitor']) == 2
    assert 'unknown checks' in capsys.readouterr().err


def test_verify_refutation_exits_1(capsys, d12_file, monkeypatch):
    def refuter(member):
        return suite.REFUTED, 'synthetic'

    monkeypatch.setitem(
        suite.CHECKS, 'test-refuter', suite.Check('test-refuter', '', refuter))
    assert cli.main(['verify', d12_file, '--theorems', 'test-refuter',
                     '--no-timings']) == 1
    out = capsys.readouterr().out
    assert 'result: REFUTED' in out


def test_verify_directory_corpus(capsys, tmp_path):
    for gen in ('chain:2,frame', 'boolean:2'):
        q = io.generate(gen)
        name = gen.replace(':', '_').replace(',', '_')
        (tmp_path / ('%s.json' % name)).write_text(io.emit_instance(q, gen))
    assert cli.main(['verify', str(tmp_path), '--theorems', 'quantale-axioms',
                     '--no-timings']) == 0
    assert 'entries: 2' in capsys.readouterr().out


def test_verify_empty_directory_exits_2(capsys, tmp_path):
    assert cli.main(['verify', str(tmp_path)]) == 2


def test_verify_member_named_like_an_enumerated_one_exits_2(capsys, tmp_path):
    (tmp_path / 'E1.1.json').write_text(io.emit_instance(io.generate('chain:2,frame')))
    assert cli.main(['verify', str(tmp_path), '--enumerate-up-to', '1']) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: duplicate corpus member name 'E1.1'\n"
    assert not captured.out


def test_enumerate_lists_instances(capsys):
    assert cli.main(['enumerate', '--max-size', '3']) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == 'total: 4'
    assert out.splitlines()[0].startswith('E1.1')


def test_enumerate_to_five_prints_the_recorded_listing(capsys):
    # the 37 classes up to size 5, each with its lifting verdict
    assert cli.main(['enumerate', '--max-size', '5']) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == 'total: 37'
    assert hashlib.sha256(out.encode()).hexdigest() == (
        '079b06293489bbd9700442e6c7fd7df45ae2596ed4a825a7ef2d6b2d05e8dd21')


def test_enumerate_above_bound_exits_2(capsys):
    assert cli.main(['enumerate', '--max-size', '9']) == 2


@pytest.mark.parametrize('argv', [
    ['enumerate', '--max-size', '-1'],
    ['verify', 'fixtures', '--enumerate-up-to', '-2', '--no-timings'],
], ids=['enumerate-max-size', 'verify-enumerate-up-to'])
def test_negative_size_exits_2_with_one_error_line(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ''
    assert err.startswith('error: --') and 'must not be negative' in err, err
    assert len(err.splitlines()) == 1


def test_enumerate_to_size_zero_lists_nothing(capsys):
    assert cli.main(['enumerate', '--max-size', '0']) == 0
    assert capsys.readouterr().out == 'total: 0\n'


def test_enumerate_emits_instances(capsys, tmp_path):
    out_dir = tmp_path / 'emitted'
    assert cli.main(['enumerate', '--max-size', '2',
                     '--emit-dir', str(out_dir)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in out_dir.glob('*.json'))
    assert files == ['E1.1.json', 'E2.1.json']
    doc = json.loads((out_dir / 'E2.1.json').read_text())
    assert len(doc['elements']) == 2


def test_export_dot_views(capsys, d12_file):
    assert cli.main(['export-dot', d12_file]) == 0
    assert capsys.readouterr().out.startswith('digraph')
    assert cli.main(['export-dot', d12_file, '--view', 'spec']) == 0
    assert 'peripheries=2' in capsys.readouterr().out


def test_export_dot_bad_view_is_a_usage_error(d12_file):
    with pytest.raises(SystemExit) as err:
        cli.main(['export-dot', d12_file, '--view', 'orbit'])
    assert err.value.code == 2


@pytest.fixture()
def unreadable(tmp_path):
    'A directory, a non-UTF-8 instance file, a directory holding one, and a plain file.'
    (tmp_path / 'dir').mkdir()
    (tmp_path / 'latin1.json').write_bytes(b'{"elements": ["\xe9"]}')
    (tmp_path / 'corpus').mkdir()
    (tmp_path / 'corpus' / 'latin1.json').write_bytes(b'{"elements": ["\xe9"]}')
    (tmp_path / 'file').write_text('not a directory')
    return tmp_path


@pytest.mark.parametrize('argv, message', [
    (['analyze', 'dir'], 'Is a directory'),
    (['export-dot', 'dir'], 'Is a directory'),
    (['analyze', 'latin1.json'], 'latin1.json is not UTF-8 text'),
    (['verify', 'corpus'], 'latin1.json is not UTF-8 text'),
    (['enumerate', '--max-size', '2', '--emit-dir', 'file'], 'File exists'),
], ids=['analyze-directory', 'export-dot-directory', 'analyze-not-utf8',
        'verify-directory-not-utf8', 'enumerate-emit-dir-is-a-file'])
def test_unreadable_input_exits_2_with_one_error_line(capsys, unreadable, monkeypatch,
                                                      argv, message):
    monkeypatch.chdir(unreadable)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith('error: ') and message in err, err
    assert 'Traceback' not in err and len(err.splitlines()) == 1


PRODUCT_CHECKS = ['product-recognition', 'product-maximals', 'product-lifting-transfer']


def _product_document(tmp_path, generator):
    'The emitted product of two three-chains as P33.json, with generator unless that is None.'
    doc = json.loads(io.emit_instance(io.generate('product:chain:3,frame;chain:3,frame')))
    if generator is not None:
        doc['generator'] = generator
    path = tmp_path / 'P33.json'
    path.write_text(json.dumps(doc), encoding='utf-8')
    return str(path)


@pytest.mark.parametrize('generator, statuses, morphisms', [
    ('product:chain:3,frame;chain:3,frame', ['PASS'] * 3, 11),
    (None, ['NOT-APPLICABLE'] * 3, 9),
    (3, ['NOT-APPLICABLE'] * 3, 9),
], ids=['product-generator', 'no-generator', 'generator-not-a-string'])
def test_verify_keeps_a_documents_generator(capsys, tmp_path, generator, statuses, morphisms):
    'A document that names its product generator is checked as that product.'
    path = _product_document(tmp_path, generator)
    assert cli.main(['verify', path, '--no-timings', '--theorems', *PRODUCT_CHECKS,
                     'morphisms-preserve-center']) == 0
    rows = {line.split()[0]: line.split(None, 3)[2:]
            for line in capsys.readouterr().out.splitlines() if ' P33 ' in line}
    assert [rows[check][0] for check in PRODUCT_CHECKS] == statuses
    assert rows['morphisms-preserve-center'] == ['PASS', '[%d morphisms]' % morphisms]


@pytest.mark.parametrize('generator, message', [
    ('product:boolean:6;boolean:6', 'the product would have 4096 elements, the bound is 1024'),
    ('product:chain:3,frame;cube:3', "unknown generator 'cube'"),
], ids=['product-above-the-bound', 'unknown-factor'])
def test_verify_refuses_a_document_generator_as_generate_does(capsys, tmp_path, generator,
                                                              message):
    'The product a document names is bounded and checked before it is built.'
    path = _product_document(tmp_path, generator)
    assert cli.main(['verify', path, '--no-timings', '--theorems', *PRODUCT_CHECKS]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith('error: ') and message in err, err


def _order_invariant(report):
    """The lines of an analyze report with their lists sorted, the witness
    texts dropped and the factorization idempotents, each with its factor
    size, taken as a set: what the report says whatever the order of the
    elements in the document.  Which witness is met first depends on that order."""
    out = []
    for line in report.splitlines():
        key, _, value = line.partition(': ')
        if key in ('elements', 'm-primes', 'maximal', 'center'):
            value = sorted(value.split(', '))
        elif key in ('covers', 'radical'):
            value = sorted(value.split('; '))
        elif key == 'quotient classes':
            value = sorted(sorted(c.split()) for c in re.findall(r'\[([^\]]*)\]', value))
        elif key.startswith('witness'):
            value = None
        elif key == 'local factorization' and value != 'none':
            idempotents, _, sizes = value[len('idempotents '):].partition(', factor sizes ')
            value = sorted(zip(idempotents.split(', '), sizes.split(', ')))
        out.append((key, value))
    return out


def test_analyze_reports_the_same_on_shuffled_documents(capsys, tmp_path):
    'Each member of the fixtures and enumerated(5), with its elements, leq and mul shuffled thrice.'
    members = list(suite.fixtures()) + list(suite.enumerated(5))
    assert len(members) == 49
    for member in members:
        doc = json.loads(io.emit_instance(member.quantale))
        reports = []
        for seed in range(4):
            if seed:
                rng = random.Random(seed)
                for key in ('elements', 'leq', 'mul'):
                    rng.shuffle(doc[key])
            folder = tmp_path / str(seed)
            folder.mkdir(exist_ok=True)
            path = folder / ('%s.json' % member.name)
            path.write_text(json.dumps(doc), encoding='utf-8')
            assert cli.main(['analyze', str(path)]) == 0
            reports.append(_order_invariant(capsys.readouterr().out))
        assert reports[1:] == reports[:1] * 3, member.name
