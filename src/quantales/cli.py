"""Command line front end.

Subcommands:
  analyze     print the full structure report for one instance file
  verify      run the law suite over a corpus and report PASS or REFUTED
  enumerate   list all instances up to a size bound, one per isomorphism class
  export-dot  write a Graphviz view of an instance to stdout

Exit codes: 0 success, 1 a law was refuted, 2 usage or input errors.
"""

import argparse
import json
import sys
from pathlib import Path

from . import io, suite
from .lattices import LatticeError
from .properties import PropertyReport, has_lp
from .quantale import QuantaleError
from .reticulation import reticulate


def _read(path):
    try:
        return Path(path).read_text(encoding='utf-8')
    except UnicodeDecodeError as exc:
        # other read errors are OSErrors, which main reports as they are
        raise io.InstanceError('%s is not UTF-8 text: %s' % (path, exc.reason)) from None


def _member(path):
    'Corpus member from an instance file, with the generator string its accepted document names.'
    text = _read(path)
    q, generator = io.parse_instance(text), json.loads(text).get('generator')
    return suite.CorpusMember(path.stem, q, generator if isinstance(generator, str) else None)


def _labels(q, indices):
    return ', '.join(str(q.label(i)) for i in indices)


def _analyze_lines(name, q):
    lines = ['instance: %s (%d elements)' % (name, len(q))]
    lines.append('elements: %s' % ', '.join(map(str, q.elements)))
    covers = ['%s < %s' % (q.label(a), q.label(b)) for a, b in q.poset.covers]
    lines.append('covers: %s' % ('; '.join(covers) if covers else '(none)'))
    lines.append('zero: %s  unit: %s' % (q.label(q.bottom), q.label(q.top)))
    lines.append('m-primes: %s' % (_labels(q, q.spectrum) or '(none)'))
    lines.append('maximal: %s' % (_labels(q, q.maximal_elements) or '(none)'))
    radicals = ['rho(%s) = %s' % (q.label(a), q.label(q.radical_of(a)))
                for a in range(len(q)) if q.radical_of(a) != a]
    lines.append('radical: %s' % ('; '.join(radicals) if radicals
                                  else 'every element is radical'))
    lines.append('center: %s' % _labels(q, q.center))
    report = PropertyReport.analyze(q)
    if not report.trivial:
        lines.append('jacobson radical: %s' % report.jacobson)
    classes = ['[%s]' % ' '.join(str(q.label(a)) for a in members)
               for members in reticulate(q).classes]
    lines.append('quotient classes: %s' % ' '.join(classes))
    if report.trivial:
        lines.append('properties: trivial one-point instance')
        return lines
    order = ('semiprime', 'local', 'semilocal', 'lp', 'normal', 'b_normal',
             'hyperarchimedean', 'property_star')
    shown = {'lp': 'lifting', 'b_normal': 'b-normal', 'property_star': 'splitting'}
    lines.append('properties: ' + ' '.join(
        '%s=%s' % (shown.get(k, k), report.verdicts[k]) for k in order))
    for name_, witness in sorted(report.witnesses.items()):
        lines.append('witness (%s): %r' % (shown.get(name_, name_), witness))
    if report.decomposition is not None:
        dec = report.decomposition
        lines.append('local factorization: idempotents %s, factor sizes %s' % (
            ', '.join(str(q.label(e)) for e in dec.idempotents),
            ', '.join(str(len(f)) for f in dec.factors)))
    else:
        lines.append('local factorization: none')
    return lines


def _cmd_analyze(args):
    q = io.parse_instance(_read(args.instance))
    print('\n'.join(_analyze_lines(Path(args.instance).stem, q)))
    return 0


def _corpus_from_target(target):
    if target == 'fixtures':
        return suite.fixtures()
    path = Path(target)
    if path.is_dir():
        files = sorted(path.glob('*.json'))
        if not files:
            raise io.InstanceError('no .json instance files in %s' % path)
        return suite.Corpus([_member(f) for f in files])
    if path.is_file():
        return suite.Corpus([_member(path)])
    raise io.InstanceError('no such corpus: %r (expected "fixtures", a file or a directory)'
                           % target)


def _cmd_verify(args):
    corpus = _corpus_from_target(args.corpus)
    extra = suite.enumerated(args.enumerate_up_to) if args.enumerate_up_to else ()
    try:
        # a member named like an enumerated one, or an unknown check name
        report = suite.run_suite(corpus.extended(extra), args.theorems or None)
    except ValueError as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2
    sys.stdout.write(report.to_text(include_timings=not args.no_timings))
    return 0 if report.ok() else 1


def _cmd_enumerate(args):
    corpus = suite.enumerated(args.max_size)
    for member in corpus:
        q = member.quantale
        if args.emit_dir:
            out = Path(args.emit_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / ('%s.json' % member.name)).write_text(io.emit_instance(q), encoding='utf-8')
        lifting = '-' if len(q) == 1 else str(bool(has_lp(q)))
        print('%-6s size %d  maximal %d  center %d  lifting %s' % (
            member.name, len(q), len(q.maximal_elements), len(q.center), lifting))
    print('total: %d' % len(corpus))
    return 0


def _cmd_export_dot(args):
    q = io.parse_instance(_read(args.instance))
    sys.stdout.write(io.export_dot(q, view=args.view))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog='quantales',
        description='Workbench for finite quantales, their spectra and quotients.')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('analyze', help='report the structure of one instance file')
    p.add_argument('instance', help='path to an instance .json file')
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser('verify', help='run the law suite over a corpus')
    p.add_argument('corpus', help='"fixtures", an instance file or a directory of them')
    p.add_argument('--theorems', nargs='+', metavar='CHECK',
                   help='run only these named checks (default: all)')
    p.add_argument('--enumerate-up-to', type=int, metavar='N',
                   help='also include every instance with at most N elements')
    p.add_argument('--no-timings', action='store_true',
                   help='omit the timing block for reproducible output')
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser('enumerate', help='list all instances up to a size bound')
    p.add_argument('--max-size', type=int, required=True, metavar='N')
    p.add_argument('--emit-dir', metavar='DIR',
                   help='also write each instance as DIR/<name>.json')
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser('export-dot', help='write a Graphviz view to stdout')
    p.add_argument('instance', help='path to an instance .json file')
    p.add_argument('--view', choices=('lattice', 'spec', 'reticulation'),
                   default='lattice')
    p.set_defaults(fn=_cmd_export_dot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse takes any integer, and a negative size bound would enumerate nothing
    for dest in ('max_size', 'enumerate_up_to'):
        if (getattr(args, dest, None) or 0) < 0:
            print('error: --%s must not be negative' % dest.replace('_', '-'), file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except (OSError, io.InstanceError, QuantaleError, LatticeError) as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
