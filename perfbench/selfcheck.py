"""Show that every correctness gate of the benchmark can fail.

  python3 perfbench/selfcheck.py

Run from the root of a checkout.  Each workload runs once in this interpreter
at seed 0, and at seed 1 for the workloads whose inputs a seed permutes.  The
real outputs must pass their gates.  Then one recorded value at a time is made
wrong, and one output is damaged per workload, and each must be reported as a
failure.  The script then runs itself again under ``python -O``, where an
``assert`` would vanish.  It also checks that BENCHMARK.json lists exactly the
metrics the benchmark prints, and that build-large's raw inputs at seed 0 are
the tables the package's generators build.  Exit code 0 when all of that holds.
"""

import copy
import json
import subprocess
import sys

import run

sys.path.insert(0, str(run.ROOT / 'src'))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from quantales import io, lattices  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECTED = json.loads((run.HERE / 'expected.json').read_text(encoding='utf-8'))


def _wrong(value):
    if isinstance(value, str):
        return '0' * len(value) if value.strip('0') else '1' * len(value)
    return value + 1


def _mutated(expected, path):
    out = copy.deepcopy(expected)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _wrong(node[path[-1]])
    return out


def _damage(name, output):
    'The output with one item made wrong.'
    if name == 'verify-corpus':
        code, text = output
        return code, text.replace(' PASS', ' REFUTED', 1)
    if name == 'enumerate-6':
        return output[:-1]
    if name == 'analyze-medium':
        return [(1, output[0][1])] + output[1:]
    return output[:-1]


# recorded values to make wrong, per workload and seed, as key paths into expected.json
def _mutations(name, seed):
    if name == 'verify-corpus':
        return [('sha256',), ('exit_code',), ('counts', 'PASS'), ('rows', 17)]
    if name == 'enumerate-6':
        return [('counts_by_size', 5), ('profile', 0, 4), ('profile', 3, 3)]
    if name == 'analyze-medium':
        first = WORKLOADS[name].instances[0][0]
        paths = [(first, 'exit_code'), (first, 'invariants')]
        return paths + [(first, 'sha256')] * (seed == 0)
    first = WORKLOADS[name].instances[0][0]
    return [(first, 'invariants')] + [(first, 'positional')] * (seed == 0)


def _check_gates(problems):
    for name, workload in WORKLOADS.items():
        expected = EXPECTED[name]
        seeds = (0, 1) if name in ('analyze-medium', 'build-large') else (0,)
        for seed in seeds:
            output = workload.run(workload.setup(seed, run.WORK))
            attempted, failed, messages = workload.check(output, expected, seed)
            passed = failed == 0 and not messages
            if not passed:
                problems.append('%s seed %d: real output fails: %s' % (name, seed, messages))
            print('%-15s seed %d  %-45s %s' % (
                name, seed, 'real output', 'passes' if passed else 'FAILS'))
            cases = [('expected %s' % '.'.join(map(str, path)), output,
                      _mutated(expected, path)) for path in _mutations(name, seed)]
            cases.append(('damaged output', _damage(name, output), expected))
            for label, out, want in cases:
                _, failed, messages = workload.check(out, want, seed)
                caught = failed > 0 and bool(messages)
                print('%-15s seed %d  %-45s %s' % (
                    name, seed, label, 'reported as failure' if caught else 'MISSED'))
                if not caught:
                    problems.append('%s seed %d: %s not reported' % (name, seed, label))


def _check_metric_names(problems):
    spec = json.loads((run.ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))
    listed = [(m['name'], m['unit']) for m in spec['end_to_end']]
    if listed != list(run.END_TO_END):
        problems.append('BENCHMARK.json end_to_end %r != %r' % (listed, run.END_TO_END))
    listed = [(m['name'], m['unit']) for m in spec['per_layer']]
    if listed != tracing.per_layer_metrics():
        problems.append('BENCHMARK.json per_layer differs from tracing.per_layer_metrics()')
    unknown = [w['name'] for w in spec['workloads'] if w['name'] not in run.WORKLOADS]
    if unknown:
        problems.append('BENCHMARK.json names unknown workloads %r' % unknown)


def _check_raw_inputs(problems):
    for spec, labels, pairs, mul in WORKLOADS['build-large'].setup(0, run.WORK):
        q = io.generate(spec)
        lattice = lattices.build_lattice(labels, pairs)
        if not (tuple(labels) == q.elements
                and (lattice.poset.leq == q.lattice.poset.leq).all()
                and (np.array(mul) == q.mul_table).all()):
            problems.append('build-large raw inputs for %s differ from io.generate' % spec)


def main():
    problems = []
    print('interpreter optimize level %d' % sys.flags.optimize)
    _check_gates(problems)
    _check_metric_names(problems)
    _check_raw_inputs(problems)
    for problem in problems:
        print('problem: %s' % problem)
    code = 1 if problems else 0
    if not sys.flags.optimize:
        again = subprocess.run([sys.executable, '-O', __file__], cwd=run.ROOT,
                               env=run._environment())
        code = code or again.returncode
    print('selfcheck %s (optimize level %d)' % ('passed' if code == 0 else 'FAILED',
                                               sys.flags.optimize))
    return code


if __name__ == '__main__':
    sys.exit(main())
