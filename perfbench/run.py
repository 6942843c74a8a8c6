"""Benchmark of the quantales workbench.

  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  Workloads (see workloads.py for why each
was chosen): verify-corpus, enumerate-6, analyze-medium and build-large.  The
caller is a closed loop with one client: each timed run is a fresh interpreter
(worker.py) started after the previous one ended, one at a time, with BLAS and
OpenMP pinned to one thread.  Runs repeat until the next one would end after
--seconds; the first always runs.  Every run's outputs are checked against the
values in expected.json.

With --trace 0 the end-to-end metrics are printed, each the median over the
runs.  Times are in reference seconds: seconds measured in the worker and
scaled by a speed probe sampled during the same span (speed.py), so that the
host's changing speed does not show as a change of the program.  The raw
seconds are printed on the lines before the result as well.  With --trace 1
every plain run is paired with a traced run, and the per-layer metrics of the
traced runs are printed together with the tracing overhead: median traced
body time minus median plain body time, in reference seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 when that line was printed, 2
when the checkout holds no package to measure, 1 when a run could not be
completed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / 'src' / 'quantales' / '__init__.py'
WORK = ROOT / '.perfbench_work'
WORKLOADS = ('verify-corpus', 'enumerate-6', 'analyze-medium', 'build-large')
END_TO_END = (('wall_ref_s', 's'), ('cpu_ref_s', 's'), ('items_per_ref_s', '1/s'),
              ('setup_s', 's'), ('peak_rss_mb', 'MB'))
RAW = (('wall_s', 's'), ('cpu_s', 's'), ('items_per_s', '1/s'), ('setup_raw_s', 's'))
# Set-up-only runs come before the timed runs (they also warm the bytecode
# cache): at least SETUP_MIN, and more, up to SETUP_MAX, while they have taken
# less than SETUP_BUDGET_S, so that cheap set-ups get a steadier median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 8, 3.0
RUN_LIMIT_S = 170   # a whole invocation must end within 180 s


class BenchError(Exception):
    pass


def _environment():
    env = dict(os.environ)
    for name in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):
        env[name] = '1'
    env['PYTHONHASHSEED'] = '0'
    paths = [str(ROOT / 'src')] + [p for p in env.get('PYTHONPATH', '').split(os.pathsep) if p]
    env['PYTHONPATH'] = os.pathsep.join(paths)
    return env


def _spawn(env, deadline, workload, seed, *flags):
    'Run worker.py once to completion and return its result object.'
    cmd = [sys.executable, str(HERE / 'worker.py'), '--workload', workload,
           '--seed', str(seed), '--work-dir', str(WORK), *flags]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError('run limit of %d s reached' % RUN_LIMIT_S)
    cmd += ['--spawned-at', repr(time.monotonic())]
    try:
        # run() kills and reaps the worker on timeout or interrupt
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError('%s worker exceeded the run limit of %d s'
                         % (workload, RUN_LIMIT_S)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError('%s worker exited with %d:\n%s' % (
            workload, proc.returncode, proc.stderr[-4000:]))
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, env):
    'Plain (and, with trace, traced) runs of one workload until the time is spent.'
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and time.monotonic() - start < SETUP_BUDGET_S):
        setups.append(_spawn(env, deadline, workload, seed, '--setup-only'))
    plain, traced = [], []
    while True:
        began = time.monotonic()
        plain.append(_spawn(env, deadline, workload, seed))
        if trace:
            traced.append(_spawn(env, deadline, workload, seed, '--traced'))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    return setups + plain, plain, traced


def end_to_end(setups, plain, names):
    values = {
        'wall_ref_s': [r['wall_ref_s'] for r in plain],
        'cpu_ref_s': [r['cpu_ref_s'] for r in plain],
        'items_per_ref_s': [r['attempted'] / r['wall_ref_s'] for r in plain],
        'setup_s': [r['setup_s'] for r in setups],
        'peak_rss_mb': [r['peak_rss_mb'] for r in plain],
        'wall_s': [r['wall_s'] for r in plain],
        'cpu_s': [r['cpu_s'] for r in plain],
        'items_per_s': [r['attempted'] / r['wall_s'] for r in plain],
        'setup_raw_s': [r['setup_raw_s'] for r in setups],
    }
    return {name: (values[name], unit) for name, unit in names}


def per_layer(plain, traced):
    out = {}
    for name, first in traced[0]['layers'].items():
        out[name] = ([r['layers'][name]['value'] for r in traced], first['unit'])
    overhead = (statistics.median([r['wall_ref_s'] for r in traced])
                - statistics.median([r['wall_ref_s'] for r in plain]))
    out['trace.overhead_s'] = ([overhead], 's')
    return out


def _cpu_model():
    try:
        with open('/proc/cpuinfo', encoding='utf-8') as info:
            for line in info:
                if line.startswith('model name'):
                    return line.partition(':')[2].strip()
    except OSError:
        pass
    return 'unknown'


def main(argv=None):
    parser = argparse.ArgumentParser(description='Benchmark of the quantales workbench.')
    parser.add_argument('--workload', default='all', choices=WORKLOADS + ('all',))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print('error: no package at %s; run from the root of a checkout' % PACKAGE,
              file=sys.stderr)
        return 2

    env = _environment()
    names = WORKLOADS if args.workload == 'all' else (args.workload,)
    report = {'correct': True, 'attempted': 0, 'failed': 0, 'metrics': {}}
    machine = None
    for name in names:
        try:
            setups, plain, traced = measure(name, args.seed, args.seconds, args.trace, env)
        except BenchError as exc:
            print('error: %s' % exc, file=sys.stderr)
            return 1
        runs = plain + traced
        attempted = sum(r['attempted'] for r in runs)
        failed = sum(r['failed'] for r in runs)
        for message in sorted({m for r in runs for m in r['messages']})[:10]:
            print('%s gate failed: %s' % (name, message), file=sys.stderr)
        if machine is None:
            machine = 'machine: python %s, numpy %s, nproc %d, cpu %s, ' \
                      'OMP/OPENBLAS/MKL_NUM_THREADS=1' % (
                          runs[0]['python'], runs[0]['numpy'],
                          len(os.sched_getaffinity(0)), _cpu_model())
            print(machine)
        print('%s seed %d: %d plain and %d traced runs, %d items attempted, %d failed, '
              'fail_ratio %.4f' % (name, args.seed, len(plain), len(traced), attempted,
                                   failed, failed / attempted))
        for metric, (values, unit) in end_to_end(setups, plain, RAW).items():
            print('%s %s = %.6g %s (raw, median of %d, min %.6g, max %.6g)' % (
                name, metric, statistics.median(values), unit, len(values),
                min(values), max(values)))
        if args.trace:
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(setups, plain, END_TO_END)
        for metric, (values, unit) in metrics.items():
            value = statistics.median(values)
            key = metric if len(names) == 1 else '%s.%s' % (name, metric)
            report['metrics'][key] = {'value': value, 'unit': unit}
            print('%s %s = %.6g %s (median of %d, min %.6g, max %.6g)' % (
                name, metric, value, unit, len(values), min(values), max(values)))
        report['attempted'] += attempted
        report['failed'] += failed
        report['correct'] = report['correct'] and failed == 0
    print(json.dumps(report))
    return 0


if __name__ == '__main__':
    sys.exit(main())
