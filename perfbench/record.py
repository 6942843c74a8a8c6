"""Write expected.json, the values the correctness gates compare against.

  python3 perfbench/record.py

Run from the root of a checkout, and only when the package's output is meant
to change: the gates exist to catch every other change.  Each workload runs
once at seed 0 in a fresh interpreter.  For the workloads whose inputs a seed
permutes, seeds 1 and 2 run too, and nothing is written unless their
order-invariant values equal those of seed 0.
"""

import json
import subprocess
import sys

import run

PERMUTED = ('analyze-medium', 'build-large')
CHECK_SEEDS = (1, 2)


def _record(env, name, seed):
    cmd = [sys.executable, str(run.HERE / 'worker.py'), '--workload', name,
           '--seed', str(seed), '--work-dir', str(run.WORK), '--record']
    proc = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _invariant_part(recorded):
    return {item: {key: value for key, value in fields.items()
                   if key not in ('sha256', 'positional')}
            for item, fields in recorded.items()}


def main():
    env = run._environment()
    expected = {}
    for name in run.WORKLOADS:
        expected[name] = _record(env, name, 0)
        if name not in PERMUTED:
            continue
        for seed in CHECK_SEEDS:
            other = _record(env, name, seed)
            if _invariant_part(other) != _invariant_part(expected[name]):
                print('error: %s at seed %d disagrees with seed 0 on an order-invariant '
                      'value' % (name, seed), file=sys.stderr)
                return 1
    path = run.HERE / 'expected.json'
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + '\n', encoding='utf-8')
    print('wrote %s' % path)
    return 0


if __name__ == '__main__':
    sys.exit(main())
