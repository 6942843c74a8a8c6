"""One timed run of one workload in a fresh interpreter.

The runner (run.py) starts this script once per timed run, so every run
starts with the package's module-level caches cold, as a command-line user
does.  It prints one JSON object on its last line of standard output:
set-up time, body wall and CPU time, peak resident memory, the items the
gates attempted and failed, the cache counters and, when traced, the
per-layer metrics.

  python3 perfbench/worker.py --workload NAME --seed N --work-dir DIR
         [--spawned-at T] [--traced] [--setup-only | --record]

--spawned-at is the runner's time.monotonic() just before it started this
process; set-up time is measured from it, so it covers interpreter start,
imports and input generation.  Set-up and body times are measured in seconds
and also converted to reference seconds by a speed probe that samples the
processor's speed during them (see speed.py).  --record prints the values a
correct output has instead of checking them (see record.py).
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

# Started before the heavy imports below, so that set-up is sampled too.
SETUP_PROBE = speed.Probe(interval_s=0.02)
SETUP_PROBE.start()

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BODY_PROBE_INTERVAL_S = 0.05

EXPECTED = Path(__file__).resolve().parent / 'expected.json'


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--work-dir', required=True)
    parser.add_argument('--spawned-at', type=float, default=None)
    parser.add_argument('--traced', action='store_true')
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument('--setup-only', action='store_true')
    mode.add_argument('--record', action='store_true')
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    Path(args.work_dir).mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(args.seed, args.work_dir)
    setup_raw_s = time.monotonic() - spawned_at
    SETUP_PROBE.stop()
    setup = {'setup_s': SETUP_PROBE.reference_seconds(setup_raw_s), 'setup_raw_s': setup_raw_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    error = None
    probe = speed.Probe(BODY_PROBE_INTERVAL_S)
    probe.start()
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        output = workload.run(inputs)
    except Exception:  # a body that raises is a failed run: report it, do not crash
        output, error = None, traceback.format_exc()
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    caches = tracing.cache_counters()

    if args.record:
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        print(json.dumps(workload.record(output)))
        return 0

    expected = json.loads(EXPECTED.read_text(encoding='utf-8'))[workload.name]
    if error is None:
        try:
            attempted, failed, messages = workload.check(output, expected, args.seed)
        except Exception:  # a malformed output fails its gates
            error = traceback.format_exc()
    if error is not None:
        attempted = workload.items(expected)
        failed, messages = attempted, [error]
    result = {
        **setup, 'wall_s': wall, 'cpu_s': cpu, 'peak_rss_mb': peak_rss_mb,
        'wall_ref_s': probe.reference_seconds(wall), 'cpu_ref_s': probe.reference_seconds(cpu),
        'attempted': attempted, 'failed': failed, 'messages': messages, 'caches': caches,
        'python': sys.version.split()[0], 'numpy': numpy.__version__,
    }
    if tracer is not None:
        units = dict(tracing.per_layer_metrics())
        result['layers'] = {name: {'value': value, 'unit': units[name]}
                            for name, value in tracing.layer_metrics(tracer, caches).items()}
        tracer.write(os.path.join(args.work_dir, 'spans-%s-seed-%d.jsonl' % (
            workload.name, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
