"""Spans around the package's layer entry points, recorded from outside the package.

``install`` wraps the entry points of each module of ``quantales`` in place:
class entry points are patched on the class, and a module-level function is
replaced in every ``quantales`` namespace that binds it, so calls made through
a name imported into another module are traced too.  Each span records its
name, the index of its parent span, its start and end on ``perf_counter`` and
whether it returned normally.  Spans stay in memory; ``write`` stores them at
the end of the run.

A span's self time is its duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap.
"""

import dataclasses
import functools
import json
import sys
import time
from collections import Counter

from quantales import cli, io, lattices, properties, quantale, reticulation, suite

# (module, class, attribute, span name) for entry points patched on a class
_METHODS = (
    (lattices, 'FinitePoset', '__init__', 'lattices.FinitePoset'),
    (lattices, 'FinitePoset', 'covers', 'lattices.covers'),
    (lattices, 'FiniteLattice', '__init__', 'lattices.FiniteLattice'),
    (lattices, 'LatticeMorphism', '__init__', 'lattices.LatticeMorphism'),
    (quantale, 'Quantale', '_validate', 'quantale.validate'),
    (quantale, 'Quantale', 'spectrum', 'quantale.structure'),
    (quantale, 'Quantale', 'maximal_elements', 'quantale.structure'),
    (quantale, 'Quantale', 'radical_table', 'quantale.structure'),
    (quantale, 'Quantale', 'center', 'quantale.structure'),
    (quantale, 'IntervalQuantale', '__init__', 'quantale.IntervalQuantale'),
    (quantale, 'QuantaleMorphism', '__init__', 'quantale.QuantaleMorphism'),
    (reticulation, 'Reticulation', '__init__', 'reticulation.Reticulation'),
    (reticulation, 'Reticulation', '_verify', 'reticulation.verify'),
    (properties, 'PropertyReport', 'analyze', 'properties.PropertyReport'),
)

# (module, function, span name) for module-level entry points
_FUNCTIONS = (
    (lattices, 'is_distributive', 'lattices.is_distributive'),
    (quantale, 'decompose_by_elements', 'quantale.decompose_by_elements'),
    (quantale, 'product', 'quantale.product'),
    (quantale, 'find_quantale_isomorphism', 'quantale.find_quantale_isomorphism'),
    (reticulation, 'frame_iso', 'reticulation.bridges'),
    (reticulation, 'spectrum_homeomorphism', 'reticulation.bridges'),
    (reticulation, 'boolean_isos', 'reticulation.bridges'),
    (reticulation, 'mu', 'reticulation.bridges'),
    (reticulation, 'interval_reticulation_iso', 'reticulation.bridges'),
    (reticulation, 'check_unicity', 'reticulation.bridges'),
    (properties, 'has_lp', 'properties.has_lp'),
    (properties, 'element_has_lp', 'properties.element_has_lp'),
    (properties, 'is_normal', 'properties.normality'),
    (properties, 'is_b_normal', 'properties.normality'),
    (properties, 'has_property_star', 'properties.has_property_star'),
    (properties, 'local_decomposition', 'properties.local_decomposition'),
    (suite, 'enumerate_lattices', 'suite.enumerate_lattices'),
    (suite, 'enumerate_quantales', 'suite.enumerate_quantales'),
    (io, 'generate', 'io.generate'),
    (io, 'parse_instance', 'io.parse_instance'),
    (io, 'emit_instance', 'io.emit_instance'),
    (cli, 'main', 'cli.main'),
)

# module-level caches whose hits and misses are read after the body
CACHES = {
    'reticulation.reticulate': lambda: reticulation.reticulate.cache_info(),
    'suite.interval_cache': lambda: suite._interval.cache_info(),
    'suite.product_cache': lambda: suite._product_structure.cache_info(),
    'suite.fixtures_cache': lambda: suite.fixtures.cache_info(),
}

# (span name, metrics derived from its spans)
_SPAN_METRICS = (
    ('lattices.FiniteLattice', ('calls', 'self_s')),
    ('lattices.FinitePoset', ('self_s',)),
    ('lattices.is_distributive', ('calls', 'self_s')),
    ('lattices.covers', ('self_s',)),
    ('lattices.LatticeMorphism', ('self_s',)),
    ('quantale.validate', ('calls', 'self_s', 'accept_ratio')),
    ('quantale.IntervalQuantale', ('calls', 'self_s')),
    ('quantale.QuantaleMorphism', ('calls', 'self_s')),
    ('quantale.structure', ('self_s',)),
    ('quantale.decompose_by_elements', ('self_s',)),
    ('quantale.product', ('self_s',)),
    ('quantale.find_quantale_isomorphism', ('self_s',)),
    ('reticulation.Reticulation', ('calls', 'self_s')),
    ('reticulation.verify', ('self_s',)),
    ('reticulation.bridges', ('self_s',)),
    ('properties.has_lp', ('calls', 'self_s')),
    ('properties.element_has_lp', ('calls',)),
    ('properties.normality', ('self_s',)),
    ('properties.has_property_star', ('self_s',)),
    ('properties.local_decomposition', ('self_s',)),
    ('properties.PropertyReport', ('self_s',)),
    ('suite.enumerate_lattices', ('self_s',)),
    ('suite.enumerate_quantales', ('self_s',)),
    ('io.generate', ('self_s',)),
    ('io.parse_instance', ('calls', 'self_s')),
    ('io.emit_instance', ('self_s',)),
    ('cli.main', ('self_s',)),
)
_UNITS = {'calls': 'count', 'self_s': 's', 'accept_ratio': 'ratio'}


def per_layer_metrics():
    'Every per-layer metric the traced run reports, as (name, unit) pairs.'
    out = [('%s.%s' % (span, kind), _UNITS[kind])
           for span, kinds in _SPAN_METRICS for kind in kinds]
    out += [('suite.check.%s.s' % name, 's') for name in suite.CHECKS]
    for cache in CACHES:
        out += [('%s.%s' % (cache, kind), 'count') for kind in ('hits', 'misses')]
    out += [('reticulation.reticulate.hit_ratio', 'ratio'),
            ('suite.interval_cache.hit_ratio', 'ratio'),
            ('suite.classes_per_candidate', 'ratio'),
            ('trace.spans', 'count'),
            ('trace.overhead_s', 's')]
    return out


class Tracer:
    'Span recorder; ``active`` is cleared once the timed body has finished.'

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.active = True
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[3] = clock()
                stack.pop()
        return traced

    def count_yields(self, name, gen_fn):
        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if self.active:
                    self.counters[name] += 1
                yield item
        return counted

    def count_results(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.counters[name] += len(result)
            return result
        return counted

    def write(self, path):
        'One JSON array per line: name, parent index, start, end, returned normally.'
        with open(path, 'w', encoding='utf-8') as out:
            for span in self.spans:
                out.write(json.dumps(span) + '\n')


def _rebind(old, new):
    'Replace old by new in every quantales namespace that binds it.'
    for module in list(sys.modules.values()):
        if getattr(module, '__name__', '').partition('.')[0] != 'quantales':
            continue
        names = [key for key, value in vars(module).items() if value is old]
        for key in names:
            setattr(module, key, new)


def install(tracer):
    'Patch every entry point listed above; call before the inputs are built.'
    for module, cls_name, attr, name in _METHODS:
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(tracer.wrap(name, raw.func))
            new.__set_name__(cls, attr)
        elif isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(tracer.wrap(name, raw.__func__))
        else:
            new = tracer.wrap(name, raw)
        setattr(cls, attr, new)
    for module, attr, name in _FUNCTIONS:
        old = getattr(module, attr)
        _rebind(old, tracer.wrap(name, old))
    traced = suite.enumerate_quantales
    _rebind(traced, tracer.count_results('suite.classes', traced))
    candidates = suite._mul_candidates
    _rebind(candidates, tracer.count_yields('suite.candidates', candidates))
    for name, check in list(suite.CHECKS.items()):
        suite.CHECKS[name] = dataclasses.replace(
            check, run=tracer.wrap('suite.check.%s' % name, check.run))


def cache_counters():
    out = {}
    for cache, info in CACHES.items():
        stats = info()
        out['%s.hits' % cache] = stats.hits
        out['%s.misses' % cache] = stats.misses
    return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, caches):
    'Per-layer metrics of one traced run, except the overhead, which needs a plain run.'
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, start, end, ok in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own, accepted = Counter(), Counter(), Counter(), Counter()
    for (name, parent, start, end, ok), inner in zip(spans, child):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - inner
        accepted[name] += ok
    out = {}
    for span, kinds in _SPAN_METRICS:
        for kind in kinds:
            value = {'calls': calls[span], 'self_s': own[span],
                     'accept_ratio': _ratio(accepted[span], calls[span])}[kind]
            out['%s.%s' % (span, kind)] = value
    for name in suite.CHECKS:
        out['suite.check.%s.s' % name] = total['suite.check.%s' % name]
    out.update(caches)
    for cache in ('reticulation.reticulate', 'suite.interval_cache'):
        hits = caches['%s.hits' % cache]
        out['%s.hit_ratio' % cache] = _ratio(hits, hits + caches['%s.misses' % cache])
    out['suite.classes_per_candidate'] = _ratio(
        tracer.counters['suite.classes'], tracer.counters['suite.candidates'])
    out['trace.spans'] = len(spans)
    return out
