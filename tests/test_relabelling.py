"""Every answer is an isomorphism invariant, and these tests hold the package
to that on relabelled copies (metamorphic testing: Chen, Cheung and Yiu,
Metamorphic testing: a new approach for generating next test cases,
HKUST-CS98-01, 1998).

A relabelled copy permutes the indices of a quantale and keeps its labels.
Each structural answer, read as labels, is then the same as on the original,
and the law suite gives every check the same status.  Witness texts may
differ, since the first witness follows index order, so they are not compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import relabel
from quantales import suite
from quantales.properties import local_decomposition
from quantales.quantale import interval_quantale
from quantales.reticulation import reticulate

# at most five elements: E6.85 is accepted in some element orders only (ROADMAP item 1)
MEMBERS = list(suite.fixtures()) + list(suite.enumerated(5))


def _answers(q):
    'The structural answers of q, each read as labels.'

    def labels(indices):
        return frozenset(map(q.label, indices))

    decomposition = local_decomposition(q) if len(q) > 1 else None
    return {
        'spectrum': labels(q.spectrum),
        'maximal elements': labels(q.maximal_elements),
        'center': labels(q.center),
        'radical table': {q.label(a): q.label(r) for a, r in enumerate(q.radical_table)},
        'reticulation classes': frozenset(map(labels, reticulate(q).classes)),
        'interval carriers': {q.label(a): labels(interval_quantale(q, a)[0].carrier)
                              for a in range(len(q))},
        'local idempotents': labels(decomposition.idempotents) if decomposition else None,
    }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_structural_answer_follows_a_relabelling(data):
    q = data.draw(st.sampled_from(MEMBERS), label='member').quantale
    perm = data.draw(st.permutations(range(len(q))), label='perm')
    assert _answers(relabel(q, perm)) == _answers(q)


def _statuses(member):
    return [(r.check, r.status) for r in suite.run_suite(suite.Corpus([member])).results]


@pytest.mark.parametrize('name', [m.name for m in suite.fixtures() if len(m.quantale) > 1])
def test_a_relabelled_fixture_keeps_every_status(corpus, name):
    'One seed-0 permutation per fixture, the reversal where that draw moves nothing.'
    member = corpus.get(name)
    q = member.quantale
    perm = np.random.default_rng(0).permutation(len(q))
    if (perm == np.arange(len(q))).all():
        perm = perm[::-1]
    moved = suite.CorpusMember(name, relabel(q, perm), member.generator)
    statuses = _statuses(member)
    assert len(statuses) == len(suite.CHECKS) == 52
    assert _statuses(moved) == statuses
