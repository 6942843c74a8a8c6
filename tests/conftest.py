import numpy as np
import pytest

from quantales import io, suite
from quantales.lattices import FiniteLattice, FinitePoset
from quantales.quantale import Quantale

# pytest rewrites the asserts of test modules and conftest only; registered
# before the test modules import it, the reference loops keep their asserts
# under python -O too
pytest.register_assert_rewrite('reference_loops')


@pytest.fixture(scope='session')
def corpus():
    return suite.fixtures()


@pytest.fixture(scope='session')
def small_corpus():
    'Every instance with at most five elements, one per isomorphism class.'
    return suite.enumerated(5)


def build(generator):
    return io.generate(generator)


def relabel(q, perm, labels=None):
    'A copy of q whose index k stands for old index perm[k], with its labels or the given ones.'
    perm = np.asarray(perm, dtype=np.intp)
    leq = q.poset.leq[np.ix_(perm, perm)]
    labels = [q.label(i) for i in perm] if labels is None else labels
    return Quantale(FiniteLattice(FinitePoset(labels, leq)),
                    np.argsort(perm)[q.mul_table[np.ix_(perm, perm)]])


@pytest.fixture(scope='session')
def d12():
    return build('zn:12')


@pytest.fixture(scope='session')
def w5():
    return build('downsets:z<x,z<y')


@pytest.fixture(scope='session')
def c3():
    return build('chain:3,frame')


@pytest.fixture(scope='session')
def b4():
    return build('boolean:2')
