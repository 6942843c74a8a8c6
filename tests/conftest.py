import pytest

from quantales import io, suite

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
