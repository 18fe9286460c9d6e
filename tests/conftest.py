import gc

import pytest

from periodica.fields import QQ
from periodica.families import (dual_numbers, linear_a, nakayama,
                                semisimple_product)


@pytest.fixture(scope="session")
def a2():
    return linear_a(2, QQ)


@pytest.fixture(scope="session")
def a3():
    return linear_a(3, QQ)


@pytest.fixture(scope="session")
def n33():
    return nakayama(3, 3, QQ)


@pytest.fixture(scope="session")
def n44():
    return nakayama(4, 4, QQ)


@pytest.fixture(scope="session")
def dual():
    return dual_numbers(QQ)


@pytest.fixture(scope="session")
def kxk():
    return semisimple_product(2, QQ)


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()
