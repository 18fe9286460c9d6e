import gc
from fractions import Fraction

import pytest

from periodica.fields import QQ
from periodica.linalg import Mat
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


def _in_normal_form(field, x) -> bool:
    """A GF(p) scalar is an int in 0..p-1; a Q scalar is an int or a
    non-integral Fraction."""
    if field.p:
        return type(x) is int and 0 <= x < field.p
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@pytest.fixture
def normal_form_scalars(monkeypatch):
    """Every ``Mat`` built while the test runs holds its field's normal
    form, so no float, bool or integral Fraction reaches an entry."""
    real = Mat.__init__

    def init(self, field, rows, cols, data):
        bad = [x for x in data if not _in_normal_form(field, x)]
        assert not bad, f"{field!r} entries not in normal form: {bad[:3]!r}"
        real(self, field, rows, cols, data)
    monkeypatch.setattr(Mat, "__init__", init)
