from __future__ import annotations

import pytest

from mdslift.codes import example1_code
from mdslift.field import field_from_modulus, make_extension_field, make_prime_field


@pytest.fixture(scope="session")
def f2():
    return make_prime_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_prime_field(3)


@pytest.fixture(scope="session")
def f7():
    return make_prime_field(7)


@pytest.fixture(scope="session")
def f11():
    return make_prime_field(11)


@pytest.fixture(scope="session")
def f13():
    return make_prime_field(13)


@pytest.fixture(scope="session")
def f4():
    return make_extension_field(2, 2)


@pytest.fixture(scope="session")
def f16():
    return make_extension_field(2, 4)


@pytest.fixture(scope="session")
def f49():
    return make_extension_field(7, 2)


@pytest.fixture(scope="session")
def f343():
    return make_extension_field(7, 3)


@pytest.fixture(scope="session")
def f2_17():
    # x^17 + x^3 + 1; 2^17 - 1 is prime, so x is primitive. The order is
    # above the automatic table limit: array arithmetic runs elementwise.
    return field_from_modulus(2, 17, (1, 0, 0, 1) + (0,) * 13 + (1,))


@pytest.fixture()
def example1():
    # fresh instance per test: the distance cache is per-object
    return example1_code()
