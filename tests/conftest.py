import os

import pytest

EXAMPLES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "examples"))


def example(name):
    return os.path.join(EXAMPLES, name)


@pytest.fixture
def examples_dir():
    return EXAMPLES
