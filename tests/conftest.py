import pytest

import nilbu

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # pytest --hypothesis-profile=ci: ten times the default examples for the
    # property tests that leave max_examples to the profile
    settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def sweep16():
    """The standard sweep: every family row, b from b_min to b_min + 16."""
    return list(nilbu.sweep(16))
