import hypothesis
import pytest

from p3prime import acceptance

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def appendix_solution():
    """The worked-example integration, shared (and cached) across tests."""
    return acceptance.reference_solution()


@pytest.fixture(scope="session")
def appendix_roots(appendix_solution):
    return appendix_solution.crossings
