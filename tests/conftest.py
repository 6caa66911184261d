import pytest

from spinpairs import clifford


@pytest.fixture
def array_products(monkeypatch):
    """The term counts of each Clifford product that takes the array path, in call order."""
    seen, kernel = [], clifford._mul_arrays

    def spy(a, b, space):
        seen.append((len(a), len(b)))
        return kernel(a, b, space)

    monkeypatch.setattr(clifford, "_mul_arrays", spy)
    return seen
