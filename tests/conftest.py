import pytest
from hypothesis import settings

from biserial.families import build_lambda, build_lambda1prime
from biserial.fields import PrimeField
from biserial.reps import Algebra

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


F101 = PrimeField(101)


@pytest.fixture(scope="session")
def alg0():
    return Algebra(build_lambda(1, 0))


@pytest.fixture(scope="session")
def alg1():
    return Algebra(build_lambda(1, 1))


@pytest.fixture(scope="session")
def alg2():
    return Algebra(build_lambda(1, 2))


@pytest.fixture(scope="session")
def alg3():
    return Algebra(build_lambda(1, 3))


@pytest.fixture(scope="session")
def alg5():
    return Algebra(build_lambda(1, 5))


@pytest.fixture(scope="session")
def algp():
    return Algebra(build_lambda1prime(1))


@pytest.fixture(scope="session")
def algp_f101():
    return Algebra(build_lambda1prime(1), field=F101)


@pytest.fixture()
def cover_calls(monkeypatch):
    """Every ``homology.projective_cover`` call the test makes, as (module,
    cover, in_syzygy): ``in_syzygy`` when a ``homology.syzygy`` call made
    the cover, as a pd chain does, else its caller covered the module
    itself, as the finite-pd sampler covers a pool module."""
    from biserial import homology

    calls, depth = [], [0]
    real_cover, real_syzygy = homology.projective_cover, homology.syzygy

    def cover(module):
        result = real_cover(module)
        calls.append((module, result, depth[0] > 0))
        return result

    def syzygy(module):
        depth[0] += 1
        try:
            return real_syzygy(module)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(homology, "projective_cover", cover)
    monkeypatch.setattr(homology, "syzygy", syzygy)
    return calls
