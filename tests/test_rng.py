"""``repro.workloads.rng`` equals ``numpy.random.default_rng`` draw for
draw.  NumPy is a test-only dependency; without it this module skips and
``tests/test_workload_data.py`` still pins the data the port produces."""

import random

import pytest

from repro.workloads.rng import Generator

np = pytest.importorskip("numpy")

#: Every seed a workload factory uses: LLL1..14 (1987 + loop), the
#: synthetic kernels, and generated programs for specs seeded 0..20.
WORKLOAD_SEEDS = (
    [1987 + loop for loop in range(1, 15)]
    + [100, 101, 103, 104, 7]
    + [4242 + seed for seed in range(21)]
)
_PICK = random.Random(20)
OTHER_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 1] + [
    _PICK.getrandbits(_PICK.choice((16, 32, 48, 64, 128)))
    for _ in range(40)
]
#: 2, 8 and 32 as the workloads use them, 17 and 1000 besides;
#: 3 * 2**30 + 1 rejects about a quarter of its 32-bit draws, and 2**32
#: takes them whole.  A range of 1 draws nothing.
RANGES = (1, 2, 8, 17, 32, 1000, 3 * 2**30 + 1, 2**32)


def interleaved_draws(generator, seed, to_list):
    """Mixed ``uniform`` and ``integers`` calls, chosen by the seed, so
    the buffered 32-bit half crosses calls of both kinds."""
    plan = random.Random(seed)
    draws = []
    for _ in range(30):
        size = plan.randrange(0, 7)
        if plan.randrange(2):
            low, high = plan.choice(((0.1, 1.0), (0.01, 0.1), (-2.0, 3.5)))
            draws.append(to_list(generator.uniform(low, high, size)))
        else:
            low = plan.choice((0, -40, 7))
            span = plan.choice(RANGES)
            draws.append(to_list(generator.integers(low, low + span, size)))
    return draws


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS + OTHER_SEEDS)
def test_port_matches_numpy(seed):
    theirs = interleaved_draws(
        np.random.default_rng(seed), seed, lambda arr: arr.tolist()
    )
    ours = interleaved_draws(Generator(seed), seed, list)
    assert ours == theirs
    for got, want in zip(ours, theirs):
        assert [type(v) for v in got] == [type(v) for v in want]


class CountingGenerator(Generator):
    __slots__ = ("draws32",)

    def __init__(self, seed):
        self.draws32 = 0
        super().__init__(seed)

    def _next32(self):
        self.draws32 += 1
        return super()._next32()


def test_lemire_rejection_is_exercised():
    """About a quarter of the 32-bit draws for this range are rejected
    and redrawn; the values, and the 64-bit stream after them, match."""
    span = 3 * 2**30 + 1
    ours, theirs = CountingGenerator(5), np.random.default_rng(5)
    assert ours.integers(0, span, 400) == \
        theirs.integers(0, span, 400).tolist()
    assert ours.draws32 > 450
    assert ours.uniform(0.0, 1.0, 3) == theirs.uniform(0.0, 1.0, 3).tolist()


def test_unsupported_arguments_raise():
    with pytest.raises(ValueError):
        Generator(-1)
    with pytest.raises(ValueError):
        Generator(1).integers(0, 2**32 + 1, 1)
    with pytest.raises(ValueError):
        Generator(1).integers(5, 5, 1)
