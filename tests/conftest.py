import os
import platform
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

from zerocontrol import PatternMatrix, build_b_pattern

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# 5-state system: input u1 feeds x4; cycles at {x1,x2}, {x1} and {x5};
# x5 is the only state the input cannot reach.
EXAMPLE1_A = PatternMatrix.from_rows([
    [1, 1, 1, 0, 0],
    [1, 0, 0, 1, 0],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1],
])
EXAMPLE1_B = PatternMatrix.from_rows([[0], [0], [0], [1], [0]])

# 11-state input-free system used for driver selection: nontrivial components
# {x1,x2,x3}, {x4}, {x5}, {x6,x7}; x9..x11 feed everything through x8.
EXAMPLE2_A = PatternMatrix.from_rows([
    [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
])

EXAMPLE2_B_PER_DRIVER = build_b_pattern(11, {"x4", "x8"}, "per_driver").pattern


def pytest_report_header(config):
    """The numeric stack in the log head: the seeded digests of float output depend on the
    library versions and on the BLAS thread count.  Versions come from the installed
    metadata, so scipy is not imported."""
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return [f"numeric stack: python {platform.python_version()}, numpy {metadata.version('numpy')}, "
            f"scipy {metadata.version('scipy')}", f"BLAS threads: {threads}"]


@pytest.fixture
def example1_a():
    return EXAMPLE1_A


@pytest.fixture
def example1_b():
    return EXAMPLE1_B


@pytest.fixture
def example2_a():
    return EXAMPLE2_A


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR


def random_pattern(rng: np.random.Generator, n_rows: int, n_cols: int, density: float) -> PatternMatrix:
    """Seeded random pattern used by the property suites."""
    entries = {
        (i, j)
        for i in range(1, n_rows + 1)
        for j in range(1, n_cols + 1)
        if rng.random() < density
    }
    return PatternMatrix(n_rows, n_cols, frozenset(entries))


def sparse_pattern(rng, n_rows, n_cols, nnz):
    """About ``nnz`` uniformly drawn entries (duplicates collapse)."""
    if not n_rows or not n_cols:
        return PatternMatrix(n_rows, n_cols)
    rows = rng.integers(1, n_rows + 1, size=nnz)
    cols = rng.integers(1, n_cols + 1, size=nnz)
    return PatternMatrix(n_rows, n_cols, frozenset(zip(rows.tolist(), cols.tolist())))


def random_square_patterns(seed: int, count: int, max_n: int):
    """Deterministic stream of `count` random square patterns with n <= max_n."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        density = float(rng.uniform(0.1, 0.6))
        out.append(random_pattern(rng, n, n, density))
    return out


def cover_instance(rng, max_targets=40):
    """T <= max_targets disjoint cycles of length 1-3 fed by up to 80 - T acyclic
    feeder states; a feeder enters k random cycles and may also feed an
    earlier feeder, so coverages nest.  States are shuffled."""
    targets = int(rng.integers(1, max_targets + 1))
    feeders = int(rng.integers(0, min(40, 80 - targets) + 1))
    k = int(rng.integers(1, min(6, targets) + 1))
    edges, cycles, n = set(), [], 0
    for _ in range(targets):
        nodes = list(range(n + 1, n + int(rng.integers(1, 4)) + 1))
        n = nodes[-1]
        edges |= set(zip(nodes, nodes[1:] + nodes[:1]))
        cycles.append(nodes)
    first_feeder = n + 1
    for _ in range(feeders):
        n += 1
        edges |= {(n, int(rng.choice(cycles[t]))) for t in rng.choice(targets, size=k, replace=False)}
        if n > first_feeder and rng.random() < 0.3:
            edges.add((n, int(rng.integers(first_feeder, n))))
    perm = rng.permutation(n) + 1
    return PatternMatrix(n, n, frozenset((int(perm[d - 1]), int(perm[s - 1])) for s, d in edges))
