"""Synthetic workload generators with controllable skew.

The paper's approximation error is governed by ``||tail_k||_1``, the mass
outside the ``k`` most popular subdomains, so the workloads below span the
relevant regimes:

* :func:`uniform_stream` -- maximal tail (worst case for pruning),
* :func:`gaussian_mixture_stream` -- moderate, smooth concentration,
* :func:`zipf_cell_stream` -- tunable power-law skew over hierarchy cells,
* :func:`sparse_cluster_stream` -- near-zero tail (best case for pruning),
* :func:`beta_stream` -- smooth one-dimensional skew.

Every generator takes an explicit ``rng``/seed and returns a numpy array whose
shape matches the target domain (scalars for d=1, ``(n, d)`` otherwise).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_stream",
    "gaussian_mixture_stream",
    "zipf_cell_stream",
    "sparse_cluster_stream",
    "beta_stream",
    "SCENARIO_GENERATOR_NAMES",
    "available_generators",
    "make_stream",
]


def _shape(points: np.ndarray, dimension: int) -> np.ndarray:
    if dimension == 1:
        return points.reshape(-1)
    return points.reshape(-1, dimension)


def uniform_stream(
    size: int,
    dimension: int = 1,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Uniform points over ``[0,1]^d`` -- the no-skew worst case for pruning."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    generator = np.random.default_rng(rng)
    return _shape(generator.random((size, dimension)), dimension)


def gaussian_mixture_stream(
    size: int,
    dimension: int = 1,
    num_components: int = 4,
    spread: float = 0.03,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """A mixture of Gaussians clipped to ``[0,1]^d``.

    Component centres are drawn uniformly; weights are Dirichlet(1) so some
    components dominate, giving a realistic mildly-skewed distribution.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if num_components < 1:
        raise ValueError(f"num_components must be at least 1, got {num_components}")
    generator = np.random.default_rng(rng)
    centres = generator.random((num_components, dimension))
    weights = generator.dirichlet(np.ones(num_components))
    assignments = generator.choice(num_components, size=size, p=weights)
    points = centres[assignments] + generator.normal(0.0, spread, size=(size, dimension))
    return _shape(np.clip(points, 0.0, 1.0), dimension)


def zipf_cell_stream(
    size: int,
    dimension: int = 1,
    level: int = 8,
    exponent: float = 1.2,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Power-law mass over the ``2^level`` hierarchy cells of ``[0,1]^d``.

    Cell ``r`` (in a random ordering) receives probability proportional to
    ``(r+1)^{-exponent}``; points are uniform within their cell.  Larger
    exponents concentrate the stream in fewer cells, shrinking
    ``||tail_k||_1`` -- the knob the skew experiment sweeps.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    generator = np.random.default_rng(rng)
    num_cells = 2**level
    ranks = np.arange(1, num_cells + 1, dtype=float)
    probabilities = ranks**-exponent if exponent > 0 else np.ones(num_cells)
    probabilities /= probabilities.sum()
    # Randomise which cell gets which rank so the mass is not always packed
    # into the left corner of the cube.
    cell_order = generator.permutation(num_cells)
    chosen_cells = cell_order[generator.choice(num_cells, size=size, p=probabilities)]

    # Decode each cell index into per-axis dyadic intervals matching the
    # hypercube's coordinate-cycling decomposition.
    points = np.empty((size, dimension))
    for row, cell in enumerate(chosen_cells):
        remaining = int(cell)
        bits = [(remaining >> (level - 1 - position)) & 1 for position in range(level)]
        lower = np.zeros(dimension)
        width = np.ones(dimension)
        for position, bit in enumerate(bits):
            axis = position % dimension
            width[axis] *= 0.5
            if bit:
                lower[axis] += width[axis]
        points[row] = lower + width * generator.random(dimension)
    return _shape(points, dimension)


def sparse_cluster_stream(
    size: int,
    dimension: int = 1,
    num_clusters: int = 3,
    cluster_width: float = 0.01,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """A few tight clusters: the sparse, near-zero-tail best case for pruning."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be at least 1, got {num_clusters}")
    generator = np.random.default_rng(rng)
    centres = generator.random((num_clusters, dimension)) * (1 - 2 * cluster_width) + cluster_width
    assignments = generator.integers(0, num_clusters, size=size)
    offsets = generator.uniform(-cluster_width, cluster_width, size=(size, dimension))
    points = np.clip(centres[assignments] + offsets, 0.0, 1.0)
    return _shape(points, dimension)


def beta_stream(
    size: int,
    alpha: float = 2.0,
    beta: float = 5.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """One-dimensional Beta(alpha, beta) samples: smooth asymmetric skew."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    generator = np.random.default_rng(rng)
    return generator.beta(alpha, beta, size=size)


def _scenario_generator(kind: str):
    """A lazily-bound wrapper turning a scenario primitive into a generator.

    The scenario engine (:mod:`repro.stream.scenarios`) imports this module
    for its static components, so the binding must be deferred to call time
    to keep imports acyclic.
    """

    def wrapper(
        size: int,
        dimension: int = 1,
        rng: np.random.Generator | int | None = None,
        **params,
    ) -> np.ndarray:
        from repro.stream import scenarios

        return scenarios.generate(kind, size, dimension=dimension, rng=rng, **params)

    wrapper.__name__ = f"{kind}_stream"
    wrapper.__qualname__ = f"{kind}_stream"
    wrapper.__doc__ = (
        f"Time-varying ``{kind}`` scenario stream (see repro.stream.scenarios)."
    )
    return wrapper


#: Generator names that resolve through the scenario engine: their streams
#: are schedules of epochs over the static generators below, and the matrix
#: runner evaluates them in trajectory (per-epoch) mode.
SCENARIO_GENERATOR_NAMES = frozenset(
    {"drift", "mixture_shift", "diurnal", "flash_crowd", "scenario"}
)

#: Name -> generator mapping used by declarative workload specs (the
#: experiment-matrix runner resolves its ``generators`` axis through this).
_NAMED_GENERATORS = {
    "uniform": uniform_stream,
    "gaussian_mixture": gaussian_mixture_stream,
    "zipf": zipf_cell_stream,
    "sparse_cluster": sparse_cluster_stream,
    "beta": beta_stream,
    **{name: _scenario_generator(name) for name in sorted(SCENARIO_GENERATOR_NAMES)},
}


def available_generators() -> list[str]:
    """Sorted names of the workload generators addressable by name.

    Example:
        >>> available_generators()  # doctest: +NORMALIZE_WHITESPACE
        ['beta', 'diurnal', 'drift', 'flash_crowd', 'gaussian_mixture',
         'mixture_shift', 'scenario', 'sparse_cluster', 'uniform', 'zipf']
    """
    return sorted(_NAMED_GENERATORS)


def make_stream(
    name: str,
    size: int,
    dimension: int = 1,
    rng: np.random.Generator | int | None = None,
    **params,
) -> np.ndarray:
    """Generate a named workload (the string form the matrix runner uses).

    ``params`` are forwarded to the underlying generator (e.g. ``exponent``
    for ``zipf``).  Generators that are one-dimensional only (``beta``)
    reject ``dimension > 1`` with a clear error instead of silently ignoring
    the request.

    Example:
        >>> make_stream("uniform", 4, dimension=2, rng=0).shape
        (4, 2)
        >>> make_stream("zipf", 8, rng=0, exponent=2.0).shape
        (8,)
    """
    key = str(name).strip().lower()
    if key not in _NAMED_GENERATORS:
        raise ValueError(
            f"unknown generator {name!r}; known generators: "
            f"{', '.join(available_generators())}"
        )
    factory = _NAMED_GENERATORS[key]
    kwargs = dict(params)
    if factory is beta_stream:
        if dimension != 1:
            raise ValueError(f"generator {name!r} is one-dimensional only")
    else:
        kwargs["dimension"] = dimension
    try:
        return factory(size, rng=rng, **kwargs)
    except TypeError as error:
        # Unknown keyword arguments in a spec's generator params are user
        # input errors, not programming errors.
        raise ValueError(f"bad parameters for generator {name!r}: {error}") from error
