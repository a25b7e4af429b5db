"""Location analytics: private synthetic check-in coordinates.

Streams clustered (latitude, longitude) check-ins through PrivHP over a
geographic bounding box and uses the synthetic output for two downstream
tasks -- a density heat-map over a coarse grid and per-city visit shares --
comparing both against the original sensitive data.

Run with::

    python examples/geo_checkins.py
"""

from __future__ import annotations

import numpy as np

from repro import GeoDomain, PrivHP, PrivHPConfig
from repro.metrics.wasserstein import empirical_wasserstein
from repro.stream.datasets import geo_checkin_stream


def density_grid(domain: GeoDomain, points, level: int) -> dict:
    """Normalised frequency of each occupied level-``level`` cell, by cell code."""
    codes, counts = domain.level_frequencies(points, level)
    return dict(zip(codes.tolist(), (counts / counts.sum()).tolist()))


def main() -> None:
    rng = np.random.default_rng(23)
    domain = GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0)

    checkins = geo_checkin_stream(
        size=25_000, domain=domain, num_cities=6, city_fraction=0.9,
        city_spread=0.2, rng=rng,
    )

    config = PrivHPConfig.from_stream_size(
        stream_size=len(checkins), epsilon=1.0, pruning_k=24, seed=23
    )
    algorithm = PrivHP(domain, config)
    generator = algorithm.update_batch(checkins).release().generator
    synthetic = generator.sample(len(checkins))

    print(f"stream length {len(checkins)}, summary memory "
          f"{algorithm.memory_words()} words\n")

    # Downstream task 1: coarse density map (level 6 = 8x8 grid over the box).
    level = 6
    true_density = density_grid(domain, checkins, level)
    synthetic_density = density_grid(domain, synthetic, level)
    cells = set(true_density) | set(synthetic_density)
    l1_gap = sum(abs(true_density.get(c, 0.0) - synthetic_density.get(c, 0.0)) for c in cells)
    print(f"L1 distance between 8x8 density maps: {l1_gap:.4f} (0 = identical, 2 = disjoint)")

    # Downstream task 2: visit share of the busiest cells.
    top_true = sorted(true_density.items(), key=lambda item: item[1], reverse=True)[:5]
    print("\nbusiest grid cells            original   synthetic")
    for cell, share in top_true:
        bits = format(cell, f"0{level}b")
        print(f"  cell {bits:<12}        {share:8.1%}   "
              f"{synthetic_density.get(cell, 0.0):8.1%}")

    # Overall fidelity in the Wasserstein metric used by the paper.
    distance = empirical_wasserstein(checkins, synthetic, domain=domain)
    uniform = np.column_stack(
        [
            domain.lat_min + rng.random(len(checkins)) * (domain.lat_max - domain.lat_min),
            domain.lon_min + rng.random(len(checkins)) * (domain.lon_max - domain.lon_min),
        ]
    )
    uniform_distance = empirical_wasserstein(checkins, uniform, domain=domain)
    print(f"\nW1 upper bound (data, synthetic) = {distance:.4f}")
    print(f"W1 upper bound (data, uniform)   = {uniform_distance:.4f}")


if __name__ == "__main__":
    main()
