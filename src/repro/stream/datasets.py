"""Realistic synthetic datasets for the domain-specific examples.

The paper motivates PrivHP with resource-constrained analysis of sensitive
traffic and location streams but evaluates no proprietary trace; we synthesise
stand-ins whose *structure* (heavy-hitter subnets, clustered check-ins,
heavy-tailed amounts) matches what the algorithm is designed to exploit.

* :func:`ipv4_traffic_stream` -- source addresses drawn from a Zipf-weighted
  set of /16 and /24 subnets plus a uniform background, mimicking the
  hierarchical heavy-hitter structure of real flow logs.
* :func:`geo_checkin_stream` -- check-ins concentrated around a handful of
  city centres inside a bounding box, with a diffuse background.
* :func:`transaction_amount_stream` -- log-normal transaction amounts mapped
  onto ``[0, 1]`` by a capped linear transform.
"""

from __future__ import annotations

import numpy as np

from repro.domain.geo import GeoDomain
from repro.domain.ipv4 import ADDRESS_SPACE

__all__ = ["ipv4_traffic_stream", "geo_checkin_stream", "transaction_amount_stream"]


def ipv4_traffic_stream(
    size: int,
    num_heavy_subnets: int = 12,
    heavy_fraction: float = 0.85,
    zipf_exponent: float = 1.3,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Synthetic source-address trace with heavy-hitter subnets.

    ``heavy_fraction`` of the packets originate from ``num_heavy_subnets``
    randomly chosen /16 prefixes whose popularity follows a Zipf law; the rest
    are uniform background scan traffic over the whole address space.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if not 0.0 <= heavy_fraction <= 1.0:
        raise ValueError(f"heavy_fraction must lie in [0,1], got {heavy_fraction}")
    if num_heavy_subnets < 1:
        raise ValueError(f"num_heavy_subnets must be at least 1, got {num_heavy_subnets}")
    generator = np.random.default_rng(rng)

    subnet_prefixes = generator.integers(0, 1 << 16, size=num_heavy_subnets, dtype=np.int64)
    ranks = np.arange(1, num_heavy_subnets + 1, dtype=float)
    subnet_probabilities = ranks**-zipf_exponent
    subnet_probabilities /= subnet_probabilities.sum()

    addresses = np.empty(size, dtype=np.int64)
    heavy_mask = generator.random(size) < heavy_fraction
    num_heavy = int(heavy_mask.sum())

    chosen = generator.choice(num_heavy_subnets, size=num_heavy, p=subnet_probabilities)
    host_parts = generator.integers(0, 1 << 16, size=num_heavy, dtype=np.int64)
    addresses[heavy_mask] = (subnet_prefixes[chosen] << 16) | host_parts

    num_background = size - num_heavy
    addresses[~heavy_mask] = generator.integers(0, ADDRESS_SPACE, size=num_background, dtype=np.int64)
    return addresses


def geo_checkin_stream(
    size: int,
    domain: GeoDomain | None = None,
    num_cities: int = 5,
    city_fraction: float = 0.9,
    city_spread: float = 0.15,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Synthetic (lat, lon) check-ins clustered around a few city centres."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if not 0.0 <= city_fraction <= 1.0:
        raise ValueError(f"city_fraction must lie in [0,1], got {city_fraction}")
    if num_cities < 1:
        raise ValueError(f"num_cities must be at least 1, got {num_cities}")
    generator = np.random.default_rng(rng)
    if domain is None:
        # Roughly the continental United States.
        domain = GeoDomain(lat_min=24.0, lat_max=49.0, lon_min=-125.0, lon_max=-66.0)

    lat_span = domain.lat_max - domain.lat_min
    lon_span = domain.lon_max - domain.lon_min
    centres = np.column_stack(
        [
            domain.lat_min + generator.random(num_cities) * lat_span,
            domain.lon_min + generator.random(num_cities) * lon_span,
        ]
    )
    weights = generator.dirichlet(np.ones(num_cities) * 0.7)

    points = np.empty((size, 2))
    city_mask = generator.random(size) < city_fraction
    num_city = int(city_mask.sum())
    chosen = generator.choice(num_cities, size=num_city, p=weights)
    jitter = generator.normal(0.0, city_spread, size=(num_city, 2))
    points[city_mask] = centres[chosen] + jitter

    num_background = size - num_city
    points[~city_mask, 0] = domain.lat_min + generator.random(num_background) * lat_span
    points[~city_mask, 1] = domain.lon_min + generator.random(num_background) * lon_span

    points[:, 0] = np.clip(points[:, 0], domain.lat_min, domain.lat_max)
    points[:, 1] = np.clip(points[:, 1], domain.lon_min, domain.lon_max)
    return points


def transaction_amount_stream(
    size: int,
    mean_log: float = 3.0,
    sigma_log: float = 1.0,
    cap: float = 1000.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Heavy-tailed transaction amounts normalised to ``[0, 1]`` by a cap."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    generator = np.random.default_rng(rng)
    amounts = generator.lognormal(mean_log, sigma_log, size=size)
    return np.clip(amounts, 0.0, cap) / cap
