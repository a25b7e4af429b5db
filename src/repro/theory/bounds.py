"""Evaluating the paper's accuracy and memory bounds numerically.

All functions return the bound *without* the unspecified leading constants
(i.e. the expression inside the O(.)), which is the right object for checking
scaling shapes: ratios between parameter settings are meaningful even though
absolute values are not.
"""

from __future__ import annotations

import math

from repro.core.budget import _big_gamma, _gamma
from repro.domain.base import Domain

__all__ = [
    "privhp_noise_term",
    "privhp_approx_term",
    "theorem3_bound",
    "corollary1_bound",
    "memory_words_bound",
    "pmm_bound",
    "srrw_bound",
    "smooth_bound",
]


def privhp_noise_term(
    domain: Domain,
    stream_size: int,
    epsilon: float,
    depth: int,
    level_cutoff: int,
    pruning_k: int,
    sketch_depth: int,
) -> float:
    """The Lemma-5 noise term: ``(sum sqrt(Gamma) + sum sqrt(jk gamma))^2 / (eps n)``."""
    if stream_size < 1 or epsilon <= 0:
        raise ValueError("stream_size must be positive and epsilon > 0")
    total = 0.0
    for level in range(level_cutoff + 1):
        total += math.sqrt(_big_gamma(domain, level - 1))
    for level in range(level_cutoff + 1, depth + 1):
        total += math.sqrt(sketch_depth * pruning_k * _gamma(domain, level - 1))
    return total**2 / (epsilon * stream_size)


def privhp_approx_term(
    domain: Domain,
    stream_size: int,
    tail_norm: float,
    depth: int,
    level_cutoff: int,
    sketch_depth: int,
) -> float:
    """The Theorem-3 approximation term: ``(tail/n + 2^-j) * sum gamma_{l-1}``."""
    if stream_size < 1:
        raise ValueError("stream_size must be positive")
    diameter_sum = sum(_gamma(domain, level - 1) for level in range(level_cutoff + 1, depth + 1))
    return (tail_norm / stream_size + 2.0 ** (-sketch_depth)) * diameter_sum


def theorem3_bound(
    domain: Domain,
    stream_size: int,
    epsilon: float,
    depth: int,
    level_cutoff: int,
    pruning_k: int,
    sketch_depth: int,
    tail_norm: float,
) -> float:
    """Theorem 3 with the Lemma-5 optimal budgets: noise term + approximation term."""
    noise = privhp_noise_term(
        domain, stream_size, epsilon, depth, level_cutoff, pruning_k, sketch_depth
    )
    approx = privhp_approx_term(
        domain, stream_size, tail_norm, depth, level_cutoff, sketch_depth
    )
    return noise + approx


def memory_words_bound(stream_size: int, pruning_k: int) -> float:
    """Corollary 1's memory budget ``M = k * log2(n)^2`` (in words, no constants)."""
    if stream_size < 2:
        return float(pruning_k)
    return pruning_k * math.log2(stream_size) ** 2


def corollary1_bound(
    dimension: int,
    stream_size: int,
    epsilon: float,
    pruning_k: int,
    tail_norm: float,
) -> float:
    """Corollary 1 evaluated numerically.

    ``O(log^2(M)/(eps n) + tail/(M n))`` for d = 1 and
    ``O(M^{1-1/d}/(eps n) + tail/(M^{1/d} n))`` for d >= 2.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    memory = max(memory_words_bound(stream_size, pruning_k), 2.0)
    if dimension == 1:
        noise = math.log2(memory) ** 2 / (epsilon * stream_size)
        approx = tail_norm / (memory * stream_size)
    else:
        noise = memory ** (1.0 - 1.0 / dimension) / (epsilon * stream_size)
        approx = tail_norm / (memory ** (1.0 / dimension) * stream_size)
    return noise + approx


def pmm_bound(dimension: int, stream_size: int, epsilon: float) -> float:
    """PMM's Table-1 accuracy: ``log^2(eps n)/(eps n)`` (d=1) or ``(eps n)^{-1/d}``."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    budget = max(epsilon * stream_size, 2.0)
    if dimension == 1:
        return math.log2(budget) ** 2 / budget
    return budget ** (-1.0 / dimension)


def srrw_bound(dimension: int, stream_size: int, epsilon: float) -> float:
    """SRRW's Table-1 accuracy: ``(log^{3/2}(eps n) / (eps n))^{1/d}``."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    budget = max(epsilon * stream_size, 2.0)
    return (math.log2(budget) ** 1.5 / budget) ** (1.0 / dimension)


def smooth_bound(
    dimension: int,
    stream_size: int,
    epsilon: float,
    smoothness_order: int = 3,
) -> float:
    """Smooth's Table-1 accuracy: ``eps^{-1} n^{-K/(2d+K)}``."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if smoothness_order < 1:
        raise ValueError(f"smoothness_order must be at least 1, got {smoothness_order}")
    exponent = smoothness_order / (2.0 * dimension + smoothness_order)
    return (1.0 / epsilon) * stream_size ** (-exponent)
