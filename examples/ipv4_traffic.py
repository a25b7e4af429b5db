"""Network telemetry: private synthetic source-address traces.

The paper motivates PrivHP with resource-constrained analysis of sensitive
streams and names the IPv4 address space as a target metric domain.  This
example streams a synthetic flow log (heavy-hitter subnets plus background
scan traffic) through PrivHP and then answers two downstream questions *from
the synthetic data only*:

* which /8 blocks carry the most traffic, and
* what fraction of traffic the top subnets carry,

comparing the answers against the (sensitive) original trace.

Run with::

    python examples/ipv4_traffic.py
"""

from __future__ import annotations

import numpy as np

from repro import IPv4Domain, PrivHP, PrivHPConfig
from repro.stream.datasets import ipv4_traffic_stream
from repro.stream.stream import DataStream


def top_prefixes(domain: IPv4Domain, addresses, prefix_length: int, count: int):
    """The ``count`` most frequent /prefix_length blocks with their shares."""
    codes, frequencies = domain.level_frequencies(addresses, prefix_length)
    shares = frequencies / frequencies.sum()
    ranked = np.argsort(-frequencies, kind="stable")[:count]
    first, _ = domain.cell_bounds_batch(prefix_length, codes[ranked])
    return [
        (f"{domain.format(int(address))}/{prefix_length}", share)
        for address, share in zip(first, shares[ranked])
    ]


def main() -> None:
    rng = np.random.default_rng(11)
    domain = IPv4Domain()

    # A synthetic flow log: most packets from a few popular /16s.
    trace = ipv4_traffic_stream(
        size=30_000, num_heavy_subnets=10, heavy_fraction=0.85, zipf_exponent=1.4, rng=rng
    )

    config = PrivHPConfig.from_stream_size(
        stream_size=len(trace), epsilon=1.0, pruning_k=16, seed=11, depth=20
    )
    algorithm = PrivHP(domain, config)

    stream = DataStream(trace, name="flow-log")
    stats = stream.feed(algorithm)
    generator = algorithm.release().generator
    synthetic = generator.sample(len(trace))

    print(f"processed {stats.items} packets at "
          f"{stats.items_per_second:,.0f} updates/second")
    print(f"summary memory: {algorithm.memory_words()} words "
          f"for a stream of {len(trace)} addresses\n")

    true_top = top_prefixes(domain, trace, prefix_length=8, count=5)
    synthetic_top = top_prefixes(domain, synthetic, prefix_length=8, count=5)

    print("top /8 blocks (original trace)        top /8 blocks (synthetic data)")
    for (true_cidr, true_share), (syn_cidr, syn_share) in zip(true_top, synthetic_top):
        print(f"  {true_cidr:<18} {true_share:6.1%}        {syn_cidr:<18} {syn_share:6.1%}")

    true_heavy = {cidr for cidr, _ in true_top}
    synthetic_heavy = {cidr for cidr, _ in synthetic_top}
    overlap = len(true_heavy & synthetic_heavy)
    print(f"\noverlap in top-5 /8 blocks: {overlap}/5")

    # Share of traffic carried by the true heavy /16 subnets, measured both ways.
    true_share = sum(share for _, share in top_prefixes(domain, trace, 16, 10))
    synthetic_share = sum(share for _, share in top_prefixes(domain, synthetic, 16, 10))
    print(f"traffic share of the top-10 /16 subnets: "
          f"original {true_share:.1%}, synthetic {synthetic_share:.1%}")


if __name__ == "__main__":
    main()
