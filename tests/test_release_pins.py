"""Release bytes pinned across domains and release paths.

Every case fits a few hundred items with the exact tree cut at level 4, so
five levels are grown from the sketches with top-k pruning.  It compares the
sha256 of the release's canonical JSON (sorted keys, no whitespace) against a
literal digest, plus a digest of 64 samples drawn after reseeding the
release's generator.  The
paths are a one-shot ``release()``, the release of two merged raw shards, the
release of a summarizer restored from a binary checkpoint, a continual
``snapshot()``, and a release that went through a binary save and
``load_release_binary``.  Each release is also checked for the invariants a
release must carry: a consistent tree when consistency is on, and a privacy
ledger that sums to epsilon.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.api.builder import PrivHPBuilder
from repro.core.privhp import PrivHP
from repro.io.binary import load_release_binary
from repro.io.serialization import load_checkpoint, save_checkpoint

ITEMS = 400
EPSILON = 1.0
SEED = 7

DOMAINS = ("interval", "hypercube:2", "ipv4", "discrete:4096", "geo")
PATHS = ("release", "merged", "restored", "snapshot", "binary")


def _stream(spec: str) -> np.ndarray:
    """A skewed, deterministic stream of ``ITEMS`` points of the domain."""
    rng = np.random.default_rng(2024)
    if spec == "interval":
        return rng.beta(2.0, 6.0, ITEMS)
    if spec == "hypercube:2":
        return rng.random((ITEMS, 2)) ** 2
    if spec == "ipv4":
        return (rng.beta(2.0, 6.0, ITEMS) * (2**32 - 1)).astype(np.int64)
    if spec == "discrete:4096":
        return (rng.random(ITEMS) ** 3 * 4096).astype(np.int64)
    if spec == "geo":
        return np.column_stack([rng.normal(40.0, 10.0, ITEMS), rng.normal(-70.0, 20.0, ITEMS)])
    raise AssertionError(spec)


def _builder(spec: str, consistency: bool) -> PrivHPBuilder:
    return (
        PrivHPBuilder(spec)
        .epsilon(EPSILON)
        .pruning_k(4)
        .stream_size(ITEMS)
        .seed(SEED)
        .override(level_cutoff=4, apply_consistency=consistency)
    )


def _release(spec: str, consistency: bool, path: str, tmp_path):
    data = _stream(spec)
    half = ITEMS // 2
    builder = _builder(spec, consistency)
    if path in ("release", "binary"):
        release = builder.build().update_batch(data).release()
        if path == "binary":
            release = load_release_binary(release.save(tmp_path / "release.bin"))
        return release
    if path == "merged":
        left, right = builder.build_shards(2)
        left.update_batch(data[:half])
        right.update_batch(data[half:])
        return PrivHP.merge_all([left, right]).release()
    if path == "restored":
        summarizer = builder.build().update_batch(data[:half])
        state = save_checkpoint(summarizer, tmp_path / "state.bin", format="binary")
        return load_checkpoint(state).update_batch(data[half:]).release()
    if path == "snapshot":
        summarizer = builder.continual().build()
        return summarizer.update_batch(data[:half]).update_batch(data[half:]).snapshot()
    raise AssertionError(path)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _release_digest(release) -> str:
    text = json.dumps(release.to_dict(), sort_keys=True, separators=(",", ":"))
    return _digest(text.encode("utf-8"))


def _sample_digest(release) -> str:
    samples = np.ascontiguousarray(release.reseed(11).sample(64))
    return _digest(f"{samples.dtype.str}{samples.shape}".encode() + samples.tobytes())


#: (release digest, sample digest) per (domain, consistency, path).
PINNED = {
    ("interval", True, "release"): (
        "89786b36784cb2e0168446980ada749857c84e85c017917d876124df1e49c8c2",
        "eedeb0597e6f7d0f6ecdf3eada9e5d3eb3bbf86eff503a33f49eb0dc3be76cac",
    ),
    ("interval", True, "merged"): (
        "89786b36784cb2e0168446980ada749857c84e85c017917d876124df1e49c8c2",
        "eedeb0597e6f7d0f6ecdf3eada9e5d3eb3bbf86eff503a33f49eb0dc3be76cac",
    ),
    ("interval", True, "restored"): (
        "dbaa301122f60059a42d967cbc097c985ad3da1858bd1d91ebf29a42c2cdf33a",
        "eedeb0597e6f7d0f6ecdf3eada9e5d3eb3bbf86eff503a33f49eb0dc3be76cac",
    ),
    ("interval", True, "snapshot"): (
        "ff101ec22bc5914822fb5628837312db7b386dc7a6315b20880543bd0ddf7413",
        "65c29cdd8d6aab9c85ff0b58263bef6d06d262261d896c62143f71f32a2d0b73",
    ),
    ("interval", True, "binary"): (
        "89786b36784cb2e0168446980ada749857c84e85c017917d876124df1e49c8c2",
        "eedeb0597e6f7d0f6ecdf3eada9e5d3eb3bbf86eff503a33f49eb0dc3be76cac",
    ),
    ("interval", False, "release"): (
        "538d7d1cdb615e54ba4488c8516cfdfd931374dcbd6eed6e19dec9703b3fe25f",
        "e923a68e04130fda1e32c2fe6882b7d924ab7b567853cfede16b1dd9466fed18",
    ),
    ("interval", False, "merged"): (
        "538d7d1cdb615e54ba4488c8516cfdfd931374dcbd6eed6e19dec9703b3fe25f",
        "e923a68e04130fda1e32c2fe6882b7d924ab7b567853cfede16b1dd9466fed18",
    ),
    ("interval", False, "restored"): (
        "bb2b725eea2be91831e3431d73ca453a2bfd160e3fd01f9cf3e0f271b7e817ec",
        "e923a68e04130fda1e32c2fe6882b7d924ab7b567853cfede16b1dd9466fed18",
    ),
    ("interval", False, "snapshot"): (
        "7652d01a74c3c10417981b1ccca45f66dcc03487606cb35ad78f88c6077153ec",
        "8404410ac11518153b62aea9cdbad8d40f1b6ec11bd987600beccb604492f86b",
    ),
    ("interval", False, "binary"): (
        "538d7d1cdb615e54ba4488c8516cfdfd931374dcbd6eed6e19dec9703b3fe25f",
        "e923a68e04130fda1e32c2fe6882b7d924ab7b567853cfede16b1dd9466fed18",
    ),
    ("hypercube:2", True, "release"): (
        "8ad2c21efced104d1004854b40953df37831aef375e6f3297fd209a2847a8b82",
        "f11dfbf35a59fa196688ab6314b5e836fe1db446324786cea52212a2396067f1",
    ),
    ("hypercube:2", True, "merged"): (
        "8ad2c21efced104d1004854b40953df37831aef375e6f3297fd209a2847a8b82",
        "f11dfbf35a59fa196688ab6314b5e836fe1db446324786cea52212a2396067f1",
    ),
    ("hypercube:2", True, "restored"): (
        "f37321679b93dae87ce13d131e3acfed6dfa4687851ac22de4ea3c3a6b28fe37",
        "f11dfbf35a59fa196688ab6314b5e836fe1db446324786cea52212a2396067f1",
    ),
    ("hypercube:2", True, "snapshot"): (
        "8500182dd3e6ee193c1e385612d7889163e49b7cdf4db2022136007d0606dc21",
        "0b551a2a656ad6ce8a51beca5d7832064900b34f0edee5a14aab939d6d40f047",
    ),
    ("hypercube:2", True, "binary"): (
        "8ad2c21efced104d1004854b40953df37831aef375e6f3297fd209a2847a8b82",
        "f11dfbf35a59fa196688ab6314b5e836fe1db446324786cea52212a2396067f1",
    ),
    ("hypercube:2", False, "release"): (
        "d912229f26b82ceb01ff4de2f71ead670a20844a7c1b7d34007c1ba5356bb1c6",
        "de1aae5751c5fed58d3daee02800fb114ae0aa0303634703f216c8118a2c6976",
    ),
    ("hypercube:2", False, "merged"): (
        "d912229f26b82ceb01ff4de2f71ead670a20844a7c1b7d34007c1ba5356bb1c6",
        "de1aae5751c5fed58d3daee02800fb114ae0aa0303634703f216c8118a2c6976",
    ),
    ("hypercube:2", False, "restored"): (
        "5a7fc2459c50167c52fe356e5b4fbca5cb17aecf75661533891a686f7eb1eefe",
        "de1aae5751c5fed58d3daee02800fb114ae0aa0303634703f216c8118a2c6976",
    ),
    ("hypercube:2", False, "snapshot"): (
        "3a785c1f99f12d4325c90ba65b7745d067146737096e7b3d46991fddb7f546b0",
        "e2f6405c03703c84a4b4c7009c815d912472b6b03c42d3d33f4081342a823808",
    ),
    ("hypercube:2", False, "binary"): (
        "d912229f26b82ceb01ff4de2f71ead670a20844a7c1b7d34007c1ba5356bb1c6",
        "de1aae5751c5fed58d3daee02800fb114ae0aa0303634703f216c8118a2c6976",
    ),
    ("ipv4", True, "release"): (
        "85e2d97de4e5c6e7314019d3f9817d2a354255816daed8fbb0a89907d21df148",
        "6c0dcdc96f6416737de78e5641d5bc5c9f41bb1c6f1b815e393f689e9cec013b",
    ),
    ("ipv4", True, "merged"): (
        "85e2d97de4e5c6e7314019d3f9817d2a354255816daed8fbb0a89907d21df148",
        "6c0dcdc96f6416737de78e5641d5bc5c9f41bb1c6f1b815e393f689e9cec013b",
    ),
    ("ipv4", True, "restored"): (
        "cb63a027accefef53dfd40b348eda689bb8d99d9073bcdb79a6c42abb16ac6c4",
        "6c0dcdc96f6416737de78e5641d5bc5c9f41bb1c6f1b815e393f689e9cec013b",
    ),
    ("ipv4", True, "snapshot"): (
        "82fefc3b23a7c08cd872425415555799bf6e65046e4b99a4bb8d321e1a02c784",
        "5e018f2c874313d4d8fb014470a60fa7f5ebc4b2374b9a54d7faf9c64d26dd3a",
    ),
    ("ipv4", True, "binary"): (
        "85e2d97de4e5c6e7314019d3f9817d2a354255816daed8fbb0a89907d21df148",
        "6c0dcdc96f6416737de78e5641d5bc5c9f41bb1c6f1b815e393f689e9cec013b",
    ),
    ("ipv4", False, "release"): (
        "75f76575ea01fec305b69af7feedc4718d22ae18d5653520cfa8851313e47566",
        "5eafd017ef70d66074803ee73702e8068c53cab2ddc469c99e0cc9d238e31ad0",
    ),
    ("ipv4", False, "merged"): (
        "75f76575ea01fec305b69af7feedc4718d22ae18d5653520cfa8851313e47566",
        "5eafd017ef70d66074803ee73702e8068c53cab2ddc469c99e0cc9d238e31ad0",
    ),
    ("ipv4", False, "restored"): (
        "0301e9d7365bd0926ed5913242211f9887e5144c79a2e3f970a78d047a388b48",
        "5eafd017ef70d66074803ee73702e8068c53cab2ddc469c99e0cc9d238e31ad0",
    ),
    ("ipv4", False, "snapshot"): (
        "4b26f415d8c253341c0e891e2cb10abc3ae0d1a20adbb527b32b852801e0b91f",
        "c2bc53d228205f508851ab19ec19096de46e2d62d4e62ef691226e35051ee171",
    ),
    ("ipv4", False, "binary"): (
        "75f76575ea01fec305b69af7feedc4718d22ae18d5653520cfa8851313e47566",
        "5eafd017ef70d66074803ee73702e8068c53cab2ddc469c99e0cc9d238e31ad0",
    ),
    ("discrete:4096", True, "release"): (
        "b11b3a907e5d90fc8401713c1aca69bcea109a8deef5f47328ce97c0048d35e3",
        "c1db8a4f13f3e121d9ccd4ffbf1aded0d60e93dc8179784af01de31b8fce1ded",
    ),
    ("discrete:4096", True, "merged"): (
        "b11b3a907e5d90fc8401713c1aca69bcea109a8deef5f47328ce97c0048d35e3",
        "c1db8a4f13f3e121d9ccd4ffbf1aded0d60e93dc8179784af01de31b8fce1ded",
    ),
    ("discrete:4096", True, "restored"): (
        "cda9b3eae2a1337b763754bbfef6f4f2e456a108550d2d7d327e3d60b8b7c64c",
        "c1db8a4f13f3e121d9ccd4ffbf1aded0d60e93dc8179784af01de31b8fce1ded",
    ),
    ("discrete:4096", True, "snapshot"): (
        "acdffe6798469077c3984597cdb33c99bb6f8a46a2bcee65f63b3e31fe1966d6",
        "cb0c1798b45323acf22cb5bfc012134866518e5161504bc50c15ecf938a420b5",
    ),
    ("discrete:4096", True, "binary"): (
        "b11b3a907e5d90fc8401713c1aca69bcea109a8deef5f47328ce97c0048d35e3",
        "c1db8a4f13f3e121d9ccd4ffbf1aded0d60e93dc8179784af01de31b8fce1ded",
    ),
    ("discrete:4096", False, "release"): (
        "c3790bdaa93c0117bc8d69b526901dbf687ee28713b8a0fba284c3b4a2ffa477",
        "015e96d73900439b402c7f255092280a29ff687c8cd56471409f8ae15c442ba2",
    ),
    ("discrete:4096", False, "merged"): (
        "c3790bdaa93c0117bc8d69b526901dbf687ee28713b8a0fba284c3b4a2ffa477",
        "015e96d73900439b402c7f255092280a29ff687c8cd56471409f8ae15c442ba2",
    ),
    ("discrete:4096", False, "restored"): (
        "31ec6c775294ef7b533c082da74531e6c6c5b2e4729a731870e13786a1d073e9",
        "015e96d73900439b402c7f255092280a29ff687c8cd56471409f8ae15c442ba2",
    ),
    ("discrete:4096", False, "snapshot"): (
        "46816e98e3e1047014fa8e1417d8558fc86109aa07eed7ce49e821fdcb6b3ee7",
        "98442a9359152bc02701a2fb515d69431b73bf5209d3002ee132a4f66f3d103e",
    ),
    ("discrete:4096", False, "binary"): (
        "c3790bdaa93c0117bc8d69b526901dbf687ee28713b8a0fba284c3b4a2ffa477",
        "015e96d73900439b402c7f255092280a29ff687c8cd56471409f8ae15c442ba2",
    ),
    ("geo", True, "release"): (
        "9851e69ca1fe549e51c89d67578cdf29d18cee458e965395f1fc0b8caeebb424",
        "620fa272ede5faf578484a6461722fd70d90f8e4e76ce0a2313b5226762e65c4",
    ),
    ("geo", True, "merged"): (
        "9851e69ca1fe549e51c89d67578cdf29d18cee458e965395f1fc0b8caeebb424",
        "620fa272ede5faf578484a6461722fd70d90f8e4e76ce0a2313b5226762e65c4",
    ),
    ("geo", True, "restored"): (
        "d732d6a19d8c4ae29df86ffe9fad0be29e12659c80a7f2acc8b1e6a135b40f0f",
        "620fa272ede5faf578484a6461722fd70d90f8e4e76ce0a2313b5226762e65c4",
    ),
    ("geo", True, "snapshot"): (
        "90eac248b641f02050e51b0599bd3849d3e32b3c5e8eaf764e2cb2056b50579d",
        "256e6f40891087fbd7ee0f461dfe0d4cc0349ef4c383b6248761f3013c14e14f",
    ),
    ("geo", True, "binary"): (
        "9851e69ca1fe549e51c89d67578cdf29d18cee458e965395f1fc0b8caeebb424",
        "620fa272ede5faf578484a6461722fd70d90f8e4e76ce0a2313b5226762e65c4",
    ),
    ("geo", False, "release"): (
        "e43a9af2bbaebd04421a637039f1a1d18002127d0c4020af6ac9e53b449e91b0",
        "1524977ab9b85d332c979e16ce7d148cb1b19aa2a2fcf62c9e9136a83cb0219f",
    ),
    ("geo", False, "merged"): (
        "e43a9af2bbaebd04421a637039f1a1d18002127d0c4020af6ac9e53b449e91b0",
        "1524977ab9b85d332c979e16ce7d148cb1b19aa2a2fcf62c9e9136a83cb0219f",
    ),
    ("geo", False, "restored"): (
        "4d04e9fddad736e1ef846a576b7bbf50fd536b6a84b4d31274b5ba385b2891b4",
        "1524977ab9b85d332c979e16ce7d148cb1b19aa2a2fcf62c9e9136a83cb0219f",
    ),
    ("geo", False, "snapshot"): (
        "d4b8a0e2be2e4f481891e7939766fb9c6f9fc0d6d20d2ad0d6f2eefe7ded7896",
        "9897aa2a48c180464515efa378a1af997de4eab668046bdfd3dfc0b88d20edc8",
    ),
    ("geo", False, "binary"): (
        "e43a9af2bbaebd04421a637039f1a1d18002127d0c4020af6ac9e53b449e91b0",
        "1524977ab9b85d332c979e16ce7d148cb1b19aa2a2fcf62c9e9136a83cb0219f",
    ),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("consistency", (True, False), ids=("consistent", "raw"))
@pytest.mark.parametrize("spec", DOMAINS)
def test_release_bytes_are_pinned(spec, consistency, path, tmp_path):
    release = _release(spec, consistency, path, tmp_path)
    ledger = release.metadata["privacy_ledger"]
    assert sum(epsilon for epsilon, _ in ledger) == pytest.approx(EPSILON)
    if consistency:
        assert release.tree.is_consistent()
    digests = (_release_digest(release), _sample_digest(release))
    assert digests == PINNED[spec, consistency, path]
