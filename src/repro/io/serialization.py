"""JSON serialisation of trees, domains, generators and checkpoints.

The release format is deliberately simple and versioned:

```json
{
  "format": "privhp-generator",
  "version": 1,
  "domain": {"type": "Hypercube", "dimension": 2},
  "tree": {"01": 12.5, "": 40.0, ...}
}
```

Tree keys are the cell bit-strings (the root is the empty string); counts are
floats.  Only the *released* state is ever serialised in this format --
configurations and trees -- never raw stream data, so release files inherit
the original differential-privacy guarantee.

Checkpoints (``privhp-checkpoint``, written by :func:`save_checkpoint`) are
different: they persist the full mid-stream summarizer state -- tree,
sketch tables, privacy ledger and the exact random-generator state -- so a
paused ingestion can resume and release byte-for-byte identically.  A
checkpoint of a *noisy* summarizer is as private as the summary itself; a
checkpoint of a raw shard (``add_noise=False``) is NOT yet differentially
private and must be treated like the sensitive stream until its merged
release.  Continual checkpoints (:class:`repro.continual.privhp.PrivHPContinual`,
tagged ``"summarizer": "privhp-continual"`` in the state payload) are always
as private as the summary: the binary-mechanism noise is baked into the
state from the first event.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.core.sampler import SyntheticDataGenerator
from repro.core.tree import PartitionTree
from repro.domain.base import Domain
from repro.domain.discrete import DiscreteDomain
from repro.domain.geo import GeoDomain
from repro.domain.hypercube import Hypercube
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain

__all__ = [
    "tree_to_dict",
    "tree_from_dict",
    "domain_to_dict",
    "domain_from_dict",
    "generator_to_dict",
    "generator_from_dict",
    "save_generator",
    "load_release_document",
    "validate_release_document",
    "summarizer_to_dict",
    "summarizer_from_dict",
    "save_checkpoint",
    "load_checkpoint",
    "write_text_atomic",
]

FORMAT_NAME = "privhp-generator"
FORMAT_VERSION = 1

CHECKPOINT_FORMAT_NAME = "privhp-checkpoint"
CHECKPOINT_FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# trees
# --------------------------------------------------------------------------- #
def tree_to_dict(tree: PartitionTree) -> dict[str, float]:
    """Encode a tree as a mapping from bit-strings to counts."""
    return {"".join(map(str, theta)): count for theta, count in tree.nodes()}


def tree_from_dict(encoded: dict[str, float]) -> PartitionTree:
    """Decode a tree produced by :func:`tree_to_dict` (see
    :meth:`PartitionTree.from_cells` for the checks)."""
    return PartitionTree.from_cells(encoded)


# --------------------------------------------------------------------------- #
# domains
# --------------------------------------------------------------------------- #
def domain_to_dict(domain: Domain) -> dict:
    """Encode a domain's type and parameters."""
    if isinstance(domain, UnitInterval):
        return {"type": "UnitInterval"}
    if isinstance(domain, Hypercube):
        return {"type": "Hypercube", "dimension": domain.dimension}
    if isinstance(domain, IPv4Domain):
        return {"type": "IPv4Domain"}
    if isinstance(domain, GeoDomain):
        return {
            "type": "GeoDomain",
            "lat_min": domain.lat_min,
            "lat_max": domain.lat_max,
            "lon_min": domain.lon_min,
            "lon_max": domain.lon_max,
        }
    if isinstance(domain, DiscreteDomain):
        return {"type": "DiscreteDomain", "size": domain.size}
    raise ValueError(
        f"serialisation is not supported for {type(domain).__name__}; custom "
        "domains need an encoder/decoder in repro.io.serialization before "
        "they can be checkpointed, sharded, or saved"
    )


def domain_from_dict(encoded: dict) -> Domain:
    """Decode a domain produced by :func:`domain_to_dict`."""
    kind = encoded.get("type")
    if kind == "UnitInterval":
        return UnitInterval()
    if kind == "Hypercube":
        return Hypercube(int(encoded["dimension"]))
    if kind == "IPv4Domain":
        return IPv4Domain()
    if kind == "GeoDomain":
        return GeoDomain(
            lat_min=float(encoded["lat_min"]),
            lat_max=float(encoded["lat_max"]),
            lon_min=float(encoded["lon_min"]),
            lon_max=float(encoded["lon_max"]),
        )
    if kind == "DiscreteDomain":
        return DiscreteDomain(int(encoded["size"]))
    raise ValueError(f"unknown domain type {kind!r}")


# --------------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------------- #
def generator_to_dict(generator: SyntheticDataGenerator, metadata: dict | None = None) -> dict:
    """Encode a generator (tree + domain) into a JSON-serialisable dictionary."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "domain": domain_to_dict(generator.domain),
        "tree": tree_to_dict(generator.tree),
        "metadata": dict(metadata or {}),
    }


def validate_release_document(document) -> dict:
    """Check the ``privhp-generator`` envelope (format name, version, shape).

    This is the single place release-format validation lives; both
    :func:`generator_from_dict` and :meth:`repro.api.release.Release.load`
    route through it, so a future format bump only happens here.  Returns the
    document unchanged when it is acceptable.
    """
    if not isinstance(document, dict):
        raise ValueError(
            f"a {FORMAT_NAME} document must be a JSON object, "
            f"got {type(document).__name__}"
        )
    if document.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    try:
        version = int(document.get("version", 0))
    except (TypeError, ValueError) as error:
        raise ValueError(f"document version {document.get('version')!r} is not an integer") from error
    if version > FORMAT_VERSION:
        raise ValueError(
            f"document version {version} is newer than supported "
            f"version {FORMAT_VERSION}"
        )
    for key in ("domain", "tree"):
        if not isinstance(document.get(key), dict):
            raise ValueError(f"a {FORMAT_NAME} document requires a {key!r} object")
    return document


def load_release_document(path: str | pathlib.Path) -> dict:
    """Read and validate a ``privhp-generator`` document from disk.

    The on-disk format is autodetected by magic bytes: binary envelopes
    (:mod:`repro.io.binary`) decode back to the identical interchange
    document, so callers never care how a release was written.  Malformed
    input of either format surfaces as ``ValueError`` (with the offending
    path named), so every consumer -- ``Release.load``, the CLI, the serving
    store -- reports bad release files uniformly.
    """
    from repro.io.binary import detect_format, load_binary

    path = pathlib.Path(path)
    if detect_format(path) == "binary":
        document = load_binary(path)
    else:
        try:
            document = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ValueError(f"{path} is not valid JSON: {error}") from error
    try:
        return validate_release_document(document)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error


def generator_from_dict(encoded: dict, seed: int | None = None) -> SyntheticDataGenerator:
    """Decode a generator produced by :func:`generator_to_dict`."""
    validate_release_document(encoded)
    domain = domain_from_dict(encoded["domain"])
    tree = tree_from_dict(encoded["tree"])
    return SyntheticDataGenerator(tree, domain, rng=seed)


def write_bytes_atomic(path: pathlib.Path, data: bytes) -> None:
    """Write through a sibling temp file + fsync + ``os.replace``.

    The rename makes the write atomic (no reader ever observes a partial
    file); the fsync *before* the rename makes it durable -- without it a
    power loss shortly after the rename can leave the new name pointing at
    a zero-length file.  That matters now that ingest eviction checkpoints
    run at high frequency.
    """
    path = pathlib.Path(path)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def write_text_atomic(path: pathlib.Path, text: str) -> None:
    """Write through a sibling temp file + fsync + ``os.replace`` so a crash
    mid-write can never leave an existing file truncated (see
    :func:`write_bytes_atomic` for why the fsync matters).

    Shared by release/checkpoint persistence and the experiment-matrix result
    store, whose resumability contract depends on never observing a partial
    file.
    """
    write_bytes_atomic(path, text.encode("utf-8"))


def save_generator(
    generator: SyntheticDataGenerator,
    path: str | pathlib.Path,
    metadata: dict | None = None,
) -> pathlib.Path:
    """Write a generator to a JSON file and return the path."""
    path = pathlib.Path(path)
    document = generator_to_dict(generator, metadata=metadata)
    write_text_atomic(path, json.dumps(document, indent=2, sort_keys=True))
    return path


# --------------------------------------------------------------------------- #
# checkpoints (mid-stream summarizer state)
# --------------------------------------------------------------------------- #
def summarizer_to_dict(summarizer, *, arrays: bool = False) -> dict:
    """Wrap a summarizer's :meth:`checkpoint` payload in the versioned envelope.

    ``arrays=True`` requests the ndarray form of the bulk state (counter
    banks, sketch tables) -- not JSON-serialisable, but the binary envelope
    writer stores the arrays directly without a list round trip.
    """
    return {
        "format": CHECKPOINT_FORMAT_NAME,
        "version": CHECKPOINT_FORMAT_VERSION,
        "state": summarizer.checkpoint(arrays=arrays),
    }


def summarizer_from_dict(document: dict):
    """Decode a checkpoint document back into a live summarizer.

    The envelope is shared by every summarizer kind; the ``state`` payload
    carries a ``"summarizer"`` tag (absent for historical one-shot PrivHP
    checkpoints) that routes to the matching ``restore``.
    """
    from repro.continual.privhp import CONTINUAL_STATE_KIND, PrivHPContinual
    from repro.core.privhp import PrivHP

    if document.get("format") != CHECKPOINT_FORMAT_NAME:
        raise ValueError(f"not a {CHECKPOINT_FORMAT_NAME} document")
    if int(document.get("version", 0)) > CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint version {document.get('version')} is newer than supported "
            f"version {CHECKPOINT_FORMAT_VERSION}"
        )
    state = document.get("state")
    if not isinstance(state, dict):
        raise ValueError(f"a {CHECKPOINT_FORMAT_NAME} document requires a 'state' object")
    kind = state.get("summarizer", "privhp")
    if kind == CONTINUAL_STATE_KIND:
        return PrivHPContinual.restore(state)
    if kind != "privhp":
        raise ValueError(f"unknown summarizer kind {kind!r} in checkpoint")
    return PrivHP.restore(state)


def save_checkpoint(summarizer, path: str | pathlib.Path, *, format: str = "json") -> pathlib.Path:
    """Write a summarizer's full mid-stream state to disk.

    ``format="json"`` (the default, and the interchange form) writes compact
    sorted-key JSON; ``format="binary"`` writes the envelope of
    :mod:`repro.io.binary`, where the counter banks and sketch tables land
    as raw float sections -- the form the high-frequency ingest eviction
    path uses.  The write is atomic and fsynced either way, so extending an
    existing checkpoint can never destroy it if the process (or the machine)
    dies mid-write.
    """
    path = pathlib.Path(path)
    if format == "binary":
        from repro.io.binary import save_binary

        return save_binary(summarizer_to_dict(summarizer, arrays=True), path)
    if format != "json":
        raise ValueError(f"format must be 'json' or 'binary', got {format!r}")
    write_text_atomic(path, json.dumps(summarizer_to_dict(summarizer), sort_keys=True))
    return path


def load_checkpoint(path: str | pathlib.Path):
    """Load a summarizer previously saved with :func:`save_checkpoint`.

    The format is autodetected by magic bytes.  Binary checkpoints reinflate
    their array sections as writable numpy arrays, which the summarizers'
    ``restore`` paths consume without an extra copy.
    """
    from repro.io.binary import detect_format, load_binary

    path = pathlib.Path(path)
    if detect_format(path) == "binary":
        return summarizer_from_dict(load_binary(path, mode="arrays"))
    return summarizer_from_dict(json.loads(path.read_text()))
