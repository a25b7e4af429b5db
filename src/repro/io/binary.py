"""Zero-copy binary envelope for releases and checkpoints.

JSON stays the interchange format; this module adds a versioned binary
container (``privhp-binary``) for the same documents, built for two things
the JSON path cannot do:

* **mmap cold starts** -- a release envelope carries the compiled
  leaf/descent tables as aligned raw array sections, so
  :func:`load_release_binary` maps them straight into ready query engines
  without parsing or recompiling anything (the tree's level arrays are
  decoded from their sections with numpy, no per-node Python loop);
* **cheap frequent checkpoints** -- counter banks, sketch tables and tree
  counts round-trip as raw ``float64``/``int64`` bytes instead of JSON text,
  which is what makes high-frequency eviction/restore in
  :mod:`repro.ingest` affordable.

Envelope layout (version 1)::

    offset 0   magic bytes  b"\\x93PRIVHPB"            (8 bytes)
    offset 8   format version, uint32 little-endian   (4 bytes)
    offset 12  header length H, uint64 little-endian  (8 bytes)
    offset 20  JSON header, utf-8                     (H bytes)
    aligned    section 0 bytes  (64-byte aligned, zero padded)
    aligned    section 1 bytes
    ...

The JSON header carries ``{"format", "version", "document", "sections",
"compiled"?}``.  ``document`` is the original JSON document with every heavy
payload replaced by a marker: ``{"__section__": "s3"}`` for a numeric array,
``{"__tree__": {"depths": ..., "paths": ..., "counts": ...}}`` for a
partition tree (cells packed as big-endian bit rows).  ``sections`` is the
manifest -- name, dtype, shape, byte offset *relative to the aligned data
start*, and byte length for every raw section.  Conversion is lossless in
both directions: reinflating the markers reproduces the original document
exactly, so ``save -> load -> save`` is a byte-level fixed point and
``repro convert`` can hop between the formats freely.

Loading validates everything before touching section bytes -- magic, version,
manifest offsets/lengths against the real file size, and a dtype whitelist --
so truncated or doctored files fail with a clean ``ValueError`` naming the
path instead of reading garbage.
"""

from __future__ import annotations

import json
import math
import mmap
import pathlib
import struct

import numpy as np

from repro.core.tree import PartitionTree
from repro.domain.discrete import DiscreteDomain
from repro.domain.interval import UnitInterval
from repro.domain.ipv4 import IPv4Domain
from repro.io.serialization import tree_to_dict
from repro.queries.compiled import CompiledDescentTable, CompiledLeafTable

__all__ = [
    "MAGIC",
    "BINARY_FORMAT_NAME",
    "BINARY_FORMAT_VERSION",
    "detect_format",
    "save_binary",
    "load_binary",
    "convert_file",
    "open_envelope",
    "BinaryEnvelope",
    "load_release_binary",
]

MAGIC = b"\x93PRIVHPB"
BINARY_FORMAT_NAME = "privhp-binary"
BINARY_FORMAT_VERSION = 1

#: Raw sections start on these byte boundaries (cache-line / SIMD friendly).
_ALIGNMENT = 64
_PREFIX = struct.Struct("<8sIQ")

#: Every dtype a well-formed envelope may carry.  Anything else in the
#: manifest -- object dtypes, strings, doctored widths -- is rejected before
#: a single section byte is interpreted.
_ALLOWED_DTYPES = frozenset({"<f8", "<i8", "<u8", "<i4", "<u4", "|u1", "|b1"})

_SECTION_KEY = "__section__"
_TREE_KEY = "__tree__"
_BITS = frozenset("01")

#: Document paths holding a partition-tree dict (``{"0110...": count}``).
_TREE_PATHS = frozenset({("tree",), ("state", "tree")})

#: Document paths holding homogeneous numeric lists worth storing as raw
#: sections.  ``None`` matches any list index.  ``"float"`` lists are stored
#: as float64; ``"int"`` lists keep whatever integer dtype numpy infers
#: (rejected, i.e. left as JSON, when they do not fit a whitelisted dtype).
_ARRAY_RULES: tuple[tuple[tuple, str], ...] = (
    (("state", "sketches", None, "table"), "float"),
    (("state", "banks", None, "state", "alpha"), "float"),
    (("state", "banks", None, "state", "noisy_alpha"), "float"),
    (("state", "sketches", None, "state", "bank", "alpha"), "float"),
    (("state", "sketches", None, "state", "bank", "noisy_alpha"), "float"),
    (("state", "rng", "state", "state", "key"), "int"),
    (("state", "rng", "state", "state", "counter"), "int"),
)


def detect_format(path: str | pathlib.Path) -> str:
    """``"binary"`` when the file starts with the envelope magic, else ``"json"``.

    This is the autodetection every loader routes through, so callers never
    have to know how a state file was written.
    """
    with open(path, "rb") as handle:
        return "binary" if handle.read(len(MAGIC)) == MAGIC else "json"


# --------------------------------------------------------------------------- #
# document -> sections (extraction)
# --------------------------------------------------------------------------- #
def _rule_kind(path: tuple) -> str | None:
    for pattern, kind in _ARRAY_RULES:
        if len(pattern) != len(path):
            continue
        if all(
            (element is None and isinstance(part, int)) or element == part
            for element, part in zip(pattern, path)
        ):
            return kind
    return None


def _add_section(sections: list, array: np.ndarray) -> str:
    name = f"s{len(sections)}"
    sections.append((name, np.ascontiguousarray(array)))
    return name


def _as_rule_array(value: list, kind: str) -> np.ndarray | None:
    """The list as a whitelisted numpy array, or ``None`` to keep it as JSON."""
    try:
        array = np.asarray(value)
    except (ValueError, TypeError, OverflowError):
        return None
    wanted = "f" if kind == "float" else "iu"
    if array.dtype.kind not in wanted or array.dtype.hasobject:
        return None
    if kind == "float":
        array = array.astype(np.float64, copy=False)
    return array if array.dtype.str in _ALLOWED_DTYPES else None


def _is_tree_dict(value: dict) -> bool:
    if not value:
        return False
    for key, count in value.items():
        if not isinstance(key, str) or not set(key) <= _BITS:
            return False
        if type(count) is not float:
            return False
    return True


def _tree_sections(tree: PartitionTree, sections: list) -> dict:
    """Pack a tree into depth / big-endian-bit-row / count sections.

    Each row holds a cell's code left-aligned in ``stride`` big-endian bytes.
    Rows are in bit-string order (a cell before its extensions, ``0`` before
    ``1``) so the sections are canonical: the same tree always produces the
    same bytes, whichever document or live tree it came from.
    """
    levels = [tree.level(level) for level in range(tree.depth() + 1)]
    depths = np.concatenate(
        [np.full(codes.size, level, dtype=np.int64) for level, (codes, _) in enumerate(levels)]
    )
    codes = np.concatenate([codes for codes, _ in levels]).astype(np.uint64)
    # Left-align in 64 bits; two shifts keep the root's shift below 64.
    aligned = (codes << (63 - depths).astype(np.uint64)) << np.uint64(1)
    order = np.lexsort((depths, aligned))
    stride = max(1, (tree.depth() + 7) // 8)
    paths = aligned[order].astype(">u8").view(np.uint8).reshape(-1, 8)[:, :stride]
    return {
        "depths": _add_section(sections, depths[order]),
        "paths": _add_section(sections, paths),
        "counts": _add_section(sections, np.concatenate([counts for _, counts in levels])[order]),
    }


def _extract_value(value, path: tuple, sections: list):
    if isinstance(value, PartitionTree):
        return {_TREE_KEY: _tree_sections(value, sections)}
    if isinstance(value, dict):
        if _SECTION_KEY in value or _TREE_KEY in value:
            raise ValueError(
                f"document key {_SECTION_KEY!r}/{_TREE_KEY!r} collides with the "
                "binary envelope's marker keys"
            )
        if any(not isinstance(key, str) for key in value):
            raise ValueError("binary envelopes require string object keys")
        if path in _TREE_PATHS and _is_tree_dict(value):
            return {_TREE_KEY: _tree_sections(PartitionTree.from_cells(value), sections)}
        # Walk in sorted-key order so section numbering is canonical: the
        # header is dumped with sort_keys anyway, and a deterministic walk
        # makes save -> load -> save a byte-level fixed point.
        return {key: _extract_value(value[key], path + (key,), sections) for key in sorted(value)}
    if isinstance(value, list):
        kind = _rule_kind(path)
        if kind is not None and value:
            array = _as_rule_array(value, kind)
            if array is not None:
                return {_SECTION_KEY: _add_section(sections, array)}
        return [
            _extract_value(item, path + (index,), sections)
            for index, item in enumerate(value)
        ]
    if isinstance(value, np.ndarray):
        if value.dtype.str not in _ALLOWED_DTYPES:
            raise ValueError(f"cannot store an array of dtype {value.dtype} in a binary envelope")
        return {_SECTION_KEY: _add_section(sections, value)}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ValueError(f"cannot serialise a {type(value).__name__} into a binary envelope")


# --------------------------------------------------------------------------- #
# sections -> document (reinflation)
# --------------------------------------------------------------------------- #
def _tree_from_sections(spec, get_array) -> PartitionTree:
    """Decode a tree marker's sections into level arrays, with numpy.

    Checks that each depth fits its row, that codes ascend within a level
    and that a root exists; :meth:`PartitionTree.append_level` checks that
    children come in pairs under a stored parent.
    """
    if not isinstance(spec, dict):
        raise ValueError("malformed tree marker in binary envelope")
    try:
        depths = get_array(spec["depths"])
        paths = get_array(spec["paths"])
        counts = get_array(spec["counts"])
    except (KeyError, TypeError) as error:
        raise ValueError("malformed tree marker in binary envelope") from error
    if depths.ndim != 1 or depths.dtype.kind not in "iu":
        raise ValueError("tree depth section must be a one-dimensional integer array")
    if paths.ndim != 2 or paths.dtype != np.uint8:
        raise ValueError("tree path section must be a two-dimensional uint8 array")
    if counts.ndim != 1 or counts.dtype != np.float64:
        raise ValueError("tree count section must be a one-dimensional float64 array")
    if not len(depths) == len(paths) == len(counts):
        raise ValueError("tree sections disagree on the node count")
    depths = depths.astype(np.int64)
    limit = min(paths.shape[1] * 8, 62)
    outside = (depths < 0) | (depths > limit)
    if outside.any():
        raise ValueError(
            f"tree cell depth {depths[outside][0]} does not fit its packed path row "
            "(or exceeds 62 levels)"
        )
    # The first eight bytes of a row hold every bit of a depth <= 62 code.
    rows = np.zeros((len(paths), 8), dtype=np.uint8)
    rows[:, : min(paths.shape[1], 8)] = paths[:, :8]
    aligned = rows.view(">u8").ravel().astype(np.uint64)
    codes = ((aligned >> np.uint64(1)) >> (63 - depths).astype(np.uint64)).astype(np.int64)
    order = np.argsort(depths, kind="stable")
    depths, codes, counts = depths[order], codes[order], counts[order]
    if not len(depths) or depths[0] != 0 or (len(depths) > 1 and depths[1] == 0):
        raise ValueError("the encoded tree needs exactly one root cell")
    if np.any((depths[1:] == depths[:-1]) & (codes[1:] <= codes[:-1])):
        raise ValueError("tree cell codes must ascend within each level")
    tree = PartitionTree(counts[0])
    bounds = np.searchsorted(depths, np.arange(1, depths[-1] + 2))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        tree.append_level(codes[start:stop], counts[start:stop])
    return tree


def _reinflate_value(value, get_array, mode: str):
    if isinstance(value, dict):
        keys = set(value)
        if keys == {_SECTION_KEY}:
            array = get_array(value[_SECTION_KEY])
            # "json" reproduces the interchange document exactly; "arrays"
            # hands back writable numpy copies, which is what summarizer
            # restore wants (mmap sections are read-only).
            return array.tolist() if mode == "json" else np.array(array)
        if keys == {_TREE_KEY}:
            tree = _tree_from_sections(value[_TREE_KEY], get_array)
            return tree if mode == "arrays" else tree_to_dict(tree)
        return {key: _reinflate_value(item, get_array, mode) for key, item in value.items()}
    if isinstance(value, list):
        return [_reinflate_value(item, get_array, mode) for item in value]
    return value


# --------------------------------------------------------------------------- #
# compiled query tables (release envelopes only)
# --------------------------------------------------------------------------- #
def _compile_release_sections(document: dict) -> tuple[dict, list]:
    """Compile the release's query tables once, at save time.

    The resulting sections are *derived* state: loading reconstructs the
    engines from them directly (no tree walk), and because compilation is
    deterministic, re-saving a loaded release reproduces them byte for byte.
    """
    from repro.io.serialization import (
        domain_from_dict,
        tree_from_dict,
        validate_release_document,
    )

    validate_release_document(document)
    domain = domain_from_dict(document["domain"])
    tree = tree_from_dict(document["tree"])
    leaf = CompiledLeafTable(tree, domain)
    sections = [
        (f"compiled.leaf.{name}", array) for name, array in leaf.export_arrays().items()
    ]
    info: dict = {
        "leaf": {"kind": leaf.kind, "root_count": leaf.root_count},
        "descent": None,
    }
    if isinstance(domain, (UnitInterval, IPv4Domain, DiscreteDomain)):
        descent = CompiledDescentTable(tree, domain)
        sections.extend(
            (f"compiled.descent.{name}", array)
            for name, array in descent.export_arrays().items()
        )
        info["descent"] = {"root_count": descent.root_count}
    return info, sections


# --------------------------------------------------------------------------- #
# envelope writer
# --------------------------------------------------------------------------- #
def _pack_envelope(header: dict, sections: list) -> bytes:
    manifest = []
    offset = 0
    blobs = []
    for name, array in sections:
        array = np.ascontiguousarray(array)
        dtype = array.dtype.str
        if dtype not in _ALLOWED_DTYPES:
            raise ValueError(f"section {name!r} has disallowed dtype {dtype!r}")
        padding = (-offset) % _ALIGNMENT
        offset += padding
        manifest.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": array.nbytes,
            }
        )
        blobs.append((padding, array))
        offset += array.nbytes
    header = dict(header)
    header["sections"] = manifest
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = _PREFIX.pack(MAGIC, BINARY_FORMAT_VERSION, len(header_bytes))
    parts = [prefix, header_bytes, b"\x00" * ((-(len(prefix) + len(header_bytes))) % _ALIGNMENT)]
    for padding, array in blobs:
        parts.append(b"\x00" * padding)
        parts.append(array.tobytes())
    return b"".join(parts)


def document_to_envelope_bytes(document: dict, *, verify: bool = False) -> bytes:
    """Encode a release/checkpoint JSON document as envelope bytes.

    ``verify=True`` reinflates the extracted form and insists the round trip
    is exact (``repro convert`` uses it for documents this process did not
    write itself -- e.g. a hand-edited JSON whose integer-valued counts would
    silently become floats).
    """
    if not isinstance(document, dict):
        raise ValueError(
            f"a binary envelope stores a JSON object document, got {type(document).__name__}"
        )
    sections: list = []
    markers = _extract_value(document, (), sections)
    header = {
        "format": BINARY_FORMAT_NAME,
        "version": BINARY_FORMAT_VERSION,
        "document": markers,
    }
    from repro.io.serialization import FORMAT_NAME

    if document.get("format") == FORMAT_NAME:
        info, compiled = _compile_release_sections(document)
        header["compiled"] = info
        sections.extend(compiled)
    if verify:
        lookup = dict(sections)
        reinflated = _reinflate_value(markers, lookup.__getitem__, "json")
        if json.dumps(document, sort_keys=True) != json.dumps(reinflated, sort_keys=True):
            raise ValueError(
                "document does not convert losslessly to the binary format; "
                "keep it as JSON"
            )
    return _pack_envelope(header, sections)


def save_binary(document: dict, path: str | pathlib.Path, *, verify: bool = False) -> pathlib.Path:
    """Write a release/checkpoint document as a binary envelope (atomic + fsync)."""
    from repro.io.serialization import write_bytes_atomic

    path = pathlib.Path(path)
    write_bytes_atomic(path, document_to_envelope_bytes(document, verify=verify))
    return path


# --------------------------------------------------------------------------- #
# envelope reader
# --------------------------------------------------------------------------- #
class BinaryEnvelope:
    """An opened, validated envelope: parsed header + zero-copy array access.

    ``array(name)`` returns a read-only numpy view into the file's memory
    map; nothing is copied until someone actually needs mutable state.
    """

    def __init__(self, path: pathlib.Path, buffer, header: dict, data_start: int) -> None:
        self.path = path
        self._buffer = buffer
        self.header = header
        self.data_start = data_start
        self._manifest = {entry["name"]: entry for entry in header["sections"]}

    @property
    def document(self) -> dict:
        """The marker-bearing document stored in the header."""
        return self.header["document"]

    def section_names(self) -> list[str]:
        return list(self._manifest)

    def array(self, name) -> np.ndarray:
        entry = self._manifest.get(name) if isinstance(name, str) else None
        if entry is None:
            raise ValueError(f"envelope references unknown section {name!r}")
        dtype = np.dtype(entry["dtype"])
        count = math.prod(entry["shape"])
        array = np.frombuffer(
            self._buffer, dtype=dtype, count=count, offset=self.data_start + entry["offset"]
        )
        return array.reshape(entry["shape"])


def _check_manifest(path: pathlib.Path, sections, data_start: int, file_size: int) -> None:
    if not isinstance(sections, list):
        raise ValueError(f"{path}: envelope header carries no section manifest")
    seen = set()
    for entry in sections:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: malformed section manifest entry")
        name = entry.get("name")
        if not isinstance(name, str) or name in seen:
            raise ValueError(f"{path}: duplicate or invalid section name {name!r}")
        seen.add(name)
        dtype = entry.get("dtype")
        if dtype not in _ALLOWED_DTYPES:
            raise ValueError(f"{path}: section {name!r} has disallowed dtype {dtype!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or any(
            not isinstance(side, int) or isinstance(side, bool) or side < 0 for side in shape
        ):
            raise ValueError(f"{path}: section {name!r} has an invalid shape {shape!r}")
        offset, nbytes = entry.get("offset"), entry.get("nbytes")
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (offset, nbytes)):
            raise ValueError(f"{path}: section {name!r} has invalid offset/length")
        if math.prod(shape) * np.dtype(dtype).itemsize != nbytes:
            raise ValueError(
                f"{path}: section {name!r} length {nbytes} disagrees with its "
                f"dtype/shape ({dtype}, {shape})"
            )
        if data_start + offset + nbytes > file_size:
            raise ValueError(
                f"{path}: section {name!r} extends past the end of the file "
                "(truncated or doctored manifest)"
            )


def open_envelope(path: str | pathlib.Path) -> BinaryEnvelope:
    """Open and validate a binary envelope, memory-mapping its sections.

    Every malformed input -- short file, wrong magic, future version, header
    that is not JSON, manifest/section mismatches -- raises ``ValueError``
    naming the path.  Section bytes are only ever addressed inside validated
    bounds, so a truncated file can never fault.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as handle:
        try:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # zero-byte files cannot be mapped
            buffer = b""
    size = len(buffer)
    if size < _PREFIX.size:
        raise ValueError(
            f"{path}: truncated envelope ({size} bytes is smaller than the "
            f"{_PREFIX.size}-byte prefix)"
        )
    magic, version, header_length = _PREFIX.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: not a {BINARY_FORMAT_NAME} file (bad magic bytes)")
    if version > BINARY_FORMAT_VERSION:
        raise ValueError(
            f"{path}: envelope version {version} is newer than supported "
            f"version {BINARY_FORMAT_VERSION}"
        )
    header_end = _PREFIX.size + header_length
    if header_end > size:
        raise ValueError(f"{path}: truncated envelope (header extends past the end of the file)")
    try:
        header = json.loads(bytes(buffer[_PREFIX.size:header_end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"{path}: envelope header is not valid JSON: {error}") from error
    if not isinstance(header, dict) or header.get("format") != BINARY_FORMAT_NAME:
        raise ValueError(f"{path}: envelope header is not a {BINARY_FORMAT_NAME} document")
    try:
        header_version = int(header.get("version", 0))
    except (TypeError, ValueError) as error:
        raise ValueError(f"{path}: envelope header version is not an integer") from error
    if header_version > BINARY_FORMAT_VERSION:
        raise ValueError(
            f"{path}: envelope version {header_version} is newer than supported "
            f"version {BINARY_FORMAT_VERSION}"
        )
    if not isinstance(header.get("document"), dict):
        raise ValueError(f"{path}: envelope header carries no document object")
    data_start = (header_end + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
    _check_manifest(path, header.get("sections"), data_start, size)
    return BinaryEnvelope(path, buffer, header, data_start)


def load_binary(path: str | pathlib.Path, *, mode: str = "json") -> dict:
    """Read a binary envelope back into its document.

    ``mode="json"`` reproduces the interchange JSON document exactly (array
    sections become lists) -- the lossless inverse of :func:`save_binary`.
    ``mode="arrays"`` returns writable numpy arrays in their place, which is
    what checkpoint restore feeds straight into ``np.asarray`` with no copy.
    """
    if mode not in ("json", "arrays"):
        raise ValueError(f"mode must be 'json' or 'arrays', got {mode!r}")
    path = pathlib.Path(path)
    envelope = open_envelope(path)
    try:
        return _reinflate_value(envelope.document, envelope.array, mode)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error


def convert_file(
    source: str | pathlib.Path, output: str | pathlib.Path, target: str
) -> pathlib.Path:
    """Convert a release or checkpoint file between JSON and binary.

    JSON -> binary verifies losslessness (re-inflating the envelope must
    reproduce the source document exactly); binary -> JSON writes the native
    style of the document kind (indented releases, compact checkpoints), so
    converting a file our writers produced round-trips byte-identically.
    """
    from repro.io import serialization

    source = pathlib.Path(source)
    output = pathlib.Path(output)
    if target not in ("binary", "json"):
        raise ValueError(f"conversion target must be 'binary' or 'json', got {target!r}")
    source_format = detect_format(source)
    if source_format == "binary":
        document = load_binary(source)
    else:
        try:
            document = json.loads(source.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"{source} is not valid JSON: {error}") from error
        if not isinstance(document, dict):
            raise ValueError(f"{source}: a state document must be a JSON object")
    kind = document.get("format")
    if kind not in (serialization.FORMAT_NAME, serialization.CHECKPOINT_FORMAT_NAME):
        raise ValueError(
            f"{source}: unknown document format {kind!r}; expected a "
            f"{serialization.FORMAT_NAME} release or "
            f"{serialization.CHECKPOINT_FORMAT_NAME} checkpoint"
        )
    if target == "binary":
        save_binary(document, output, verify=source_format == "json")
    elif kind == serialization.FORMAT_NAME:
        serialization.write_text_atomic(output, json.dumps(document, indent=2, sort_keys=True))
    else:
        serialization.write_text_atomic(output, json.dumps(document, sort_keys=True))
    return output


# --------------------------------------------------------------------------- #
# release fast path: envelope -> ready-to-serve Release
# --------------------------------------------------------------------------- #
def _compiled_arrays(envelope: BinaryEnvelope, prefix: str) -> dict[str, np.ndarray]:
    return {
        name[len(prefix):]: envelope.array(name)
        for name in envelope.section_names()
        if name.startswith(prefix)
    }


def _table_root_count(info: dict, what: str) -> float:
    root_count = info.get("root_count")
    if not isinstance(root_count, (int, float)) or isinstance(root_count, bool):
        raise ValueError(f"compiled {what} metadata is missing a numeric root_count")
    return float(root_count)


def _attach_engines(release, tree, domain, compiled: dict, envelope: BinaryEnvelope) -> None:
    from repro.queries.quantiles import QuantileEngine
    from repro.queries.range_queries import RangeQueryEngine

    leaf_info = compiled.get("leaf")
    if isinstance(leaf_info, dict):
        table = CompiledLeafTable.from_arrays(
            domain,
            kind=leaf_info.get("kind"),
            root_count=_table_root_count(leaf_info, "leaf table"),
            arrays=_compiled_arrays(envelope, "compiled.leaf."),
        )
        release._engines["range"] = RangeQueryEngine(tree, domain, table=table)
    descent_info = compiled.get("descent")
    if isinstance(descent_info, dict):
        table = CompiledDescentTable.from_arrays(
            domain,
            root_count=_table_root_count(descent_info, "descent table"),
            arrays=_compiled_arrays(envelope, "compiled.descent."),
        )
        release._engines["quantile"] = QuantileEngine(tree, domain, table=table)


def load_release_binary(path: str | pathlib.Path, sampling_seed: int | None = None):
    """Load a release envelope with mmap-backed query engines.

    The compiled leaf/descent sections become ready engines without any
    parse-then-recompile step, and the tree's level arrays are decoded from
    their sections with numpy, so opening a release costs a few array
    passes and no per-node Python work.  Answers are byte-identical to the
    JSON path (pinned in ``tests/test_binary_io.py``).
    """
    from repro.api.release import Release
    from repro.core.sampler import SyntheticDataGenerator
    from repro.io.serialization import FORMAT_NAME, FORMAT_VERSION, domain_from_dict, tree_from_dict

    path = pathlib.Path(path)
    envelope = open_envelope(path)
    try:
        document = envelope.document
        if document.get("format") != FORMAT_NAME:
            raise ValueError(
                f"not a {FORMAT_NAME} envelope (found {document.get('format')!r}); "
                "checkpoints load through repro.io.serialization.load_checkpoint"
            )
        try:
            version = int(document.get("version", 0))
        except (TypeError, ValueError) as error:
            raise ValueError("document version is not an integer") from error
        if version > FORMAT_VERSION:
            raise ValueError(
                f"document version {version} is newer than supported version {FORMAT_VERSION}"
            )
        if not isinstance(document.get("domain"), dict):
            raise ValueError(f"a {FORMAT_NAME} document requires a 'domain' object")
        domain = domain_from_dict(document["domain"])
        tree_value = document.get("tree")
        if isinstance(tree_value, dict) and set(tree_value) == {_TREE_KEY}:
            tree = _tree_from_sections(tree_value[_TREE_KEY], envelope.array)
        elif isinstance(tree_value, dict):
            tree = tree_from_dict(_reinflate_value(tree_value, envelope.array, "json"))
        else:
            raise ValueError(f"a {FORMAT_NAME} document requires a 'tree' object")
        generator = SyntheticDataGenerator(tree, domain, rng=sampling_seed)
        metadata = _reinflate_value(document.get("metadata", {}), envelope.array, "json")
        release = Release._from_parts(generator, metadata if isinstance(metadata, dict) else {})
        compiled = envelope.header.get("compiled")
        if isinstance(compiled, dict):
            _attach_engines(release, tree, domain, compiled, envelope)
        return release
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
