"""Persistence for released PrivHP artefacts.

Because the released partition tree is already epsilon-differentially private,
it can be written to disk, shared and reloaded freely (post-processing).  This
package provides a stable JSON format for trees, configurations and complete
generators, which the CLI uses to separate the "summarise the sensitive
stream" step from the "generate / query synthetic data" step.
"""

from repro.io.binary import (
    convert_file,
    detect_format,
    load_binary,
    load_release_binary,
    open_envelope,
    save_binary,
)
from repro.io.checkpoint_writer import CheckpointWriter
from repro.io.serialization import (
    generator_from_dict,
    generator_to_dict,
    load_release_document,
    save_generator,
    tree_from_dict,
    tree_to_dict,
    validate_release_document,
)

__all__ = [
    "CheckpointWriter",
    "convert_file",
    "detect_format",
    "generator_from_dict",
    "generator_to_dict",
    "load_binary",
    "load_release_binary",
    "load_release_document",
    "open_envelope",
    "save_binary",
    "save_generator",
    "tree_from_dict",
    "tree_to_dict",
    "validate_release_document",
]
