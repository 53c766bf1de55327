"""Ray Data stages: each is a named, composable ``Dataset -> Dataset``
function (SURVEY.md §2.10 extension surface)."""

from .extract import extract_stage
from .link import link_stage
from .assemble import assemble_stage
from .canonicalize import canonicalize_stage
from .diff import diff_snapshots
from .joins import broadcast_join, equi_join
from .materialize import materialize_stage
from .serialize import console_sink, serialize_stage
from .shuffle import bucket_groupby
from .ttl import parse_ttl_stage

__all__ = [
    "extract_stage",
    "link_stage",
    "assemble_stage",
    "canonicalize_stage",
    "diff_snapshots",
    "broadcast_join",
    "equi_join",
    "materialize_stage",
    "serialize_stage",
    "console_sink",
    "bucket_groupby",
    "parse_ttl_stage",
]
