"""Presentation views over the canonical ops (SURVEY.md A1 rendering).

The reference renders per-entity "changes for entity: X ..." blocks
(get_updates.py:517-572) and writes one change log merged newest-first
(get_updates.py:1171-1176, sample_result.txt).  The engine keeps commands
structured end-to-end and derives both presentations as final projections:

* ``kg_blocks``    — one row per source page: header + its commands joined
                     newest-first-sortable (entity/rev in the header like
                     the golden file), via the bucket exchange so rendering
                     stays one Arrow pass per bucket, not a Python call per
                     page.
* ``kg_changelog`` — one row per command with provenance (warc_ts, entity,
                     op), globally sorted newest-first (O1 sort shuffle) —
                     the write_to_file ordering as a streaming Dataset.

Both restate cleanly in SQL (string_agg / ORDER BY over the shared raw-ops
table), so the driver's hash compare covers the rendering too.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.serialize import serialize_batch

# The src_url format: entity, old and new revision of a page's diff URL.
ENTITY_PAT = r"^.*/wiki/(Q\d+)\?.*$"
REV_PAT = r"^.*rev=(\d+)$"
OLD_PAT = r"^.*old=(\d+)&.*$"


def _command_rows(b: pa.Table) -> pa.Table:
    """ops batch -> (entity, old_rev, rev, src_url, warc_ts_us, op, command)."""
    cmds = serialize_batch(b)["command"]
    return pa.Table.from_pydict(
        {
            "entity": pc.replace_substring_regex(
                b["src_url"], pattern=ENTITY_PAT, replacement=r"\1"),
            "old_rev": pc.cast(pc.replace_substring_regex(
                b["src_url"], pattern=OLD_PAT, replacement=r"\1"), pa.int64()),
            "rev": pc.cast(pc.replace_substring_regex(
                b["src_url"], pattern=REV_PAT, replacement=r"\1"), pa.int64()),
            "src_url": b["src_url"],
            "warc_ts_us": pc.cast(b["warc_ts"], pa.int64()),
            "op": b["op"],
            "command": cmds,
        }
    )


def kg_blocks(ops):
    """canonical ops Dataset -> per-page block rows
    (entity, old_rev, rev, warc_ts_us, n_commands, block).

    The header matches the reference's golden block contract —
    ``changes for entity: {X} between old_revid: {old} and new_revid: {new}``
    (sparql_updates.py:443, every block of sample_result.txt)."""
    from ..stages.shuffle import bucket_groupby

    cmds = ops.map_batches(_command_rows, batch_format="pyarrow")

    def render(t: pa.Table) -> pa.Table:
        """Arrow-native per-page render (VERDICT r3 #6): one hash group_by
        with list-agg over the command-sorted rows, header + body built with
        vectorized binary joins — no to_pylist, no Python boundary loop."""
        t = t.sort_by([("src_url", "ascending"), ("command", "ascending")])
        g = (
            t.group_by(["src_url"], use_threads=False)
            .aggregate([
                ("entity", "first"), ("old_rev", "first"), ("rev", "first"),
                ("warc_ts_us", "first"), ("command", "count"),
                ("command", "list"),
            ])
        )
        header = pc.binary_join_element_wise(
            "changes for entity: ", g["entity_first"],
            " between old_revid: ", pc.cast(g["old_rev_first"], pa.string()),
            " and new_revid: ", pc.cast(g["rev_first"], pa.string()), "")
        block = pc.binary_join_element_wise(
            header, "\n\n", pc.binary_join(g["command_list"], "\n"), "")
        return pa.Table.from_pydict(
            {
                "entity": g["entity_first"],
                "old_rev": g["old_rev_first"],
                "rev": g["rev_first"],
                "warc_ts_us": g["warc_ts_us_first"],
                "n_commands": pc.cast(g["command_count"], pa.int64()),
                "block": pc.cast(block, pa.string()),
            }
        )

    return bucket_groupby(cmds, keys=["src_url"], fn=render)


def kg_changelog(ops):
    """canonical ops Dataset -> newest-first command log
    (warc_ts_us, entity, op, command)."""
    cmds = ops.map_batches(_command_rows, batch_format="pyarrow")
    log = cmds.drop_columns(["src_url", "rev", "old_rev"])
    return log.sort(["warc_ts_us", "command"], descending=[True, False])
