"""Pure kernel library (SURVEY.md §7 step 3).

Every function here is deterministic, side-effect free and importable both by
the Ray pipeline UDFs and by the single-threaded reference-semantics oracle
(`kgray.oracle`).  The two no longer share every step: extract and assemble
run columnar code (`htmltext.parse_pages`, `stages/assemble.assemble_batch`)
that the oracle does not, so the byte-identity and P/R invariants hold by
test (`tests/test_row_boundary.py`, the P/R oracle), not by construction.
"""
