"""The `ray job submit` entrypoint (scripts/ray_job.py): same partitioned
flagship run + resume semantics, exercised through the job driver's own
main() under the shared session (main() never re-inits a live session)."""

from __future__ import annotations

import json
import os
import sys


def _load_main():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "ray_job.py")
    spec = importlib.util.spec_from_file_location("kgray_ray_job", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ray_job_entrypoint_runs_and_resumes(ray_session, small_corpus,
                                             tmp_path, capsys):
    mod = _load_main()
    out = str(tmp_path / "job_out")
    glob_pat = small_corpus[0].rsplit("/", 1)[0] + "/*.parquet"

    rc = mod.main(["--input", glob_pat, "--out", out,
                   "--shards-per-partition", "2"])
    assert rc == 0
    s1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s1["partitions"] == 2 and s1["resumed"] == 0
    assert s1["rows"] > 0 and s1["docs"] == 120
    assert s1["triples_per_doc"] > 0
    assert s1["link"]["mention_blocks"] > 0

    # second submit with the same --out: every partition resumes, rows equal
    rc = mod.main(["--input", glob_pat, "--out", out,
                   "--shards-per-partition", "2"])
    assert rc == 0
    s2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s2["resumed"] == s2["partitions"] == 2
    assert s2["rows"] == s1["rows"]
    assert s2["docs_per_sec"] is None  # nothing recomputed, no rate

    # drop one partition's manifest: only that partition recomputes, and
    # the rate covers its docs and wall time alone
    os.remove(os.path.join(out, "part-0001", "_manifest.json"))
    rc = mod.main(["--input", glob_pat, "--out", out,
                   "--shards-per-partition", "2"])
    assert rc == 0
    s3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s3["resumed"] == 1 and s3["rows"] == s1["rows"]
    with open(os.path.join(out, "part-0001", "_manifest.json")) as f:
        m = json.load(f)
    assert s3["docs_per_sec"] == round(
        m["metrics"]["docs"] / m["write_sec"], 2)


def test_ray_job_bad_glob_exits_nonzero(ray_session, tmp_path, capsys):
    mod = _load_main()
    rc = mod.main(["--input", str(tmp_path / "nope" / "*.parquet"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in json.loads(capsys.readouterr().out.strip())
