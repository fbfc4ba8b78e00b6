"""`magcone verify all` on the three reference configs, byte for byte against recorded digests.

tests/data/verify_all_sha256.json holds the sha256 of every file `verify all`
writes at the default grids and seed, per reference config.  The artifacts
depend on the BLAS thread count (README), so the run pins one BLAS and one
OpenMP thread, in a fresh interpreter that runs the three configs in turn.
A change that moves digits rewrites the file with

    PYTHONPATH=src python tests/test_verify_digests.py

which prints each config/file whose digest it rewrites, with the first 16
hex digits before and after, for the change to list in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import magcone

DIGESTS = Path(__file__).resolve().parent / "data" / "verify_all_sha256.json"
SOURCE = Path(magcone.__file__).resolve().parent.parent

_RUN = """
import contextlib, io, sys
from pathlib import Path
from magcone import cli
from magcone.verify import REFERENCE_CONFIGS

for cfg in REFERENCE_CONFIGS:
    out = Path(sys.argv[1]) / f"sigma={cfg.sigma:g},alpha={cfg.alpha:g},b0={cfg.b0:g}"
    out.mkdir(parents=True)
    (out / "cone.cfg").write_text(f"sigma = {cfg.sigma!r}\\nalpha = {cfg.alpha!r}\\nb0 = {cfg.b0!r}\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(out / "cone.cfg"), "--out", str(out / "out"), "verify", "all"])
    if code != cli.EXIT_OK:
        sys.exit(f"verify all exited {code} on {out.name}")
"""


def verify_all_digests(root: Path) -> dict:
    """{config: {file name: sha256}} of `verify all` on each reference config, run under root."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _RUN, str(root)], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    return {run.name: {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in sorted((run / "out").iterdir())}
            for run in sorted(root.iterdir())}


def test_verify_all_is_byte_identical_to_the_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = verify_all_digests(tmp_path)
    changed = sorted(f"{cfg}/{name}"
                     for cfg in recorded.keys() | got.keys()
                     for name in recorded.get(cfg, {}).keys() | got.get(cfg, {}).keys()
                     if recorded.get(cfg, {}).get(name) != got.get(cfg, {}).get(name))
    assert not changed, f"{len(changed)} verify all files differ from {DIGESTS.name}: {changed}"
    assert sum(map(len, got.values())) == 69


if __name__ == "__main__":
    import tempfile

    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as scratch:
        got = verify_all_digests(Path(scratch))
    for cfg in sorted(recorded.keys() | got.keys()):
        for name in sorted(recorded.get(cfg, {}).keys() | got.get(cfg, {}).keys()):
            before, after = recorded.get(cfg, {}).get(name, "-"), got.get(cfg, {}).get(name, "-")
            if before != after:
                print(f"{cfg}/{name}: {before[:16]} -> {after[:16]}")
    DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
