"""Record the certify oracle: `verify all` constants and artifact digests per config.

Run from the repository root with ``python3 perfbench/record_reference.py``.
It rewrites perfbench/reference.json; do that only at a commit whose
numbers are the accepted baseline, because every later run is checked
against it.
"""

from __future__ import annotations

import json
import shutil
import sys

import bootstrap

if not bootstrap.prepare():
    sys.exit("error: no magcone sources under src/")

import workloads  # noqa: E402  (after the thread pinning)


def main() -> int:
    scratch = bootstrap.ROOT / ".perfbench_tmp" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    configs = {}
    try:
        for i, cfg in enumerate(workloads.CONFIGS):
            out_dir = scratch / f"verify-{i}"
            config = workloads.write_config(scratch / f"cone-{i}.cfg", cfg)
            rc = workloads.run_verify(config, out_dir, "all")
            if rc != 0:
                print(f"verify all failed on {cfg} (exit {rc})", file=sys.stderr)
                return 1
            constants, digests, _ = workloads.read_artifacts(out_dir)
            configs[workloads.config_key(cfg)] = {"empirical_constant": constants, "sha256": digests}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {"provenance": bootstrap.provenance(), "configs": configs}
    workloads.REFERENCE_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
