"""Record the reference seed's table digests into ``digests.json``.

    python3 perfbench/record_digests.py

Runs each workload's timed command once at ``workloads.REFERENCE_SEED``
(with its usual checks, except the digest pin itself) and writes the
SHA-256 of its table bytes.  Rerun it only when a change is meant to
alter the tables, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

from measure import child_env
from workloads import HERE, REFERENCE_SEED, WORKLOADS, digest, fresh_dir

ROOT = HERE.parent


def main() -> int:
    workdir = fresh_dir(ROOT / ".perfbench-work" / "record-digests")
    try:
        env = child_env(ROOT, fresh_dir(workdir / "tmp"))
        digests = {}
        for name, cls in WORKLOADS.items():
            workload = cls(REFERENCE_SEED, sys.executable, env)
            workload.pinned = False
            workload.prepare(fresh_dir(workdir / name))
            sample = workload.repeat(fresh_dir(workdir / name / "rep"))
            errors = workload.errors + sample.errors
            if errors:
                print(f"{name}: {errors}", file=sys.stderr)
                return 1
            digests[name] = digest(sample.tables)
            print(f"{name}: {digests[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
