"""Record the SHA-256 digests of every workload's outputs on the default seed.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests_seed7.json``, which ``run.py`` compares each
pass against on seed 7.  The committed file was recorded from the commit
that introduced the benchmark; outputs are meant to stay byte-identical,
so re-record only for a deliberate change of an output format.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    out = {}
    work = run.OUT / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workloads.DEFAULT_SEED, None)
            workload.setup(work / name / "setup")
            failures = workload.check_setup()
            ops = workload.run_pass(work / name / "pass")
            workload.check_pass(ops, work / name / "pass")
            failures += [f"{op.name}: {op.error or op.failures}" for op in ops if not op.ok]
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            out[name] = dict(sorted(workload.first_digests.items()))
            print(f"{name}: {len(out[name])} digests")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "digests_seed7.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
