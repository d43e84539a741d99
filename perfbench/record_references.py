#!/usr/bin/env python3
"""Record the outputs every workload is checked against.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/record_references.py

Runs enough tasks of each workload to produce every named output once and
writes them to ``perfbench/references.json``. The committed file was
recorded on the commit that added the benchmark; a later change must match
it, not re-record it.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

from harness import HERE, REFERENCES_PATH
from workloads import WORKLOADS


def record(workload, tasks: int) -> dict:
    outputs = {}
    for i in range(tasks):
        out, problems = workload.outputs(i, workload.run(i))
        if problems:
            raise SystemExit("%s task %d: %s" % (workload.name, i, problems))
        outputs.update(out)
    return dict(sorted(outputs.items()))


def main() -> None:
    references = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=HERE.parent) as workdir:
        for name, cls in WORKLOADS.items():
            workload = cls(0, Path(workdir))
            tasks = workload.tasks_per_round
            if name == "design_certify":
                tasks = math.ceil(cls.pool_size / cls.targets_per_task)
            references[name] = record(workload, tasks)
    with open(REFERENCES_PATH, "w") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
