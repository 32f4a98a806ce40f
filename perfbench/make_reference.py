"""Regenerate reference.json: each workload's experiments run in process at
the reference seed, at both scales.

    python3 perfbench/make_reference.py

Served experiments are recorded from their in-process runs, so they are held
to in-process results. Rerun this only when a change is
meant to alter results, and say so where the change is described.
"""

import json
import os
import shutil
import tempfile

import worker  # sets up the import path of the checkout's promptuq
from promptuq import experiment_config_from_dict, run_experiment

import checks
import workloads


def main() -> None:
    reference = {"reference_seed": workloads.REFERENCE_SEED}
    tmp = tempfile.mkdtemp(dir=os.path.dirname(worker.REFERENCE_PATH))
    try:
        for scale in workloads.SCALES:
            reference[scale] = {}
            for name in workloads.WORKLOADS:
                block = reference[scale][name] = {}
                for exp in workloads.build(name, scale).experiments:
                    payload = workloads.in_process_payload(exp, workloads.REFERENCE_SEED)
                    report = run_experiment(experiment_config_from_dict(payload),
                                            os.path.join(tmp, f"{scale}_{name}_{exp.label}"))
                    block[exp.label] = checks.outcome(report.summary)
                    print(scale, name, exp.label, block[exp.label], flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(worker.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
