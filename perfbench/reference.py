"""Reference training losses the benchmark compares every run against.

For each workload and regime, `run_regime` trains the workload's geometry
for a few epochs of one small batch each, on data and weights from a fixed seed
(not the workload seed). The final train loss must match the recorded
value within `RTOL`: loose enough for a change of summation order, far
too tight for a wrong gradient.

Record the references again (only when the training maths is meant to
change) with:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_EPOCHS = 3
REFERENCE_ROWS = 8  # one small batch keeps the check cheap on every geometry
RTOL = 1e-6


def reference_run(w, regime: str):
    """Train the reference configuration; returns (report, artifacts, data)."""
    from prunelora import data, training
    from workloads import task_spec, train_config, model_config

    spec = task_spec(w, REFERENCE_SEED, train_size=REFERENCE_ROWS, eval_size=8)
    train, eval_ = data.generate(spec)
    report, artifacts = training.run_regime(
        model_config(w),
        train_config(w, regime, REFERENCE_EPOCHS, REFERENCE_SEED),
        train, eval_, log=None,
    )
    return report, artifacts, train


def main() -> int:
    from checks import REFERENCE_PATH
    from workloads import REGIMES, WORKLOADS

    losses = {}
    for name, w in WORKLOADS.items():
        losses[name] = {}
        for regime in REGIMES:
            report, _, _ = reference_run(w, regime)
            losses[name][regime] = report.train_loss[-1]
            print(f"{name} {regime} {report.train_loss[-1]!r}", flush=True)
    payload = {"seed": REFERENCE_SEED, "epochs": REFERENCE_EPOCHS,
               "rtol": RTOL, "final_train_loss": losses}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    import run  # pins BLAS threads and puts src/ on the import path

    run.import_package()
    sys.exit(main())
