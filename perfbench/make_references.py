"""Records the references that output checks compare estimates against.

usage: PYTHONPATH=src python3 perfbench/make_references.py

Runs each workload's estimating op at REPLICATE_FACTOR times its replicate
count and writes every checked estimate with its standard error to
references.json.  Rerun only when a workload's configs change; the
references are expected values, so a later commit whose sampler draws
differently must still match them within standard errors.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import supcompare  # noqa: E402
from supcompare import cli  # noqa: E402

import workloads  # noqa: E402

REPLICATE_FACTOR = 16
SEED = 20231214


def scaled(tokens) -> list:
    out = []
    for tok in tokens:
        if tok.startswith("replicates="):
            tok = f"replicates={int(tok.split('=', 1)[1]) * REPLICATE_FACTOR}"
        out.append(tok)
    return out


def main() -> int:
    values = {}
    with tempfile.TemporaryDirectory() as outdir:
        for name, workload in workloads.WORKLOADS.items():
            if name == "heavy_tail":  # exact quadrature references
                continue
            config = cli.parse_config(scaled(workload.ops[0]) + [
                f"seed={SEED}", f"output_dir={outdir}", "format=csv"])
            record = cli.run(config)
            values[name] = {k: list(v) for k, v in
                            workloads.estimates(name, 0, record).items()}
            print(name, values[name], flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, text=True,
                            capture_output=True).stdout.strip()
    doc = {"commit": commit, "supcompare": supcompare.__version__,
           "seed": SEED, "replicate_factor": REPLICATE_FACTOR, "values": values}
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
