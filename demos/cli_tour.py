"""Drive every CLI subcommand in-process and show the artifacts.

Each run takes flat key=value settings (or --config FILE), writes CSV/JSON
into output_dir, and is a pure function of its config: same settings, same
bytes.  Exit code 0 = all checks passed, 2 = a check failed, 1 = bad usage.
The tour itself exits nonzero if any run does, or if the rerun differs.
"""
import pathlib
import sys
import tempfile

from supcompare import cli

out = pathlib.Path(tempfile.mkdtemp(prefix="supcompare-demo-"))
runs = [
    ["estimate", "set=basis:n=6", "distribution=rademacher", "beta=auto",
     "replicates=5000", "seed=42"],
    ["bounds", "set=diagcube:n=8,alpha=0.3", "distribution=uniform",
     "replicates=5000", "seed=42"],
    ["sudakov", "set=basis:n=8,mode=signed", "seed=42"],
    ["laplace", "n_list=16,64,256,1024", "replicates=5000", "seed=42"],
    ["sk", "N_list=4,6,8", "replicates=5000", "seed=42"],
    ["tensor", "N=6", "m=3", "replicates=5000", "seed=42"],
    ["phase-curves", "set=diagcube:n=16,alpha=0.25,k=4"],
    ["verify", "softmax", "seed=1"],
]

failed = []
for argv in runs:
    print(f"$ supcompare {' '.join(argv)}")
    code = cli.main(argv + [f"output_dir={out}", "format=csv"])
    print(f"  -> exit {code}")
    print()
    if code != 0:
        failed.append(argv[0])

print("artifacts written:")
for p in sorted(out.glob("*")):
    head = p.read_text().splitlines()[0]
    print(f"  {p.name:22s} first line: {head[:60]}")

print()
print("rerunning the first command reproduces the file byte for byte:")
body_a = (out / "estimate.csv").read_bytes()
rerun = pathlib.Path(tempfile.mkdtemp(prefix="supcompare-demo-"))
code = cli.main(runs[0] + [f"output_dir={rerun}", "format=csv"])
body_b = (rerun / "estimate.csv").read_bytes()
print(f"  identical: {body_a == body_b}")
if code != 0 or body_a != body_b:
    failed.append("rerun")
if failed:
    sys.exit(f"failed: {', '.join(failed)}")
