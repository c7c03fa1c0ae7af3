"""Golden CSV digests: small fixed-seed runs of every subcommand and set
family must write byte-identical CSV.

The digests pin the sampled draws and the arithmetic behind each table.
A change that alters draws (a new sampler, another substream layout) or
rounding must update DIGESTS and say why in CHANGES.md.  To print the
current digests, run

    PYTHONPATH=src python tests/test_golden_csv.py
"""
import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest

from supcompare import cli
from supcompare import index_sets as isets

# an explicit set with repeated rows, which the generic kernels run over
EXPLICIT_POINTS = np.vstack([np.eye(3), -np.eye(3)[:2], np.eye(3)[1:],
                             [[0.5, -0.25, 0.75]]])

CONFIGS = {
    "estimate-basis-canonical": [
        "estimate", "set=basis:n=8", "distribution=gaussian",
        "replicates=2500", "seed=1"],
    "estimate-basis-signed": [
        "estimate", "set=basis:n=6,mode=signed", "distribution=laplace",
        "replicates=1500", "seed=2"],
    "estimate-basis-negative-scaled": [
        "estimate", "set=basis:n=5,mode=negative-scaled,theta=1.5",
        "distribution=uniform", "replicates=1200", "seed=3"],
    "estimate-diagcube-beta": [
        "estimate", "set=diagcube:n=8,alpha=0.25", "distribution=rademacher",
        "replicates=1100", "seed=4", "beta=2.0"],
    "estimate-spin-quadratic-auto": [
        "estimate", "set=spin-quadratic:N=6", "distribution=gaussian",
        "replicates=800", "seed=5", "beta=auto"],
    "estimate-spin-tensor": [
        "estimate", "set=spin-tensor:N=5,m=3,normalized=1",
        "distribution=uniform", "replicates=500", "seed=6"],
    "estimate-spin-tensor-even": [
        "estimate", "set=spin-tensor:N=6,m=4", "distribution=laplace",
        "replicates=700", "seed=13"],
    "estimate-big-dim": [
        "estimate", "set=diagcube:n=10001,k=3", "distribution=gaussian",
        "replicates=200", "seed=7"],
    "estimate-big-dim-beta": [
        "estimate", "set=diagcube:n=10001,k=2", "distribution=gaussian",
        "replicates=150", "seed=1", "beta=2"],
    "estimate-explicit-duplicates": [
        "estimate", "set=explicit:path={explicit}", "distribution=laplace",
        "replicates=900", "seed=8", "beta=0.7"],
    "bounds-diagcube": [
        "bounds", "set=diagcube:n=6", "distribution=uniform",
        "replicates=600", "seed=9"],
    "bounds-diagcube-paired": [
        "bounds", "set=diagcube:n=6", "distribution=uniform",
        "replicates=600", "seed=9", "paired=1"],
    "bounds-basis-signed-paired": [
        "bounds", "set=basis:n=6,mode=signed",
        "distribution=laplace-normalized", "replicates=500", "seed=10",
        "paired=1"],
    "bounds-big-dim-paired": [
        "bounds", "set=diagcube:n=10001,k=2", "distribution=rademacher",
        "replicates=150", "seed=11", "paired=1"],
    "bounds-spin-tensor-even-paired": [
        "bounds", "set=spin-tensor:N=6,m=4,normalized=1",
        "distribution=uniform", "replicates=600", "seed=14", "paired=1"],
    "bounds-basis-rademacher": [
        "bounds", "set=basis:n=8", "distribution=rademacher",
        "replicates=600", "seed=22"],
    "sudakov-basis": [
        "sudakov", "set=basis:n=12", "replicates=300", "seed=12"],
    "sudakov-diagcube": [
        "sudakov", "set=diagcube:n=5,alpha=0.5", "replicates=300",
        "seed=13"],
    "sudakov-explicit": [
        "sudakov", "set=explicit:path={explicit}", "seed=14"],
    "laplace": [
        "laplace", "n_list=4,16,64", "replicates=1100", "seed=15"],
    "sk": [
        "sk", "N_list=4,6", "distribution=uniform", "replicates=600",
        "seed=16"],
    "sk-rademacher": [
        "sk", "N_list=4,6", "distribution=rademacher", "replicates=300",
        "seed=17"],
    "tensor": [
        "tensor", "N=4", "m=3", "distribution=uniform", "replicates=300",
        "seed=18"],
    "phase-curves": [
        "phase-curves", "set=diagcube:n=16,alpha=0.25,k=4"],
    "verify-softmax": ["verify", "softmax", "seed=19"],
    "verify-stein": ["verify", "stein", "seed=20"],
    "verify-gibbs": ["verify", "gibbs", "seed=21"],
}

DIGESTS = {
    "estimate-basis-canonical":
        "171eda8a69e3b87f26015433f13e1d8dda542acfc20f2564a9038d602e70f78f",
    "estimate-basis-signed":
        "accee6799e18d13a57a7f6f6d76578d59e4abb3f2a5235767524e40b58f3107a",
    "estimate-basis-negative-scaled":
        "2cc2e123a1ba6da64dfcbeefa7b261f1556e402cbb88a0a764dc33eaac11921c",
    "estimate-diagcube-beta":
        "fddf9ab8528200bb3c9f670e8b25f3758b14c6b6c67dd94d2484d371823918a2",
    "estimate-spin-quadratic-auto":
        "77ae506c4965eb9439840961255cb4e76aae68321da21f7dc9c0a5e521909aee",
    "estimate-spin-tensor":
        "aec584ef7bece7531e0a81e47414f56aa800bd2991e332e9f13e577d9242aa8c",
    "estimate-spin-tensor-even":
        "6ad8651a784940008bd7fe8c22a9925dd803ca4fd27b2e9605273b7ef3bb5b65",
    "estimate-big-dim":
        "1d6e7ba12fd3bcc905172bda318618ecc78d43f59f509a404b364ec64ccac5eb",
    "estimate-big-dim-beta":
        "791d90167c228d7b2505399406a2ec4ddc797a35e50c24ec26d42451d0355da4",
    "estimate-explicit-duplicates":
        "cc2146da4cd086ab15d837af89b99103dbe73421ab643a9df1b2f2a137837554",
    "bounds-diagcube":
        "045142507d1fcd91c756de903b7493d367b3e631651168261c9c278b76f594e4",
    "bounds-diagcube-paired":
        "c9adab8f66a053442b7d81173ff7e423daa1b65fc04885ef3227841c0d3af4ee",
    "bounds-basis-signed-paired":
        "bbf3d4cfbca8578b9c16c9a8e7d7492e6b86c0d903c6521650bc389407b7d771",
    "bounds-big-dim-paired":
        "2019b10e5c7640ceea37e10126f20a59b08845f48283be2af34a8d5aca4c39e8",
    "bounds-spin-tensor-even-paired":
        "8487bc60ea86b212a5eeaf8ed3153b5199d25f79dce2f52ecc29675030cbde43",
    "bounds-basis-rademacher":
        "95dfefb58cb1735cb7c4049765cb0d9316b39a94e34e745e41ff4118a5c01a12",
    "sudakov-basis":
        "6ad7aa9e64900b0a934a60ba8d097b750d62de310ca779aff202738190e6ec70",
    "sudakov-diagcube":
        "7766c030048ff88a9001d5bd68e87017654c905d393ae36ea27a0348d6d4701a",
    "sudakov-explicit":
        "07274361c44e8b41cfc8eb32b5e410391d0bb7cf86337f573ea3ee86da21992e",
    "laplace":
        "d87d0f18f6886f22dafd5a380297144c9e3d807f8eb78756d9758802606a6cda",
    "sk":
        "2824144427bef419318663a9c2be9b6a1876bf8402bff155136de520a5b5f7ac",
    "sk-rademacher":
        "86199ee31dcc53df2e10624d570a521bd0f58ed74f8a2a6e6fd80700a56ee747",
    "tensor":
        "474f7e11980dc8d5cf65671a0fe8995cd5445edd4c474de43e9eca8ca14c7008",
    "phase-curves":
        "c6ecf69e0f1b348b0eff5a8c7c05a14140e51c908945b025d084aec915c6cc26",
    "verify-softmax":
        "8ab8b742b8bd40cdcd5491ab702b851f0677fbc6ac9bb29f5f8f2eb2a3acff2d",
    "verify-stein":
        "7f3ffe8a9667eb0eedfdccf4f6394caee00a7ac63c1be2b95853888b83e131e7",
    "verify-gibbs":
        "597b4d24af70f8e9fdb196360d07fa98533bdf581860ba255a051979bb13dd34",
}


def csv_digest(name: str, workdir: str) -> str:
    """SHA-256 of the CSV that config ``name`` writes under ``workdir``."""
    explicit = os.path.join(workdir, "explicit.csv")
    if not os.path.exists(explicit):
        isets.save_csv(isets.build_explicit(EXPLICIT_POINTS), explicit)
    out = os.path.join(workdir, name)
    argv = [tok.format(explicit=explicit) for tok in CONFIGS[name]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + [f"output_dir={out}", "format=csv"])
    if code not in (0, 2):
        raise RuntimeError(f"{name}: exit code {code}")
    (fname,) = os.listdir(out)
    with open(os.path.join(out, fname), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_is_byte_identical(name, tmp_path):
    assert csv_digest(name, str(tmp_path)) == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key in CONFIGS:
            print(f'    "{key}":\n        "{csv_digest(key, tmp)}",')
