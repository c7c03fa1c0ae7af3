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
    "estimate-spin-quadratic-cv": [
        "estimate", "set=spin-quadratic:N=8", "distribution=uniform",
        "replicates=2048", "seed=23"],
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
    "sk-cv": [
        "sk", "N_list=8", "distribution=uniform", "replicates=2048",
        "seed=24"],
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
        "ce9d176bd3a5282b67c91c64c6c1db692dcf86259ee401a0cfe81a83cf761ae4",
    "estimate-basis-signed":
        "accee6799e18d13a57a7f6f6d76578d59e4abb3f2a5235767524e40b58f3107a",
    "estimate-basis-negative-scaled":
        "2cc2e123a1ba6da64dfcbeefa7b261f1556e402cbb88a0a764dc33eaac11921c",
    "estimate-diagcube-beta":
        "fddf9ab8528200bb3c9f670e8b25f3758b14c6b6c67dd94d2484d371823918a2",
    "estimate-spin-quadratic-auto":
        "77ae506c4965eb9439840961255cb4e76aae68321da21f7dc9c0a5e521909aee",
    "estimate-spin-quadratic-cv":
        "872ae26890608a1a104341685bba9396de188bd566bdebc318acacc9315a164a",
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
        "3a70de26ae065c8425f92ad62b2be9cc8636a83d14106edad8de57694cccbf4a",
    "bounds-diagcube-paired":
        "3a70de26ae065c8425f92ad62b2be9cc8636a83d14106edad8de57694cccbf4a",
    "bounds-basis-signed-paired":
        "02aaf879b545f1e060bd2c2cad35a743c8853d10cceb3eb8d7d1eaa699c6ee08",
    "bounds-big-dim-paired":
        "d21382d2d52bc67e20bd873eb01573e11d0328cec3a8b231fbf69750d4f65dd4",
    "bounds-spin-tensor-even-paired":
        "748bfad3c7478b297d9ba8d747b4d6f59f9544a9eb8142fa0a0d8e131b3018e4",
    "bounds-basis-rademacher":
        "6b621ae6796c2838488294ce13941d831a19c804fe0f9888d2134f82ab3e2063",
    "sudakov-basis":
        "6ad7aa9e64900b0a934a60ba8d097b750d62de310ca779aff202738190e6ec70",
    "sudakov-diagcube":
        "7766c030048ff88a9001d5bd68e87017654c905d393ae36ea27a0348d6d4701a",
    "sudakov-explicit":
        "07274361c44e8b41cfc8eb32b5e410391d0bb7cf86337f573ea3ee86da21992e",
    "laplace":
        "d6b77019522ed9d976115bc83ea00d45a82f784b08633b08c98bdca7eaa23cb6",
    "sk":
        "aa8c91546508ca76c09a4d02965609745d2b75c869002e55188bc9c9d261bfc2",
    "sk-cv":
        "d90261b3e6a99c22be25b35b9f5a8cad320a5aab40b46543bef886f8a740d4d3",
    "sk-rademacher":
        "c79751b8fe040ccfd8f29bb987dcaed7bef4b61adb8ec9fe706949716734a9c7",
    "tensor":
        "21b9487c8e3cd3727fbc01acfdf9dbba3d12f4f5968214fc6364d9719b66b4ca",
    "phase-curves":
        "c6ecf69e0f1b348b0eff5a8c7c05a14140e51c908945b025d084aec915c6cc26",
    "verify-softmax":
        "8ab8b742b8bd40cdcd5491ab702b851f0677fbc6ac9bb29f5f8f2eb2a3acff2d",
    "verify-stein":
        "85917244195f41f36cc85f425e0a598f7d627db6db57c007b6a9c7a26f7c77f4",
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
