"""CLI bytes: each command's exit code, stdout, stderr and written files hash to a recorded digest.

The digests pin the byte-for-byte output of the commands on the four oracles (and of `pipeline`
and `reconstruct` on two-line and conic at N = 1001 and 4096), of `green`
on a flat, a graph and an implicit patch (a z2^2 term, so the sub-patches take Newton), the
implicit one also off-centre, on a denser implicit Phi (z1 z2, z1^2 z2 and z1^3 terms) off-centre,
and of `genus` on the disc and the annulus.  A change that
means to alter an output records the new digest and says why in CHANGES.md.

`green-flat` and `green-graph` share one digest.  For Phi = z2 + c z1^2 the kernel reduces
to 1/(z1' - z1) in exact arithmetic and the form density is 1, so the graph values are the
flat ones up to rounding.  At the pinned targets they agree bit for bit for the pinned c and
for 9 of 12 values of c tried (the other 3 differ by one ulp), so the graph case pins no
bytes beyond the flat one; the implicit cases carry the curved kernel.

Regenerate the table with `PYTHONPATH=src python tests/test_cli_bytes.py DIR`, which runs
every case in the empty directory DIR and prints the digests.  With `--compare OLD_SRC` it
instead runs every case on this tree's `src` and on the `src` tree OLD_SRC, each in its own
subdirectory of DIR on the input files this tree writes, and prints a table: per case,
whether the exit codes, stderr and the counts of numbers in stdout and the written files
are equal, and the largest absolute difference between those numbers.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from test_cli import run_cli

ORACLES = {"interior-line": "line.json", "exterior-line": "ext.json",
           "two-line": "twoline.json", "conic": "conic.json"}
SIZED = {(name, n): f"{f[:-5]}-{n}.json" for name, f in ORACLES.items()
         if name in ("two-line", "conic") for n in (1001, 4096)}      # odd N and many samples
INPUTS = {"phi-flat.json": [[[0.0, 0.0], [1.0, 0.0]]],
          "phi-graph.json": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
                             [[-0.5, 0.2], [0.0, 0.0]]],
          "phi-implicit.json": [[[0.0, 0.0], [1.0, 0.0], [0.3, 0.1]],
                                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                [[-0.35, 0.05], [0.0, 0.0], [0.0, 0.0]]],
          "phi-implicit-dense.json": [[[0.0, 0.0], [1.0, 0.0], [0.3, 0.1]],
                                      [[0.0, 0.0], [0.2, 0.0], [0.0, 0.0]],
                                      [[-0.35, 0.05], [0.1, 0.0], [0.0, 0.0]],
                                      [[0.05, 0.0], [0.0, 0.0], [0.0, 0.0]]],
          "targets.json": {"q_star": [0.2, 0.1], "points": [[0.5, 0.0], [-0.3, 0.2]]}}


def _cases():
    """(name, argv, files the command writes) for every pinned run."""
    for name, f in ORACLES.items():
        stem = f[:-5]
        yield f"make-oracle-{stem}", ["make-oracle", "--name", name, "--out", f], [f]
        yield f"indicators-{stem}", ["indicators", "--boundary", f], []
        yield f"fit-infinity-{stem}", ["fit-infinity", "--boundary", f], []
        yield (f"pipeline-{stem}", ["pipeline", "--boundary", f, "--out", f"{stem}.pipe.json"],
               [f"{stem}.pipe.json", f"{stem}.pipe.cloud.json"])
        yield (f"pipeline-csv-{stem}", ["pipeline", "--boundary", f, "--csv", "--out",
                                        f"{stem}.pipe.json"], [f"{stem}.pipe.cloud.csv"])
        yield f"reconstruct-{stem}", ["reconstruct", "--boundary", f, "--angles", "4"], []
        yield f"shock-verify-{stem}", ["shock-verify", "--boundary", f], []
    for f in SIZED.values():
        stem = f[:-5]
        yield (f"pipeline-{stem}", ["pipeline", "--boundary", f, "--out", f"{stem}.pipe.json"],
               [f"{stem}.pipe.json", f"{stem}.pipe.cloud.json"])
        yield f"reconstruct-{stem}", ["reconstruct", "--boundary", f, "--angles", "4"], []
    for phi in ("flat", "graph", "implicit"):
        yield f"green-{phi}", ["green", "--phi", f"phi-{phi}.json", "--targets", "targets.json"], []
    yield ("green-implicit-off-centre", ["green", "--phi", "phi-implicit.json", "--targets",
                                         "targets.json", "--patch", "0.3-0.2j,1.3"], [])
    yield ("green-implicit-dense", ["green", "--phi", "phi-implicit-dense.json", "--targets",
                                    "targets.json", "--patch", "0.1-0.05j,0.8"], [])
    for model in ("disc", "annulus"):
        yield f"genus-{model}", ["genus", "--model", model, "--omega", "zdz"], []


CASES = list(_cases())

DIGESTS = {
    "make-oracle-line": "245d12c4b61be2a4abcc31dc67e04a37ace09a641b5a06ea2fa4692ad17ae49d",
    "indicators-line": "4ce1a3f131136f5a376c4bfd66e553df27b48bdd3d00a01546e5540f006184fd",
    "fit-infinity-line": "c58d7025007da8a1fd2e8e8c5f63f12666bcabf80a9f02b21af330cb9783eb36",
    "pipeline-line": "663aad9a6072890bfa93eab8b02c6385adb2d77d2cf5fae99fe0e7f7fafd52b6",
    "pipeline-csv-line": "72f360b5a64e7abf6521239bd196319451f8c2a4b860e94afd047ceb815dd5d0",
    "reconstruct-line": "9c2b4a68ebbaa69b72e19ee8e48439f7457e81a4b300aa230e422928441ddb11",
    "shock-verify-line": "c9bb2bf417af2ba8c2601e2b77484b329ba37c4fc68871e437562fcaaa7b6e4a",
    "make-oracle-ext": "e1fa9f0044b336e77c21791765567f479550a8dd5d0017a9e4b55e158b8f3d2c",
    "indicators-ext": "3d428193409b21746adf936f5f8e79ee5f1ea0f1f3d7deea1311333f6f5f8020",
    "fit-infinity-ext": "87e1cf8a4c9eb308221217cee972dc5bbd67fad06d8ee0411cc7870bfcc052ea",
    "pipeline-ext": "f2aec10b1d06949e7ae8a08db0896de21a96604d965d3185b02ee16d20ba9b4e",
    "pipeline-csv-ext": "a13958f652e5a0ee3792b3f3e744ce332f02d2f9124f6910b0565c57c44db392",
    "reconstruct-ext": "757bac39d521ffe5a8bc6a901a36c5b6ce85af0f9d2d254612672bf3ebcf029c",
    "shock-verify-ext": "dbe48258217fba224e20d3313b8a8bb1aee8ed5d704007c06aa391579a827ab9",
    "make-oracle-twoline": "9481ef5fad38ea16ec9734f7fd574126f07b5a1e203393c9b4f0f19236cbabe5",
    "indicators-twoline": "51149b4a76d79a19831aa04b08b51a4f770a799351860b8a1411cc40e4ea5d21",
    "fit-infinity-twoline": "eb00310ba5a6b3e5380ea379c6470c7d9d3a54e6aa8e436824d03ae7ab487371",
    "pipeline-twoline": "e9abe46760c3f0d19647a0f01a63126fad64aa8f1633de9811b4a7480fab1229",
    "pipeline-csv-twoline": "1d55c3063c69e51c96ff42945a224f16b0628e76f314dbe10830d5a58e6c9a7c",
    "reconstruct-twoline": "ad8702b7323624af220b2ac54aa56995ae9a93eb2d319d02ccafce95e04a49a1",
    "shock-verify-twoline": "94ff7422b4d1449a075a766ca1c03364802b959fe9831930fe491ddc84121959",
    "make-oracle-conic": "941625cb2ad84a5c6ad65eea161af7e890fd530b8f3449e8aa320597079fd708",
    "indicators-conic": "45400143bde1996148ea45193e9d8c26f1382f09e0d5e535f9c1aff86425a59a",
    "fit-infinity-conic": "74a10d3a9dd863c57437b700000326c657a0f97c1d2147612832e4a20e006c70",
    "pipeline-conic": "5f7ed90969e6237643e033c6f24965a401250bf00082309653caf99512da783f",
    "pipeline-csv-conic": "bf92cf35a4c3e19ed8e79deec9b9e52e74d875d2b123c6f564c41a988129d2b7",
    "reconstruct-conic": "9e0194e54bfe1348eaa7a1a00153e5bd63226416f2d38a6ca81d4d51b35995ce",
    "shock-verify-conic": "d7c1c3710745ad808152f0f6f6bba7b344f169807e1afa56ecf5b7ae1e0dceb8",
    "pipeline-twoline-1001": "a4589aa823ad7f3cb9b86aaf2103cb58d01ab88256bd41fbee60efc6783f523a",
    "reconstruct-twoline-1001": "f94744cbce3c4f47fa8719a1e25964e6bb696c4e6aa715c3a1961d4623f1b7da",
    "pipeline-twoline-4096": "3f9968dfb27cebb3321fd429e80416bef84848c8fcc42a633b288feee3d7b27a",
    "reconstruct-twoline-4096": "f3729da9c051e6787734a4a817c705a6329e8dd09440e30db32a763aa8698461",
    "pipeline-conic-1001": "33e894dfa2050191ea2e16a891ec34b1de6ddd15d61eff5fe83cf1a102d0ff0c",
    "reconstruct-conic-1001": "639faef7c666f423be6f805ec9eff2153f3df7119dcbc2e961d55a07a1f53aa2",
    "pipeline-conic-4096": "04b4c5fb2c426ed2cef45c3944a4f6af7e57529c8ca17315c720098054024006",
    "reconstruct-conic-4096": "cd62e2d779aea6783ba78f8b50da950f5ade91f86f30cfdaac1933097df6b484",
    "green-flat": "1d7fd73aa6e1dc30515aef2bedb0aeb2157f271cf0f04445f8887dc591242d57",
    "green-graph": "1d7fd73aa6e1dc30515aef2bedb0aeb2157f271cf0f04445f8887dc591242d57",
    "green-implicit": "ce3b53979337d859ae1876c5b2656cdc515038ad6b05dbce0afc25e06674c2e2",
    "green-implicit-off-centre": "cdb03ce1f24fb66273a37cb974c8112418175dc542a6b166ecf0bca84981cb7e",
    "green-implicit-dense": "b22b5f38f095ca3d619375101960948070e3c5b5592efeef784e8abc3d45e3e2",
    "genus-disc": "1c7af7a2c648d93ad720198612d4cd49438d6d8e42fa8dde8ff1d1c6d79d0244",
    "genus-annulus": "9e6ec3b09b589e77478967788aaf708f67b95a17146808521db6d59f1c912b5c",
}


def _digest(argv, files, cwd):
    code, out, err = run_cli(argv, cwd)
    h = hashlib.sha256(f"{code}\n{out}\0{err}\0".encode())
    for f in files:
        h.update((Path(cwd) / f).read_bytes() + b"\0")
    return h.hexdigest()


def _prepare(cwd):
    for fname, obj in INPUTS.items():
        (Path(cwd) / fname).write_text(json.dumps(obj))
    for name, f in ORACLES.items():
        assert run_cli(["make-oracle", "--name", name, "--out", f], cwd)[0] == 0
    for (name, n), f in SIZED.items():
        argv = ["make-oracle", "--name", name, "--samples", str(n), "--out", f]
        assert run_cli(argv, cwd)[0] == 0


@pytest.fixture(scope="module")
def bytes_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bytes")
    _prepare(d)
    return d


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name, argv, files", CASES, ids=[c[0] for c in CASES])
def test_cli_bytes(bytes_dir, name, argv, files):
    assert _digest(argv, files, bytes_dir) == DIGESTS[name]


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _run(src, argv, files, cwd):
    """(exit code, stderr, numbers in stdout and the written files) of `python -m cfr argv`
    with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "cfr", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    text = proc.stdout + "".join((Path(cwd) / f).read_text() for f in files if proc.returncode == 0)
    return proc.returncode, proc.stderr, [float(v) for v in NUMBER.findall(text)]


def compare(old_src, root):
    """Print, per case, how this tree's outputs differ from those of the src tree old_src."""
    trees = {"new": Path(__file__).resolve().parent.parent / "src", "old": Path(old_src).resolve()}
    for tag in trees:
        (Path(root) / tag).mkdir()
        _prepare(Path(root) / tag)
    print("| case | exit code | stderr | numbers (new, old) | max abs difference |")
    print("| --- | --- | --- | --- | --- |")
    for name, argv, files in CASES:
        (code, err, nums), (code0, err0, nums0) = (_run(src, argv, files, Path(root) / tag)
                                                   for tag, src in trees.items())
        same = len(nums) == len(nums0)
        gap = max((abs(a - b) for a, b in zip(nums, nums0)), default=0.0) if same else None
        print(f"| {name} | {'equal' if code == code0 else f'{code0} -> {code}'} | "
              f"{'equal' if err == err0 else 'differs'} | {len(nums)}, {len(nums0)} | "
              f"{'n/a' if gap is None else f'{gap:.2g}'} |")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Print the digest table, or compare with another src.")
    ap.add_argument("dir", nargs="?", help="empty working directory (default: a new temporary one)")
    ap.add_argument("--compare", metavar="OLD_SRC", help="src tree to compare the outputs with")
    args = ap.parse_args()
    cwd = args.dir or tempfile.mkdtemp()
    if args.compare:
        compare(args.compare, cwd)
    else:
        _prepare(cwd)
        for name, argv, files in CASES:
            print(f'    "{name}": "{_digest(argv, files, cwd)}",')
