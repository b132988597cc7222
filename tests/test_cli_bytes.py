"""CLI bytes: each command's exit code, stdout, stderr and written files hash to a recorded digest.

The digests pin the byte-for-byte output of the commands on the four oracles, of `green`
on a flat and a graph patch and of `genus` on the disc and the annulus.  A change that
means to alter an output records the new digest and says why in CHANGES.md.

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
INPUTS = {"phi-flat.json": [[[0.0, 0.0], [1.0, 0.0]]],
          "phi-graph.json": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
                             [[-0.5, 0.2], [0.0, 0.0]]],
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
    for phi in ("flat", "graph"):
        yield f"green-{phi}", ["green", "--phi", f"phi-{phi}.json", "--targets", "targets.json"], []
    for model in ("disc", "annulus"):
        yield f"genus-{model}", ["genus", "--model", model, "--omega", "zdz"], []


CASES = list(_cases())

DIGESTS = {
    "make-oracle-line": "245d12c4b61be2a4abcc31dc67e04a37ace09a641b5a06ea2fa4692ad17ae49d",
    "indicators-line": "89681a07417df5abe1807d33e1808d60205ee0977867d5edba314b02a5cba28a",
    "fit-infinity-line": "c58d7025007da8a1fd2e8e8c5f63f12666bcabf80a9f02b21af330cb9783eb36",
    "pipeline-line": "32550e1f697f903ea2fabb15507cc455983fb1a86441d7f100acc9ea4d35de63",
    "pipeline-csv-line": "132df8159d00f89902af72bdfdb4c4e22ede91e5ff36361cef1c55cdc73af27a",
    "reconstruct-line": "d8f9abd5cfee21d6f03e8e58515d7c005f9b99e18c586a6c5c187efcc55a9306",
    "shock-verify-line": "8a41fea9db354896d7aeec817c96c4cba9cc8c76527822a1aae78d1b674dc73d",
    "make-oracle-ext": "e1fa9f0044b336e77c21791765567f479550a8dd5d0017a9e4b55e158b8f3d2c",
    "indicators-ext": "857e64c33ab2db1ee1133c882da66cbfa523257996c8dc280bc9b9bd4abadb6d",
    "fit-infinity-ext": "87e1cf8a4c9eb308221217cee972dc5bbd67fad06d8ee0411cc7870bfcc052ea",
    "pipeline-ext": "f2aec10b1d06949e7ae8a08db0896de21a96604d965d3185b02ee16d20ba9b4e",
    "pipeline-csv-ext": "a13958f652e5a0ee3792b3f3e744ce332f02d2f9124f6910b0565c57c44db392",
    "reconstruct-ext": "757bac39d521ffe5a8bc6a901a36c5b6ce85af0f9d2d254612672bf3ebcf029c",
    "shock-verify-ext": "dbe48258217fba224e20d3313b8a8bb1aee8ed5d704007c06aa391579a827ab9",
    "make-oracle-twoline": "9481ef5fad38ea16ec9734f7fd574126f07b5a1e203393c9b4f0f19236cbabe5",
    "indicators-twoline": "9fdd1c6bc2776549632a322f1289f6be7f459679f01db6010cc81c20b2b4bc75",
    "fit-infinity-twoline": "eb00310ba5a6b3e5380ea379c6470c7d9d3a54e6aa8e436824d03ae7ab487371",
    "pipeline-twoline": "7754a2b04adb865498e26ead30c92cbda11df2fd7082322991889793196e2f8a",
    "pipeline-csv-twoline": "3e20e8841fd83389a95fe0cb2ed2955ff80393b9cef0e8f7122b72261f80a5ac",
    "reconstruct-twoline": "c3390cb10c3d83353c80e3eb165bb2e8d7e5fc8dbb611a2371889c83ecc0a089",
    "shock-verify-twoline": "01f6ac34e19c46f3c43cdfb63765d0b514767cc1c5779e8517f426955b864ca9",
    "make-oracle-conic": "941625cb2ad84a5c6ad65eea161af7e890fd530b8f3449e8aa320597079fd708",
    "indicators-conic": "8e9af6ad6d3816b2ca7c57a1258ed9d328f54d9484696a36f1c13ba5a1ffc552",
    "fit-infinity-conic": "74a10d3a9dd863c57437b700000326c657a0f97c1d2147612832e4a20e006c70",
    "pipeline-conic": "7d499b585c9ce87a863f2023dea1312af5070623f04919e8376606bca447ecae",
    "pipeline-csv-conic": "9ae8cb2722af662880630a6ffa04dcb693e7ff4a72047de43548c7f8a524d979",
    "reconstruct-conic": "5903709c8e2284ec362d5b6986760530df366b77204f62224a804553ed22d03b",
    "shock-verify-conic": "577b480fb3858390e94c611ce6b7d68b91403da6989808a60e82147cffe596f7",
    "green-flat": "1d7fd73aa6e1dc30515aef2bedb0aeb2157f271cf0f04445f8887dc591242d57",
    "green-graph": "1d7fd73aa6e1dc30515aef2bedb0aeb2157f271cf0f04445f8887dc591242d57",
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
