"""CLI bytes: each command's exit code, stdout, stderr and written files hash to a recorded digest.

The digests pin the byte-for-byte output of the commands on the four oracles, of `green`
on a flat and a graph patch and of `genus` on the disc and the annulus.  A change that
means to alter an output records the new digest and says why in CHANGES.md.

Regenerate the table with `PYTHONPATH=src python tests/test_cli_bytes.py DIR`, which runs
every case in the empty directory DIR and prints the digests.
"""

import hashlib
import json
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
    "indicators-line": "7f37a39c944a304404111e820adfacd64bbbc74f949ae0c5640a7b3ea7b91762",
    "fit-infinity-line": "c58d7025007da8a1fd2e8e8c5f63f12666bcabf80a9f02b21af330cb9783eb36",
    "pipeline-line": "f3f4d068bba32be1ec7f687afd4305171602407f776fa399cc4ab85aa7361b9f",
    "pipeline-csv-line": "e14e764e7208739137bbb729be9f394b766668c3b6ef03f6be30fa699523274f",
    "reconstruct-line": "3b0fdc8fb466e61da2dfe8f73fa18f0eaa43a4b4f93ab1393bbdd81c5827d2f1",
    "shock-verify-line": "4bb3397650442b1c3e87d2c428e560d045a6b7d3440d1fa0971501a94ba16eb5",
    "make-oracle-ext": "e1fa9f0044b336e77c21791765567f479550a8dd5d0017a9e4b55e158b8f3d2c",
    "indicators-ext": "3e1bfbf5e456f9e0246d069dede2ebbe05aa069059b39c6d92698a15dc170e3e",
    "fit-infinity-ext": "87e1cf8a4c9eb308221217cee972dc5bbd67fad06d8ee0411cc7870bfcc052ea",
    "pipeline-ext": "f2aec10b1d06949e7ae8a08db0896de21a96604d965d3185b02ee16d20ba9b4e",
    "pipeline-csv-ext": "a13958f652e5a0ee3792b3f3e744ce332f02d2f9124f6910b0565c57c44db392",
    "reconstruct-ext": "757bac39d521ffe5a8bc6a901a36c5b6ce85af0f9d2d254612672bf3ebcf029c",
    "shock-verify-ext": "dbe48258217fba224e20d3313b8a8bb1aee8ed5d704007c06aa391579a827ab9",
    "make-oracle-twoline": "9481ef5fad38ea16ec9734f7fd574126f07b5a1e203393c9b4f0f19236cbabe5",
    "indicators-twoline": "9d9d4dff2853318a19de3ae4b7369b87e82caea1a06142f18df4069cffc5b472",
    "fit-infinity-twoline": "eb00310ba5a6b3e5380ea379c6470c7d9d3a54e6aa8e436824d03ae7ab487371",
    "pipeline-twoline": "714337c8a2abe5a53d48df8cdaba180c84fafc5537c51d8c5e0bf0fe3249aff6",
    "pipeline-csv-twoline": "c8c162fc72b91e0ff2bd5f5808c4c622c0aa4348ea14f401583c20b3661a2737",
    "reconstruct-twoline": "8b20a65b9edf4adc2be03404e37e07a9849aabf59cbdc66704db11674b767bd5",
    "shock-verify-twoline": "8a38d834e5c9cfe96736e3a4a6885fe264a1703b51f76d2baa79a33e4656b04e",
    "make-oracle-conic": "941625cb2ad84a5c6ad65eea161af7e890fd530b8f3449e8aa320597079fd708",
    "indicators-conic": "b9cfd577e9f97272f01c600992e1e5e0330cb14a8a55d99d0e8af04351d22926",
    "fit-infinity-conic": "74a10d3a9dd863c57437b700000326c657a0f97c1d2147612832e4a20e006c70",
    "pipeline-conic": "9806aac36c0f99e6c9046e7b1c785b81d2710b268386c76e7639d413e72b6f0e",
    "pipeline-csv-conic": "3041a0a710ea8ead9912312f3c98c349bacde7a660bd797c7837ae30c9bb0dca",
    "reconstruct-conic": "4c3739cdf9722cc17982b2bdca4106fa5ff56bac453d663467b63523ce6de5af",
    "shock-verify-conic": "afef2b57a1405b40248525df0137af2d44420f63c413dac51e5e2b7ab5aed07c",
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


if __name__ == "__main__":
    cwd = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp()
    _prepare(cwd)
    for name, argv, files in CASES:
        print(f'    "{name}": "{_digest(argv, files, cwd)}",')
