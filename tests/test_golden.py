"""Byte-identity pins for every artifact the CLI writes.

Each case runs through `matchlab.cli.main` at a small size with a fixed
seed, and the SHA-256 of every file it writes must equal the digest in
GOLDEN.  The digests were recorded by running
`PYTHONPATH=src python tests/test_golden.py` on commit 667c8ef, where
`Matching` still held tuples of tuples; that command prints the table below
for the current tree.  A change that alters any artifact's bytes must say
so and re-record them.
"""

import hashlib
from pathlib import Path

import pytest

from matchlab.cli import main

CASES = {
    "edge-counts": ["experiment", "edge-counts", "--n", "60", "--runs", "2", "--L", "0.3",
                    "--sigma", "0.1"],
    "min-L": ["experiment", "min-L", "--n", "60", "--runs", "2", "--grid-step", "0.02"],
    "unique-partners": ["experiment", "unique-partners", "--n", "60", "--runs", "2"],
    "interview": ["experiment", "interview", "--nw", "60", "--nc", "20", "--d", "3",
                  "--runs", "2", "--p", "0.3", "--q", "0.4"],
    "loss-scaling": ["experiment", "loss-scaling", "--n", "60", "--lambda", "0.5", "--runs", "2",
                     "--n-values", "40", "80", "--exceedance-n", "60"],
    "lower-bound": ["experiment", "lower-bound", "--n", "60", "--runs", "2"],
    "truncation": ["experiment", "truncation", "--n", "60", "--runs", "2"],
    "run-full-m2o": ["run", "--nw", "30", "--nc", "10", "--d", "3", "--propose-side", "right"],
    "run-acceptable": ["run", "--n", "40", "--edges", "acceptable", "--L", "0.3",
                       "--sigma", "0.1"],
    "run-json": ["run", "--n", "20", "--format", "json"],
    "edges-viable": ["edges", "--n", "40", "--edges", "viable"],
}

SEED = "11"

GOLDEN = {
    'edge-counts': {
        'report.csv': '74d4267c05fef122989d93f4a98201dafdeb413e5ad91441c5f731259d648f03',
        'summary.json': '9201ee6f14d71b3a7dd29e03207ae8f7cce4f54923bbd9d44be53c387218d37e',
    },
    'edges-viable': {
        'edge_summary.json': 'f5646c4ece980972903b6fa84446226cf3cb2ba839f0f7e43c2e030837885f6f',
        'edges.csv': 'fe8fd0ce6275000b952ab3085666b01a795f987034222ae4e8e665a69cb15bc6',
    },
    'interview': {
        'report.csv': '3e36e62ef66deeec0fd81905d99d7c728a062251f641c4143293179ef10a2ad6',
        'summary.json': '03269883291310073ebb753328082a2aeec556bf2dac99b31f44e1dfe3e004b8',
    },
    'loss-scaling': {
        'report.csv': '345d05404baefa06b46371a65d5414632e92b74ea9ad6f522f057838fd889bf2',
        'summary.json': 'b932dd2f8cedfc4762b2dc2f2a7924986773a1df5a7fde218e0421cebf2b63dc',
    },
    'lower-bound': {
        'report.csv': '1f1953c2cd269754273ba97d2f3994e091f2e255f35ccb510bdaa9592ec37c00',
        'summary.json': '01354f3cd51bf47349dd0f5c5c350ea2e089165ed29e8d1519ed05337d3d15bc',
    },
    'min-L': {
        'report.csv': '3f071e6c93cb901e11330a34aecf5044a57e14794a48cc47d5bcb8abd1aa0888',
        'summary.json': '31ccf9d43f9a68a133e2e9d816aefd31705f00cd56074e3375b52db170f2e364',
    },
    'run-acceptable': {
        'audit.json': '90df71f667b67134047de0f4ca202c43fad2b234c56e703f53447d4c3b59bc0f',
        'losses.csv': '9e7be605822e435402c131bbd1bd8ebdf5bcf87c554115a9d35ed979b0bcd70c',
        'matching.csv': 'b54f314b0362db9cfb1770ff5ec30320477e5ca1b6cee2df0ff329d491a11319',
    },
    'run-full-m2o': {
        'audit.json': '3b7cbdc1b227984760f70ad0b26a24a64364f4a090c601dc9bc05c90176fe4de',
        'losses.csv': '24460aaa4bc1b019fcc55df537f8ee1fb83826ea566e5905ad7c7cf046f0813b',
        'matching.csv': 'fa8ba3a254e44776fbdbfd57e1faef977b97321a1a2f7706c700105dedc0d535',
    },
    'run-json': {
        'audit.json': '661d3e9a71ca97766c8beef786133a607fb468ecf6af64a1ad3b0838e657699b',
        'losses.json': '4662e50dcdd81ddb37c1acf31b4c36e1b135a2f81e29e309df164b2f42299a98',
        'matching.json': '42823a9e49e7116179bec64b068df02197a8df842d27289a70fb1776d5c90846',
    },
    'truncation': {
        'report.csv': '572ce8ad6ec4b4d421436bc14b7ed67f4111df2d029e00f5fed67c60278974dd',
        'summary.json': 'a9d9a6c0e758ea20a37f8e46aa114ce01c82d850c9f48279fa0e9ed2c7efdad7',
    },
    'unique-partners': {
        'report.csv': 'ec1d1f1b1822d2fce38f8eca90b3006913e13dad5647f20859d8f71c8a137c51',
        'summary.json': '212d061abb3f38c9481fd397716c14d3724b42c77f369bd31017c27155052e1c',
    },
}


def run_case(name: str, out: Path) -> dict[str, str]:
    """Run one case into `out`; map each written file to its SHA-256."""
    code = main(CASES[name] + ["--seed", SEED, "--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path / name) == GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        table = {name: run_case(name, Path(tmp) / name) for name in sorted(CASES)}
    print("GOLDEN = {")
    for name, files in table.items():
        print(f"    {name!r}: {{")
        for fname, digest in files.items():
            print(f"        {fname!r}: {digest!r},")
        print("    },")
    print("}")
