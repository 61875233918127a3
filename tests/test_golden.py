"""Byte-identity pins for every artifact the CLI writes.

Each case runs through `matchlab.cli.main` at a small size with a fixed
seed, and the SHA-256 of every file it writes must equal the digest in
GOLDEN.  The digests were recorded by running
`PYTHONPATH=src python tests/test_golden.py` on commit 667c8ef, where
`Matching` still held tuples of tuples; the n = 300 cases were recorded on
commit 5e98ff3, before the edge-set builders worked in row blocks; the
min-L-300-fine and min-L-fixed cases were recorded on commit 08a4a7b,
before min-L scanned its grid from one superset edge set; the ten-run
cases were recorded on commit e4c0a70, before the suites shared one decile
table; the edges-truncated, edges-truncated-L, run-acceptable-split,
unique-partners-cap-left and truncation-n1-loss-bound cases were recorded
on commit 4b96f8c, before every command filled its config through one
flag table.  That command prints the table below for the current tree.  A
change that alters any artifact's bytes must say so and re-record them.
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
    # n = 300 is above twice every row-block size and not a multiple of one,
    # so these cases cross full blocks and end on a partial one
    "edge-counts-300": ["experiment", "edge-counts", "--n", "300", "--runs", "2", "--L", "0.3",
                        "--sigma", "0.1"],
    "min-L-300": ["experiment", "min-L", "--n", "300", "--runs", "2", "--grid-step", "0.02"],
    # the min-L scan works in spans of grid indices (0-7, 8-15, 16-31, ...);
    # this grid puts both runs' first_L in the third span
    "min-L-300-fine": ["experiment", "min-L", "--n", "300", "--runs", "2", "--grid-step", "0.005"],
    "min-L-fixed": ["experiment", "min-L", "--n", "60", "--runs", "2", "--grid-step", "0.02",
                    "--sigma-rule", "fixed", "--sigma", "0.05"],
    "truncation-300": ["experiment", "truncation", "--n", "300", "--runs", "2"],
    "run-acceptable-right-300": ["run", "--n", "300", "--edges", "acceptable", "--L", "0.3",
                                 "--sigma", "0.1", "--propose-side", "right"],
    "edges-viable-300": ["edges", "--n", "300", "--edges", "viable"],
    # ten runs put every per-run mean past numpy's 8-way unrolled sum, so a
    # change in reduction order shows in the summary bytes
    "edge-counts-10runs": ["experiment", "edge-counts", "--n", "60", "--runs", "10",
                           "--L", "0.3", "--sigma", "0.1"],
    "unique-partners-10runs": ["experiment", "unique-partners", "--n", "60", "--runs", "10"],
    "interview-10runs": ["experiment", "interview", "--n", "60", "--runs", "10",
                         "--p", "0.3", "--q", "0.4"],
    # the loss-bound rule, the per-side loss caps and the capacity and size
    # guards, on paths none of the cases above takes
    "edges-truncated": ["edges", "--n", "40", "--edges", "truncated"],
    "edges-truncated-L": ["edges", "--n", "40", "--edges", "truncated", "--L", "0.2",
                          "--t-left", "2"],
    "run-acceptable-split": ["run", "--n", "40", "--edges", "acceptable", "--L-left", "0.3",
                             "--L-right", "0.05"],
    "unique-partners-cap-left": ["experiment", "unique-partners", "--n", "30", "--cap-left", "2",
                                 "--runs", "2"],
    "truncation-n1-loss-bound": ["experiment", "truncation", "--n", "1", "--loss-bound", "0.2",
                                 "--runs", "2"],
}

SEED = "11"

GOLDEN = {
    'edge-counts': {
        'report.csv': '74d4267c05fef122989d93f4a98201dafdeb413e5ad91441c5f731259d648f03',
        'summary.json': '9201ee6f14d71b3a7dd29e03207ae8f7cce4f54923bbd9d44be53c387218d37e',
    },
    'edge-counts-10runs': {
        'report.csv': '2040cd019756ac2a883f90c5237a44b59b36b2e220404c9ba531b36dd4e66652',
        'summary.json': '86c70d04e34c81be5b302cb804c000e04a85f37ea1671a70de9595b9515e785e',
    },
    'edge-counts-300': {
        'report.csv': '235a53e79858582c31a8ae9dd88ced0681f78bb048fe7e11e8ea8a5411f7ddba',
        'summary.json': '8542eb0204b627dfac9953438dfdf45faff94ee16d042178f935ee0d45016197',
    },
    'edges-truncated': {
        'edge_summary.json': '99ffe795b972da74163f684582aaf1d983736bf7cc685cf1e6935142b2d03499',
        'edges.csv': '971af92abf41e61b91722a8ae991bf15a48857a54bcc6254c8d147c98bda40a6',
    },
    'edges-truncated-L': {
        'edge_summary.json': '1eacb60809f9a058f43f22be015c1543e28867e9663dc3889909985c195badbf',
        'edges.csv': 'b7c1c921ada59af32f8354a6b2d9ab64fcfab0b77802acb81b6f89fdb844a2a4',
    },
    'edges-viable': {
        'edge_summary.json': 'f5646c4ece980972903b6fa84446226cf3cb2ba839f0f7e43c2e030837885f6f',
        'edges.csv': 'fe8fd0ce6275000b952ab3085666b01a795f987034222ae4e8e665a69cb15bc6',
    },
    'edges-viable-300': {
        'edge_summary.json': '5e42e8b606532e589b5115bbd216a72bc53830e827c9085215980c67e545cd63',
        'edges.csv': 'e1a0d0f64bb6a9e700bfbf0e3eb55d155c76d31ffb8552d70fbb540883c63c6b',
    },
    'interview': {
        'report.csv': '3e36e62ef66deeec0fd81905d99d7c728a062251f641c4143293179ef10a2ad6',
        'summary.json': '03269883291310073ebb753328082a2aeec556bf2dac99b31f44e1dfe3e004b8',
    },
    'interview-10runs': {
        'report.csv': '87c68573a374dd2778212be158c466779cba92e950a04fbb0d257b669db69ce2',
        'summary.json': 'e4060229c16898205282014526615cb127f87573a2a244430ff4ba93f9294937',
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
    'min-L-300': {
        'report.csv': '597d50d1bf7df5aad54912065ca49dc389010358736d1a03d309559b37a5168e',
        'summary.json': '123b3b63f8074c1e32ad8abc870db9fe00a0ff10217c91002a0ecc4ce99ce0fe',
    },
    'min-L-300-fine': {
        'report.csv': '72af0ef8ef6f8d6b03611f11214db7046c2ec958debefd00194edb2d7277ced2',
        'summary.json': '53ef0a3c2e3f08b8bc9fb698e7f6a6e729cb7d59b2db55be1e89a9cd1cb644f9',
    },
    'min-L-fixed': {
        'report.csv': '3f071e6c93cb901e11330a34aecf5044a57e14794a48cc47d5bcb8abd1aa0888',
        'summary.json': 'e38a70cba5d32601b6deae536f3fbc3c85f8388ce31be36cc04e6c3e5dae6ed4',
    },
    'run-acceptable': {
        'audit.json': '90df71f667b67134047de0f4ca202c43fad2b234c56e703f53447d4c3b59bc0f',
        'losses.csv': '9e7be605822e435402c131bbd1bd8ebdf5bcf87c554115a9d35ed979b0bcd70c',
        'matching.csv': 'b54f314b0362db9cfb1770ff5ec30320477e5ca1b6cee2df0ff329d491a11319',
    },
    'run-acceptable-right-300': {
        'audit.json': '2fe1d8358b8edcdf0f5efb3be45900f4a7cfad3d29c9679e24fee27aed6eae9e',
        'losses.csv': '87c9c32eb1821cb537517eacad0fbd911deca3b368d20bfafbc47d478ea38ae8',
        'matching.csv': '6044ef4ac4f598e4ee1d827dbbb0aaacf504a799bbadd9fab9f72385cfc83636',
    },
    'run-acceptable-split': {
        'audit.json': 'b00b5c3eef9182722608762c0920faef6c23951615afed691133afc0128bd98c',
        'losses.csv': '9329b3ba8a6f61c962177db40634782a9c1db544b2f69501d227f4ee99d81311',
        'matching.csv': '04dfa50d0bd27d9fced85f968fe896f21dada53739827d3b67164c50e13692a8',
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
    'truncation-300': {
        'report.csv': '92c042f8c08bdb84b4e6605171fee0175f20f39cdb415c5dacaf835442e3c38c',
        'summary.json': 'a4d2343f587c10c59cc07b1b6e8204df2317107aa15fd1a903e6eb5087afc834',
    },
    'truncation-n1-loss-bound': {
        'report.csv': 'b985e7666f9901d8f3b4cb06e3aca8e1b47f61a3d859730c51fbde96879a6e6f',
        'summary.json': '4b2c3f64d3e3358f2c4dc73e99dea4becb3c92f6264495b5ffecc6b755b18556',
    },
    'unique-partners': {
        'report.csv': 'ec1d1f1b1822d2fce38f8eca90b3006913e13dad5647f20859d8f71c8a137c51',
        'summary.json': '212d061abb3f38c9481fd397716c14d3724b42c77f369bd31017c27155052e1c',
    },
    'unique-partners-10runs': {
        'report.csv': '8f5063a7f0c504122f4a5f318f9a3d3146fcfde72fbf8504d65a897f921b866c',
        'summary.json': 'ce70a43073f58763b510a18dd476a3182be85aa84f06b2797e5f28ad2b2bd74a',
    },
    'unique-partners-cap-left': {
        'report.csv': '693097e887f5afab0a8af333ea5e7b37d60798943341ca16217d320b1d41c77c',
        'summary.json': '665369d606a5fda552030a690ac25647f301ad6463a62242b8d94ad6e94f2ec5',
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
