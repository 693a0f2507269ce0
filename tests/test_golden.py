"""Golden CLI outputs: stdout digest, exact stderr and exit code per argv.

Every vector was recorded once from the CLI and must stay byte-identical
across refactors of the backends, the table formats and the parser.
COLUMNS is pinned because argparse wraps its usage text to the terminal
width.  The "$ bratteli ..." examples in README.md are run here too, so the
docs show what the CLI prints.
"""

import hashlib
import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bratteli import cli

EMPTY = hashlib.sha256(b"").hexdigest()
COUNT_USAGE = (
    "usage: bratteli count [-h] --k K --i I --j J\n"
    "                      [--backend {dp,dyck,gf,spectral,matrix,auto}]\n"
    "                      [--paranoid] [--verbose]\n"
)

# (argv, sha256 of stdout, stderr, exit code)
GOLDEN = [
    (["count", "--k", "3", "--i", "1", "--j", "11"],
     "69a9cd8a9e12b122cdf59392131bf6c83e7360c2f745921e76f48a16f1cc541a", "", 0),
    (["count", "--k", "4", "--i", "2", "--j", "14", "--backend", "dp"],
     "f167f2fcbf3c641b8857e859ba871b5feb29f5a1f6ce3255861057b0d65549e8", "", 0),
    (["count", "--k", "4", "--i", "2", "--j", "14", "--backend", "dyck"],
     "f167f2fcbf3c641b8857e859ba871b5feb29f5a1f6ce3255861057b0d65549e8", "", 0),
    (["count", "--k", "2", "--i", "0", "--j", "200", "--backend", "gf"],
     "835325eefb225dee3e38e99c6a82cb810187a832dbe2569f84bd3c5840c7f2cc", "", 0),
    (["count", "--k", "5", "--i", "3", "--j", "25", "--backend", "spectral"],
     "64a3ecef0de371dee844f9f3b15ed58c34c9927068d826a2ba72802f9ee975df", "", 0),
    (["count", "--k", "6", "--i", "2", "--j", "40", "--backend", "matrix"],
     "f0ed7b3476ddf4d1e3f95015828c5c10d6c7cf9945376f3f163326bb0ee35fdb", "", 0),
    (["count", "--k", "2", "--i", "5", "--j", "7", "--backend", "spectral"],
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa", "", 0),
    (["count", "--k", "2", "--i", "5", "--j", "7", "--backend", "gf"],
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa", "", 0),
    (["count", "--k", "2", "--i", "0", "--j", "150", "--backend", "auto", "--verbose"],
     "720591bb95eb158485ddb9dfb23091626632d4a9e7322585a11b16f374b04710", "backend: matrix\n", 0),
    (["count", "--k", "2", "--i", "0", "--j", "8", "--backend", "auto", "--paranoid", "--verbose"],
     "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8", "backend: dyck\n", 0),
    # levels 0 and 1 count 0 or 1 paths, answered without running a backend
    (["count", "--k", "1", "--i", "0", "--j", "100000000000"],
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865", "", 0),
    # an answer of about 5 * 10**10 bits is refused before any backend runs
    (["count", "--k", "2", "--i", "0", "--j", "100000000000"],
     EMPTY, (
        "error: count for k=2, j=100000000000 needs up to 50000000002 bits,"
        " budget is 4000000\n"
    ), 2),
    (["count", "--k", "2", "--i", "0", "--j", "30", "--backend", "dyck"],
     EMPTY, "error: j=30 exceeds the enumeration cap of 26 steps\n", 2),
    (["count", "--k", "100000", "--i", "0", "--j", "66000", "--backend", "spectral"],
     EMPTY, (
        "error: no stable integer for (k=100000, i=0, j=66000) within 65536 "
        "bits (last residual: never evaluated)\n"
    ), 2),
    (["table", "--k", "2", "--jmax", "4"],
     "ac062f87556fea7a82c63c915f9b051aec85a08532771c14091d53b2a3f1bc3f", "", 0),
    (["table", "--k", "3", "--jmax", "9", "--format", "json"],
     "b77901abf96d83b96e7a1a1ceef718295cb31b7dc488bf9653d80736cb91b38c", "", 0),
    (["table", "--k", "3", "--jmax", "7", "--format", "pretty"],
     "79f67a9263606c4daea2e49622983b67199d2d919208140f59cfff5059376ff3", "", 0),
    (["table", "--k", "9", "--jmax", "3", "--format", "csv"],
     "d006a9dae3767e93bfa71054f744720317128713a8ed914f9a1ce575f3e93503", "", 0),
    (["table", "--k", "9", "--jmax", "3", "--format", "json"],
     "b5cd198697006b34021392cb60fcf77b5b8f71ad24008db3ddb0a4f453fe53d4", "", 0),
    (["table", "--k", "9", "--jmax", "3", "--format", "pretty"],
     "73c0183a299385a626afc24c4f4075e06ded9fae341ca2ce5ca4faa385da8349", "", 0),
    # 10**6 cells fit the cell budget, but each is padded to 298 digits and a blank
    (["table", "--k", "999", "--jmax", "999", "--format", "pretty"],
     EMPTY, "error: pretty table for k=999, jmax=999 needs 299000000 bytes, budget is 128000000\n",
     2),
    (["gf", "--k", "5", "--i", "0", "--even"],
     "3a791d11a5bc8519c2f23bc92faef546800409c3fb4600cb872a343b9172b689", "", 0),
    (["gf", "--k", "3", "--i", "1"],
     "baa8c85d9398e98ca741095d4673685f7de6d7f89347205d95da1c0f84a5ddee", "", 0),
    (["residues", "--k", "3", "--i", "1", "--bits", "96"],
     "d40970eb7bf99d672d2b18e99f98d0e36e742b05ad6a5698fe5f2a0cbad8fa97", "", 0),
    (["rate", "--k", "3", "--digits", "10"],
     "59add840b197f800a43d0b4582da24deb15dcff5b9167d2dc4399182c38cb5cb", "", 0),
    (["rate", "--k", "0"],  # "exact 0.0": 2 cos(pi/2) is 0 exactly, not a rounding of it
     "bbdd88c30f645b5ccbecaf650bc46dad2f24b449e3641af84e45d51bb595583e", "", 0),
    (["verify", "--kmax", "3", "--jmax", "10", "--jobs", "1",
      "--backends", "dp,dyck,gf,spectral,matrix"],
     "9320d1990e1d911f235dc0f8c79de7f0bdcfacdd8c4d18efa427f5652d3865e5", "", 0),
    (["verify", "--kmax", "3", "--jmax", "12", "--jobs", "1"],
     "9d223eb6fec0fdaa87679d721d81fbc1f28820d3116af7fdbe1da2c708476435", "", 0),
    (["verify", "--kmax", "2", "--jmax", "4", "--backends", "dp,nope"],
     EMPTY, "error: unknown backend 'nope'; choose from dp, dyck, gf, spectral, matrix\n", 2),
    (["verify", "--kmax", "2", "--jmax", "30", "--backends", "dp,dyck"],
     EMPTY, "error: the dyck backend enumerates at most 26 steps; lower --jmax\n", 2),
    # every level's table is admitted before dyck's cap
    (["verify", "--kmax", "3000", "--jmax", "3000", "--backends", "dp,dyck"],
     EMPTY, "error: table for k=763, jmax=3000 needs 1000840 entries, budget is 1000000\n", 2),
    (["verify", "--kmax", "2", "--jmax", "400000", "--backends", "gf,dp"],
     EMPTY, (
        "error: table for k=2, jmax=400000 needs up to 120001400002 bits of counts,"
        " budget is 4096000000\n"
    ), 2),
    # levels 0 and 1 sweep at 64 bits at any length
    (["verify", "--kmax", "1", "--jmax", "65600", "--backends", "dp,spectral", "--jobs", "2"],
     "ab0ac846392fc964a3ed985e773779decee509236d0fc00c51323b3f4b4422dc", "", 0),
    # the matrix sweep walks counts, not powers of two, so a table's budget admits it
    (["verify", "--kmax", "1", "--jmax", "100000", "--backends", "dp,matrix"],
     "7ce1f89d649d40b4346c020af2fcba7dba4baf94a06f8b88ef816009cdfe53e0", "", 0),
    (["verify", "--kmax", "2", "--jmax", "74000", "--backends", "gf,matrix"],
     EMPTY, (
        "error: table for k=2, jmax=74000 needs up to 4107259002 bits of counts,"
        " budget is 4096000000\n"
    ), 2),
    (["count", "--k", "2", "--i", "0", "--j", "4", "--backend", "bogus"],
     EMPTY, COUNT_USAGE
        + "bratteli count: error: argument --backend: invalid choice: 'bogus' "
        "(choose from 'dp', 'dyck', 'gf', 'spectral', 'matrix', 'auto')\n", 2),
    (["count", "--k", "-1", "--i", "0", "--j", "4"],
     EMPTY, COUNT_USAGE
        + "bratteli count: error: argument --k: must be nonnegative\n", 2),
    (["gf", "--k", "2", "--i", "3"],
     EMPTY, "error: need 0 <= i <= k, got i=3, k=2\n", 2),
    (["gf", "--k", "30000", "--i", "0"],
     EMPTY, "error: gf for k=30000 needs 450060002 products, budget is 3000000\n", 2),
    (["residues", "--k", "5", "--i", "0", "--bits", "1000000"],
     EMPTY, "error: residues for k=5 need 1000000 bits, budget is 65536\n", 2),
    (["rate", "--k", "5", "--digits", "10000000"],
     EMPTY, "error: rate to 10000000 digits needs 40000000 bits, budget is 65536\n", 2),
    (["rate", "--k", "5", "--jmax", "100000000"],
     EMPTY, "error: table for k=5, jmax=100000000 needs 299999997 entries, budget is 1000000\n", 2),
    ([],
     EMPTY, (
        "usage: bratteli [-h] {count,table,gf,residues,rate,verify} ...\n"
        "bratteli: error: the following arguments are required: command\n"
    ), 2),
]


@pytest.mark.parametrize(
    "argv, digest, stderr, code", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_cli_bytes_are_pinned(monkeypatch, argv, digest, stderr, code):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        got = cli.main(argv)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    assert err.getvalue() == stderr
    assert got == code


# every height of the levels k <= 11 at three precisions, and of two wide levels at 96 bits
RESIDUES = [["residues", "--k", str(k), "--i", str(i), "--bits", str(bits)]
            for bits, levels in ((20, range(12)), (128, range(12)), (300, range(12)),
                                 (96, (40, 97)))
            for k in levels for i in range(k + 1)]
# sha256 over the json of [argv, exit code, stdout, stderr] of each, in order
RESIDUES_DIGEST = "4f0221cddbc4780de6308a818d431ea4023e341a50996421435ab93b3c45d4bb"


# every level k <= 12 with jmax below, at and above it, and one table of 306-digit counts
TABLE_SHAPES = [(k, jmax) for k in range(13) for jmax in (0, 1, 2, 3, 7, 15, 40)] + [(29, 1029)]
TABLES = {fmt: [["table", "--k", str(k), "--jmax", str(jmax), "--format", fmt]
                for k, jmax in TABLE_SHAPES]
          for fmt in ("csv", "json", "pretty")}
# sha256 over the json of [argv, exit code, stdout, stderr] of each, in order
TABLE_DIGESTS = {
    "csv": "d903e88a35fca335786bd8b63fcf34589f75f69565d16f6df60b27c09ed6b822",
    "json": "620dfd964fc664c6f79f2b522f2c44aa242293c410245a8b2e0f84c5ca86b117",
    "pretty": "26e635db3a6c42010fe9d5e6afdba30a13b118d7d800793afe4bec2ae7594c9b",
}


def _digest(argvs: list) -> str:
    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return digest.hexdigest()


def test_residues_bytes_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(RESIDUES) == RESIDUES_DIGEST


@pytest.mark.parametrize("fmt", list(TABLES))
def test_table_bytes_are_pinned(monkeypatch, fmt):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(TABLES[fmt]) == TABLE_DIGESTS[fmt]


def _readme_examples() -> list:
    # (argv, shown stdout) for every "$ bratteli ..." line in README.md's plain code blocks;
    # the output shown runs to the next blank line, command or the end of the block
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", readme, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            argv = shlex.split(command, comments=True)
            assert argv[:2] == ["$", "bratteli"], command
            examples.append((argv[2:], shown.split("\n\n")[0].rstrip("\n") + "\n"))
    return examples


def test_readme_examples_print_what_they_show():
    examples = _readme_examples()
    assert len(examples) >= 9
    for argv, shown in examples:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        assert out.getvalue() == shown, argv
