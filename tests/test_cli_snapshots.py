"""Byte-identity of the CLI: sha256 of (exit code, stdout, stderr) for a fixed
set of cheap commands covering every subcommand and every error exit code.

A change that alters any report, message or exit code fails here.  To print
the table for the current code (after a deliberate output change):

    PYTHONPATH=src python tests/test_cli_snapshots.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from kisin.cli import main

GL2_P3 = ("--p", "3", "--n", "2", "--f", "1", "--m", "1")
GL2_P2 = ("--p", "2", "--n", "2", "--f", "1", "--m", "1")
GL3_P2 = ("--p", "2", "--n", "3", "--f", "1", "--m", "1")
CASE_A_P3 = ("--p", "3", "--n", "4", "--f", "1", "--tau", "[[2,0,2,0]]", "--w", "[[2,4,1,3]]")
CASE_B_P3 = ("--p", "3", "--n", "3", "--f", "2", "--tau", "[[2,0,1],[0,0,1]]", "--w", "[[2,3,1],[1,2,3]]")
LIFT = ("--p", "3", "--n", "2", "--eps", "[1,1,3]", "--tau", "[[0,0],[0,0],[1,0]]", "--w", "[[1,2],[1,2],[2,1]]")


def _failing_recursion_check(multi, mu_bullet, lam):
    return False, 0


# name -> (argv, environment overrides, attribute patches)
COMMANDS = {
    "verify-a-p3": (("verify-counterexample", "a", "--p", "3"), {}, {}),
    "verify-a-p5": (("verify-counterexample", "a", "--p", "5"), {}, {}),
    "verify-b-p3": (("verify-counterexample", "b", "--p", "3"), {}, {}),
    "verify-b-p5": (("verify-counterexample", "b", "--p", "5"), {}, {}),
    "verify-p2": (("verify-counterexample", "a", "--p", "2"), {}, {}),
    "verify-bad-enum-cap": (("verify-counterexample", "a", "--p", "3"), {"KISIN_MAX_ENUM": "abc"}, {}),
    "normal-form-gl2": (("normal-form",) + GL2_P3, {}, {}),
    "normal-form-gl3": (("normal-form",) + GL3_P2, {}, {}),
    "normal-form-not-simple": (("normal-form", "--p", "3", "--n", "2", "--f", "1", "--m", "4"), {}, {}),
    "normal-form-reduced": (
        ("normal-form", "--p", "3", "--n", "2", "--f", "1", "--tau", "[[-2,1]]", "--w", "[[2,1]]", "--alcove-reduce"),
        {},
        {},
    ),
    "normal-form-reduced-f2": (
        ("normal-form", "--p", "2", "--n", "3", "--f", "2", "--tau", "[[0,1,-1],[1,2,-2]]", "--w", "[[2,1,3],[2,3,1]]", "--alcove-reduce"),
        {},
        {},
    ),
    "normal-form-reduced-eps": (
        (
            "normal-form", "--p", "3", "--n", "3", "--eps", "[3,1,1]",
            "--tau", "[[-2,-1,0],[1,-1,-2],[-2,2,2]]", "--w", "[[3,1,2],[3,2,1],[1,3,2]]", "--alcove-reduce",
        ),
        {},
        {},
    ),
    "normal-form-no-b": (("normal-form", "--p", "3", "--n", "2"), {}, {}),
    "strata-gl2-minuscule": (("strata",) + GL2_P3 + ("--mu", "[[1,0]]"), {}, {}),
    "strata-gl2-empty": (("strata",) + GL2_P3 + ("--mu", "[[2,1]]"), {}, {}),
    "strata-gl2-wide": (("strata",) + GL2_P2 + ("--mu", "[[2,-2]]"), {}, {}),
    "strata-gl3": (("strata",) + GL3_P2 + ("--mu", "[[2,1,-2]]"), {}, {}),
    "strata-case-a": (("strata",) + CASE_A_P3 + ("--mu", "[[5,3,3,1]]"), {}, {}),
    "strata-case-b": (("strata",) + CASE_B_P3 + ("--mu", "[[4,0,0],[3,3,0]]"), {}, {}),
    "strata-lift": (("strata",) + LIFT + ("--mu", "[[1,0],[1,0],[1,0]]"), {}, {}),
    "strata-non-dominant": (("strata",) + GL2_P3 + ("--mu", "[[0,1]]"), {}, {}),
    "strata-bad-json": (("strata",) + GL2_P3 + ("--mu", "[[oops"), {}, {}),
    "strata-bool-mu": (("strata",) + GL2_P3 + ("--mu", "[[true,0]]"), {}, {}),
    "strata-no-mu": (("strata",) + GL2_P3, {}, {}),
    "strata-non-alcove": (
        ("strata", "--p", "3", "--n", "2", "--f", "1", "--tau", "[[-2,1]]", "--w", "[[2,1]]", "--mu", "[[1,0]]"),
        {},
        {},
    ),
    "strata-enum-cap": (("strata",) + CASE_A_P3 + ("--mu", "[[5,3,3,1]]"), {"KISIN_MAX_ENUM": "1"}, {}),
    "graph-gl2-json": (("graph",) + GL2_P2 + ("--mu", "[[2,-2]]"), {}, {}),
    "graph-gl2-dot": (("graph",) + GL2_P2 + ("--mu", "[[2,-2]]", "--out", "dot"), {}, {}),
    "graph-gl3-json": (("graph",) + GL3_P2 + ("--mu", "[[2,1,-2]]"), {}, {}),
    "graph-gl3-dot": (("graph",) + GL3_P2 + ("--mu", "[[2,1,-2]]", "--out", "dot"), {}, {}),
    "graph-case-a-dot": (("graph",) + CASE_A_P3 + ("--mu", "[[5,3,3,1]]", "--out", "dot"), {}, {}),
    "graph-case-b-json": (("graph",) + CASE_B_P3 + ("--mu", "[[4,0,0],[3,3,0]]"), {}, {}),
    "multicopy-gl2": (("multicopy",) + GL2_P3 + ("--mu", "[[3,0]]"), {}, {}),
    "multicopy-twist": (("multicopy", "--p", "3", "--n", "2", "--f", "2", "--m", "1", "--mu", "[[2,2],[5,2]]"), {}, {}),
    "multicopy-empty": (("multicopy",) + GL2_P3 + ("--mu", "[[2,0]]"), {}, {}),
    "multicopy-recursion-failure": (
        ("multicopy",) + GL2_P3 + ("--mu", "[[3,0]]"),
        {},
        {"kisin.multicopy.recursion_check": _failing_recursion_check},
    ),
    "chain-gl3": (("chain-gl3",) + GL3_P2 + ("--mu", "[[2,1,-2]]", "--lam", "[[0,0,0]]", "--lam-prime", "[[1,0,-1]]"), {}, {}),
    "chain-gl3-bad-endpoint": (
        ("chain-gl3",) + GL3_P2 + ("--mu", "[[2,1,-2]]", "--lam", "[[9,0,-9]]", "--lam-prime", "[[1,0,-1]]"),
        {},
        {},
    ),
    "chain-gl3-bool-lam": (
        ("chain-gl3",) + GL3_P2 + ("--mu", "[[2,1,-2]]", "--lam", "[[0,0,0]]", "--lam-prime", "[[true,0,-1]]"),
        {},
        {},
    ),
    "chain-gl3-not-gl3": (("chain-gl3",) + GL2_P3 + ("--mu", "[[1,0]]", "--lam", "[[0,0]]", "--lam-prime", "[[0,0]]"), {}, {}),
    "oracle-gl2-f3": (("oracle-count",) + GL2_P3 + ("--mu", "[[1,0]]", "--box", "2"), {}, {}),
    "oracle-gl2-f3-empty": (("oracle-count",) + GL2_P3 + ("--mu", "[[2,1]]", "--box", "2"), {}, {}),
    "oracle-gl2-f3-m2": (("oracle-count", "--p", "3", "--n", "2", "--f", "1", "--m", "2", "--mu", "[[2,-2]]", "--box", "2"), {}, {}),
    "oracle-gl2-f9": (
        ("oracle-count", "--p", "3", "--n", "2", "--f", "1", "--m", "2", "--mu", "[[2,-2]]", "--field-deg", "2", "--box", "1"),
        {},
        {},
    ),
    "oracle-gl2-f2": (("oracle-count",) + GL2_P2 + ("--mu", "[[2,-2]]", "--box", "2"), {}, {}),
    "oracle-gl2-f4": (("oracle-count",) + GL2_P2 + ("--mu", "[[2,-2]]", "--field-deg", "2", "--box", "2"), {}, {}),
    "oracle-gl3-f2": (("oracle-count",) + GL3_P2 + ("--mu", "[[2,2,-3]]", "--box", "1"), {}, {}),
    "oracle-box-too-small": (("oracle-count",) + GL2_P3 + ("--mu", "[[7,0]]", "--box", "1"), {}, {}),
    "oracle-guard": (("oracle-count", "--p", "3", "--n", "3", "--f", "1", "--m", "1", "--mu", "[[1,0,0]]", "--box", "3"), {}, {}),
    "oracle-f2": (("oracle-count", "--p", "3", "--n", "2", "--f", "2", "--m", "1", "--mu", "[[1,0],[1,0]]"), {}, {}),
    "oracle-field-deg-3": (("oracle-count",) + GL2_P3 + ("--mu", "[[1,0]]", "--field-deg", "3"), {}, {}),
}

# sha256 of json.dumps([exit code, stdout, stderr])
EXPECTED = {
    "verify-a-p3": "2b05fb6d8036640abb89e7aa1488be5ca1436bc344571aa2114e75482769da29",  # exit 0
    "verify-a-p5": "96c3dd2301b199afe963bd96f52f37b6af44117e2e9f127ab60e8e96111dbea1",  # exit 0
    "verify-b-p3": "0e70e74019edfd801c4c7587475876bb75dd23ac49748d8351ec2ea9de934a29",  # exit 0
    "verify-b-p5": "cb89123450874754f01b0411e9462e4f8ca4e0173562d1a6a02e115e872648c8",  # exit 0
    "verify-p2": "bf501755a01a1f7dcb9838c5374797b5b767bda3cb2074a200188efa8d1e945d",  # exit 2
    "verify-bad-enum-cap": "3078f5ec6ccec9f14fe808fc3f15dd0485990b6ec48988c5326f663c6afc1a9a",  # exit 2
    "normal-form-gl2": "41db3ea979f066ae04a36d391efd1919f2b79d954990db0f010ab61d95ce089e",  # exit 0
    "normal-form-gl3": "05c594e05dca9bcb21cf8658adb7de75594fb35eed56cf08ed339bd844133dce",  # exit 0
    "normal-form-not-simple": "bb9041534254531722de398928f1342f6107ade7e90c8120c8c2d09a5ccc1dc9",  # exit 3
    "normal-form-reduced": "b12342020b44d2ebf65ec9a2e183563c18b08ad2f9ee1a649f725784c4b7b9fd",  # exit 0
    "normal-form-reduced-f2": "ff783ea78dc811799876d05f594c9fe0ef9740d6a5ee282accdda135b8b687a8",  # exit 0; a non-identity y in each of two blocks
    "normal-form-reduced-eps": "67337c13aff767eeb021a5fc176fba1310a9493d0053b695a077228c58fa2e49",  # exit 0; eps (3, 1, 1), three distinct y blocks
    "normal-form-no-b": "963790e1692320af6fabd855fe085c1715273099faaee9f01d2c063f56f33fa9",  # exit 2
    "strata-gl2-minuscule": "807dec56e6523e4b543184a14cc5d7a719f1620140dde00a83f5a469db7bd27e",  # exit 0
    "strata-gl2-empty": "4b60977a11b6e028052471c3b3c7a09da81bd5f98e04316f36dc5f29a6b1c809",  # exit 0
    "strata-gl2-wide": "22132e3cd05dcd5138a9d2afa708639cc72f9143936d5f66baff48f1943eb82f",  # exit 0
    "strata-gl3": "fb7c88b308d65d9ccedc01b785c9387b2eeab7c96c8652b85aec5769276ae19b",  # exit 0
    "strata-case-a": "2d9e667827b9142928e126b9701e2055a91a3fa09b22f0d96cff42cd509cd0b3",  # exit 0
    "strata-case-b": "fc05830dc60d62649be8c76101e632835006a34613172d61efc58682513539df",  # exit 0
    "strata-lift": "053cb8ca0b002e54929544b5ff46be429eb020a3b21ef28dc234f12641978718",  # exit 0
    "strata-non-dominant": "570f972c0be8075097dfae7559dffff675e3791dd840d8daac331952c2bb16e5",  # exit 2
    "strata-bad-json": "d09f917cb97b291b6fa98444afdebfc5c5f8f1bac6ab1ff3b7743e2ca0ce9655",  # exit 2
    "strata-bool-mu": "b2a70097378aac0e5aaa7d22e2f424f93ce6a7f0c372013dce3d2fb5a0eca0f1",  # exit 2
    "strata-no-mu": "4e7ed71c08a978e9a191b2316638b8b9bfc6df0e3ff6d06ebc820e9f8f90eea8",  # exit 2
    "strata-non-alcove": "acc8fc0f9aaafbf87012ddb5790abcbf6c1ce55db75c1a8e6410e10902400993",  # exit 3
    "strata-enum-cap": "a7f9c3d48bba00f5047934ab78638c2ecdfc97b55a8062e76d397a60bc6ad0ac",  # exit 3; regenerated when the join began to refuse on a block box, whose message names the block
    "graph-gl2-json": "651e894e0041df3083a148ea1c567179e21d2bf3bd910b09258d34b94568c5b9",  # exit 0
    "graph-gl2-dot": "f199a60bd3ea46b9344c423a24451ab1eadddef5ea9bd01dc5f9aef68e2a9427",  # exit 0
    "graph-gl3-json": "06960ddae06f31fde384276497ec05d86693cce5e1a1ac8b118e896a4e06c1d5",  # exit 0
    "graph-gl3-dot": "e24da1d0f1e7a4925dd64cadb9c993869691b1c72bea2be96cef0e146ed2a333",  # exit 0
    "graph-case-a-dot": "7d560385272affca09d615109b62199b4545a438e88d0fe1db5272b5ecae8c23",  # exit 0
    "graph-case-b-json": "48b134e5f4f7fd93e2f04e599d181590846244e6da745e58d35a20d4e2d41a2f",  # exit 0
    "multicopy-gl2": "7da14c34fd0664b0d12a2775fbb1588492a1d36fdc4fe0c1ca175f6d7ba30b1f",  # exit 0
    "multicopy-twist": "827be727edda471e53ec0745c4eeae481e2d115cb42738e60043f41b19d504c7",  # exit 0
    "multicopy-empty": "4adff11e58a62a59e7ef0acfc473010b9d277ab002168f4e616f99b51d514631",  # exit 3
    "multicopy-recursion-failure": "cc50846a1688e6397d3168e2b096b379ddf8dcf359513177ec37f50975f6d41e",  # exit 4
    "chain-gl3": "7a41bd5e0f02604937c4809149deb562951b64d788d1e1be900910221536441a",  # exit 0
    "chain-gl3-bad-endpoint": "23e27390a1711ae42cddee5f29fd3d80feeba7fe99feb97c4a14d9b9377d4798",  # exit 3
    "chain-gl3-bool-lam": "6bfea9ef60d63ff5d10afa96102058004f2e47fe63d3bb9476d3e0ab3efa250d",  # exit 2
    "chain-gl3-not-gl3": "fd6cb5d29cbedbea8d34740380a2a9186c3bbc77753786e9506235c549292cc8",  # exit 2
    "oracle-gl2-f3": "c02b1edc02ae987443d1a34be236f5a39ab86fa4bcf9c0564d0040c32dd718df",  # exit 0
    "oracle-gl2-f3-empty": "a36c86ce5a0029aa0967f131fe121e3bf11e44e9f731c647b5c281e7f8c53d60",  # exit 0
    "oracle-gl2-f3-m2": "aa4f1641959e9136234c43387205253ff0427cbdcb7c257429349a2b4740f913",  # exit 0
    "oracle-gl2-f9": "9fefbb46042b9d824483c1865f73b76b3a7cd1d1601aa97050c705af08c0c0a7",  # exit 0
    "oracle-gl2-f2": "5f62e79d2db6f1ba5f639c02323b8a9a1891504b89c9c2f2da75afbef3d34fab",  # exit 0
    "oracle-gl2-f4": "08d534d57d815fb381e443e0f57b6893b98259ca2f8b7ff4a88fe16f1d9a0831",  # exit 0
    "oracle-gl3-f2": "87eae3c26fa71b994ab826dd442ff1faa64aefeae3c02b2c817c3378a5787cdc",  # exit 0
    "oracle-box-too-small": "11cb6b44d700e2d83a07ef720ae098fba0aacf3058232aa7b78c88757282d021",  # exit 3
    "oracle-guard": "08ff25febe78b4c33949c2865edcca0b3da9b5a2a39f362ea73372a2651414a6",  # exit 3; regenerated for the slice guard, whose message gives no count
    "oracle-f2": "602ca0054b16eb874a80e788f48023207c50c564a6d110268870075c72c880e7",  # exit 2
    "oracle-field-deg-3": "9098b779032282403d3b38e4d633c881305a2c43d0f1bb34267b957309f9550b",  # exit 2
}


def run(argv, env, patches):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("KISIN_MAX_ENUM", raising=False)
        for key, value in env.items():
            mp.setenv(key, value)
        for target, value in patches.items():
            mp.setattr(target, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def test_table_covers_every_command():
    assert set(EXPECTED) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_snapshot(name):
    code, out, err = run(*COMMANDS[name])
    assert "Traceback" not in err
    assert digest(code, out, err) == EXPECTED[name], (name, code, out[:200], err)


if __name__ == "__main__":
    for name in COMMANDS:
        code, out, err = run(*COMMANDS[name])
        print(f'    "{name}": "{digest(code, out, err)}",  # exit {code}')
