"""Golden stdout of every CLI subcommand in every format.

Each case pins the exit code and the sha256 of stdout, so a change to any
output byte of any subcommand fails here.  The runs happen in a temporary
working directory with relative file names, because the config line echoes
them.  To re-pin after an intended output change, print
`(rc, hashlib.sha256(out.encode()).hexdigest())` for each case.
"""

import hashlib

import pytest

import rankinv.classify as cl
from conftest import (
    WORKED_EXAMPLE_ETA_POWER,
    WORKED_EXAMPLE_G_POWERS,
    WORKED_EXAMPLE_MODULUS,
)
from test_cli import run_cli

MODULUS_ARG = ":".join(str(c) for c in WORKED_EXAMPLE_MODULUS)
G_ARG = ",".join(f"a^{e}" for e in WORKED_EXAMPLE_G_POWERS)
ETA_ARG = f"a^{WORKED_EXAMPLE_ETA_POWER}"
FORMATS = ("pretty", "csv", "json")

# the stored codes: the worked [8,3] pair over F_{2^15}, a [4,2] pair plus a
# [4,1] code over F_{2^4}, small enough for --bruteforce, and a seeded [5,2]
# pair over F_{3^5}; the last two pairs are under the classify distance cap,
# so recognition decides their MRD criterion
WORKED = ("code", "build", "--m", "15", "--modulus", MODULUS_ARG, "--n", "8",
          "--k", "3", "--g", G_ARG)
SMALL = ("code", "build", "--m", "4", "--n", "4", "--random-g", "--seed", "5")
TERNARY = ("code", "build", "--p", "3", "--m", "5", "--n", "5", "--k", "2", "--theta", "2",
           "--random-g", "--seed", "7")
STORED = {
    "gab.json": (*WORKED, "--family", "Gabidulin"),
    "tw.json": (*WORKED, "--family", "Twisted", "--eta", ETA_ARG),
    "g4.json": (*SMALL, "--k", "2", "--family", "Gabidulin"),
    "t4.json": (*SMALL, "--k", "2", "--family", "Twisted", "--eta", "a^3"),
    "g41.json": (*SMALL, "--k", "1", "--family", "Gabidulin"),
    "g35.json": (*TERNARY, "--family", "Gabidulin"),
    "t35.json": (*TERNARY, "--family", "Twisted", "--eta", "a^17"),
}

# one code per family over F_{2^6}
FAMILY_BUILDS = {
    "Gabidulin": (),
    "Twisted": ("--eta", "a^5"),
    "GeneralizedTwisted": ("--eta", "a^3,a^7", "--t", "1,2", "--h", "0,1"),
    "NewGabI": ("--eta", "a^2"),
    "NewGabII": ("--eta", "a^2", "--k", "3"),
}

CASES = {
    **{f"build-{fam}-{fmt}": ("code", "build", "--family", fam, "--m", "6", "--n", "5",
                              "--k", "2", "--random-g", "--seed", "3", *extra,
                              "--format", fmt)
       for fam, extra in FAMILY_BUILDS.items() for fmt in FORMATS},
    **{f"build-worked-{fmt}": (*WORKED, "--family", "Gabidulin", "--out", "out.json",
                               "--format", fmt) for fmt in FORMATS},
    **{f"dual-{fmt}": ("code", "dual", "--file", "gab.json", "--format", fmt)
       for fmt in FORMATS},
    **{f"dual-out-{fmt}": ("code", "dual", "--file", "g4.json", "--out", "d4.json",
                           "--format", fmt) for fmt in FORMATS},
    **{f"invariants-all-{fmt}": ("invariants", "--file", "gab.json", "--format", fmt)
       for fmt in FORMATS},
    **{f"invariants-imax-{fmt}": ("invariants", "--file", "tw.json", "--sigma", "1",
                                  "--i-max", "4", "--format", fmt) for fmt in FORMATS},
    **{f"compare-consecutive-{fmt}": ("compare", "gab.json", "tw.json", "--trials", "5",
                                      "--format", fmt) for fmt in FORMATS},
    **{f"compare-unknown-{fmt}": ("compare", "gab.json", "gab.json", "--trials", "5",
                                  "--format", fmt) for fmt in FORMATS},
    **{f"compare-dimension-{fmt}": ("compare", "g4.json", "g41.json", "--format", fmt)
       for fmt in FORMATS},
    **{f"compare-bruteforce-{fmt}": ("compare", "g4.json", "t4.json", "--trials", "3",
                                     "--bruteforce", "--format", fmt) for fmt in FORMATS},
    **{f"compare-bruteforce-self-{fmt}": ("compare", "g4.json", "g4.json", "--trials", "3",
                                          "--bruteforce", "--format", fmt)
       for fmt in FORMATS},
    **{f"classify-{name}-{fmt}": ("classify", "gabidulin", "--file", f"{name}.json",
                                  "--format", fmt)
       for name in ("gab", "tw", "g4") for fmt in FORMATS},
    **{f"classify-{name}-{fmt}": ("classify", "gabidulin", "--file", f"{name}.json",
                                  "--theta", "2", "--format", fmt)
       for name in ("g35", "t35") for fmt in FORMATS},
    **{f"count-{fmt}": ("count", "--q", "2", "--k", "2", "--n", "4", "--m", "4",
                        "--format", fmt) for fmt in FORMATS},
    **{f"census-{fmt}": ("census", "--q", "2", "--n", "6", "--k", "2", "--seed", "1",
                         "--trials", "4", "--format", fmt) for fmt in FORMATS},
    **{f"census-ub-{fmt}": ("census", "--n", "6", "--k", "3", "--ub-only", "--format", fmt)
       for fmt in FORMATS},
    "error-domain": ("code", "build", "--family", "Gabidulin", "--m", "4", "--n", "6",
                     "--k", "2", "--random-g"),
    "error-missing-file": ("invariants", "--file", "missing.json"),
    "error-usage": ("count", "--q", "2", "--k", "2", "--n", "4", "--m", "4",
                    "--format", "yaml"),
}

GOLDEN = {
    "build-Gabidulin-csv": (0, "337fabf327c7dd92fa34a74b87cab05a2fde5be468aac2f8d8dc8a80beb0ef1b"),
    "build-Gabidulin-json": (0, "d11fd5fdc1361894984a14acc2175585248f302d6c5bac005e7df04acff20d29"),
    "build-Gabidulin-pretty": (0, "755280c6fd720ca3737f89d427d4fd51e393b6a1aae8b888da9e4b00150f73d1"),
    "build-GeneralizedTwisted-csv": (0, "f5efb61be7d7bb575b1830b2be596785beaf03b70bdba5425fe1d611a5987506"),
    "build-GeneralizedTwisted-json": (0, "74fb04487e71cfa9b1e9d255fe145296be375317670781e49c120addd46f7fa0"),
    "build-GeneralizedTwisted-pretty": (0, "baa2a1021c23e017f61d789d31136545e56044d5279bcce2eaa3ebe9b3c0cf1e"),
    "build-NewGabI-csv": (0, "1d495a4f4787ae19e8d5a6dd02cbe33f22294de7d29638d95d5d95d078de46fd"),
    "build-NewGabI-json": (0, "a98a5e899cbbf8f37e96dbb76bcc3df65657fa9f86fa68f01cebd7fa4dbec776"),
    "build-NewGabI-pretty": (0, "ed17e8aa1969e14bf5cb0fa79aa0242586b0627b2a992721f7eec67d2778c26d"),
    "build-NewGabII-csv": (0, "a8bedfa71ce05ebe870033451cd9a39b260d5654d67ee6430c12034829b623cb"),
    "build-NewGabII-json": (0, "0efc51aee6ec44245d84615530f822f56a270955d1f7a84f19113ec895e90791"),
    "build-NewGabII-pretty": (0, "0a77d9894db411ebcf44264a8aeab0d9e18de5517b379b466a637ee88ebf5933"),
    "build-Twisted-csv": (0, "66b4d074decaaca3838794a210ba42b25dedd3c78a164ffb1c49c3f82010a4f3"),
    "build-Twisted-json": (0, "bdba0817bae20744725ff984e1cbdfa1b022416805767e5d8762b16d6e8c7f02"),
    "build-Twisted-pretty": (0, "1dfc1056b28bdb16887a8e1fe5a78aaa43d8461d6a205e2843295142f13f2dc5"),
    "build-worked-csv": (0, "32b1389abac71b51b45a6e1e1ef00e207f89e2f77e13c77a20c4cfa01bb401eb"),
    "build-worked-json": (0, "c4f599580d33747ba941059504eac065b97ffe0219561c20b5e40fffa4f08e8c"),
    "build-worked-pretty": (0, "7cbac82324483e35ce605ad965bfce6ff1d88a99629bd4aab1402365029938d1"),
    "census-csv": (0, "fb1c5dfe17d4e377963213e1084c21fff778c1f632893be872813723eb939fb4"),
    "census-json": (0, "6b27bb3046db7e24affc53089b0e5032ee715b9c3bb020b2072260acf69e571d"),
    "census-pretty": (0, "87d19cbf2696e4179848bd4cbc8b4e75f2f50640d6ef6de3715d6da4d891c57c"),
    "census-ub-csv": (0, "da8ebcb68df38f9100b39c57a95a6f1c001293fe4dff416c354df049f9d16173"),
    "census-ub-json": (0, "e40d3a798be5fe9af74d48fee5fe7661d4e111a2b3877eccaedb45978016e6ef"),
    "census-ub-pretty": (0, "f728e1fefc273862ff2314aa4670fa25991125b52ed310682863e606d4d9a496"),
    "classify-g35-csv": (0, "280a06c3955fcb793c4e54b9739ed59ae89883f349af1e41a29c6817b26e85d6"),
    "classify-g35-json": (0, "dfe79aca1b3854e1f42196bb1bbc496997315f0cc9efc4337f5a3a5fcc0de515"),
    "classify-g35-pretty": (0, "6396417d389e60cbc6f3027d8f86a4fc5d637a79bb0cd2098230884ba2ff7aa5"),
    "classify-g4-csv": (0, "f3871898570029f89456b7e6739c5e61d6a9ec11583ad23e55da62f6aa7a5175"),
    "classify-g4-json": (0, "a6a0a1c38dd826126d320d047dd6f729c32a51f8c26416629907a24a08adba7d"),
    "classify-g4-pretty": (0, "f090bc9a25163e6d12813702cb4fce3fd3d4945491c5b2b64f6d77ab4bb0a04c"),
    "classify-gab-csv": (0, "12941c7e6e490480fb3e125e50e74171c58aa437d22df958b1d8403120f3b3c7"),
    "classify-gab-json": (0, "6ea6359941f10919a3b201f0588ced5f5def55e18fd900d247226e6ca9e4c534"),
    "classify-gab-pretty": (0, "6fc6c97937f9db9a746f189ee4e13e2fc18a4ad3672bd245414c1070da2e7cfe"),
    "classify-tw-csv": (0, "6f4e0d902a935792ab5e9549b460a7c58e9a9edac08d8c447352df3972061112"),
    "classify-tw-json": (0, "f7e576e1ea6f2459f786284528caa6b273c328d3ff96f6ca80d7c844b15221b1"),
    "classify-tw-pretty": (0, "fdab02211100ca78d0a0e555fd837b6ad2af4c2071452c5e5d576edb51e565f7"),
    "classify-t35-csv": (0, "607f9bcfcf93aca612ba8e1e5da2ea7163d0cd5c9c9b6e2415e6132b1148e073"),
    "classify-t35-json": (0, "2b8a8d4f999652405e5ebb568d6e8b88dd9005584bf9b906470b6e7049651fe3"),
    "classify-t35-pretty": (0, "3174ba566453269d3c88d21c8e0763165ea9d22e7190081b53bce456e508d688"),
    "compare-bruteforce-csv": (0, "332532a7da686a7985e04394034c669ec2bc13114b86b11be631edc2ca2150c8"),
    "compare-bruteforce-json": (0, "2255ee14fa7ff834565f7a1d9418a06d58115a8ca4714250cacb0d247dc8b973"),
    "compare-bruteforce-pretty": (0, "3964b5a6066fdb7a3ae5ce2ff8429b81a0d2b79af2fedec0947dd48fb160fca2"),
    "compare-bruteforce-self-csv": (0, "b835440a72cc69cfb3e0e324d08faf51245fd93cf8d4b6f96f18a6d50f7e373d"),
    "compare-bruteforce-self-json": (0, "3d54f29189e440c11e1159b3b3fceb77f1d2ee599b1e5420c01df16ae9968b96"),
    "compare-bruteforce-self-pretty": (0, "4b539f7eb34cfd70d759a43cdd7b4f81f74089c97bec8e1643dead613a7ac334"),
    "compare-consecutive-csv": (0, "5ee1124dbacbcedf7edfcaa3729f5a96638014b1e8b0c5bf054f9986957fcf78"),
    "compare-consecutive-json": (0, "fd6a743cbdb40ea699f1f4f8096bf7b969d49799511189b36ba928278d58b847"),
    "compare-consecutive-pretty": (0, "14b819780507dd3df7a01237646cb46762ee0cfb47e7b7ba271f60015e3f5e5e"),
    "compare-dimension-csv": (0, "ddcabf87f55f64ae6cc7a410cc62e2faea7277d3fe7a2dc7eee041a7414fceb8"),
    "compare-dimension-json": (0, "b0ee9767f41dae7065512d18a5a2d91b5f304ce72ebf84b3d27ef55e82e42875"),
    "compare-dimension-pretty": (0, "d14025869cff360f9597e2572373c1710a5d262479a3a2692dae5170dcb541b5"),
    "compare-unknown-csv": (0, "c638cfaa584ef17ab62b87048f400bb75ea54acc509024013bedbea54342aaef"),
    "compare-unknown-json": (0, "7ca4c5d23628f39ad981c1d6cc6afd9eea2e0ebcb5f3f620d407fc5a363320e2"),
    "compare-unknown-pretty": (0, "79d17d19066207170fade093401b48da5fc8a347695ce01dda5bafc4c69e6478"),
    "count-csv": (0, "b70501a50072e386fc627ed6fdb55cdc55ecf5092ccfb7154c9e84a617c7404d"),
    "count-json": (0, "999ade4ab6a3ec0bbb7e1964b68e10fea2ef90d10b64d31bf9293688e92e9a70"),
    "count-pretty": (0, "2ff0d7be67112e4c6d3d28175506e92f6810d4b40952d42b8591f1fc3afb8065"),
    "dual-csv": (0, "c8ad066a2284b5e54fa1a15a8dc00b305d279e4c58b72fa3126163dcd22fd6d8"),
    "dual-json": (0, "e7b7ba579344f0254d3849912788c08a259f2fa52add7e36cd3ead7b71d33a07"),
    "dual-out-csv": (0, "cf9dce3f1600e5aa710edfea98ba93465c53d2623a8247930917b9442a0c037f"),
    "dual-out-json": (0, "4a7abba94608d127ebab94962128a30e29fc1512dcbcde43379e7b5f8bc79ed1"),
    "dual-out-pretty": (0, "cd7ac12addd0c568ad53b53d3696092d7f77bef46c6507c722e020832279e1b9"),
    "dual-pretty": (0, "3d9218797e48387a5726b4f9c2781788f2545c5a02388f0b2eded8464cd03a9a"),
    "error-domain": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-missing-file": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error-usage": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariants-all-csv": (0, "15f0991f5c3d64f8a196131b6da037be8fd83df5924b4e19a50362edf9a54ed5"),
    "invariants-all-json": (0, "ff4790afc7d4a07c42dd3b98326b70253281f8a7d2b667eec73a97332c6c9156"),
    "invariants-all-pretty": (0, "16e5ea947fa8c90b861db63dba68b389186138bfd7a1ba8ec6d2516d7e3fd16e"),
    "invariants-imax-csv": (0, "26fc5f1f3f3e6b5b83c84f26c8e75f9ef7b743531628ab40f4d76eda1275d53f"),
    "invariants-imax-json": (0, "9662740a39d6dd69f6a5b93421301d8973aa273f8b96a02ac3e98bd32a420947"),
    "invariants-imax-pretty": (0, "2c3233b651d7a6d0dc83423100cff69b57df381c1397d8ab9345f7431cfcf6b4"),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        for name, argv in STORED.items():
            assert run_cli(*argv, "--out", name)[0] == 0
    return path


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_pinned(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    rc, out, _ = run_cli(*CASES[case])
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case]


def _witness_line(out):
    return [line for line in out.splitlines() if line.startswith("witness: ")]


def test_witness_line_of_each_kind(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    _, out, _ = run_cli("compare", "gab.json", "tw.json", "--trials", "5")
    assert _witness_line(out) == [
        "witness: sigma=1 s1=3,4,5,6,7,8 t1=3,2,1,0 s2=3,5,6,7,8,8 t2=3,1,0,0"]
    _, out, _ = run_cli("compare", "g4.json", "g41.json")
    assert _witness_line(out) == ["witness: k1=2 k2=1"]
    # no stored pair is separated only by the random triples, so stand one in
    verdict = cl.Verdict("Inequivalent",
                         {"invariant": "random_triples", "trial": 3, "triple": (0, 1, 3),
                          "dims1": (6, 1), "dims2": (5, 0)},
                         "triple (0, 1, 3): (sum,int) dims (6, 1) vs (5, 0)")
    monkeypatch.setattr(cl, "distinguish", lambda *a, **kw: verdict)
    _, out, _ = run_cli("compare", "gab.json", "tw.json")
    assert out.splitlines()[1:] == [
        "Inequivalent (triple (0, 1, 3): (sum,int) dims (6, 1) vs (5, 0))",
        "witness: trial=3 triple=0,1,3 dims1=6,1 dims2=5,0"]
    for fmt in ("csv", "json"):
        _, out, _ = run_cli("compare", "gab.json", "tw.json", "--format", fmt)
        assert _witness_line(out) == []
