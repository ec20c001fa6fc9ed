"""Golden outputs: fixed-seed CLI runs must keep producing the same bytes.

Each case runs one command through ``cli.run`` at a small size, checks its
exit code (0 unless ``EXIT_CODES`` names another), and compares the sha256 of
every output its manifest lists with a recorded value.  The
manifest itself is not hashed because it records ``--output-dir``.  A change
that moves any of these hashes changes a number the package reports; it must
either be a bug or a deliberate, documented change of the random stream.
``fbm`` has no case: its paths go through a BLAS matmul whose last bits can
differ between machines.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fractalwalk
from fractalwalk.cli import run

CASES = {
    "generate-uniform": (
        ["generate", "--family", "uniform", "--T", "256", "--seed", "1"],
        {
            "uniform-T256-seed1.fwsq": "037a4bf0f1c29e7965007865bbf413335ed0a29bff654e29f9a90eaa0f9612b3",
            "uniform-T256-seed1.json": "21b2d9acb71ab510c06c78df89b0141782e61557a25f2ac641748ed31a512cc1",
        },
    ),
    "generate-frw": (
        ["generate", "--family", "frw", "--T", "256", "--delta", "0.2", "--base-len", "8",
         "--seed", "2"],
        {
            "frw-T256-seed2.fwsq": "0fcb3f8ce2432276788df658f159e09d0762bf418b853bb2bbd4a6a47aa34861",
            "frw-T256-seed2.json": "da549a7b3916d19464418f48d1cfbd143abcdd3c081b2bacd310ee9f0819d12a",
        },
    ),
    "generate-opt_frw": (
        ["generate", "--family", "opt_frw", "--T", "256", "--delta", "0.3", "--base-len", "4",
         "--flip-mode", "bernoulli", "--seed", "3", "--format", "csv"],
        {
            "opt_frw-T256-seed3.csv": "42aae956dcea9d300b6e156473e530df7d947f8345a1756493dbc0b264479380",
            "opt_frw-T256-seed3.json": "7b215f251a0d86c21cf5601111aab06de60001abd666402ea075cebc523a2190",
        },
    ),
    "generate-afrw": (
        ["generate", "--family", "afrw", "--T", "256", "--delta", "0.5", "--base-len", "1",
         "--seed", "4"],
        {
            "afrw-T256-seed4.fwsq": "f62c2914f468a1c897322fda46dad9573817e3981fc083fcb99974924b1205e0",
            "afrw-T256-seed4.json": "5a537fcbf75b5edd3aa99f5120ebdf44cc42ce80bf7aef2dd8c1a5fe47a86ca3",
        },
    ),
    "generate-aofrw": (
        ["generate", "--family", "aofrw", "--T", "256", "--delta", "0.4", "--base-len", "2",
         "--seed", "5"],
        {
            "aofrw-T256-seed5.fwsq": "f3aa7c60794f0bd55bf1adeefe1f1370310078a43b5dda83d619d44bf8b93608",
            "aofrw-T256-seed5.json": "dfa97d884183ccabcc2739b66f288c9a9b3ee11cc30e4b46b9ad038e425c9538",
        },
    ),
    # Augment-heavy: with one-bit base blocks and delta 0.5 most merges run out
    # of flippable bits and add +-2 to entries, across every level.
    "generate-afrw-augment": (
        ["generate", "--family", "afrw", "--T", "1024", "--delta", "0.5", "--base-len", "1",
         "--seed", "14"],
        {
            "afrw-T1024-seed14.fwsq": "040b5a541634cb25fb4def8eb255b320cb9c1f3f9ec846627c623193005651e2",
            "afrw-T1024-seed14.json": "91c0eb0a1fdec91d9fe20722da558552c9bea89b23c7a06c011d61f8c398c77c",
        },
    ),
    "generate-aofrw-augment": (
        ["generate", "--family", "aofrw", "--T", "1024", "--delta", "0.5", "--base-len", "1",
         "--seed", "15"],
        {
            "aofrw-T1024-seed15.fwsq": "1f7dcef80cb8943bebc98946d87502db32659d3a57fd616c3e1f3fd975381a2a",
            "aofrw-T1024-seed15.json": "5e3a1773c19b495cb22a431060106d6831fb92915a37f86689a1708d96b97e00",
        },
    ),
    # Odd-integer CSV: the augmented entries are written as +-1, +-3, ...
    "generate-afrw-csv": (
        ["generate", "--family", "afrw", "--T", "256", "--delta", "0.5", "--base-len", "1",
         "--seed", "18", "--format", "csv"],
        {
            "afrw-T256-seed18.csv": "9b5c16f7cdcfd327302dd9547d2caf708d1eec9e4cf18c88c3db1d523beec4ce",
            "afrw-T256-seed18.json": "15ee3316f4bc49421d8bf5406ee3010f9ed62f03b91f4e51aa7b3ad6cf18b302",
        },
    ),
    "generate-frw-bernoulli": (
        ["generate", "--family", "frw", "--T", "1024", "--delta", "0.3", "--base-len", "4",
         "--flip-mode", "bernoulli", "--seed", "16"],
        {
            "frw-T1024-seed16.fwsq": "83093c2d05868b74675a76a6506eea882be0227e24d48bed8a0f4a559f7dad6b",
            "frw-T1024-seed16.json": "b8c19c4b90516dc1e522d837a8076a3b10733f552484cb8450c63ee392a0d170",
        },
    ),
    "generate-entropy_conditioned": (
        ["generate", "--family", "entropy_conditioned", "--T", "256", "--k", "1.5", "--seed", "6"],
        {
            "entropy_conditioned-T256-seed6.fwsq": "77e2d6a8c2e5bcfb67ec26337a79d30cde85aa219c68ddefaae618c8ff679759",
            "entropy_conditioned-T256-seed6.json": "9d8266e45341f442e7ba9d7813dfee1e6df0ac391453ca15811d9fe68dadf639",
        },
    ),
    "stats": (
        ["stats", "--family", "opt_frw", "--T", "64", "--delta", "0.1", "--seed", "7",
         "--T-list", "64,128,256,512", "--trials", "300"],
        {
            "stats.csv": "ab4b7b618170709658ae580a9bad43fe966f009a67bb5ae43ef8654d243e9bf4",
            "stats.json": "4ce28d62d841c203ed9cff62225cbf3e682d96834a9b2967400fa48eb27a8519",
        },
    ),
    # Height-only runs on both sides of the base-height fill: table-read
    # Binomial(l, 1/2) blocks (l = 16, 1 and 8), and several row blocks per
    # merge level at T=4096.
    "stats-afrw-l16": (
        ["stats", "--family", "afrw", "--T", "256", "--delta", "0.1", "--base-len", "16",
         "--seed", "31", "--T-list", "256,1024,4096", "--trials", "2000"],
        {
            "stats.csv": "a3cf8cc29ef1beea50a6c521bbae4df09096c0032c5282e48e9e3359f1cb841c",
            "stats.json": "b1d334dacba9f4490b3c2037a664b55b5fae4fa086a3007e314e99ce1ff98b9b",
        },
    ),
    "stats-frw-l1": (
        ["stats", "--family", "frw", "--T", "256", "--delta", "0.1", "--base-len", "1",
         "--seed", "32", "--T-list", "256,1024,4096", "--trials", "500"],
        {
            "stats.csv": "9160a9c970892eaf0919e5fea552a458b36563648891766216a650cc24a849c3",
            "stats.json": "dbc5aeb83df0c733b34ba06e533b07307f5674693fbf4b33703429d68320e109",
        },
    ),
    "stats-aofrw-bernoulli": (
        ["stats", "--family", "aofrw", "--T", "256", "--delta", "0.2", "--base-len", "8",
         "--flip-mode", "bernoulli", "--seed", "33", "--T-list", "256,1024,4096", "--trials", "1000"],
        {
            "stats.csv": "ef2bf6d388cce1257ecfa74d02d0bacdcf5a3306e259449018caf261f8479e7d",
            "stats.json": "f9ff62b9ec41fa24844c6c1d288d3961b55038af4c09fdf72d2fe6686000d203",
        },
    ),
    # Augment-heavy heights: eligible counts derived from heights would go
    # below 0 here, and clamping them at 0 must leave the heights alone.
    "stats-afrw-l1": (
        ["stats", "--family", "afrw", "--T", "256", "--delta", "0.5", "--base-len", "1",
         "--seed", "34", "--T-list", "256,1024,4096", "--trials", "500"],
        {
            "stats.csv": "8637a9e5df799e641f795181151360a56c240eba3df255f433b18bf92534cb64",
            "stats.json": "1923d777a962c2828ffdda5477de91218a8b3ec6adef2a5d519e931b19930800",
        },
    ),
    "alphaq": (
        ["alphaq", "--family", "uniform", "--T", "1024", "--x", "256", "--alpha", "0.2",
         "--trials", "1000"],
        {"alphaq.json": "cdf3d24762d02dcbba3e4a8c984a5d3c7e3075adfb254e0367d82539261a1a30"},
    ),
    # int64 entries, a 2048-row chunk swept in many tiles and a one-row last chunk.
    "alphaq-afrw-chunks": (
        ["alphaq", "--family", "afrw", "--T", "4096", "--x", "4096", "--delta", "0.1", "--alpha", "0.2",
         "--trials", "2049"],
        {"alphaq.json": "74fe1e02b67422780b4a98c93cdb31596a824357f227a6f2aab627e5b86f0a57"},
    ),
    "sweep": (
        ["sweep", "--families", "uniform,opt_frw,entropy_conditioned", "--deltas", "0.1",
         "--T-list", "64", "--metrics", "deviation,delta_hat,alpha_q", "--trials", "1000",
         "--parallelism", "1", "--master-seed", "8"],
        {
            "sweep.csv": "67e047ea291cfe61b19a62443f40cca412d533430e07e0f791cb81b43f1d9cd2",
            "sweep-failures.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        },
    ),
    # frw's default base length at T=256 is 256, which leaves strict mode no
    # planted prefix: that cell fails (exit 1, see EXIT_CODES), and the other
    # three cells write their rows.
    "sweep-strict": (
        ["sweep", "--families", "uniform,opt_frw,entropy_conditioned,frw", "--deltas", "0.1",
         "--T-list", "256", "--metrics", "delta_hat", "--mode", "strict", "--trials", "1000",
         "--parallelism", "1", "--master-seed", "11"],
        {
            "sweep.csv": "bc5fecddd0c17796d9a53009c03da7191e3f702427a5ea05b27fc5c43390efe6",
            "sweep-failures.json": "3ac4bb3c9bd6c4f65e18ad3d40d77daac7604e494ead9c32c9ce367b9f851572",
        },
    ),
    "fractal": (
        ["fractal", "--alpha", "0.3", "--height", "200", "--format", "csv"],
        {
            "fractal-a0.3-h200.csv": "e81d251b97cddb79dda7d0fe4cd143dc0255fca445a1883d51c47a9c728ed8ba",
            "fractal-a0.3-h200.json": "58e247fd8eca6db949536a9166a6d617823fa3a999b206aca60cc53380bb5acb",
        },
    ),
    "theta": (
        ["theta", "--alpha", "0.37"],
        {"theta.json": "595349c6a19db26ae1162d3abf267628c6c52ceb99b1f6add67c8cc14b385579"},
    ),
    "predict-weighted_majority": (
        ["predict", "--family", "frw", "--T", "256", "--delta", "0.2", "--base-len", "8",
         "--seed", "9", "--predictor", "weighted_majority", "--trials", "40"],
        {"predict.json": "960e7816ff8a2a8f3d5a0ed7182a781731edfcb5ad2e9efbf87686d8ee8c707b"},
    ),
    "predict-adaptive_bettor": (
        ["predict", "--family", "afrw", "--T", "256", "--delta", "0.2", "--base-len", "8",
         "--seed", "10", "--predictor", "adaptive_bettor", "--theta", "8", "--trials", "40"],
        {"predict.json": "aa742074aba2dba418764c11973469a18bd30c1893a91c201284efd5217347cb"},
    ),
    # A 40-row augment-heavy batch: additions and recounts span many rows.
    "predict-afrw-augment": (
        ["predict", "--family", "afrw", "--T", "256", "--delta", "0.5", "--base-len", "1",
         "--seed", "17", "--predictor", "weighted_majority", "--trials", "40"],
        {"predict.json": "54c088a24df1ead6ff9bc2d41e96cb6eac2585a83b66e8826149b066ce41b770"},
    ),
    "predict-sign_of_prefix": (
        ["predict", "--family", "opt_frw", "--T", "256", "--delta", "0.2", "--seed", "12",
         "--predictor", "sign_of_prefix", "--window", "16", "--x", "32", "--trials", "40"],
        {"predict.json": "7f521f56dad2948c9ea6a86167b2576d048aabf463fc94652409eb64677b4661"},
    ),
    "predict-block_momentum": (
        ["predict", "--family", "frw", "--T", "256", "--delta", "0.2", "--base-len", "8",
         "--seed", "13", "--predictor", "block_momentum", "--block-len", "16", "--trials", "40"],
        {"predict.json": "c5cff84e01f7404fea07c1341f19d3d9cf3d43507301e1f9770b9a4f1840a0ba"},
    ),
    # 100 rows: the batch predictors cross row-block boundaries, and the last
    # block is partial.  The bettor stops 8 EXHAUSTED, 53 LOWER and 39 UPPER.
    "predict-adaptive_bettor-blocks": (
        ["predict", "--family", "frw", "--T", "256", "--delta", "0.2", "--base-len", "8",
         "--seed", "21", "--predictor", "adaptive_bettor", "--theta", "24", "--trials", "100"],
        {"predict.json": "9d2de8bf6baf578568d6fb848aa2c92775f42588f22295c64b8cb60d2bc4e565"},
    ),
    "predict-sign_of_prefix-afrw": (
        ["predict", "--family", "afrw", "--T", "256", "--delta", "0.3", "--base-len", "4",
         "--seed", "22", "--predictor", "sign_of_prefix", "--window", "32", "--x", "64",
         "--trials", "100"],
        {"predict.json": "8dab469cac87c12f7c38debe2f173c38456bfe96e8f09d5bc431c9fa94757c0a"},
    ),
    "predict-block_momentum-aofrw": (
        ["predict", "--family", "aofrw", "--T", "256", "--delta", "0.5", "--base-len", "1",
         "--seed", "23", "--predictor", "block_momentum", "--block-len", "16", "--trials", "100"],
        {"predict.json": "91962871882c65c53ed939b48fdf7f117d4c977486694302af788ffb90dfde68"},
    ),
    "predict-weighted_majority-aofrw": (
        ["predict", "--family", "aofrw", "--T", "256", "--delta", "0.5", "--base-len", "1",
         "--seed", "24", "--predictor", "weighted_majority", "--trials", "100"],
        {"predict.json": "7cdc6873a04a1a6c5ae458566180957e4710706f5ec8f7932464e4c833fb2e6a"},
    ),
    "inversion": (
        ["inversion", "--family", "uniform", "--T", "1024", "--seed", "5", "--min-len", "8"],
        {"inversion.json": "4cc7b200ddbc39a98124f671ea7a4cb7be09bdf55ee025dc6ac32e4bdc8ed9b8"},
    ),
    # Short enough for the exhaustive scan's one-pass path; its ratio is above
    # 0, so it pins a witness pair as well.
    "inversion-short": (
        ["inversion", "--family", "uniform", "--T", "32", "--seed", "5", "--min-len", "8"],
        {"inversion.json": "54065b7bb0712f5d5c617375977b038fa50847a00b362f8979e6d25bd75c7cd1"},
    ),
    "inversion-dyadic": (
        ["inversion", "--family", "uniform", "--T", "1024", "--seed", "5", "--min-len", "8",
         "--dyadic-only"],
        {"inversion.json": "843bcb338d7343920eb7da6eb42222b25979829721f448f711db154a4237c65d"},
    ),
    # Battery-size batches, up to T = 2**14: fills that start with half a PCG64
    # output buffered, and int8 reductions in int16.  The battery never reaches
    # int32 sums; tests/test_sequences.py covers that switch.
    "verify-quick": (
        ["verify", "--quick", "--only",
         "uniform-null,optfrw-unpredictability,entropy-predictable,frw-per-bit-payoff,alpha-q-inversion"],
        {"verify.json": "f74807d87e8ae64c5308e740e6c4f7b1a4311b748e7677c571e2644f71444a6e"},
    ),
    # The criteria that read the exact laws: the closed-form moment, the two
    # exact enumeration routes, and the RMS ceiling.
    "verify-quick-laws": (
        ["verify", "--quick", "--only", "afrw-exact-moment,recursion-decomposition-equivalence,rms-upper-bound"],
        {"verify.json": "17664b241a48ded91ae0b08ede4be8cccd630c627826946bdc7b04e95e07ad16"},
    ),
}

# ``inversion --input`` on the file written by the ``generate-afrw`` case.  Its
# ratio at this --min-len is above 0, so both witnesses are written.
INPUT_CASE = (
    ["inversion", "--input", "{gen}/afrw-T256-seed4.fwsq", "--min-len", "64"],
    {"inversion.json": "bb86115cfc927be4f79f1deb724259e3b6dceac46a440cd740850a1fb3ccbd55"},
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The cases whose command must exit with a code other than 0.
EXIT_CODES = {"sweep-strict": 1}


def _output_hashes(argv, out_dir, code: int = 0) -> dict[str, str]:
    assert run([*argv, "--output-dir", str(out_dir)]) == code
    manifest = json.loads((out_dir / f"{argv[0]}-manifest.json").read_text())
    return {out: _sha256(out_dir / out) for out in manifest["outputs"]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_hashes(tmp_path, name):
    argv, want = CASES[name]
    assert _output_hashes(argv, tmp_path, EXIT_CODES.get(name, 0)) == want


def test_inversion_of_written_file_matches_recorded_hash(tmp_path):
    _output_hashes(CASES["generate-afrw"][0], tmp_path / "gen")
    argv, want = INPUT_CASE
    argv = [a.format(gen=tmp_path / "gen") for a in argv]
    assert _output_hashes(argv, tmp_path / "inv") == want


def test_import_leaves_scipy_unloaded():
    code = "import sys, fractalwalk; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(fractalwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
