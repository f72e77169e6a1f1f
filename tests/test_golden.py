"""Byte-level pins of every score-path command's output and of training.

The score-path digests were taken from the row-at-a-time implementation that
preceded the columnar ScoreTable path, the training digests from the loop
that copied every parameter in and out of a dict on each step and ran both
heads while pretraining one; any change to them is a change of output.
Simulated scores, calibration, fused scores and grid accept flags all go
through numpy's exp/log/log1p/sqrt/cos/sin and math.log, whose last bit
differs between builds and CPU code paths: numpy 2.4 with its AVX-512 loops
switched off (NPY_DISABLE_CPU_FEATURES=X86_V4) already writes different
simulated scores, calibrations and fused scores.
The digests are compared only where those kernels give the same bits, on
fixed inputs, as where the digests were taken; elsewhere the commands still
run but the comparison is skipped.
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from sasv.cli import main
from sasv.core import DEFAULT_COST_MODEL, CostModel
from sasv.decision import CalibrationFitError, fit_calibration
from sasv.metrics import min_adcf

# sha256 of float_kernel_bytes() where GOLDEN was taken (x86_64, AVX-512,
# numpy 2.4.6)
FLOAT_KERNELS = \
    "31d061673e0968254f592ac31e89458663299afdf1997137bd54a849983803ed"


def float_kernel_bytes():
    """The float kernels the score path calls, applied to fixed inputs."""
    u = np.arange(4096) / 4096.0
    x = np.linspace(-40.0, 40.0, 4097)
    outputs = [np.exp(x), np.log(u[1:]), np.log1p(-u), np.sqrt(u),
               np.cos(2.0 * math.pi * u), np.sin(2.0 * math.pi * u),
               np.array([math.log(v) for v in (0.05, 0.1, 0.5, 0.9, 10.0)])]
    return b"".join(out.tobytes() for out in outputs)


GOLDEN = {
    "asv_scores.tsv":
        "8af80d7caa66826722bc90986950beb5a032b57b70e49193966497c37dd23825",
    "cm_scores.tsv":
        "aa4cdd8930b02793e5146bb6761f00207fff28cb692ceb2e0f43b7427875bb47",
    "asv_calib.json":
        "a658e89d2ddcdab23f37f4794aad274191a80b51f1774d530dfdfb71fb1eecc2",
    "cm_calib.json":
        "cb9cc07e75c65d5159ec5ce3dd763cf891286aac3082d8376d4d59d6c9c3d37c",
    "fused_nonlinear.tsv":
        "61796ff302042a8b5a2a9cdd47e811319eff372c0f38315814cf2263af40bfa7",
    "fused_linear.tsv":
        "4be4d60bac984f639321a7f91f3fdcb5c8b437fa915096cbd271cd0ce2233ddd",
    "report.json":
        "2c9ab89fae638191dc6f001f59325a2c823a1b3ccce6a7cb64524db46925ee4e",
    "det_spoof.csv":
        "0529087a0700ead74606038ac59e5b1a011f9f77ab52d3f203824fdabd6667bb",
    "det_nontarget.csv":
        "60238656601fbe63f7af1dd9c13150cb093692ccbe959cf6fda1ac7199a6f8ca",
    "grid.csv":
        "fd0ffc1e6fd11c8ccc4c7d79c7f9a1eef0d46352a88651cdd20c43bbf50ceb76",
    "grid_linear.csv":
        "f04fa312f1303090992c147192475254f93b325e8c864e6b075a01b9343bc70f",
    "grid_no_spoof.csv":
        "5d5b815cb4dda23da70168a2eaa5fdc12408d423d0cc4d553fb9d20818523612",
    "grid_no_nontarget.csv":
        "de9445179c7db34028e2fd3187b31862526fa83ffaae76bb9c1521538be3790a",
    "grid_no_fa_cost.csv":
        "8871623562ab6cd5d2ded505c71d82cc3ecc5094b45f640f47e149baf0d10784",
}


def test_score_pipeline_outputs_are_pinned(tmp_path):
    def out(name):
        return str(tmp_path / name)

    commands = [
        ["simulate", "--mode", "scores", "--out-dir", str(tmp_path),
         "--seed", "3"],
        ["calibrate", "--scores", out("asv_scores.tsv"), "--task", "asv",
         "--out", out("asv_calib.json")],
        ["calibrate", "--scores", out("cm_scores.tsv"), "--task", "cm",
         "--out", out("cm_calib.json")],
        *[["fuse", "--asv", out("asv_scores.tsv"),
           "--cm", out("cm_scores.tsv"),
           "--asv-calib", out("asv_calib.json"),
           "--cm-calib", out("cm_calib.json"), "--mode", mode,
           "--rho", "0.5", "--out", out(f"fused_{mode}.tsv")]
          for mode in ("nonlinear", "linear")],
        ["eval", "--scores", out("fused_nonlinear.tsv"), "--threshold", "0",
         "--report", out("report.json")],
        *[["det", "--scores", out("fused_nonlinear.tsv"),
           "--negatives", negatives, "--out", out(f"det_{negatives}.csv")]
          for negatives in ("spoof", "nontarget")],
        ["grid", "--mode", "nonlinear", "--rho", "0.5",
         "--out", out("grid.csv")],
        # the accept rule's branches: both weights, no spoof prior, no
        # nontarget cost, no false-alarm cost at all
        ["grid", "--mode", "linear", "--ptar", "0.5", "--pnon", "0.3",
         "--pspf", "0.2", "--out", out("grid_linear.csv")],
        ["grid", "--mode", "linear", "--ptar", "0.5", "--pnon", "0.5",
         "--pspf", "0", "--out", out("grid_no_spoof.csv")],
        ["grid", "--mode", "nonlinear", "--rho", "0.3", "--cfa-non", "0",
         "--out", out("grid_no_nontarget.csv")],
        ["grid", "--mode", "nonlinear", "--rho", "1.0", "--cfa-non", "0",
         "--cfa-spf", "0", "--out", out("grid_no_fa_cost.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    if hashlib.sha256(float_kernel_bytes()).hexdigest() != FLOAT_KERNELS:
        pytest.skip("exp/log/trig kernels round differently from where the "
                    "digests were taken")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in GOLDEN}
    assert digests == GOLDEN


# Training multiplies matrices through BLAS, whose kernels (and so the last
# bits of a product) depend on the CPU it picks them for.
def matmul_kernel_bytes():
    """MLP-shaped products on fixed inputs: forward, weight and delta."""
    u = np.sin(np.arange(32 * 384, dtype=np.float64)).reshape(32, 384)
    w = np.cos(np.arange(160 * 384, dtype=np.float64)).reshape(160, 384)
    x = u[:, :24]
    outputs = [x @ w[:, :24].T, u @ w.T, (u @ w.T).T @ u, (u @ w.T) @ w]
    return b"".join(out.tobytes() for out in outputs)


# sha256 of matmul_kernel_bytes() where TRAIN_GOLDEN was taken (x86_64,
# AVX-512, OpenBLAS 0.3.31 DYNAMIC_ARCH)
MATMUL_KERNELS = \
    "065f2f73ff351b88cfa6c6261d31f9f3ee3786e1b6de047b85d633f937e2b732"

TRAIN_SIM = {"n_speakers": 8, "d_asv": 16, "d_cm": 8, "sigma_w": 0.1,
             "delta": 1.0, "cm_margin": 2.0, "n_target": 60,
             "n_nontarget": 60, "n_spoof": 60}

# (architecture, loss, init, optimizer, fusion, lr) -> (checkpoint, log)
TRAIN_RUNS = [(arch, loss, init, "adam", "nonlinear", "0.000861")
              for arch in ("wcos-mlp", "mlp-mlp", "cosine-mlp")
              for loss in ("v1", "v2") for init in ("random", "pretrained")]
TRAIN_RUNS += [("wcos-mlp", "v2", "pretrained", "sgd", "nonlinear", "0.3"),
               ("mlp-mlp", "v1", "pretrained", "adam", "linear", "0.000861")]

TRAIN_GOLDEN = {
    ("wcos-mlp", "v1", "random", "adam", "nonlinear", "0.000861"): (
        "1b588d90111c42644a933c001eb988ace399dd3a8b3e92e48858140d5224791c",
        "6b03213ff4960d9b3a1109574520bfe5e9ae2261d11e3dbab7177f39cc2f69ec"),
    ("wcos-mlp", "v1", "pretrained", "adam", "nonlinear", "0.000861"): (
        "c9b0cda31fde28016b2db8022023ee1136f2dcddd7535cc3c6dba5b923589cb5",
        "81ac21df157502e6198702e71c5bcbbc6482a6455117f2fb49e4db8c3df6df56"),
    ("wcos-mlp", "v2", "random", "adam", "nonlinear", "0.000861"): (
        "687c3648329c9a2eeadac24a4a38652321989a07cf4525118322ed1e5a29fac9",
        "8cebc5b10aeada3bc8f99d0c19e592acb88cb0aab47f57ad3ec85f246975b3d7"),
    ("wcos-mlp", "v2", "pretrained", "adam", "nonlinear", "0.000861"): (
        "512c7e89930d594f7bd87f6b2bf7a0f782e67b8fb21673f7dc1cab0c2cd41387",
        "2bbf3c76c4033a610627cc99078a1240169c58f76e73775596120ea40c716daa"),
    ("mlp-mlp", "v1", "random", "adam", "nonlinear", "0.000861"): (
        "e93b5993377d9f2bd59f70b0f23699f88b270f69222ea9ee9f8c8d3ad5e04f6f",
        "fba117945b6f2cefcf4a63ffbf9388604dca7eed53112e1c8080b4b3af77ed2c"),
    ("mlp-mlp", "v1", "pretrained", "adam", "nonlinear", "0.000861"): (
        "0f6eecae11de0640aae86a0cb629d99c555618923e1446ac720ab164788d9e32",
        "add82f5424b3b5a766117bc4d6c22b19b57e321cafac824fc8563e32d00c773f"),
    ("mlp-mlp", "v2", "random", "adam", "nonlinear", "0.000861"): (
        "0d43fbafd7eebb71e4c3b8944ca35bc334957300576fb3e0c70890b8659eec47",
        "34ecc5cc0eb73ebec35d8ee5f99f483755d7fb4fd192bdd9b7a194a1c8343552"),
    ("mlp-mlp", "v2", "pretrained", "adam", "nonlinear", "0.000861"): (
        "2f1008455ffa17bca7a9654ad44d6b28fbdc1a3d8dd3e4dd9505452ce47e6eff",
        "9e5ceb96cfd183ed2a3d63a7e31295f4b903e9a946b06d0a7a1bb50fca0f4941"),
    ("cosine-mlp", "v1", "random", "adam", "nonlinear", "0.000861"): (
        "fbbe556c7ab90a763135adf75119ec3def0540474ea7ea49daf571bcb467f0a6",
        "da9c02d022c1598b8318812a4c67250455e8933ce5409aa72367ddc826ca2ca5"),
    ("cosine-mlp", "v1", "pretrained", "adam", "nonlinear", "0.000861"): (
        "1497b37d6dc9884a70e60fac230684bcdb60b5a69fcfb89c9f4777d5d46b4db7",
        "ea85484efb78a32f50288ca65aecb7083e9ea90e4a616588bc48db48a9330ca5"),
    ("cosine-mlp", "v2", "random", "adam", "nonlinear", "0.000861"): (
        "6d1a6c9b9e1009133e54fc827bd79d85d56ec4613ad0b4bd3be65eefc8ca56db",
        "38c4913c70b9f1c9006bcaacf301029d1d355d0d8356111b49faf67c7475acf4"),
    ("cosine-mlp", "v2", "pretrained", "adam", "nonlinear", "0.000861"): (
        "3d021134b5fa90636e976d6f0bde107ab1cb79c2cf8d86d8e832e285cc7aa12d",
        "e24bc72cc9e09874cce5a6d8da63daddbcb8122414eebac14bc9cdebfb3ee376"),
    ("wcos-mlp", "v2", "pretrained", "sgd", "nonlinear", "0.3"): (
        "44ff3ee4a66475e0cc80bc0854abfbcb77dd3e1bfc2c2c2bfca2de147a324230",
        "95992ce1e5e718efbafdf9f75fe9fe50144badd8649791c3372c1f0dadf1cb75"),
    ("mlp-mlp", "v1", "pretrained", "adam", "linear", "0.000861"): (
        "0d5c6cefe784d6b3bfee61990ecc78bd5e84b7338dc2d8ba410a0c2dc2d920e1",
        "f05d9ccbf769ebc1e1cdc2db13921398c47c06c0315145bd79f15868bef9f90d"),
}


def _split_protocol(directory):
    """Alternate rows of each class to train.tsv and dev.tsv."""
    by_class = {}
    for line in (directory / "protocol.tsv").read_text().splitlines(True):
        by_class.setdefault(line.rsplit("\t", 1)[-1], []).append(line)
    for name, start in (("train.tsv", 0), ("dev.tsv", 1)):
        (directory / name).write_text(
            "".join(line for lines in by_class.values()
                    for line in lines[start::2]))


def test_training_outputs_are_pinned(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(TRAIN_SIM))
    assert main(["simulate", "--mode", "embeddings", "--config", str(config),
                 "--out-dir", str(tmp_path), "--seed", "5"]) == 0
    _split_protocol(tmp_path)
    digests = {}
    for run in TRAIN_RUNS:
        arch, loss, init, optimizer, fusion, lr = run
        ckpt, log = tmp_path / "ckpt.json", tmp_path / "log.jsonl"
        assert main(["train", "--arch", arch, "--loss", loss, "--init", init,
                     "--optimizer", optimizer, "--fusion", fusion,
                     "--lr", lr, "--epochs", "3", "--batch", "32",
                     "--seed", "7",
                     "--asv-emb", str(tmp_path / "asv_emb.bin"),
                     "--cm-emb", str(tmp_path / "cm_emb.bin"),
                     "--train-proto", str(tmp_path / "train.tsv"),
                     "--dev-proto", str(tmp_path / "dev.tsv"),
                     "--out", str(ckpt), "--log", str(log)]) == 0, run
        digests[run] = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                             for path in (ckpt, log))
    if hashlib.sha256(float_kernel_bytes()).hexdigest() != FLOAT_KERNELS \
            or hashlib.sha256(matmul_kernel_bytes()).hexdigest() \
            != MATMUL_KERNELS:
        pytest.skip("float or matrix-product kernels round differently from "
                    "where the digests were taken")
    assert digests == TRAIN_GOLDEN


# min_adcf reports over a seeded corpus of ties, signed zeros, infinities,
# subnormals and scores near the largest double.  The corpus is drawn with
# integer and IEEE-exact operations only, and the sweep only counts, adds,
# multiplies and divides, so the digest is the same on every CPU.  Taken
# from the kernel that looked each class up in np.unique(scores) with
# searchsorted and counted it with bincount + cumsum.
ADCF_GOLDEN = \
    "ac301547b7b21d283272df77e99aa5e59e0500924e9723c11a6e081e1d889265"
DBL_MAX = sys.float_info.max
ADCF_COST_MODELS = [DEFAULT_COST_MODEL,
                    CostModel(1.0, 10.0, 20.0, 0.9, 0.01, 0.09),
                    CostModel(1.0, 1.0, 1.0, 0.5, 0.25, 0.25)]
FINITE_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0,
               np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]
# no -0.0 next to -inf: when the minimum lies just above -inf the threshold
# is the next distinct score itself, and where that is a tie of 0.0 and
# -0.0, which of the two the sort puts first decides its sign
EXTREME_POOL = [0.0, 1.0, -1.0, DBL_MAX, np.nextafter(DBL_MAX, 0.0),
                -DBL_MAX, 1.6e308, 1.7e308, -1.7e308, np.inf, -np.inf]


def adcf_corpus(count=120, n_max=600, seed=13):
    """(scores, codes) pairs, every class present in each."""
    rng = np.random.default_rng(seed)

    def sign(n):
        return rng.choice([-1.0, 1.0], n)

    kinds = [
        lambda n: (rng.random(n) + rng.random(n) + rng.random(n) - 1.5) * 2,
        lambda n: rng.integers(-3, 4, n).astype(np.float64),
        lambda n: np.round(rng.random(n) * 0.06 - 0.03, 2),  # with -0.0
        lambda n: sign(n) * np.ldexp(1.0 + rng.random(n),
                                     rng.integers(-996, 997, n)),
        lambda n: rng.choice(FINITE_POOL, n),
        lambda n: rng.choice(EXTREME_POOL, n),
        lambda n: np.where(rng.random(n) < 0.2, sign(n) * np.inf,
                           rng.integers(-2, 3, n).astype(np.float64)),
    ]
    for i in range(count):
        n = int(rng.integers(3, 12 if i % 3 == 0 else n_max))
        scores = kinds[i % len(kinds)](n)
        codes = rng.integers(0, 3, n).astype(np.int8)
        codes[rng.choice(n, 3, replace=False)] = [0, 1, 2]
        yield scores, codes


def test_min_adcf_reports_are_pinned():
    reports = [repr(min_adcf(scores, codes, cm, normalized))
               for scores, codes in adcf_corpus()
               for cm in ADCF_COST_MODELS for normalized in (True, False)]
    assert len(reports) == 720
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == ADCF_GOLDEN


# fit_calibration over a seeded corpus: overlapping Gaussians, tied integer
# scores, separable data whose |w1| reaches the FIT_SCALE_CAP, and scores so
# large that the Newton step overflows (the error text is part of the
# digest).  The fit calls exp and log1p, so the digest is compared only
# where FLOAT_KERNELS matches.  Taken from the fit that computed w0 + w1 s
# and e^-|z| afresh in each Newton iteration.
FIT_GOLDEN = \
    "cc6821d2eb2b783ee314033db667e350bfa52615ec029106fe51fac67b13c6dc"


def fit_corpus(count=48, n_max=3000, seed=29):
    """(scores, labels) pairs, both labels present in each."""
    rng = np.random.default_rng(seed)
    kinds = [
        lambda y: rng.normal(0.0, 1.0, y.size) + 2.0 * y - 1.0,
        lambda y: rng.normal(0.0, 3.0, y.size) * (0.5 + y) + 4.0 * y,
        lambda y: (rng.integers(-3, 4, y.size) + y).astype(np.float64),
        lambda y: (2.0 * y - 1.0) * (0.1 + rng.random(y.size)),
        lambda y: (1.0 - 2.0 * y) * (0.1 + rng.random(y.size)),
        lambda y: (2.0 * y - 1.0) * 1e200 + rng.normal(0.0, 1e199, y.size),
    ]
    for i in range(count):
        n = int(rng.integers(2, 12 if i % 4 == 0 else n_max))
        y = rng.integers(0, 2, n).astype(np.float64)
        y[:2] = [0.0, 1.0]
        yield kinds[i % len(kinds)](y), y


def fit_outcome(scores, labels):
    try:
        with np.errstate(all="ignore"):
            return repr(fit_calibration(scores, labels))
    except CalibrationFitError as exc:
        return f"CalibrationFitError: {exc}"


def test_calibration_fits_are_pinned():
    outcomes = [fit_outcome(s, y) for s, y in fit_corpus()]
    assert any("w1=50.0)" in o for o in outcomes)
    assert any("w1=-50.0)" in o for o in outcomes)
    assert any(o.startswith("CalibrationFitError") for o in outcomes)
    if hashlib.sha256(float_kernel_bytes()).hexdigest() != FLOAT_KERNELS:
        pytest.skip("exp/log kernels round differently from where the "
                    "digest was taken")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == FIT_GOLDEN
