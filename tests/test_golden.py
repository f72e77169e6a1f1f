"""Byte-level pins of every score-path command's output.

The digests were taken from the row-at-a-time implementation that preceded
the columnar ScoreTable path; any change to them is a change of output.
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
import math

import numpy as np
import pytest

from sasv.cli import main

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
