"""Output checks made apart from the program.

Nothing here imports `sasv`: every reader parses the documented file format
itself and every check recomputes its expectation with plain numpy.  A check
raises `Unreadable` when an output is missing or not in its format (the
operation failed) and `Mismatch` when a readable output is wrong.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

LABELS = ("target", "nontarget", "spoof")
TAR, NON, SPF = 0, 1, 2
LEAKY_SLOPE = 0.3            # the program's leaky-ReLU slope (nn.LEAKY_SLOPE)
CALIBRATION_SCALE_CAP = 50.0  # documented |w1| cap of the calibration fit
SIM_MEAN_SE = 5.0            # simulated class means: standard errors allowed


class Unreadable(Exception):
    """Output missing or not in its documented format: the operation failed."""


class Mismatch(Exception):
    """Readable output that disagrees with the independent computation."""


def _expect(ok, message):
    if not ok:
        raise Mismatch(message)


# ------------------------------------------------------------------ readers

@dataclass
class ScoreTable:
    enroll: list
    test: list
    scores: np.ndarray
    labels: np.ndarray     # int8 class codes TAR / NON / SPF


def _read_text(path):
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise Unreadable(f"{path}: {exc}") from exc


def _floats(tokens, where):
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise Unreadable(f"{where}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise Unreadable(f"{where}: non-finite value")
    return values


def label_codes(tokens, where):
    lab = np.array(tokens)
    codes = np.full(lab.shape, -1, dtype=np.int8)
    for code, text in enumerate(LABELS):
        codes[lab == text] = code
    if np.any(codes < 0):
        raise Unreadable(f"{where}: unknown label")
    return codes


def read_scores(path):
    """Parse `enroll<TAB>test<TAB>score<TAB>label` lines."""
    text = _read_text(path)
    if text and not text.endswith("\n"):
        raise Unreadable(f"{path}: last line not terminated")
    rows = text.count("\n")
    tok = text.replace("\n", "\t").split("\t")
    if len(tok) != 4 * rows + 1:
        raise Unreadable(f"{path}: not 4 tab-separated fields per line")
    return ScoreTable(tok[0:-1:4], tok[1:-1:4], _floats(tok[2:-1:4], path),
                      label_codes(tok[3:-1:4], path))


def read_protocol(path):
    """Parse `enroll<TAB>test<TAB>label` lines; returns (enroll, test, codes)."""
    text = _read_text(path)
    rows = text.count("\n")
    tok = text.replace("\n", "\t").split("\t")
    if len(tok) != 3 * rows + 1:
        raise Unreadable(f"{path}: not 3 tab-separated fields per line")
    return tok[0:-1:3], tok[1:-1:3], label_codes(tok[2:-1:3], path)


def read_embeddings(path):
    """Parse the SASVEMB1 binary format; returns ({id: float64 vector}, dim)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise Unreadable(f"{path}: {exc}") from exc
    if data[:8] != b"SASVEMB1" or len(data) < 17:
        raise Unreadable(f"{path}: bad magic")
    version, count, dim = struct.unpack_from("<BII", data, 8)
    if version != 1 or dim <= 0:
        raise Unreadable(f"{path}: bad header")
    pos, out = 17, {}
    try:
        for _ in range(count):
            (n,) = struct.unpack_from("<H", data, pos)
            utt = data[pos + 2:pos + 2 + n].decode("utf-8")
            pos += 2 + n
            vec = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
            out[utt] = vec.astype(np.float64)
            pos += 4 * dim
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise Unreadable(f"{path}: truncated entry: {exc}") from exc
    if pos != len(data) or len(out) != count:
        raise Unreadable(f"{path}: size or id count does not match header")
    return out, dim


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text, where):
    """json.loads that refuses NaN / Infinity, which are not JSON."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise Unreadable(f"{where}: not strict JSON: {exc}") from exc


def read_json(path):
    return strict_json(_read_text(path), path)


def read_csv(path, header, columns):
    text = _read_text(path)
    if not text.startswith(header + "\n"):
        raise Unreadable(f"{path}: header is not {header!r}")
    body = text[len(header) + 1:]
    rows = body.count("\n")
    tok = body.replace("\n", ",").split(",")
    if len(tok) != columns * rows + 1:
        raise Unreadable(f"{path}: not {columns} fields per line")
    return _floats(tok[:-1], path).reshape(rows, columns)


# --------------------------------------------------------- shared formulas

def stable_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lse_fusion(a, b, rho):
    """-log[(1-rho) e^-a + rho e^-b], written as one logaddexp."""
    return -np.logaddexp(math.log1p(-rho) - a, math.log(rho) - b)


@dataclass(frozen=True)
class Costs:
    c_miss: float = 1.0
    c_fa_non: float = 10.0
    c_fa_spf: float = 20.0
    pi_tar: float = 0.9
    pi_non: float = 0.05
    pi_spf: float = 0.05

    def adcf(self, p_miss, p_fa_non, p_fa_spf):
        value = (self.c_miss * self.pi_tar * p_miss
                 + self.c_fa_non * self.pi_non * p_fa_non
                 + self.c_fa_spf * self.pi_spf * p_fa_spf)
        return value / min(self.c_miss * self.pi_tar,
                           self.c_fa_non * self.pi_non
                           + self.c_fa_spf * self.pi_spf)


def min_adcf_sweep(scores, codes, costs):
    """Sort and count: normalized a-DCF at every threshold between distinct scores.

    Returns (min value, its threshold); ties go to the lowest threshold.  A
    trial at the threshold is accepted.
    """
    order = np.argsort(scores, kind="stable")
    s, c = scores[order], codes[order]
    n = s.size
    counts = [np.concatenate(([0], np.cumsum(c == k))) for k in (TAR, NON, SPF)]
    sizes = [int(k[-1]) for k in counts]
    if min(sizes) == 0:
        raise Mismatch("a class is empty")
    cuts = np.concatenate(([0], np.flatnonzero(s[1:] != s[:-1]) + 1, [n]))
    values = costs.adcf(counts[TAR][cuts] / sizes[TAR],
                        1.0 - counts[NON][cuts] / sizes[NON],
                        1.0 - counts[SPF][cuts] / sizes[SPF])
    best = int(np.argmin(values))
    k = int(cuts[best])
    tau = -math.inf if k == 0 else math.inf if k == n else \
        float((s[k - 1] + s[k]) / 2.0)
    return float(values[best]), tau


def adcf_counted(scores, codes, tau, costs):
    """Normalized a-DCF and its three rates, counted directly at tau."""
    tar, non, spf = (scores[codes == k] for k in (TAR, NON, SPF))
    rates = (np.count_nonzero(tar < tau) / tar.size,
             np.count_nonzero(non >= tau) / non.size,
             np.count_nonzero(spf >= tau) / spf.size)
    return costs.adcf(*rates), rates


def _close(x, y, rel=1e-12, abs_=1e-15):
    return abs(x - y) <= max(rel * max(abs(x), abs(y)), abs_)


# ------------------------------------------------------------------ checks

def check_score_simulation(asv, cm, counts, means, covs):
    """Exact class counts, unique ids, class means within SIM_MEAN_SE errors."""
    check_class_counts(asv.labels, counts)
    _expect(len(set(asv.test)) == len(asv.test)
            and len(set(asv.enroll)) == len(asv.enroll), "ids repeat")
    _expect(asv.enroll == cm.enroll and asv.test == cm.test
            and np.array_equal(asv.labels, cm.labels),
            "ASV and CM files list different trials")
    check_class_means(asv.scores, cm.scores, asv.labels, means, covs)


def check_class_counts(codes, counts):
    for k, label in enumerate(LABELS):
        n = int(np.count_nonzero(codes == k))
        _expect(n == counts[label], f"{n} {label} trials, expected "
                                    f"{counts[label]}")


def check_class_means(llr_asv, llr_cm, codes, means, covs):
    for k, label in enumerate(LABELS):
        mask = codes == k
        n = int(np.count_nonzero(mask))
        for axis, values in enumerate((llr_asv[mask], llr_cm[mask])):
            se = math.sqrt(covs[label][axis][axis] / n)
            gap = abs(float(np.mean(values)) - means[label][axis])
            _expect(gap <= SIM_MEAN_SE * se,
                    f"{label} mean on axis {axis} is {gap / se:.1f} "
                    "standard errors off")


def check_calibration(table, calib, task):
    """(w0, w1) is a stationary point of the logistic log-likelihood."""
    _expect(calib.get("task") == task, "task field does not match")
    w0, w1 = calib.get("w0"), calib.get("w1")
    if not all(isinstance(w, (int, float)) for w in (w0, w1)):
        raise Unreadable("calibration lacks numeric w0/w1")
    if abs(w1) == CALIBRATION_SCALE_CAP:
        return  # the documented cap on separable data
    if task == "asv":
        keep = table.labels != SPF
        s, y = table.scores[keep], (table.labels[keep] == TAR)
    else:
        s, y = table.scores, (table.labels != SPF)
    r = stable_sigmoid(w0 + w1 * s) - y
    g0, g1 = float(np.sum(r)), float(np.sum(r * s))
    _expect(max(abs(g0), abs(g1)) <= 1e-6,
            f"log-likelihood gradient ({g0:.3g}, {g1:.3g}) is not zero")


def check_fusion(asv, cm, asv_calib, cm_calib, fused, rho):
    """Every fused score is the log-sum-exp fusion of the calibrated inputs."""
    if (asv.enroll, asv.test) == (cm.enroll, cm.test):
        cm_scores = cm.scores
        _expect(np.array_equal(asv.labels, cm.labels), "label mismatch")
    else:
        index = {key: i for i, key in enumerate(zip(cm.enroll, cm.test))}
        rows = [index.get(key, -1) for key in zip(asv.enroll, asv.test)]
        _expect(min(rows) >= 0, "trial missing from CM scores")
        cm_scores = cm.scores[rows]
    _expect(fused.enroll == asv.enroll and fused.test == asv.test
            and np.array_equal(fused.labels, asv.labels),
            "fused file does not keep the ids and labels in order")
    a = asv_calib["w0"] + asv_calib["w1"] * asv.scores
    b = cm_calib["w0"] + cm_calib["w1"] * cm_scores
    want = lse_fusion(a, b, rho)
    tol = 8 * np.finfo(np.float64).eps * (np.abs(a) + np.abs(b) + 1.0)
    bad = np.flatnonzero(np.abs(fused.scores - want) > tol)
    _expect(bad.size == 0, f"{bad.size} fused scores differ, first at row "
                           f"{bad[:1]}")


def check_eval(table, report, costs, threshold):
    """min/actual a-DCF and both EERs against direct counts."""
    if not isinstance(report, dict):
        raise Unreadable("report is not a JSON object")
    want, _ = min_adcf_sweep(table.scores, table.labels, costs)
    _expect(_close(report["min_adcf"], want),
            f"min_adcf {report['min_adcf']!r} != sweep {want!r}")
    at_tau, rates = adcf_counted(table.scores, table.labels,
                                 report["min_threshold"], costs)
    _expect(_close(at_tau, want), "min_adcf is not attained at min_threshold")
    got = report["rates_at_min"]
    _expect((got["p_miss_tar"], got["p_fa_non"], got["p_fa_spf"]) == rates,
            "rates_at_min differ from counts at min_threshold")
    act, _ = adcf_counted(table.scores, table.labels, threshold, costs)
    _expect(report["act_threshold"] == threshold
            and _close(report["act_adcf"], act), "act_adcf differs")
    _expect(report["act_adcf"] >= report["min_adcf"], "act_adcf < min_adcf")
    _expect(report["n_trials"] == table.scores.size, "n_trials differs")
    tar = table.scores[table.labels == TAR]
    for key, code in (("sv", NON), ("spf", SPF)):
        neg = table.scores[table.labels == code]
        value, tau = report[f"{key}_eer"], report[f"{key}_eer_threshold"]
        p_miss = np.count_nonzero(tar < tau) / tar.size
        p_fa = np.count_nonzero(neg >= tau) / neg.size
        _expect(abs(value - p_miss) <= 1.0 / tar.size + 1e-12
                and abs(value - p_fa) <= 1.0 / neg.size + 1e-12,
                f"{key}_eer {value} is off the rates counted at its threshold")


def check_det(table, points, negatives):
    """DET staircase: end points, monotone, one vertex per distinct score + 1."""
    pos = table.scores[table.labels == TAR]
    neg = table.scores[table.labels == (SPF if negatives == "spoof" else NON)]
    p_fa, p_miss = points[:, 0], points[:, 1]
    _expect(points.shape[0] >= 2 and tuple(points[0]) == (0.0, 1.0)
            and tuple(points[-1]) == (1.0, 0.0), "end vertices are wrong")
    _expect(bool(np.all(np.diff(p_fa) >= 0) and np.all(np.diff(p_miss) <= 0)),
            "p_fa falls or p_miss rises")
    distinct = np.unique(np.concatenate((pos, neg)))[::-1]
    _expect(points.shape[0] == distinct.size + 1,
            f"{points.shape[0]} vertices for {distinct.size} distinct scores")
    # vertex k accepts every score >= the k-th largest distinct score
    pos_s, neg_s = np.sort(pos), np.sort(neg)
    want_miss = np.concatenate(
        ([1.0], np.searchsorted(pos_s, distinct) / pos.size))
    want_fa = np.concatenate(
        ([0.0], 1.0 - np.searchsorted(neg_s, distinct) / neg.size))
    _expect(np.allclose(p_fa, want_fa, rtol=1e-11, atol=1e-12)
            and np.allclose(p_miss, want_miss, rtol=1e-11, atol=1e-12),
            "vertex rates differ from counts")


def check_grid(grid, spec, rho, costs):
    """Row-major nodes, log-sum-exp fused score, Bayes accept flags."""
    n_a, n_c = spec["na"], spec["nc"]
    _expect(grid.shape == (n_a * n_c, 4), f"{grid.shape[0]} rows, expected "
                                          f"{n_a * n_c}")
    a_axis = np.linspace(spec["amin"], spec["amax"], n_a)
    c_axis = np.linspace(spec["cmin"], spec["cmax"], n_c)
    a, c = np.repeat(a_axis, n_c), np.tile(c_axis, n_a)
    _expect(np.allclose(grid[:, 0], a, rtol=1e-11, atol=1e-11)
            and np.allclose(grid[:, 1], c, rtol=1e-11, atol=1e-11),
            "nodes are not in row-major order")
    _expect(np.allclose(grid[:, 2], lse_fusion(a, c, rho), rtol=1e-11,
                        atol=1e-11), "s_sasv differs from the fusion formula")
    _expect(bool(np.all((grid[:, 3] == 0) | (grid[:, 3] == 1))),
            "accept flag not 0/1")
    # accept iff -log[u e^-a + v e^-c] > -log(beta), rho from the priors
    rho_p = costs.pi_spf / (costs.pi_non + costs.pi_spf)
    u = (1.0 - rho_p) * costs.c_fa_non / costs.c_miss
    v = rho_p * costs.c_fa_spf / costs.c_miss
    lhs = -np.logaddexp(math.log(u) - a, math.log(v) - c)
    rhs = -math.log(costs.pi_tar / (1.0 - costs.pi_tar))
    margin = lhs - rhs
    decided = np.abs(margin) > 1e-9 * np.maximum(1.0, np.abs(lhs))
    bad = np.flatnonzero(decided & ((margin > 0) != (grid[:, 3] == 1)))
    _expect(bad.size == 0, f"{bad.size} accept flags break the Bayes rule")


def check_embedding_simulation(asv_emb, cm_emb, protocol, cfg):
    """Exact counts, unique test ids, class geometry within standard errors."""
    (asv, d_asv), (cm, d_cm) = asv_emb, cm_emb
    enroll, test, codes = protocol
    _expect((d_asv, d_cm) == (cfg["d_asv"], cfg["d_cm"]), "dimensions differ")
    counts = [cfg["n_target"], cfg["n_nontarget"], cfg["n_spoof"]]
    for k in (TAR, NON, SPF):
        _expect(int(np.count_nonzero(codes == k)) == counts[k],
                f"{LABELS[k]} count differs")
    _expect(len(set(test)) == len(test), "test ids repeat")
    _expect(len(asv) == cfg["n_speakers"] + len(test) and len(cm) == len(test),
            "embedding files hold the wrong number of vectors")
    _expect(all(e in asv for e in set(enroll))
            and all(t in asv and t in cm for t in test),
            "protocol names an unknown utterance")
    sigma = cfg["sigma_w"]
    cm_vecs = np.stack([cm[t] for t in test])
    bon = cm_vecs[codes != SPF].mean(axis=0)
    spf = cm_vecs[codes == SPF].mean(axis=0)
    n_bon, n_spf = int(np.count_nonzero(codes != SPF)), counts[SPF]
    # bonafide CM mean is a unit vector; spoofs sit cm_margin away from it
    _expect(abs(np.linalg.norm(bon) - 1.0) <= SIM_MEAN_SE * sigma
            / math.sqrt(n_bon) + 1e-6, "bonafide CM mean is not unit length")
    se = sigma * math.sqrt(1.0 / n_bon + 1.0 / n_spf)
    _expect(abs(np.linalg.norm(spf - bon) - cfg["cm_margin"])
            <= SIM_MEAN_SE * se + 1e-6, "spoof CM displacement differs")


def score_checkpoint(ckpt, asv, cm, enroll, test):
    """Re-score trials with a wcos-mlp checkpoint's weights."""
    _expect(ckpt["architecture"] == "wcos-mlp"
            and ckpt["fusion_mode"] == "nonlinear", "unexpected architecture")
    w = np.asarray(ckpt["w_asv"], dtype=np.float64)
    e1 = np.stack([asv[i] for i in enroll]) * w
    e2 = np.stack([asv[i] for i in test]) * w
    s_asv = np.sum(e1 * e2, axis=1) / (np.linalg.norm(e1, axis=1)
                                       * np.linalg.norm(e2, axis=1))
    mlp = ckpt["cm_mlp"]
    _expect(all(act == "leaky_relu" for act in mlp["activations"]),
            "unexpected activation")
    h = np.concatenate([np.stack([asv[i] for i in test]),
                        np.stack([cm[i] for i in test])], axis=1)
    layers = list(zip(mlp["shapes"], mlp["weights"], mlp["biases"]))
    for k, (shape, flat, bias) in enumerate(layers):
        h = h @ np.asarray(flat).reshape(shape).T + np.asarray(bias)
        if k < len(layers) - 1:
            h = np.where(h > 0, h, LEAKY_SLOPE * h)
    s_cm = h[:, 0]
    llr_a = ckpt["asv_calib"]["w0"] + ckpt["asv_calib"]["w1"] * s_asv
    llr_c = ckpt["cm_calib"]["w0"] + ckpt["cm_calib"]["w1"] * s_cm
    rho = float(stable_sigmoid(ckpt["rho_logit"]))
    return lse_fusion(llr_a, llr_c, rho)


def check_training(ckpt, log_text, asv_emb, cm_emb, dev, epochs, costs):
    """Strict-JSON outputs; dev min a-DCF reproduced from the weights."""
    lines = log_text.splitlines()
    entries = [strict_json(line, "log line") for line in lines]
    _expect([e["epoch"] for e in entries] == list(range(1, epochs + 1)),
            f"log has {len(entries)} epoch lines, expected {epochs}")
    values = [e["dev_min_adcf"] for e in entries]
    best = values.index(min(values))
    _expect(ckpt["dev_min_adcf"] == values[best]
            and ckpt["config"]["best_epoch"] == best + 1
            and ckpt["dev_threshold"] == entries[best]["dev_threshold"],
            "checkpoint is not the log's best epoch")
    (asv, _), (cm, _) = asv_emb, cm_emb
    enroll, test, codes = dev
    fused = score_checkpoint(ckpt, asv, cm, enroll, test)
    value, tau = min_adcf_sweep(fused, codes, costs)
    _expect(abs(value - ckpt["dev_min_adcf"]) <= 1e-12,
            f"re-scored dev min a-DCF {value!r} != {ckpt['dev_min_adcf']!r}")
    _expect(_close(tau, ckpt["dev_threshold"], rel=1e-9, abs_=1e-12),
            f"re-scored dev threshold {tau!r} != {ckpt['dev_threshold']!r}")
    e1 = np.stack([asv[i] for i in enroll])
    e2 = np.stack([asv[i] for i in test])
    cosine = np.sum(e1 * e2, axis=1) / (np.linalg.norm(e1, axis=1)
                                        * np.linalg.norm(e2, axis=1))
    cos_value, _ = min_adcf_sweep(cosine, codes, costs)
    _expect(ckpt["dev_min_adcf"] < cos_value,
            f"trained back-end ({ckpt['dev_min_adcf']}) is no better than "
            f"cosine ASV ({cos_value})")


def rho_sweep_expectation(llr_asv, llr_cm, codes, costs):
    """First grid argmin of min a-DCF over the default 99-point rho grid."""
    grid = np.linspace(0.01, 0.99, 99)
    values = [min_adcf_sweep(lse_fusion(llr_asv, llr_cm, float(r)), codes,
                             costs)[0] for r in grid]
    best = int(np.argmin(values))
    return float(grid[best]), values[best]


def check_rho_sweep(result, expected):
    rho, value = result
    _expect(rho == expected[0] and _close(value, expected[1]),
            f"tune_fusion_rho gave {result}, expected {expected}")
