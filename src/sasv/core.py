"""Shared domain types: trial labels, score tables, cost/prior model, embeddings."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

PRIOR_SUM_TOL = 1e-9


class TrialLabel(enum.Enum):
    """Ground-truth class of a single verification trial."""

    TARGET = "target"
    NONTARGET = "nontarget"
    SPOOF = "spoof"

    @classmethod
    def from_string(cls, text):
        try:
            return LABELS[CODE_OF_TEXT[text]]
        except KeyError:
            raise ValueError(f"unknown trial label {text!r} "
                             f"(expected one of: target, nontarget, spoof)"
                             ) from None


# Label codes of the columnar ScoreTable: position in TrialLabel order.
LABELS = tuple(TrialLabel)
TARGET, NONTARGET, SPOOF = range(3)
CODE_OF_TEXT = {label.value: code for code, label in enumerate(LABELS)}
_CODE_OF_LABEL = {label: code for code, label in enumerate(LABELS)}


def label_codes(labels):
    """int8 codes (TARGET/NONTARGET/SPOOF) of a TrialLabel sequence.

    An int8 array is taken to hold codes already and is returned unchanged.
    """
    if isinstance(labels, np.ndarray) and labels.dtype == np.int8:
        return labels
    try:
        return np.fromiter(map(_CODE_OF_LABEL.__getitem__, labels),
                           dtype=np.int8, count=len(labels))
    except KeyError as exc:
        raise ValueError(f"not a TrialLabel: {exc.args[0]!r}") from None


def subsystem_task(codes, task):
    """(rows, y) for "sasv", "asv" or "cm": a mask of the trials that teach
    the task and a float64 0/1 label per trial (only rows count).  SASV
    learns target vs the rest on all trials; ASV learns target vs nontarget
    on bonafide trials (a spoof has no speaker label); CM learns bonafide
    vs spoof on all trials."""
    if task == "cm":
        return np.ones(codes.size, bool), (codes != SPOOF).astype(np.float64)
    rows = codes != SPOOF if task == "asv" else np.ones(codes.size, bool)
    return rows, (codes == TARGET).astype(np.float64)


class ScoreTable:
    """A scored trial list as columns: ids, float64 scores, int8 label codes.

    Iterating yields the rows as (enroll_id, test_id, score, TrialLabel).
    """

    __slots__ = ("enroll", "test", "scores", "codes")

    def __init__(self, enroll, test, scores, codes):
        self.enroll = enroll
        self.test = test
        self.scores = np.asarray(scores, dtype=np.float64)
        self.codes = label_codes(codes)
        if not (len(enroll) == len(test) == self.scores.shape[0]
                == self.codes.shape[0]):
            raise ValueError("score table columns differ in length")

    @classmethod
    def from_rows(cls, rows):
        """Build from (enroll_id, test_id, score, TrialLabel) tuples."""
        rows = list(rows)
        return cls([r[0] for r in rows], [r[1] for r in rows],
                   np.array([r[2] for r in rows], np.float64),
                   [r[3] for r in rows])

    def __len__(self):
        return len(self.enroll)

    def __iter__(self):
        labels = [LABELS[c] for c in self.codes.tolist()]
        return zip(self.enroll, self.test, self.scores.tolist(), labels)


_ID_FORBIDDEN = ("\t", "\n", "\r")


@dataclass(frozen=True)
class TrialRecord:
    """One protocol row: enrollment identity, test utterance and its label."""

    enroll_id: str
    test_id: str
    label: TrialLabel

    def __post_init__(self):
        for name, value in (("enroll_id", self.enroll_id),
                            ("test_id", self.test_id)):
            if not value:
                raise ValueError(f"{name} must be non-empty")
            if any(ch in value for ch in _ID_FORBIDDEN):
                raise ValueError(f"{name} {value!r} contains tab/newline")
        if not isinstance(self.label, TrialLabel):
            raise ValueError(f"label must be a TrialLabel, got {self.label!r}")


@dataclass(frozen=True)
class CostModel:
    """The six decision parameters of the three-class accept/reject task.

    Costs weigh the three error kinds (target miss, nontarget false alarm,
    spoof false alarm); priors are the class probabilities and must sum to 1.
    """

    c_miss_tar: float = 1.0
    c_fa_non: float = 10.0
    c_fa_spf: float = 20.0
    pi_tar: float = 0.9
    pi_non: float = 0.05
    pi_spf: float = 0.05

    def __post_init__(self):
        costs = (self.c_miss_tar, self.c_fa_non, self.c_fa_spf)
        if any(not math.isfinite(c) or c < 0 for c in costs):
            raise ValueError("costs must be finite and nonnegative")
        if not any(c > 0 for c in costs):
            raise ValueError("at least one cost must be positive")
        if not 0.0 < self.pi_tar < 1.0:
            raise ValueError(f"pi_tar must lie in (0,1), got {self.pi_tar}")
        for name, p in (("pi_non", self.pi_non), ("pi_spf", self.pi_spf)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must lie in [0,1), got {p}")
        total = self.pi_tar + self.pi_non + self.pi_spf
        if abs(total - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(
                f"priors sum to {total!r}, not 1 (tolerance {PRIOR_SUM_TOL}); "
                "use CostModel.with_renormalized_priors to renormalize")

    @classmethod
    def with_renormalized_priors(cls, c_miss_tar, c_fa_non, c_fa_spf,
                                 pi_tar, pi_non, pi_spf):
        """Build a CostModel after explicitly rescaling the priors to sum 1."""
        total = pi_tar + pi_non + pi_spf
        if total <= 0:
            raise ValueError("prior mass must be positive")
        return cls(c_miss_tar, c_fa_non, c_fa_spf,
                   pi_tar / total, pi_non / total, pi_spf / total)

    @property
    def rho(self):
        return derive_rho(self)

    @property
    def beta(self):
        return derive_beta(self)


def derive_rho(cm):
    """Spoof prevalence prior: spoof share of the combined negative mass."""
    denom = cm.pi_non + cm.pi_spf
    if denom <= 0:
        raise ValueError("rho undefined: pi_non + pi_spf must be positive")
    return cm.pi_spf / denom


def derive_beta(cm):
    """Target prior odds pi_tar / (1 - pi_tar)."""
    if not 0.0 < cm.pi_tar < 1.0:
        raise ValueError(f"beta undefined for pi_tar={cm.pi_tar}")
    return cm.pi_tar / (1.0 - cm.pi_tar)


DEFAULT_COST_MODEL = CostModel()


def first_invalid_row(ids, rows):
    """(k, reason) for the first row `EmbeddingStore.add` would reject, or
    None: its id repeats an earlier one or, failing that, its vector has a
    non-finite entry."""
    finite = np.isfinite(rows).all(axis=1)
    seen = set()
    for k, utt_id in enumerate(ids):
        if utt_id in seen:
            return k, f"duplicate utterance id {utt_id!r}"
        if not finite[k]:
            return k, f"vector for {utt_id!r} has non-finite entries"
        seen.add(utt_id)
    return None


class EmbeddingStore:
    """Named fixed-dimension real vectors for enrollment/test utterances.

    `vectors` is one (n, dim) float64 matrix whose row k holds the vector
    of ids()[k]; an id -> row index finds the rows.
    """

    def __init__(self, dim, ids=(), vectors=None):
        """An empty store, or vectors[k] (an (n, dim) array) under ids[k].

        The rows are checked once; the first bad one raises the ValueError
        `add` would have raised for it.
        """
        if not isinstance(dim, int) or dim <= 0:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        self.dim = dim
        ids = list(ids)
        rows = np.empty((0, dim)) if vectors is None else \
            np.asarray(vectors, dtype=np.float64)
        if rows.shape != (len(ids), dim):
            raise ValueError(f"vectors have shape {rows.shape}, expected "
                             f"({len(ids)}, {dim})")
        self.vectors = rows
        self._index = dict(zip(ids, range(len(ids))))
        if len(self._index) < len(ids) or not np.isfinite(rows).all():
            raise ValueError(first_invalid_row(ids, rows)[1])

    def add(self, utt_id, vector):
        """Append one vector; this copies the matrix, so build a large store
        in one step."""
        if utt_id in self._index:
            raise ValueError(f"duplicate utterance id {utt_id!r}")
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector for {utt_id!r} has shape {vec.shape}, "
                             f"expected ({self.dim},)")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"vector for {utt_id!r} has non-finite entries")
        self._index[utt_id] = len(self.vectors)
        self.vectors = np.concatenate((self.vectors, vec[None]))

    def get(self, utt_id):
        try:
            return self.vectors[self._index[utt_id]]
        except KeyError:
            raise KeyError(f"unknown utterance id {utt_id!r}") from None

    def __contains__(self, utt_id):
        return utt_id in self._index

    def __len__(self):
        return len(self._index)

    def ids(self):
        return list(self._index)

    def matrix(self, utt_ids):
        """The vectors for the given ids as an (n, dim) array, in order."""
        try:
            rows = np.fromiter(map(self._index.__getitem__, utt_ids),
                               np.intp)
        except KeyError as exc:
            raise KeyError(f"unknown utterance id {exc.args[0]!r}") from None
        return self.vectors[rows]
