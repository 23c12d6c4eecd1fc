"""Note text to reduced numeric features.

Per-admission note selection, tokenization against an embedded stopword
list (clinical negators deliberately retained), capped-vocabulary TF-IDF,
and variance-targeted dimensionality reduction: truncated SVD for the
sparse term weights (no centering), PCA for dense note embeddings
(column-mean centering). Both are cut from one exact dense thin SVD: the
variance targets keep a large share of each block's columns (vocabulary
size or embedding width), where an iterative truncated solver saves
nothing; a basis needs at least two rows. A text block is a pair
(hadm_ids ascending, matrix with one row per id), from ``select_notes``
or ``read_embeddings`` through the reduction; ``apply_text_block`` places
its rows on the cohort through ``frame.index_of``. Admissions without a
note get exact zero vectors in the reduced space plus a presence indicator
column.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, EmptyCorpus, IoFailure, TooFewRows
from .frame import PatientFrame, index_of, read_csv, read_header, write_csv

# 174 common English function words; negation terms ("no", "not", "nor")
# are kept out because they carry prognostic signal in clinical narrative.
STOPWORDS = frozenset("""
a about above after again against all although always am among amongst an
and another any anyhow anything anywhere are around as at away be because
been before being below beside besides between beyond both but by can
cannot could d despite did do does doing down during each either else
elsewhere enough even ever every everything everywhere few for from further
had has have having he her here hers herself him himself his how however i
if in indeed instead into is it its itself just ll m ma many maybe me
meanwhile might more moreover most must my myself now o of off on once only
onto or other our ours ourselves out over own per re s same shall she
should since so some such t than that the their theirs them themselves then
there these they this those through to too under until up upon us ve very
via was we were what when where which while who whom why will with within
would y you your yours yourself yourselves
""".split())


@dataclass
class CoverageReport:
    kind: str
    covered: int
    total: int

    @property
    def fraction(self):
        return self.covered / self.total if self.total else 0.0

    def __str__(self):
        return f"{self.kind} {self.covered} ({100.0 * self.fraction:.1f}%)"


def select_notes(notes, cohort, kind):
    """At most one note per cohort admission: the earliest charttime.

    An undated note loses to a dated one; among equal times the earlier row
    wins. Returns (hadm_ids ascending, their notes' texts, CoverageReport).
    """
    cohort_hadm = np.unique(cohort.values("hadm_id").astype(int))
    hadm = notes.values("hadm_id")
    ct = notes.values("charttime")
    t = np.where(np.isnan(ct), np.inf, ct)
    live = np.flatnonzero(np.isin(hadm, cohort_hadm))
    rows = live[np.lexsort((t[live], hadm[live]))]  # stable: ties keep row order
    rows = rows[np.unique(hadm[rows], return_index=True)[1]]  # each id's first row
    return (hadm[rows], notes.values("text")[rows].tolist(),
            CoverageReport(kind, len(rows), len(cohort_hadm)))


def normalize_text(text):
    """Lowercase, strip punctuation/digits (and ___ placeholders), drop stopwords."""
    chars = [c if c.isalpha() else " " for c in text.lower()]
    tokens = "".join(chars).split()
    return [t for t in tokens if t not in STOPWORDS]


@dataclass
class TfidfModel:
    vocabulary: list
    idf: np.ndarray
    df: np.ndarray
    n_docs: int

    def index(self):
        return {t: i for i, t in enumerate(self.vocabulary)}


def fit_tfidf(docs, max_terms=500):
    """Vocabulary of the ``max_terms`` highest-document-frequency terms.

    Ties break lexicographically. idf(t) = ln((1+N)/(1+df(t))) + 1.
    """
    n_docs = len(docs)
    if n_docs == 0 or all(len(d) == 0 for d in docs):
        raise EmptyCorpus("no non-empty documents")
    df = {}
    for doc in docs:
        for t in set(doc):
            df[t] = df.get(t, 0) + 1
    ranked = sorted(df, key=lambda t: (-df[t], t))[:max_terms]
    dfv = np.array([df[t] for t in ranked], dtype=float)
    idf = np.log((1.0 + n_docs) / (1.0 + dfv)) + 1.0
    return TfidfModel(ranked, idf, dfv, n_docs)


def transform_tfidf(model, doc):
    """tf*idf weights, L2-normalized; OOV tokens ignored; empty -> zeros."""
    index = model.index()
    vec = np.zeros(len(model.vocabulary))
    for t in doc:
        j = index.get(t)
        if j is not None:
            vec[j] += 1.0
    vec *= model.idf
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def corpus_matrix(model, docs):
    return np.vstack([transform_tfidf(model, d) for d in docs]) if docs else \
        np.zeros((0, len(model.vocabulary)))


@dataclass
class ReducedBasis:
    kind: str                 # "svd" | "pca"
    components: np.ndarray    # retained x d, orthonormal rows
    explained_ratio: np.ndarray
    center: np.ndarray        # None for svd
    retained: int

    def transform(self, X):
        X = np.asarray(X, dtype=float)
        if self.center is not None:
            X = X - self.center
        return X @ self.components.T


def fit_reduced_basis(matrix, kind, target_variance):
    """Smallest orthonormal basis explaining >= target_variance.

    ``svd`` factors the raw matrix; ``pca`` removes column means first.
    One dense thin SVD gives every singular value exactly; the retained
    count is the smallest k whose cumulative explained variance reaches
    the target. Component signs are LAPACK's.
    """
    if not 0.0 < target_variance <= 1.0:
        raise ValueError("target_variance must be in (0, 1]")
    if kind not in ("svd", "pca"):
        raise ValueError(f"unknown reduction kind {kind!r}")
    M = np.asarray(matrix, dtype=float)
    if M.shape[0] < 2:
        raise TooFewRows(f"a {kind} basis needs at least 2 rows, got {M.shape[0]}")
    center = None
    if kind == "pca":
        center = M.mean(axis=0)
        M = M - center

    total = float(np.sum(M * M))
    if total <= 0.0:
        raise ConvergenceFailure("matrix has no variance to explain")
    try:
        _, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from None
    ratios = (s * s) / total
    # the ratios of a full thin SVD sum to 1 within rounding, so this
    # tolerance always leaves a hit
    r = int(np.flatnonzero(np.cumsum(ratios) >= target_variance - 1e-9)[0] + 1)
    return ReducedBasis(kind, Vt[:r].copy(), ratios[:r].copy(), center, r)


TEXT_BLOCKS = (
    ("disch_tfidf_svd", "tfidf", "discharge"),
    ("radio_tfidf_svd", "tfidf", "radiology"),
    ("discharge_bert_pca", "embedding", "discharge"),
    ("radiology_bert_pca", "embedding", "radiology"),
)

# whole-number column flagging an admission with a note, per modality
INDICATORS = {"discharge": "has_discharge_note", "radiology": "has_radiology_note"}


def apply_text_block(cohort, blocks):
    """Append reduced text features to the cohort, zero-filling absent notes.

    ``blocks`` maps a column prefix to (hadm_ids ascending, reduced matrix
    with one row per id); each cohort row finds its id's row through
    ``index_of``. Missing-note zero vectors live in the reduced space, so
    they project to exactly zero regardless of centering. Adds the
    ``INDICATORS`` columns.
    """
    hadm = cohort.values("hadm_id")
    spec = [("hadm_id", cohort.kind("hadm_id"), hadm)]
    presence = {modality: np.zeros(len(hadm)) for modality in INDICATORS}
    for prefix, _, modality in TEXT_BLOCKS:
        if prefix not in blocks:
            continue
        ids, reduced = blocks[prefix]
        row = index_of(ids, hadm)
        mat = np.vstack([reduced, np.zeros(reduced.shape[1])])[row]  # -1: the zero row
        presence[modality][row >= 0] = 1.0
        spec += [(f"{prefix}_{j + 1}", "num", mat[:, j]) for j in range(mat.shape[1])]
    spec += [(name, "int", presence[modality]) for modality, name in INDICATORS.items()]
    return PatientFrame.from_columns(spec)


def save_basis(basis, path):
    """Write a ReducedBasis as CSV (center row first when present)."""
    r, lead = basis.retained, int(basis.center is not None)
    mat = np.vstack(([basis.center] if lead else []) + [basis.components[:r]])
    write_csv(PatientFrame.from_columns(
        [("role", "str", ["center"] * lead + ["component"] * r),
         ("index", "int", np.arange(1 - lead, r + 1, dtype=float)),
         ("explained_ratio", "num", np.concatenate([np.zeros(lead), basis.explained_ratio[:r]]))]
        + [(f"v{j}", "num", mat[:, j]) for j in range(mat.shape[1])]), path)


def read_embeddings(path):
    """CSV of hadm_id + dense embedding columns -> (hadm_ids ascending,
    matrix with one row per id).

    The first column must be hadm_id; a blank or non-numeric cell, or a
    repeated hadm_id, is an IoFailure.
    """
    header = read_header(path)
    if header[:1] != ["hadm_id"]:
        raise IoFailure(f"{path}: first column must be hadm_id, not {header[:1]}")
    frame = read_csv(path, [("hadm_id", "int")] + [(h, "num") for h in header[1:]])
    hadm = frame.values("hadm_id")
    mat = frame.matrix(header[1:])
    bad = np.isnan(hadm) | np.isnan(mat).any(axis=1)
    if bad.any():
        raise IoFailure(f"{path}: blank or non-numeric cell on data row "
                        f"{int(np.flatnonzero(bad)[0]) + 1}")
    ids, first, counts = np.unique(hadm, return_index=True, return_counts=True)
    if (counts > 1).any():
        raise IoFailure(f"{path}: hadm_id {ids[counts > 1][0]:.0f} appears more than once")
    return ids, mat[first]
