"""Multi-label datasets with candidate labels: parsing, noise, splits.

Two text formats are supported. Both are UTF-8 with LF line endings and
start with a ``#n d l`` header line:

* ``sparse-multilabel``: one instance per line, ``L f:v f:v ...`` where
  ``L`` is a comma-separated list of 0-based label indices (an empty
  list is forbidden) and each ``f:v`` pair holds a 0-based feature
  index with its real value. Files written after noise injection carry
  two label blocks separated by ``|``: ``L_cand|L_truth``.
* ``dense-csv``: ``x1,...,xd;y1,...,yl`` per line with binary labels,
  optionally followed by a third ``;t1,...,tl`` ground-truth block.

Every dataset file is read by one ``_read``: ``read_table``, then one
parse of its rows that checks syntax only and returns each row's feature
text with the arrays; either every row carries a ground-truth block or
none does. A sparse file goes through one loop over its rows. A dense file
is three float tables: ``_blocks``, the one place a row is split at ``;``,
cuts its rows into blocks, and the feature, candidate and ground-truth
blocks are each parsed by ``parse_float_rows``. A bad row, label value or
label set raises an error naming its line of the file. ``load`` builds a
``Dataset`` from the parse, ``load_truth`` runs it on the label blocks
alone, and ``_write_dataset`` lays out every row ``save`` and
``inject_noise_file`` write, the latter with ``_read``'s feature texts.
``_as_binary`` is the one 0/1 check on label matrices: datasets, the
dataset readers, the prediction reader and writer and the metrics all go
through it, and ``_check_label_sets`` holds the rules on label sets that
``Dataset`` and ``_read`` share.

Floats are serialized with ``repr`` so save followed by load restores
every matrix bit-exactly. The enrichment, model and prediction files
share the ``#header`` + rows layout: ``read_table`` reads all of them,
``parse_float_rows`` parses every float table of datasets, enrichments,
models and predictions (one C-level pass, with the row loop
``parse_float_row`` as the error path), and ``write_lines`` writes every
file pmltk produces, one line at a time.

Randomness uses numpy's PCG64 generator, so seeded operations are
reproducible across platforms. Datasets are immutable by convention:
no operation mutates an existing instance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ParseError,
    RangeError,
    StateError,
    ValidationError,
)

SPARSE_FORMAT = "sparse-multilabel"
DENSE_FORMAT = "dense-csv"
FORMATS = (SPARSE_FORMAT, DENSE_FORMAT)


def _as_binary(M, name, lines=None):
    """``M`` as an int8 0/1 matrix. A non-binary entry raises
    ``ValidationError`` naming its row, or its file line when ``lines``
    maps rows to lines."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d matrix, got ndim={M.ndim}")
    bad = (M != 0) & (M != 1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        where = f"row {i}" if lines is None else f"line {lines[i]}"
        raise ValidationError(f"{where}: {name} must be binary (0/1 entries), got {M[i, j]}")
    return M.astype(np.int8)


def _check_label_sets(Y, Ytruth, lines=None):
    """The label rules of a ``Dataset`` on its 0/1 int8 matrix ``Y``: every
    row carries at least one and at most l-1 candidates, and ``Ytruth``,
    when given, is a 0/1 matrix of ``Y``'s shape with at least one label
    per row, which ``Y`` covers.
    Returns ``Ytruth`` as int8 (or None), with its 0/1 check run first.
    ``Dataset`` and ``_read`` both run them; an error names its row, or
    its file line when ``lines`` maps rows to lines."""
    def where(rows):  # the first offending row
        i = int(np.argmax(rows))
        return f"instance {i}" if lines is None else f"line {lines[i]}: instance"

    Yt = None if Ytruth is None else _as_binary(Ytruth, "Ytruth", lines)
    l = Y.shape[1]
    sums = Y.sum(axis=1)
    if (sums < 1).any():
        raise ValidationError(f"{where(sums < 1)} has an empty candidate label set")
    if (sums > l - 1).any():
        raise ValidationError(f"{where(sums == l)} carries all {l} labels; at most l-1 are allowed")
    if Yt is None:
        return None
    if Yt.shape != Y.shape:
        raise ValidationError(f"Ytruth shape {Yt.shape} does not match Y shape {Y.shape}")
    empty = ~Yt.any(axis=1)
    if empty.any():
        raise ValidationError(f"{where(empty)} has an empty ground-truth label set")
    uncovered = (Yt > Y).any(axis=1)
    if uncovered.any():
        at = "" if lines is None else f"line {lines[int(np.argmax(uncovered))]}: "
        raise ValidationError(f"{at}Ytruth must be covered by Y elementwise")
    return Yt


@dataclass(frozen=True)
class Dataset:
    """A (partial) multi-label dataset.

    ``X`` is the dense n x d feature matrix, ``Y`` the binary n x l
    candidate label matrix and ``Ytruth`` the optional ground-truth
    matrix, kept only for evaluation. Every row of ``Y`` carries at
    least one and at most l-1 labels. ``Ytruth``, when present, carries
    at least one label per row and is covered by ``Y`` elementwise.
    """

    X: np.ndarray
    Y: np.ndarray
    Ytruth: Optional[np.ndarray] = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be a 2-d matrix, got ndim={X.ndim}")
        Y = _as_binary(self.Y, "Y")
        if X.shape[0] != Y.shape[0]:
            raise ValidationError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]}"
            )
        n, d = X.shape
        l = Y.shape[1]
        if n == 0 or d == 0 or l == 0:
            raise ValidationError(f"dimensions must be positive, got n={n} d={d} l={l}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Ytruth", _check_label_sets(Y, self.Ytruth))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def l(self) -> int:
        return self.Y.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row subset as a new Dataset; indices keep the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        Yt = None if self.Ytruth is None else self.Ytruth[idx]
        return Dataset(self.X[idx], self.Y[idx], Yt)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class NoiseConfig:
    """Synthetic corruption level: each instance with g ground-truth labels
    receives round-half-up(g*a/100) random irrelevant candidates."""

    a: int
    seed: int = 0

    def __post_init__(self):
        if self.a < 0:
            raise ConfigError(f"noise percentage must be >= 0, got {self.a}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SplitSpec:
    """Random train/test partition parameters."""

    train_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must lie in (0,1), got {self.train_fraction}"
            )
        _check_seed(self.seed)


def read_table(path, kind: str, fields, floats: int = 0):
    """Read a pmltk text file: a ``#<fields>`` header line, then one row
    per non-blank line.

    ``fields`` may also be a tuple of header layouts with distinct field
    counts; the header follows the one with its count. All header fields
    but the last ``floats`` are dimensions and must be positive integers;
    the first one is the row count, checked against the file. Returns
    the header values and the rows as ``(lineno, stripped line)`` pairs,
    where ``lineno`` is the 1-based line of the file, so blank lines do
    not shift it. A file that cannot be read raises ``DataError`` naming
    ``kind`` and ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None
    parts = raw[0].strip().lstrip("#").split()
    layouts = (fields,) if isinstance(fields, str) else fields
    if not raw[0].startswith("#") or len(parts) not in [len(f.split()) for f in layouts]:
        raise ParseError("expected header " + " or ".join(f"'#{f}'" for f in layouts), line=1)
    ndims = len(parts) - floats
    try:
        dims = [int(p) for p in parts[:ndims]]
        extra = [float(p) for p in parts[ndims:]]
    except ValueError as exc:
        raise ParseError(f"bad header field: {exc}", line=1) from None
    if min(dims) <= 0:
        raise ParseError(
            f"header dimensions must be positive, got {' '.join(parts[:ndims])}", line=1
        )
    rows = []
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if line:
            rows.append((lineno, line))
    if len(rows) != dims[0]:
        raise ParseError(
            f"header declares {dims[0]} rows but file has {len(rows)}",
            line=rows[-1][0] if rows else 1,
        )
    return (*dims, *extra), rows


def parse_float_row(text, width, lineno, what):
    """``width`` comma-separated floats; a bad row raises ``ParseError``."""
    toks = text.split(",")
    if len(toks) != width:
        raise ParseError(
            f"expected {width} {what} values, got {len(toks)}", line=lineno
        )
    try:
        return list(map(float, toks))
    except ValueError as exc:
        raise ParseError(f"bad {what} value: {exc}", line=lineno) from None


def _loadtxt(texts, shape):
    """The row strings ``texts`` as a float matrix of ``shape``, parsed in
    one C-level pass, or None when ``np.loadtxt`` rejects a value or the
    shape differs. Every value ``np.loadtxt`` accepts, ``float()`` accepts
    too and reads as the same float; ``float()`` alone takes digit
    separators (``1_0``) and non-ASCII digits."""
    try:
        M = np.loadtxt(texts, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return M if M.shape == shape else None


def parse_float_rows(rows, width, what):
    """The ``(lineno, text)`` rows of ``width`` comma-separated floats as a
    matrix: one float table of a dense dataset, an enrichment, a model or
    predictions, parsed in one C-level pass. When that fails the rows go
    through ``parse_float_row`` one by one, which raises the first bad
    row's ``ParseError`` or reads the values only ``float()`` accepts."""
    texts = [text for _, text in rows]
    # np.loadtxt skips empty lines, and warns when all of them are empty
    M = _loadtxt(texts, (len(rows), width)) if all(texts) else None
    if M is None:
        M = np.array([parse_float_row(text, width, lineno, what) for lineno, text in rows])
    return M


def csv_rows(M):
    """Rows of a 2-d array as comma-separated ``repr`` values, which
    restore every float bit-exactly. Yields one row at a time, so no
    Python object per matrix entry is held at once."""
    return (",".join(map(repr, row.tolist())) for row in np.asarray(M))


def write_lines(path, kind: str, lines) -> None:
    """Write ``lines`` to ``path`` as UTF-8, each ended by an LF.

    Every file pmltk writes goes through here. ``lines`` may be any
    iterable; it is written one line at a time, so a generator's text is
    never held whole. The bytes are those of ``"\\n".join(lines) + "\\n"``,
    so no lines still write one LF. A path that cannot be written raises
    ``DataError`` naming ``kind`` and ``path``.
    """
    lines = iter(lines)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(next(lines, ""))
            for line in lines:
                fh.write("\n")
                fh.write(line)
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {kind} {path}: {exc}") from None


def _parse_label_list(text: str, l: int, lineno: int) -> list[int]:
    out = []
    for tok in text.split(",") if text else ():
        try:
            j = int(tok)
        except ValueError:
            raise ParseError(f"bad label index {tok!r}", line=lineno) from None
        if not 0 <= j < l:
            raise RangeError(f"label index {j} out of range [0,{l})", line=lineno)
        out.append(j)
    return out


def _sparse_row(labels, features, lineno, x, y, t) -> bool:
    """Fill one instance's rows from its label token ``L_cand[|L_truth]`` and
    feature text ``f:v ...``; returns whether the token has a truth block."""
    cand_txt, with_truth, truth_txt = labels.partition("|")
    y[_parse_label_list(cand_txt, len(y), lineno)] = 1
    if with_truth:
        t[_parse_label_list(truth_txt, len(t), lineno)] = 1
    for pair in features.split():
        f, _, v = pair.partition(":")
        try:
            fi, fv = int(f), float(v)  # a pair without ':' leaves v empty
        except ValueError:
            raise ParseError(f"bad feature pair {pair!r}", line=lineno) from None
        if not 0 <= fi < len(x):
            raise RangeError(f"feature index {fi} out of range [0,{len(x)})", line=lineno)
        x[fi] = fv
    return bool(with_truth)


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ConfigError(f"unknown dataset format {format!r}; expected one of {FORMATS}")


def _blocks(rows, counts):
    """Each ``(lineno, text)`` row's ``;``-separated blocks, split here only;
    a row whose block count is not in ``counts`` raises ``ParseError``."""
    blocks = [text.split(";") for _, text in rows]
    for (lineno, _), b in zip(rows, blocks):
        if len(b) not in counts:
            raise ParseError(f"expected {' or '.join(map(str, counts))} ';'-separated blocks, "
                             f"got {len(b)}", line=lineno)
    return blocks


def _read(path, format: str, features: bool = True):
    """The feature text of each row of the dataset file ``path``, as read (a
    sparse row's text after its label token, a dense row's first block),
    and the rows' ``(X, Y, T)``. Either every row carries a ground-truth
    block or none does; a plain file gives ``T = Y``. A sparse file is one
    loop over its rows. A dense row is split by ``_blocks`` into 2 or 3
    blocks, each one float table for ``parse_float_rows``: every row's
    block count comes first, then mixed rows (judged after the loop for a
    sparse file), then the features, candidates and ground truth of all
    rows. Label values and sets get ``Dataset``'s checks last, naming the
    line of a bad row. Without ``features`` X is None and is not parsed."""
    _check_format(format)
    (n, d, l), rows = read_table(path, "dataset", "n d l")
    lines = [lineno for lineno, _ in rows]
    if format == SPARSE_FORMAT:
        try:
            X = np.zeros((n, d if features else 0), dtype=np.float64)
            Y = np.zeros((n, l), dtype=np.int8)
            T = np.zeros((n, l), dtype=np.int8)
        except (MemoryError, ValueError):
            raise ParseError(f"cannot hold a dataset of n={n} d={d} l={l}", line=1) from None
        heads = [line.split(None, 1) + [""] for _, line in rows]  # label token, features[, ""]
        truth = [_sparse_row(h[0], h[1] if features else "", lineno, X[i], Y[i], T[i])
                 for i, (lineno, h) in enumerate(zip(lines, heads))]
        texts = [h[1] for h in heads]
    else:
        blocks = _blocks(rows, (2, 3))
        truth = [len(b) == 3 for b in blocks]
        texts = [b[0] for b in blocks]
    if truth.count(truth[0]) != n:
        raise ParseError("mixed rows: some carry a ground-truth block and some do not",
                         line=lines[truth.index(not truth[0])])
    if format == DENSE_FORMAT:
        tables = [list(zip(lines, column)) for column in zip(*blocks)]
        X = parse_float_rows(tables[0], d, "feature") if features else None
        Y = parse_float_rows(tables[1], l, "candidate label")
        T = parse_float_rows(tables[2], l, "ground-truth label") if truth[0] else None
    Y = _as_binary(Y, "Y", lines)
    return texts, X if features else None, Y, _check_label_sets(Y, T if truth[0] else Y, lines)


def load(path, format: str = SPARSE_FORMAT) -> Dataset:
    """Read a dataset file.

    Plain files (single label block) come back in the noise-free state:
    ``Ytruth`` holds the parsed labels and ``Y`` equals it. Files with a
    second label block populate ``Y`` from the candidates and ``Ytruth``
    from the truth block; every row must then carry one. Each block of a
    dense file is one float table for ``parse_float_rows``.
    """
    return Dataset(*_read(path, format)[1:])


def load_truth(path, format: str = SPARSE_FORMAT) -> np.ndarray:
    """``load(path, format).Ytruth``, read from the label blocks alone.

    The features are not parsed, so a bad feature value goes unnoticed;
    the header, the blocks of every row and the labels get the checks and
    errors of ``load``, and the label sets those of ``Dataset``.
    """
    return _read(path, format, features=False)[3]


def _write_dataset(path, ds: Dataset, format: str, features) -> None:
    """Write ``ds`` as a dataset file: the ``#n d l`` header, then each row's
    text from ``features`` joined with its label blocks, ``L_cand[|L_truth]
    f:v ...`` in the sparse format, ``x1,...,xd;y1,...,yl[;t1,...,tl]`` in
    the dense one. ``features`` may be any iterable of row texts."""
    mats = [ds.Y] if ds.Ytruth is None else [ds.Y, ds.Ytruth]
    if format == SPARSE_FORMAT:
        indices = ((",".join(map(repr, np.flatnonzero(row).tolist())) for row in M) for M in mats)
        rows = (lab + " " + f if f else lab for lab, f in zip(map("|".join, zip(*indices)), features))
    else:
        rows = (f + ";" + lab for lab, f in zip(map(";".join, zip(*map(csv_rows, mats))), features))
    write_lines(path, "dataset", itertools.chain([f"#{ds.n} {ds.d} {ds.l}"], rows))


def save(ds: Dataset, path, format: str = SPARSE_FORMAT) -> None:
    """Write ``ds`` to ``path``; the ground-truth block is emitted whenever
    ``Ytruth`` is present, so noisy datasets round-trip losslessly."""
    _check_format(format)
    if format == SPARSE_FORMAT:
        # negative zeros are stored explicitly to keep round-trips bit-exact
        kept = ((x, np.flatnonzero((x != 0.0) | np.signbit(x))) for x in ds.X)
        features = (" ".join(map("{}:{!r}".format, c.tolist(), x[c].tolist())) for x, c in kept)
    else:
        features = csv_rows(ds.X)
    _write_dataset(path, ds, format, features)


def inject_noise_file(path, out, cfg: NoiseConfig, format: str = SPARSE_FORMAT) -> Dataset:
    """``inject_noise`` on the dataset file ``path``, written to ``out``.

    The input gets every check of ``load``. Each output row is the input
    row's own feature text as ``_read`` returns it, with the new label
    blocks as ``save`` writes them. So ``out`` loads back to the returned
    dataset, while its float text is the input's, not ``repr``'s. Returns
    the noisy dataset.
    """
    texts, *parsed = _read(path, format)
    noisy = inject_noise(Dataset(*parsed), cfg)
    _write_dataset(out, noisy, format, texts)
    return noisy


def inject_noise(ds: Dataset, cfg: NoiseConfig) -> Dataset:
    """Corrupt candidate sets with randomly drawn irrelevant labels.

    Each instance with g ground-truth labels gains
    ``m = min(round_half_up(g*a/100), l-1-g)`` distinct labels drawn
    uniformly without replacement from its non-ground-truth labels,
    capping candidate sets at l-1 entries. ``Ytruth`` is preserved and
    the result is deterministic for a given seed.
    """
    if ds.Ytruth is None:
        raise StateError("inject_noise needs a dataset with ground-truth labels")
    g_per_row = ds.Ytruth.sum(axis=1)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    Y = ds.Ytruth.copy()
    l = ds.l
    for i in range(ds.n):
        g = int(g_per_row[i])
        m = min((g * cfg.a + 50) // 100, l - 1 - g)
        if m <= 0:
            continue
        pool = np.flatnonzero(ds.Ytruth[i] == 0)
        picked = rng.choice(pool, size=m, replace=False)
        Y[i, picked] = 1
    return Dataset(ds.X, Y, ds.Ytruth)


def _split_rows(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """The sorted train and test row indices of ``split`` for n rows."""
    if n < 2:
        raise ValidationError(f"need at least 2 instances to split, got {n}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    perm = rng.permutation(n)
    t = math.ceil(n * spec.train_fraction - 1e-9)
    if not 0 < t < n:
        raise ValidationError(
            f"train fraction {spec.train_fraction} of {n} instances leaves a half empty"
        )
    return np.sort(perm[:t]), np.sort(perm[t:])


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Random train/test partition.

    A seeded permutation is drawn and the first
    ``ceil(n * train_fraction)`` indices form the train set (the ceiling
    is computed with a 1e-9 slack so binary fractions are not pushed up
    a whole index by float error). Both subsets keep original row order.
    """
    train_rows, test_rows = _split_rows(ds.n, spec)
    return ds.subset(train_rows), ds.subset(test_rows)
