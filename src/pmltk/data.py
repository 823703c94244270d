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

``load`` reads either format in one loop over the rows, with one row
parser per format; either every row carries a ground-truth block or
none does. A bad row raises an error that names its line of the file.
``_as_binary`` is the one 0/1 check on label matrices: datasets, the
metrics and the prediction reader all go through it.

Floats are serialized with ``repr`` so save followed by load restores
every matrix bit-exactly. The enrichment, model and prediction files
share the ``#header`` + rows layout: ``read_table`` reads all of them
and ``write_lines`` writes every file pmltk produces.

Randomness uses numpy's PCG64 generator, so seeded operations are
reproducible across platforms. Datasets are immutable by convention:
no operation mutates an existing instance.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Dataset:
    """A (partial) multi-label dataset.

    ``X`` is the dense n x d feature matrix, ``Y`` the binary n x l
    candidate label matrix and ``Ytruth`` the optional ground-truth
    matrix, kept only for evaluation. Every row of ``Y`` carries at
    least one and at most l-1 labels, and ``Ytruth`` is covered by
    ``Y`` elementwise when present.
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
        sums = Y.sum(axis=1)
        if (sums < 1).any():
            i = int(np.argmin(sums))
            raise ValidationError(f"instance {i} has an empty candidate label set")
        if (sums > l - 1).any():
            i = int(np.argmax(sums))
            raise ValidationError(
                f"instance {i} carries all {l} labels; at most l-1 are allowed"
            )
        Yt = self.Ytruth
        if Yt is not None:
            Yt = _as_binary(Yt, "Ytruth")
            if Yt.shape != Y.shape:
                raise ValidationError(
                    f"Ytruth shape {Yt.shape} does not match Y shape {Y.shape}"
                )
            if (Yt > Y).any():
                raise ValidationError("Ytruth must be covered by Y elementwise")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Ytruth", Yt)

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


@dataclass(frozen=True)
class NoiseConfig:
    """Synthetic corruption level: each instance with g ground-truth labels
    receives round-half-up(g*a/100) random irrelevant candidates."""

    a: int
    seed: int = 0

    def __post_init__(self):
        if self.a < 0:
            raise ConfigError(f"noise percentage must be >= 0, got {self.a}")


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


def read_table(path, kind: str, fields: str, floats: int = 0):
    """Read a pmltk text file: a ``#<fields>`` header line, then one row
    per non-blank line.

    All header fields but the last ``floats`` are dimensions and must be
    positive integers; the first one is the row count, checked against
    the file. Returns the header values and the rows as
    ``(lineno, stripped line)`` pairs, where ``lineno`` is the 1-based
    line of the file, so blank lines do not shift it. A file that
    cannot be read raises ``DataError`` naming ``kind`` and ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from None
    parts = raw[0].strip().lstrip("#").split()
    if not raw[0].startswith("#") or len(parts) != len(fields.split()):
        raise ParseError(f"expected header '#{fields}'", line=1)
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


def csv_rows(M):
    """Rows of a 2-d array as comma-separated ``repr`` values, which
    restore every float bit-exactly. Yields one row at a time, so no
    Python object per matrix entry is held at once."""
    return (",".join(map(repr, row.tolist())) for row in np.asarray(M))


def write_lines(path, kind: str, lines) -> None:
    """Write ``lines`` to ``path`` as UTF-8, each ended by an LF.

    Every file pmltk writes goes through here. A path that cannot be
    written raises ``DataError`` naming ``kind`` and ``path``.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {kind} {path}: {exc}") from None


def _parse_label_list(text: str, l: int, lineno: int, what: str) -> list[int]:
    if not text:
        raise ValidationError(f"line {lineno}: empty {what} label set")
    out = []
    for tok in text.split(","):
        try:
            j = int(tok)
        except ValueError:
            raise ParseError(f"bad label index {tok!r}", line=lineno) from None
        if not 0 <= j < l:
            raise RangeError(f"label index {j} out of range [0,{l})", line=lineno)
        out.append(j)
    return out


def _sparse_row(line, lineno, x, y, t) -> bool:
    """Fill one instance's rows from ``L_cand[|L_truth] f:v ...``; returns
    whether the line carries a truth block."""
    labels, *pairs = line.split()
    cand_txt, with_truth, truth_txt = labels.partition("|")
    y[_parse_label_list(cand_txt, len(y), lineno, "candidate")] = 1
    if with_truth:
        t[_parse_label_list(truth_txt, len(t), lineno, "ground-truth")] = 1
    for pair in pairs:
        f, _, v = pair.partition(":")
        try:
            fi, fv = int(f), float(v)  # a pair without ':' leaves v empty
        except ValueError:
            raise ParseError(f"bad feature pair {pair!r}", line=lineno) from None
        if not 0 <= fi < len(x):
            raise RangeError(f"feature index {fi} out of range [0,{len(x)})", line=lineno)
        x[fi] = fv
    return bool(with_truth)


def _dense_row(line, lineno, x, y, t) -> bool:
    """Fill one instance's rows from ``x1,...;y1,...[;t1,...]``; returns
    whether the line carries a truth block."""
    blocks = line.split(";")
    if len(blocks) not in (2, 3):
        raise ParseError(
            f"expected 2 or 3 ';'-separated blocks, got {len(blocks)}", line=lineno
        )
    x[:] = parse_float_row(blocks[0], len(x), lineno, "feature")
    for target, text, what in zip((y, t), blocks[1:], ("candidate", "ground-truth")):
        row = np.array(parse_float_row(text, len(target), lineno, what + " label"))
        bad = (row != 0) & (row != 1)
        if bad.any():
            raise ParseError(f"{what} labels must be 0 or 1, got {row[bad][0]}", line=lineno)
        target[:] = row
    if not y.any():
        raise ValidationError(f"line {lineno}: empty candidate label set")
    return len(blocks) == 3


def load(path, format: str = SPARSE_FORMAT) -> Dataset:
    """Read a dataset file.

    Plain files (single label block) come back in the noise-free state:
    ``Ytruth`` holds the parsed labels and ``Y`` equals it. Files with a
    second label block populate ``Y`` from the candidates and ``Ytruth``
    from the truth block; every row must then carry one.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown dataset format {format!r}; expected one of {FORMATS}")
    (n, d, l), rows = read_table(path, "dataset", "n d l")
    parse_row = _sparse_row if format == SPARSE_FORMAT else _dense_row
    X = np.zeros((n, d), dtype=np.float64)
    Y = np.zeros((n, l), dtype=np.int8)
    T = np.zeros((n, l), dtype=np.int8)
    for i, (lineno, line) in enumerate(rows):
        with_truth = parse_row(line, lineno, X[i], Y[i], T[i])
        if i == 0:
            has_truth = with_truth
        elif with_truth != has_truth:
            raise ParseError(
                "mixed rows: some carry a ground-truth block and some do not", line=lineno
            )
    return Dataset(X, Y, T if has_truth else Y.copy())


def save(ds: Dataset, path, format: str = SPARSE_FORMAT) -> None:
    """Write ``ds`` to ``path``; the ground-truth block is emitted whenever
    ``Ytruth`` is present, so noisy datasets round-trip losslessly."""
    if format not in FORMATS:
        raise ConfigError(f"unknown dataset format {format!r}; expected one of {FORMATS}")
    lines = [f"#{ds.n} {ds.d} {ds.l}"]
    if format == SPARSE_FORMAT:
        for i in range(ds.n):
            cand = ",".join(map(repr, np.flatnonzero(ds.Y[i]).tolist()))
            if ds.Ytruth is not None:
                cand += "|" + ",".join(map(repr, np.flatnonzero(ds.Ytruth[i]).tolist()))
            # negative zeros are stored explicitly to keep round-trips bit-exact
            cols = np.flatnonzero((ds.X[i] != 0.0) | np.signbit(ds.X[i]))
            feats = " ".join(map("{}:{!r}".format, cols.tolist(), ds.X[i, cols].tolist()))
            lines.append(cand + (" " + feats if feats else ""))
    else:
        blocks = [csv_rows(ds.X), csv_rows(ds.Y)]
        if ds.Ytruth is not None:
            blocks.append(csv_rows(ds.Ytruth))
        lines += map(";".join, zip(*blocks))
    write_lines(path, "dataset", lines)


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
    if (g_per_row < 1).any():
        i = int(np.argmin(g_per_row))
        raise ValidationError(f"instance {i} has no ground-truth labels")
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


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Random train/test partition.

    A seeded permutation is drawn and the first
    ``ceil(n * train_fraction)`` indices form the train set (the ceiling
    is computed with a 1e-9 slack so binary fractions are not pushed up
    a whole index by float error). Both subsets keep original row order.
    """
    if ds.n < 2:
        raise ValidationError(f"need at least 2 instances to split, got {ds.n}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    perm = rng.permutation(ds.n)
    t = math.ceil(ds.n * spec.train_fraction - 1e-9)
    train_idx = np.sort(perm[:t])
    test_idx = np.sort(perm[t:])
    return ds.subset(train_idx), ds.subset(test_idx)
