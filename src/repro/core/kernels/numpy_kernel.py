"""Vectorised kernel backend: bit-planes as uint64 ndarrays.

Only imported on demand by :func:`repro.core.kernels.resolve_kernel` —
importing :mod:`repro` (or this package's ``__init__``) must never require
numpy.

**Layout.**  A plane of ``n`` rows over ``q`` states is an
``(n, row_words)`` array of ``uint64`` words, ``row_words = ceil(q/64)``,
word ``w`` of row ``i`` holding bits ``64·w .. 64·w+63`` little-endian —
bit-for-bit the layout of the ``.prep`` store's word sections
(:mod:`repro.store.prepstore` ``_pack_words``), which is what makes the
restore path a zero-copy ``np.frombuffer`` view.  For ``q <= 64``
(``row_words == 1``) the planes stay numpy-native inside
:class:`~repro.core.matrices.Preprocessing` (1-D ``uint64`` arrays whose
scalars the accessors normalise with ``int()``); wider automata are
materialised back to Python bigint rows after the vectorised build, so
every consumer sees the same logical values either way.

**Level batching.**  Lemma 6.5 is a bottom-up recurrence and rules of
equal height never read each other, so both builds run one *height
level* per numpy call sequence instead of one rule.  Every rule's four
planes — notbot rows, one rows, and their transposes, the *columns* a
parent reads when the rule is its right child — live in one
``(n, 4, q, row_words)`` array.  A level gathers its children's planes
with fancy indexing into ``(R, 4, q, row_words)`` stacks and computes the
whole ``(R, q, q, row_words)`` intermediate-state cube in one broadcast
AND, ``I[r, i, j] = notbot_B[i] & columns(notbot_C)[j]``, followed by
``any``-reductions for the notbot/one rows; the rows and their
transposes are packed (``np.packbits``, ``bitorder="little"``) in one
call, so no plane is ever unpacked again.  Levels wider than
:data:`CHUNK_WORDS` words of cube are cut into slices.

**Counts.**  ``count_B[i, k] != 0`` iff ``R_B[i, k] != ⊥``, so the
``I_A``-masked sum of Lemmas 6.9/8.7 is the plain matrix product
``C_A = C_B · C_C``: one batched ``np.matmul`` per level over
``(R, q, q)`` ``uint64`` stacks.  A float64 estimate of each level guards
the product; from the first level whose estimate reaches
:data:`UINT64_SAFE` on, the stacks switch to ``dtype=object`` and the
product runs on exact Python ints.  The result comes back as flat rows of
Python ints (one ``tolist()``), the same as the reference kernel's.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Sequence,
    SupportsInt,
    Tuple,
    Union,
)

import numpy as np

from repro.core.kernels.base import (
    Kernel,
    LeafTables,
    Planes,
    PYTHON_KERNEL,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matrices import Preprocessing
    from repro.slp.grammar import SLP

#: The on-disk (and in-memory) word type: little-endian uint64.
WORD = np.dtype("<u8")

#: Below this many states the per-call ndarray set-up costs more than the
#: bigint loop it replaces; delegate tiny products to the reference kernel.
MIN_VECTOR_Q = 32

#: Upper bound on the words of one batched ``(R, q, q, row_words)`` cube:
#: a level with more rules is processed in slices of at most this size.
CHUNK_WORDS = 1 << 18

#: Counts stay ``uint64`` while a level's float64 estimate is below this.
UINT64_SAFE = 2.0**62

Rows = Union[List[int], np.ndarray]


def _as_words(rows: Rows, row_words: int) -> np.ndarray:
    """Any plane container as an ``(n, row_words)`` uint64 word array."""
    if isinstance(rows, np.ndarray):
        return rows.reshape(len(rows), row_words)
    if row_words == 1:
        return np.array(rows, dtype=np.uint64).reshape(len(rows), 1)
    width = row_words * 8
    blob = b"".join(int(value).to_bytes(width, "little") for value in rows)
    return np.frombuffer(blob, dtype=WORD).reshape(len(rows), row_words)


def _unpack_bits(words: np.ndarray, q: int) -> np.ndarray:
    """``(n, row_words)`` words -> ``(n, q)`` 0/1 bytes (bit ``j`` -> column ``j``)."""
    u8 = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(u8, axis=1, bitorder="little")[:, :q]


def _to_int_rows(words: np.ndarray, row_words: int) -> List[int]:
    """``(n, row_words)`` word array back to Python bigint rows."""
    if row_words == 1:
        return words.reshape(-1).tolist()
    data = np.ascontiguousarray(words).tobytes()
    width = row_words * 8
    from_bytes = int.from_bytes
    return [
        from_bytes(data[k : k + width], "little")
        for k in range(0, len(data), width)
    ]


class _Levels(NamedTuple):
    """The rules of ``order`` laid out for level-by-level batching.

    ``names`` holds the leaves first, then the inner rules sorted by
    height (stable, so equal heights keep their ``order``).  Children have
    a smaller height than their parent, so every rule of ``spans[t]`` only
    reads positions computed before it.
    """

    names: List[object]
    #: name -> position in ``names``
    index: Dict[object, int]
    n_leaves: int
    #: ``(n_inner, 2)``: per inner rule (``names[n_leaves:]`` order), the
    #: positions of its left and right child
    children: np.ndarray
    #: ``[start, end)`` position ranges: one per height level, split so
    #: that no range holds more than the caller's ``max_rules``
    spans: List[Tuple[int, int]]


def _levels(slp: "SLP", order: List[object], max_rules: int) -> _Levels:
    leaves = [name for name in order if slp.is_leaf(name)]
    inner = [name for name in order if not slp.is_leaf(name)]
    inner.sort(key=slp.depth)
    heights = [slp.depth(name) for name in inner]
    names = leaves + inner
    index = dict(zip(names, range(len(names))))
    rules = slp.inner_rules
    children = np.fromiter(
        (index[child] for name in inner for child in rules[name]),
        dtype=np.intp,
        count=2 * len(inner),
    ).reshape(len(inner), 2)
    spans: List[Tuple[int, int]] = []
    start = 0
    for k in range(1, len(inner) + 1):
        if k == len(inner) or heights[k] != heights[start] or k - start == max_rules:
            spans.append((len(leaves) + start, len(leaves) + k))
            start = k
    return _Levels(names, index, len(leaves), children, spans)


def _pack_planes(bits: np.ndarray, q: int) -> np.ndarray:
    """``(R, 4, q, 64 * row_words)`` 0/1 planes -> ``(R, 4, q, row_words)`` words.

    Slots 0 and 1 hold the notbot and one rows in their first ``q``
    columns on entry (the rest is zero); slots 2 and 3 receive their
    transposes — the notbot and one *columns* a parent reads when the
    rule is its right child — so all four planes pack in one call and no
    plane is ever unpacked again.
    """
    bits[:, 2:, :, :q] = bits[:, :2, :, :q].swapaxes(2, 3)
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


class NumpyKernel(Kernel):
    """Vectorised backend over the shared uint64 word layout."""

    name = "numpy"

    def build_planes(
        self, slp: "SLP", order: List[object], q: int, leaf_tables: LeafTables
    ) -> Planes:
        row_words = (q + 63) // 64
        levels = _levels(slp, order, max(1, CHUNK_WORDS // (q * q * row_words)))
        n_leaves = levels.n_leaves
        width = 64 * row_words
        leaf_bits = np.zeros((n_leaves, 4, q, width), dtype=bool)
        for k, name in enumerate(levels.names[:n_leaves]):
            for (i, j), entries in leaf_tables[name].items():
                if entries:
                    leaf_bits[k, 0, i, j] = True
                    leaf_bits[k, 1, i, j] = entries != ((),)
        # planes[k] = notbot rows, one rows, notbot columns, one columns
        # of names[k]; filled level by level.
        planes = np.zeros((len(levels.names), 4, q, row_words), dtype=np.uint64)
        planes[:n_leaves] = _pack_planes(leaf_bits, q)
        cubes: Dict[object, np.ndarray] = {}
        for start, end in levels.spans:
            pair = planes[levels.children[start - n_leaves : end - n_leaves]]
            left, right = pair[:, 0], pair[:, 1]
            # Every rule of the level at once, over the (R, q, q, row_words)
            # cube: I[r, i, j] = notbot_B[i] & columns(notbot_C)[j].  Since
            # one ⊆ notbot on both sides, (one_B & nb_C) | (nb_B & one_C)
            # is I & (one_B | one_C).
            cube = left[:, 0, :, None, :] & right[:, 2, None, :, :]
            bits = np.zeros((end - start, 4, q, width), dtype=bool)
            cube.any(axis=3, out=bits[:, 0, :, :q])
            one = left[:, 1, :, None, :] | right[:, 3, None, :, :]
            one &= cube
            one.any(axis=3, out=bits[:, 1, :, :q])
            planes[start:end] = _pack_planes(bits, q)
            cubes.update(
                zip(levels.names[start:end], cube.reshape(end - start, q * q, row_words))
            )

        # Copy the row planes out, so cached tables do not keep the column
        # planes (build state only) alive.
        row_planes = planes[:, :2].copy()
        rows = [row_planes[levels.index[name]] for name in order]
        if row_words == 1:
            # Native storage: 1-D uint64 views; accessors int()-normalise.
            return (
                {n: r[0, :, 0] for n, r in zip(order, rows)},
                {n: r[1, :, 0] for n, r in zip(order, rows)},
                {n: cubes[n].reshape(q * q) for n in order if n in cubes},
            )
        # Multi-word rows have no scalar form — materialise bigint rows.
        return (
            {n: _to_int_rows(r[0], row_words) for n, r in zip(order, rows)},
            {n: _to_int_rows(r[1], row_words) for n, r in zip(order, rows)},
            {n: _to_int_rows(cubes[n], row_words) for n in order if n in cubes},
        )

    def bool_multiply(self, a: List[int], b: List[int]) -> List[int]:
        q = len(a)
        if q < MIN_VECTOR_Q:
            return PYTHON_KERNEL.bool_multiply(a, b)
        row_words = (q + 63) // 64
        a_bits = _unpack_bits(_as_words(a, row_words), q)
        b_words = _as_words(b, row_words)
        # out[i] = OR of the rows of b selected by the set bits of a[i].
        selected = np.where(a_bits[:, :, None] != 0, b_words[None, :, :], 0)
        return _to_int_rows(np.bitwise_or.reduce(selected, axis=1), row_words)

    def build_counts(self, prep: "Preprocessing") -> Dict[object, List[int]]:
        q = prep.q
        levels = _levels(prep.slp, prep.order, max(1, CHUNK_WORDS // (q * q)))
        n_leaves = levels.n_leaves
        counts = np.zeros((len(levels.names), q, q), dtype=np.uint64)
        for k, name in enumerate(levels.names[:n_leaves]):
            for (i, j), entries in prep.leaf_tables[name].items():
                counts[k, i, j] = len(entries)
        for start, end in levels.spans:
            pair = counts[levels.children[start - n_leaves : end - n_leaves]]
            left, right = pair[:, 0], pair[:, 1]
            # count_B[i, k] != 0 iff R_B[i, k] != ⊥, so the I_A-masked sum
            # of Lemmas 6.9/8.7 is the plain product C_A = C_B · C_C.  A
            # float64 estimate guards the uint64 product; from the first
            # level that could wrap, the product runs on exact Python ints.
            if counts.dtype != object:
                estimate = np.matmul(left.astype(np.float64), right.astype(np.float64))
                if estimate.max() >= UINT64_SAFE:
                    counts = counts.astype(object)
                    left, right = left.astype(object), right.astype(object)
            counts[start:end] = np.matmul(left, right)
        flat = counts.reshape(len(levels.names), q * q).tolist()  # Python ints
        return {name: flat[levels.index[name]] for name in prep.order}

    def decode_words(
        self, buf: bytes, offset: int, count: int, row_words: int
    ) -> Sequence[SupportsInt]:
        if row_words == 1:
            # Zero-copy: a read-only view straight into the payload bytes.
            return np.frombuffer(buf, dtype=WORD, count=count, offset=offset)
        # Multi-word rows are Python bigints either way; share the codec.
        return PYTHON_KERNEL.decode_words(buf, offset, count, row_words)
