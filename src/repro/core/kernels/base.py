"""The kernel interface and the dependency-free :class:`PythonKernel`.

A *kernel* owns the word-level hot loops of the evaluation pipeline — the
pieces whose cost is ``O(size(S) · q²)`` words or worse — behind a narrow
interface, so the surrounding machinery (engine, store, parallel fleet)
never cares how a bit-plane is laid out:

* :meth:`Kernel.build_planes` — the Lemma 6.5 recursive matrix build
  (the dominant cold-start cost);
* :meth:`Kernel.bool_multiply` — the Lemma 4.5 boolean matrix product
  behind compressed membership;
* :meth:`Kernel.build_counts` — the counting-table recurrence
  (Lemmas 6.9/8.7), producing per-name flat ``i*q+j`` count vectors;
* :meth:`Kernel.decode_words` — the ``.prep`` word-section codec of the
  preprocessing store's restore path.

**Layout contract.**  All kernels speak the same logical layout: per
nonterminal ``A`` the matrix ``R_A`` is ``q`` *row bitmasks* (bit ``j`` of
row ``i`` set iff the property holds at ``(i, j)``) and ``I_A`` is a flat
row-major vector of ``q·q`` intermediate-state bitmasks.  A row/mask value
may be a Python ``int`` or any int-convertible scalar (``int(value)``
must yield the identical nonnegative integer); containers must support
``len``, indexing and slicing.  :meth:`~repro.core.matrices.Preprocessing`
accessors normalise every value with ``int()`` on the way out, so two
kernels that agree on the integers are observationally identical —
the differential harness and the cross-kernel property tests hold them
bit-identical.

:class:`PythonKernel` is the reference implementation: plain Python
bigint rows, no third-party dependency, importable everywhere.  The
vectorised backend lives in :mod:`repro.core.kernels.numpy_kernel` and is
only imported on demand (importing :mod:`repro` must never require
numpy).
"""

from __future__ import annotations

import sys
from array import array
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Sequence,
    SupportsInt,
    Tuple,
)

from repro.core.boolmat import bits_list, multiply
from repro.spanner.markers import Pairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matrices import Preprocessing
    from repro.slp.grammar import SLP

#: The on-disk word sections are little-endian; the fast array('Q') codec
#: is only valid on little-endian hosts (mirrors the store's own guard).
_LITTLE_ENDIAN = sys.byteorder == "little"

#: One plane container: rows of int-convertible scalars (Python bigints
#: for the reference kernel, uint64 ndarrays for numpy).  Mapping (not
#: Dict) so each backend can return its native dict/array-dict type.
PlaneRows = Sequence[SupportsInt]

Planes = Tuple[
    Mapping[object, PlaneRows],
    Mapping[object, PlaneRows],
    Mapping[object, PlaneRows],
]

#: leaf nonterminal -> {(i, j) -> sorted tuple of partial marker sets}.
LeafTables = Dict[object, Dict[Tuple[int, int], Tuple[Pairs, ...]]]


def leaf_plane_rows(
    leaf_tables: LeafTables, name: object, q: int
) -> Tuple[List[int], List[int]]:
    """The (notbot, one) row bitmasks of one leaf nonterminal, as ints.

    Bit ``j`` of row ``i`` is set iff ``M_Tx[i, j]`` is nonempty (notbot),
    resp. holds a nonempty marker set (one).
    """
    nb_rows = [0] * q
    one_rows = [0] * q
    for (i, j), entries in leaf_tables[name].items():
        if entries:
            nb_rows[i] |= 1 << j
            if entries != ((),):
                one_rows[i] |= 1 << j
    return nb_rows, one_rows


class Kernel:
    """Abstract bit-plane kernel backend (see the module docstring)."""

    #: Registry name; also what ``repro stats --profile`` reports.
    name: str = "abstract"

    def build_planes(
        self, slp: "SLP", order: List[object], q: int, leaf_tables: LeafTables
    ) -> Planes:
        """The Lemma 6.5 tables ``(notbot, one, I)`` for every name in ``order``."""
        raise NotImplementedError

    def bool_multiply(self, a: List[int], b: List[int]) -> List[int]:
        """Boolean matrix product of two row-bitmask matrices (Lemma 4.5)."""
        raise NotImplementedError

    def build_counts(self, prep: "Preprocessing") -> Dict[object, List[int]]:
        """Per-name flat ``i*q+j`` vectors of ``|M_A[i,j]|``.

        Every value is an exact Python ``int`` whatever the backend's
        internal arithmetic (the numpy kernel multiplies whole height
        levels in ``uint64`` and falls back to Python ints before a level
        could wrap); these rows are what the preprocessing store persists.
        """
        raise NotImplementedError

    def decode_words(
        self, buf: bytes, offset: int, count: int, row_words: int
    ) -> Sequence[SupportsInt]:
        """``count`` little-endian ``row_words``-word fields of ``buf``.

        The ``.prep`` restore codec: the result is a length-``count``
        sequence of int-convertible row values whose slices the store
        attaches as plane containers.  Callers bounds-check the section
        before calling.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class PythonKernel(Kernel):
    """Reference backend: Python bigint rows, zero dependencies."""

    name = "python"

    def build_planes(
        self, slp: "SLP", order: List[object], q: int, leaf_tables: LeafTables
    ) -> Planes:
        notbot: Dict[object, List[int]] = {}
        one: Dict[object, List[int]] = {}
        I: Dict[object, List[int]] = {}

        # Transposed (notbot, one) planes per right child, built once per
        # nonterminal that actually occurs as one — transient build state,
        # freed with this frame.
        cols_cache: Dict[object, Tuple[List[int], List[int]]] = {}

        def columns(child: object) -> Tuple[List[int], List[int]]:
            cached = cols_cache.get(child)
            if cached is None:
                nb_rows, one_rows = notbot[child], one[child]
                nb_cols = [0] * q
                one_cols = [0] * q
                for i in range(q):
                    bit = 1 << i
                    for j in bits_list(nb_rows[i]):
                        nb_cols[j] |= bit
                    for j in bits_list(one_rows[i]):
                        one_cols[j] |= bit
                cached = (nb_cols, one_cols)
                cols_cache[child] = cached
            return cached

        for name in order:
            if slp.is_leaf(name):
                notbot[name], one[name] = leaf_plane_rows(leaf_tables, name, q)
                continue
            left, right = slp.children(name)
            left_nb, left_one = notbot[left], one[left]
            right_nbc, right_onec = columns(right)
            nb_rows = [0] * q
            one_rows = [0] * q
            masks = [0] * (q * q)
            for i in range(q):
                nb_i = left_nb[i]
                if not nb_i:
                    continue
                one_i = left_one[i]
                base = i * q
                row_nb = row_one = 0
                for j in range(q):
                    mask = nb_i & right_nbc[j]
                    if not mask:
                        continue
                    masks[base + j] = mask
                    bit = 1 << j
                    row_nb |= bit
                    if (one_i & mask) or (right_onec[j] & mask):
                        row_one |= bit
                nb_rows[i] = row_nb
                one_rows[i] = row_one
            I[name] = masks
            notbot[name] = nb_rows
            one[name] = one_rows
        return notbot, one, I

    def bool_multiply(self, a: List[int], b: List[int]) -> List[int]:
        return multiply(a, b)

    def build_counts(self, prep: "Preprocessing") -> Dict[object, List[int]]:
        q = prep.q
        slp = prep.slp
        flat: Dict[object, List[int]] = {}
        for name in prep.order:
            row = [0] * (q * q)
            if slp.is_leaf(name):
                for (i, j), entries in prep.leaf_tables[name].items():
                    row[i * q + j] = len(entries)
                flat[name] = row
                continue
            left, right = slp.children(name)
            left_flat, right_flat = flat[left], flat[right]
            for i in range(q):
                nb = prep.notbot_row(name, i)
                if not nb:
                    continue
                base = i * q
                for j in bits_list(nb):
                    total = 0
                    for k in bits_list(prep.intermediate_mask(name, i, j)):
                        total += left_flat[base + k] * right_flat[k * q + j]
                    row[base + j] = total
            flat[name] = row
        return flat

    def decode_words(
        self, buf: bytes, offset: int, count: int, row_words: int
    ) -> List[int]:
        end = offset + count * row_words * 8
        if row_words == 1 and _LITTLE_ENDIAN:
            values = array("Q")
            values.frombytes(memoryview(buf)[offset:end])
            return values.tolist()  # one C call
        width = row_words * 8
        from_bytes = int.from_bytes
        return [
            from_bytes(buf[k : k + width], "little")
            for k in range(offset, end, width)
        ]


#: The shared reference instance (kernels are stateless).
PYTHON_KERNEL = PythonKernel()
