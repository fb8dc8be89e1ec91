"""On-disk persistence of Lemma 6.5 preprocessing (and counting) tables.

A :class:`PreprocessingStore` is a directory of ``.prep`` files.  Each
filename is a hash of three digests:

* ``slp_digest`` — :meth:`repro.slp.grammar.SLP.structural_digest` of the
  *source* document grammar (the engine's cache identity);
* ``automaton_digest`` — :meth:`repro.spanner.automaton.SpannerNFA.structural_digest`
  of the padded (NFA or DFA) automaton the tables were built against;
* the digest of the *padded* grammar, which captures the engine's
  padding configuration (``balance``, ``end_symbol``) so differently
  configured engines sharing a directory keep separate entries.

The store format version is written inside the payload, not the
filename: a stale-version entry occupies the same path, is rejected on
load (never misread) and is overwritten in place by the rebuild — so a
version bump recycles the directory rather than orphaning old files.

Payload layout (``repro-prep`` v1, little-endian, uvarint = unsigned
LEB128)::

    magic b"rPREP\\x00" | u16 version | 16B padded-SLP digest |
    16B automaton digest | u32 q | u32 n_names |
    final_states: uvarint count, uvarint each |
    kinds: n_names bytes (0 = leaf, 1 = inner), in the padded SLP's
        canonical order (used below and validated against the live SLP) |
    planes section: per nonterminal in canonical order, the notbot plane
        (q rows) then the one plane (q rows); every row is a fixed-width
        field of row_words = ceil(q / 64) little-endian u64 words |
    I section: per *inner* nonterminal in canonical order, the dense
        intermediate-state vector — q*q fields of row_words words,
        row-major, mirroring the in-memory flat layout |
    leaf-table section: per *leaf* nonterminal in canonical order:
        uvarint n_entries; per entry uvarint i, uvarint j,
        uvarint n_marker_sets; per set uvarint n_pairs; per pair
        uvarint position, uvarint len + UTF-8 var, u8 kind |
    counting tables: u8 present flag; if 1, positional: per nonterminal
        in canonical order, per set bit (i, j) of its notbot plane in
        row-major order, uvarint |M_A[i,j]| — the keys are implicit in
        the notbot planes, so no per-entry key bytes are spent.  A cell's
        count is nonzero iff its notbot bit is set, so :meth:`save`
        writes each flat count row's nonzero values and :meth:`load`
        returns flat rows (``CountingTables.rows``) decoded per name on
        first access — no per-cell dict on either side |
    u32 CRC-32 of every preceding byte

The word-aligned sections are the restore hot path, and their codec is
the active kernel backend's (:mod:`repro.core.kernels`,
``Kernel.decode_words``): the reference kernel decodes each section with
a single C-level ``array('Q').frombytes`` + per-name list slices instead
of per-entry Python arithmetic; the numpy kernel goes further and
attaches read-only ``np.frombuffer`` uint64 views *straight into the
payload bytes* — zero copies and zero per-row Python objects (the word
sections are little-endian u64 fields, i.e. already in the numpy
kernel's native plane layout).  Either way the bulk decode —
O(size(S) · q²) *bytes* moved but only O(size(S)) Python operations — is
what lets a store-backed cold start beat re-running the
O(size(S) · q²) Lemma 6.5 recurrence by a wide margin.

Nonterminal *names* are never stored.  Tables are indexed by position in
the padded SLP's :meth:`~repro.slp.grammar.SLP.canonical_order`, which is
naming-independent, so a structurally equal grammar loaded tomorrow (with
fresh names) re-attaches the same tables.  The payload embeds the padded
grammar's and automaton's digests and :meth:`load` re-derives both from
the live objects: any mismatch — a different balancer, another end
symbol, a colliding key — is a miss, never a wrong answer.

Corruption (truncation, bit-flips, stale versions) is handled by
rebuilding: :meth:`load` returns ``None`` and counts a
:attr:`StoreStats.rejects`; it never raises on a bad file.  A *corrupt*
entry (bad magic, truncated, CRC mismatch) is additionally
**quarantined** — renamed aside to ``<name>.prep.quarantined`` and
counted in :attr:`StoreStats.quarantined` / the ``store.quarantined``
metric — so the rebuild overwrites a vacant path and the bad bytes stay
available for post-mortem instead of being re-read (and re-rejected)
on every subsequent call.  Saves are atomic (tmp + fsync + rename: a
writer killed mid-save leaves only a tmp file, never a partial entry)
and degrade to a warn-once no-op when the disk is full.  The
:mod:`repro.faults` sites ``store.save``, ``store.save.bytes``,
``store.save.commit`` and ``store.load.bytes`` let tests inject all of
those failures deterministically.
"""

from __future__ import annotations

import errno
import hashlib
import os
import struct
import sys
import warnings
import zlib
from array import array
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.boolmat import bits_list
from repro.core.kernels import PYTHON_KERNEL, Kernel, resolve_kernel
from repro.faults import fault_point, mangle
from repro.obs.metrics import BYTE_BUCKETS, get_registry
from repro.core.kernels.base import PlaneRows
from repro.core.matrices import Preprocessing
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import CLOSE, OPEN, Marker, Pairs

from repro.store.binary import _read_uvarint, _write_uvarint

#: Per-nonterminal flat ``i*q+j`` count rows (``CountingTables.rows``).
CountRows = Dict[object, List[int]]

MAGIC = b"rPREP\x00"
STORE_FORMAT_VERSION = 1

_HEAD = struct.Struct("<6sH16s16sII")
_CRC = struct.Struct("<I")
#: The fast word codec uses native array('Q'); big-endian hosts take the
#: portable int.to_bytes/from_bytes path so files stay little-endian.
_LITTLE_ENDIAN = sys.byteorder == "little"


@dataclass
class StoreStats:
    """Counters of one :class:`PreprocessingStore` (live, not a snapshot)."""

    hits: int = 0
    misses: int = 0
    rejects: int = 0  # present but stale/corrupt/mismatched -> rebuilt
    writes: int = 0
    quarantined: int = 0  # corrupt entries renamed aside (self-healing)


class _Reader:
    """Cursor over a payload with bounds-checked primitive reads."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes, pos: int, end: int) -> None:
        self.buf = buf
        self.pos = pos
        self.end = end

    def uvarint(self) -> int:
        # _read_uvarint inlined: this is called per count/leaf entry.
        buf, pos, end = self.buf, self.pos, self.end
        value = 0
        shift = 0
        while True:
            if pos >= end:
                raise ValueError("truncated payload")
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return value
            shift += 7

    def uvarints(self, count: int) -> Sequence[int]:
        """The next ``count`` uvarints.

        When none of the next ``count`` bytes has its continuation bit set
        they are ``count`` one-byte uvarints, returned as one slice.
        """
        if self.pos + count <= self.end:
            head = self.buf[self.pos : self.pos + count]
            if not head or max(head) < 0x80:
                self.pos += count
                return head
        return [self.uvarint() for _ in range(count)]

    def byte(self) -> int:
        if self.pos >= self.end:
            raise ValueError("truncated payload")
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def raw(self, length: int) -> bytes:
        if self.pos + length > self.end:
            raise ValueError("truncated payload")
        out = self.buf[self.pos : self.pos + length]
        self.pos += length
        return out


def _pack_words(values: Any, row_words: int) -> bytes:
    """``values`` as consecutive little-endian ``row_words``-word fields.

    Accepts int lists as well as kernel-native word arrays: anything with
    a ``tobytes`` method (a numpy uint64 plane, whose memory *is* this
    format on little-endian hosts) is serialised with one C call.
    """
    if _LITTLE_ENDIAN:
        if hasattr(values, "tobytes"):  # kernel-native word array
            return values.tobytes()
        if row_words == 1:
            return array("Q", values).tobytes()  # one C call
    width = row_words * 8
    return b"".join(int(value).to_bytes(width, "little") for value in values)


class _LazyIVectors(Dict[object, Any]):
    """Intermediate-state vectors decoded per nonterminal on first access.

    Counting and ranked access never touch ``I`` after a restore (the
    counts are persisted too), and evaluation/enumeration touch only the
    nonterminals they actually descend through — so the restore path
    keeps a reference into the payload bytes and pays the q²-word decode
    per name on demand instead of up front (with the numpy kernel the
    "decode" is a zero-copy ``np.frombuffer`` view).  Decoded vectors are
    memoised in the dict itself, so steady-state access is a plain dict
    lookup.
    """

    __slots__ = ("_buf", "_base", "_index", "_row_words", "_cells", "_decode")

    def __init__(
        self,
        buf: bytes,
        base: int,
        inners: List[object],
        row_words: int,
        cells: int,
        decode: Callable[[bytes, int, int, int], Any],
    ) -> None:
        super().__init__()
        self._buf = buf
        self._base = base
        self._index = {name: t for t, name in enumerate(inners)}
        self._row_words = row_words
        self._cells = cells
        self._decode = decode

    def __missing__(self, name: object) -> Any:
        t = self._index[name]  # unknown name -> KeyError, as a dict would
        field = self._cells * self._row_words * 8
        values = self._decode(
            self._buf, self._base + t * field, self._cells, self._row_words
        )
        self[name] = values
        return values

    def __contains__(self, name: object) -> bool:
        return dict.__contains__(self, name) or name in self._index


class _LazyCountRows(Dict[object, List[int]]):
    """Flat count rows decoded per nonterminal on first access.

    The counterpart of :class:`_LazyIVectors` for the counting section:
    a restored count reads only the rows it needs — ``total()`` reads the
    start symbol's alone — so the restore keeps a reference into the
    payload and builds a name's flat ``i*q+j`` row on first lookup,
    memoised in the dict itself.  A name's values sit between those of
    its canonical-order neighbours and the start symbol comes last, so
    names are located from the end of the section backward, each one
    once.  ``get`` and ``in`` see every name; ``==`` compares all rows.
    """

    __slots__ = ("_buf", "_lo", "_names", "_index", "_notbot", "_q", "_spans", "_end")

    def __init__(
        self,
        buf: bytes,
        lo: int,
        hi: int,
        names: List[object],
        notbot: Callable[[int], List[int]],
        q: int,
    ) -> None:
        super().__init__()
        self._buf = buf
        self._lo = lo
        self._names = names
        self._index = {name: k for k, name in enumerate(names)}
        #: position -> the notbot row masks of names[position], as ints
        self._notbot = notbot
        self._q = q
        #: position -> byte range of its values; the located names are a
        #: suffix of ``names``, and ``_end`` is where the values of the last
        #: name before that suffix end
        self._spans: Dict[int, Tuple[int, int]] = {}
        self._end = hi

    def _locate(self, k: int) -> Tuple[int, int]:
        buf, lo = self._buf, self._lo
        for m in range(len(self._names) - len(self._spans) - 1, k - 1, -1):
            end = self._end
            n = sum(map(int.bit_count, self._notbot(m)))
            start = end - n
            if start > lo and buf[start - 1] >= 0x80 or (
                n and max(buf[start:end]) >= 0x80
            ):
                # Some value takes more than one byte: walk back value by
                # value (a uvarint ends at its only byte below 0x80).
                start = end
                for _ in range(n):
                    start -= 1
                    while start > lo and buf[start - 1] >= 0x80:
                        start -= 1
            self._spans[m] = (start, end)
            self._end = start
        return self._spans[k]

    def __missing__(self, name: object) -> List[int]:
        k = self._index[name]  # unknown name -> KeyError, as a dict would
        start, end = self._locate(k)
        nb_rows = self._notbot(k)
        q = self._q
        cells = [i * q + j for i, mask in enumerate(nb_rows) for j in bits_list(mask)]
        row = [0] * (q * q)
        for cell, value in zip(cells, _Reader(self._buf, start, end).uvarints(len(cells))):
            row[cell] = value
        self[name] = row
        return row

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def get(self, name: object, default: Any = None) -> Any:
        return self[name] if name in self._index else default

    def __eq__(self, other: object) -> bool:
        return {name: self[name] for name in self._names} == other

    def __ne__(self, other: object) -> bool:
        return not self == other


def _encode_prep(prep: Preprocessing, counts: Optional[CountRows]) -> bytes:
    slp = prep.slp
    q = prep.q
    order = slp.canonical_order()
    row_words = (q + 63) // 64
    out = bytearray(
        _HEAD.pack(
            MAGIC,
            STORE_FORMAT_VERSION,
            bytes.fromhex(slp.structural_digest()),
            bytes.fromhex(prep.automaton.structural_digest()),
            q,
            len(order),
        )
    )
    _write_uvarint(out, len(prep.final_states))
    for state in prep.final_states:
        _write_uvarint(out, state)
    out += bytes(0 if slp.is_leaf(name) else 1 for name in order)  # kinds
    for name in order:  # planes section
        out += _pack_words(prep.notbot[name], row_words)
        out += _pack_words(prep.one[name], row_words)
    for name in order:  # dense I section (mirrors the in-memory layout)
        if not slp.is_leaf(name):
            out += _pack_words(prep.I[name], row_words)
    for name in order:  # leaf-table section
        if not slp.is_leaf(name):
            continue
        entries = sorted(prep.leaf_tables[name].items())
        _write_uvarint(out, len(entries))
        for (i, j), marker_sets in entries:
            _write_uvarint(out, i)
            _write_uvarint(out, j)
            _write_uvarint(out, len(marker_sets))
            for pairs in marker_sets:
                _write_uvarint(out, len(pairs))
                for pos, marker in pairs:
                    _write_uvarint(out, pos)
                    var = marker.var.encode("utf-8")
                    _write_uvarint(out, len(var))
                    out += var
                    out.append(0 if marker.kind == OPEN else 1)
    if counts is None:
        out.append(0)
    else:
        # Positional over the notbot-set cells, row-major.  A cell's count
        # is nonzero iff its notbot bit is set (Lemmas 6.9/8.7), so those
        # values are exactly the row's nonzero entries, in order.
        out.append(1)
        for name in order:
            values = list(filter(None, counts[name]))
            if values and max(values) < 0x80:
                out += bytes(values)  # all one-byte uvarints: one C call
            else:
                for value in values:
                    _write_uvarint(out, value)
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def _decode_prep(
    buf: bytes,
    padded_slp: SLP,
    automaton: SpannerNFA,
    kernel: Union[None, str, Kernel] = None,
) -> Optional[Tuple[Preprocessing, Optional[CountRows]]]:
    """Attach a stored payload to live objects; ``None`` on any mismatch.

    ``kernel`` selects the word-section codec (and the layout of the
    attached planes).  Raises ``ValueError``/``struct.error`` on corrupt
    bytes (callers treat those as a reject too).
    """
    kernel = resolve_kernel(kernel)
    if len(buf) < _HEAD.size + _CRC.size:
        raise ValueError("truncated payload")
    magic, version, slp_digest, auto_digest, q, n_names = _HEAD.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != STORE_FORMAT_VERSION:
        return None  # stale format: rebuild
    (stored_crc,) = _CRC.unpack_from(buf, len(buf) - _CRC.size)
    if stored_crc != zlib.crc32(memoryview(buf)[: len(buf) - _CRC.size]):
        raise ValueError("CRC mismatch")
    if (
        slp_digest.hex() != padded_slp.structural_digest()
        or auto_digest.hex() != automaton.structural_digest()
        or q != automaton.num_states
    ):
        return None  # built for different inputs: a clean miss
    order = padded_slp.canonical_order()
    if n_names != len(order):
        return None
    reader = _Reader(buf, _HEAD.size, len(buf) - _CRC.size)
    final_states = [reader.uvarint() for _ in range(reader.uvarint())]
    kinds = reader.raw(len(order))
    expected_kinds = bytes(0 if padded_slp.is_leaf(n) else 1 for n in order)
    if bytes(kinds) != expected_kinds:
        return None  # shape disagrees with the live grammar
    row_words = (q + 63) // 64
    field = row_words * 8
    # planes section: one bulk word-decode (a zero-copy view under the
    # numpy kernel), then C-level slicing per name — ndarray slices stay
    # views into the payload, list slices are cheap copies.
    plane_values = 2 * q
    n_plane_values = len(order) * plane_values
    plane_offset = reader.pos
    reader.raw(n_plane_values * field)  # bounds check + cursor advance
    values = kernel.decode_words(buf, plane_offset, n_plane_values, row_words)
    notbot: Dict[object, PlaneRows] = {}
    one: Dict[object, PlaneRows] = {}
    for k, name in enumerate(order):
        base = k * plane_values
        notbot[name] = values[base : base + q]
        one[name] = values[base + q : base + plane_values]
    # dense I section: retained in place, decoded lazily per accessed name
    inners = [name for name in order if not padded_slp.is_leaf(name)]
    cells = q * q
    i_offset = reader.pos
    reader.raw(len(inners) * cells * field)  # bounds check + cursor advance
    i_vectors = _LazyIVectors(
        buf, i_offset, inners, row_words, cells, kernel.decode_words
    )
    leaf_tables: Dict[object, Dict[Tuple[int, int], Tuple[Pairs, ...]]] = {}
    for name in order:
        if not padded_slp.is_leaf(name):
            continue
        table: Dict[Tuple[int, int], Tuple[Pairs, ...]] = {}
        for _ in range(reader.uvarint()):
            i = reader.uvarint()
            j = reader.uvarint()
            marker_sets: List[Pairs] = []
            for _ in range(reader.uvarint()):
                pairs: List[Tuple[int, Marker]] = []
                for _ in range(reader.uvarint()):
                    pos = reader.uvarint()
                    var = reader.raw(reader.uvarint()).decode("utf-8")
                    marker_kind = OPEN if reader.byte() == 0 else CLOSE
                    pairs.append((pos, Marker(var, marker_kind)))
                marker_sets.append(tuple(pairs))
            table[(i, j)] = tuple(marker_sets)
        leaf_tables[name] = table
    counts: Optional[CountRows] = None
    if reader.byte():

        def notbot_ints(k: int) -> List[int]:
            offset = plane_offset + k * plane_values * field
            return list(PYTHON_KERNEL.decode_words(buf, offset, q, row_words))

        counts = _LazyCountRows(buf, reader.pos, reader.end, order, notbot_ints, q)
    prep = Preprocessing.from_planes(
        padded_slp,
        automaton,
        {
            "leaf_tables": leaf_tables,
            "notbot": notbot,
            "one": one,
            "I": i_vectors,
            "final_states": final_states,
        },
        kernel=kernel,
    )
    return prep, counts


class StoreEntryInfo(NamedTuple):
    """Header fields of one ``.prep`` file (see :meth:`PreprocessingStore.scan_headers`)."""

    filename: str
    version: int
    padded_digest: str
    automaton_digest: str
    q: int
    n_names: int


class PreprocessingStore:
    """A directory of persisted preprocessing tables, consulted by the engine.

    >>> import tempfile
    >>> from repro.slp.construct import balanced_slp
    >>> from repro.engine import Engine
    >>> from repro.spanner.regex import compile_spanner
    >>> store = PreprocessingStore(tempfile.mkdtemp())
    >>> spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
    >>> Engine(store=store).count(spanner, balanced_slp("abab"))   # builds + persists
    2
    >>> Engine(store=store).count(spanner, balanced_slp("abab"))   # fresh process: store hit
    2
    >>> store.stats.hits, store.stats.writes >= 1
    (1, True)
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.stats = StoreStats()
        self._warned_no_space = False

    def _path(
        self, slp_digest: str, automaton_digest: str, padded_digest: str
    ) -> str:
        # The padded-SLP digest is part of the file key: it captures the
        # engine's whole padding configuration (balance, end_symbol), so
        # engines with different settings sharing one directory keep
        # separate entries instead of clobbering each other's.
        key = hashlib.blake2b(
            f"{slp_digest}:{automaton_digest}:{padded_digest}".encode(),
            digest_size=16,
        ).hexdigest()
        return os.path.join(self.directory, f"{key}.prep")

    def load(
        self,
        slp_digest: str,
        automaton_digest: str,
        padded_slp: SLP,
        automaton: SpannerNFA,
        kernel: Union[None, str, Kernel] = None,
    ) -> Optional[Tuple[Preprocessing, Optional[CountRows]]]:
        """The persisted ``(Preprocessing, counts)`` for the key, or ``None``.

        ``counts`` is the per-nonterminal flat count rows, decoded per
        name on first access (``CountingTables.from_rows`` adopts them),
        or ``None`` when the entry
        was saved before its counting tables were ever built.  ``kernel``
        selects the word-section codec
        — the on-disk format is kernel-independent, so entries written
        under one backend restore under any other.  Stale versions,
        corrupt payloads and digest mismatches all return ``None``
        (counted in :attr:`StoreStats.rejects`) so the caller simply
        rebuilds; a payload that fails to *decode* (truncation,
        bit-flips, garbage) is additionally quarantined — renamed aside
        so the rebuild's save lands on a vacant path.
        """
        path = self._path(
            slp_digest, automaton_digest, padded_slp.structural_digest()
        )
        registry = get_registry()
        try:
            with open(path, "rb") as fh:
                buf = fh.read()
        except OSError:
            self.stats.misses += 1
            registry.counter("store.misses").inc()
            return None
        buf = mangle("store.load.bytes", buf)
        try:
            restored = _decode_prep(buf, padded_slp, automaton, kernel)
        except Exception:  # repro-check: broad-except — untrusted cache bytes: any decode failure means quarantine + rebuild (counted as a reject)
            self._quarantine(path)
            restored = None
        if restored is None:
            self.stats.rejects += 1
            registry.counter("store.rejects").inc()
            return None
        self.stats.hits += 1
        registry.counter("store.restores").inc()
        registry.counter("store.restore_bytes").inc(len(buf))
        registry.histogram("store.entry_bytes", BYTE_BUCKETS).observe(len(buf))
        return restored

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so the rebuild owns its path.

        The bad bytes stay on disk (``<name>.prep.quarantined``,
        invisible to :meth:`__len__` / :meth:`scan_headers`) for
        post-mortem; a second corruption of the same key overwrites the
        previous quarantine file rather than accumulating.
        """
        try:
            os.replace(path, f"{path}.quarantined")
        except OSError:
            try:
                os.unlink(path)  # can't rename: removing still unblocks rebuild
            except OSError:
                return  # neither worked; the entry stays and keeps rejecting
        self.stats.quarantined += 1
        get_registry().counter("store.quarantined").inc()

    def save(
        self,
        slp_digest: str,
        automaton_digest: str,
        prep: Preprocessing,
        counts: Optional[CountRows] = None,
    ) -> None:
        """Persist the tables under the key (atomic; best-effort).

        ``counts`` is the per-nonterminal flat count rows
        (``CountingTables.rows``), written positionally over the notbot
        cells; ``None`` saves the tables alone.

        The write goes to a tmp file that is fsynced and then renamed
        over the entry, so a writer killed at *any* point leaves either
        the old entry or the new one — never a partial payload the next
        reader must CRC-reject.  A full disk (``ENOSPC``) degrades to a
        warn-once no-op: the store is a cache, so losing a write costs
        a rebuild, not correctness.
        """
        path = self._path(
            slp_digest, automaton_digest, prep.slp.structural_digest()
        )
        data = _encode_prep(prep, counts)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            fault_point("store.save")
            payload = mangle("store.save.bytes", data)
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            fault_point("store.save.commit")
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            get_registry().counter("store.save_errors").inc()
            if exc.errno == errno.ENOSPC and not self._warned_no_space:
                self._warned_no_space = True
                warnings.warn(
                    f"preprocessing store {self.directory!r} is out of disk "
                    f"space; persistence is disabled until space frees up "
                    f"(evaluation continues, rebuilding tables in memory)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        self.stats.writes += 1
        registry = get_registry()
        registry.counter("store.writes").inc()
        registry.counter("store.save_bytes").inc(len(data))

    def __len__(self) -> int:
        return sum(1 for n in os.listdir(self.directory) if n.endswith(".prep"))

    def scan_headers(self) -> List[StoreEntryInfo]:
        """Header fields of every well-formed entry (payloads untouched).

        The filename key is a one-way hash, so this scan is how tooling
        (``repro stats --store``) correlates a grammar with its entries:
        the header's padded-SLP digest is derivable from a grammar plus a
        padding configuration.  Unreadable or wrong-magic files are
        skipped, never raised on.
        """
        out: List[StoreEntryInfo] = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".prep"):
                continue
            try:
                with open(os.path.join(self.directory, name), "rb") as fh:
                    head = fh.read(_HEAD.size)
                magic, version, slp_digest, auto_digest, q, n_names = _HEAD.unpack(
                    head
                )
            except (OSError, struct.error):
                continue
            if magic != MAGIC:
                continue
            out.append(
                StoreEntryInfo(
                    name, version, slp_digest.hex(), auto_digest.hex(), q, n_names
                )
            )
        return out

    def clear(self) -> None:
        """Remove every persisted entry, quarantined ones included
        (counters are kept)."""
        for name in os.listdir(self.directory):
            if name.endswith(".prep") or name.endswith(".prep.quarantined"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass

    def __repr__(self) -> str:
        return (
            f"PreprocessingStore({self.directory!r}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"rejects={self.stats.rejects}, writes={self.stats.writes}, "
            f"quarantined={self.stats.quarantined})"
        )
