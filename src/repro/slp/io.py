"""Serialisation of SLPs: a JSON text format and a binary mmap-able format.

Both formats store nonterminals in topological order with integer ids, so
files are deterministic for structurally equal grammars, load in one pass,
and stay close to the information-theoretic grammar size.  Only string
terminals are supported (marker-set terminals of spliced model-checking
grammars are internal and never serialised).

**JSON format** (``repro-slp``, version 1) — human-readable interchange::

    {
      "format": "repro-slp",
      "version": 1,
      "terminals": ["a", "b"],            # index = terminal id
      "rules": [[0, 1], [2, 2], ...],     # pairs of node ids
      "start": 5
    }

Node ids: ``0 .. len(terminals)-1`` are the leaf nonterminals (in list
order); rule ``k`` defines node ``len(terminals) + k``.

**Binary format** (``repro-slpb``, version 1) — the production on-disk
representation; see :mod:`repro.store.binary` for the authoritative
field-by-field specification.  Byte layout (little-endian)::

    [ 0..5]  magic b"rSLPB\\x00"
    [ 6..7]  u16 format version (1)
    [ 8..9]  u16 flags (reserved, 0)
    [10..25] blake2b-128 structural digest of the grammar
    [26..29] u32 number of terminals T
    [30..33] u32 number of rules R
    [34..37] u32 start node id
    [38..41] u32 terminal-blob byte length
    [42.. ]  terminal blob: per terminal, uvarint length + UTF-8 bytes
    [ .... ] rule table: R fixed-width (u32 left, u32 right) pairs;
             rule k defines node T + k and references only ids < T + k
    [last 4] u32 CRC-32 of everything before it

The fixed-width rule table means rules decode lazily straight out of an
mmap (:func:`open_binary`), and the CRC means any truncation, bit-flip
or wrong-magic file raises :class:`~repro.errors.GrammarError`.  The
embedded digest is informational (it lets tooling identify a grammar
without decoding it); structural cache keys always re-hash the decoded
structure, and ``verify_digest=True`` cross-checks the two at load.

**Versioning rules** (both formats): the version is bumped on any change
to the byte/field layout; readers reject versions they do not know
(``GrammarError``), never guess.  New optional information must go into
new fields (JSON) or a new version (binary) — the reserved ``flags``
field exists so version 1 readers can hard-reject files using
yet-unspecified extensions.

:func:`load_file` auto-detects the format by sniffing the magic bytes, so
every CLI subcommand accepts either representation; ``repro-spanner
convert`` translates between them.
"""

from __future__ import annotations

import json
from typing import Dict, List, TextIO, Tuple, Union

from repro.errors import GrammarError
from repro.slp.grammar import SLP

FORMAT_NAME = "repro-slp"
FORMAT_VERSION = 1


def slp_to_dict(slp: SLP) -> dict:
    """The JSON-ready dictionary encoding of ``slp`` (reachable part only).

    Nodes are emitted in :meth:`~repro.slp.grammar.SLP.canonical_order`
    (naming-independent), so structurally equal grammars — however they
    were built or renamed — serialise to the same document, and
    JSON <-> binary conversions round-trip byte-identically.
    """
    order = slp.canonical_order()
    terminals: List[str] = []
    ids: Dict[object, int] = {}
    for name in order:
        if slp.is_leaf(name):
            symbol = slp.terminal(name)
            if not isinstance(symbol, str):
                raise GrammarError(
                    f"only string terminals can be serialised, got {symbol!r}"
                )
            ids[name] = len(terminals)
            terminals.append(symbol)
    rules: List[Tuple[int, int]] = []
    for name in order:
        if slp.is_leaf(name):
            continue
        left, right = slp.children(name)
        ids[name] = len(terminals) + len(rules)
        rules.append((ids[left], ids[right]))
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "terminals": terminals,
        "rules": rules,
        "start": ids[slp.start],
    }


def slp_from_dict(data: dict) -> SLP:
    """Decode :func:`slp_to_dict` output back into an :class:`SLP`."""
    if not isinstance(data, dict):
        raise GrammarError(
            f"not a {FORMAT_NAME} document: expected an object, got {type(data).__name__}"
        )
    if data.get("format") != FORMAT_NAME:
        raise GrammarError(f"not a {FORMAT_NAME} document: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise GrammarError(f"unsupported version {data.get('version')!r}")
    terminals = data["terminals"]
    rules = data["rules"]
    if len(set(terminals)) != len(terminals):
        raise GrammarError("duplicate terminals in serialised grammar")
    names: List[object] = [("T", symbol) for symbol in terminals]
    leaf_rules = {("T", symbol): symbol for symbol in terminals}
    inner_rules: Dict[object, Tuple[object, object]] = {}
    for index, pair in enumerate(rules):
        if len(pair) != 2:
            raise GrammarError(f"rule {index} is not binary: {pair!r}")
        left, right = pair
        node_id = len(terminals) + index
        if not (0 <= left < node_id and 0 <= right < node_id):
            raise GrammarError(
                f"rule {index} references undefined or forward node: {pair!r}"
            )
        name = f"N{index}"
        inner_rules[name] = (names[left], names[right])
        names.append(name)
    start = data["start"]
    if not 0 <= start < len(names):
        raise GrammarError(f"start id {start} out of range")
    return SLP(inner_rules, leaf_rules, names[start])


def dumps(slp: SLP, indent: Union[int, None] = None) -> str:
    """Serialise to a JSON string.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.slp.derive import text
    >>> text(loads(dumps(balanced_slp("abracadabra"))))
    'abracadabra'
    """
    return json.dumps(slp_to_dict(slp), indent=indent)


def loads(payload: str) -> SLP:
    """Deserialise from a JSON string."""
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise GrammarError(f"not valid JSON: {exc}") from exc
    return slp_from_dict(data)


def dump(slp: SLP, fh: TextIO) -> None:
    """Serialise to an open text file."""
    json.dump(slp_to_dict(slp), fh)


def load(fh: TextIO) -> SLP:
    """Deserialise from an open text file."""
    try:
        data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GrammarError(f"not valid JSON: {exc}") from exc
    return slp_from_dict(data)


def save_file(slp: SLP, path: str) -> None:
    """Serialise to ``path`` as JSON (see :func:`save_binary` for binary)."""
    with open(path, "w", encoding="utf-8") as fh:
        dump(slp, fh)


def sniff_format(path: str) -> str:
    """``"binary"`` or ``"json"``: the on-disk format of ``path`` by magic."""
    with open(path, "rb") as fh:
        return "binary" if fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC else "json"


def load_file(path: str) -> SLP:
    """Deserialise from ``path``, auto-detecting JSON vs binary by magic."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(BINARY_MAGIC):
        from repro.store.binary import decode_slp

        return decode_slp(data)
    try:
        payload = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GrammarError(
            f"{path}: neither a {FORMAT_NAME} JSON document nor a repro-slpb "
            f"binary ({exc})"
        ) from exc
    return loads(payload)


#: First bytes of a ``repro-slpb`` file (kept in sync with repro.store.binary).
BINARY_MAGIC = b"rSLPB\x00"


def save_binary(slp: SLP, path: str) -> None:
    """Serialise to ``path`` in the ``repro-slpb`` binary format."""
    from repro.store.binary import save_binary as _save

    _save(slp, path)


def load_binary(path: str) -> SLP:
    """Load (and fully verify) a ``repro-slpb`` file."""
    from repro.store.binary import load_binary as _load

    return _load(path)


def peek_digest(path: str) -> str:
    """The structural digest of the grammar at ``path``, cheaply if possible.

    For ``repro-slpb`` files the digest is read straight from the header
    (16 bytes at a fixed offset) without decoding the grammar; JSON files
    are decoded and hashed.  The header digest is written by our own
    encoder and CRC-sealed, so it is trustworthy for *scheduling* —
    grouping duplicate documents onto one worker — where a wrong value
    can only cost a missed optimisation, never a wrong answer (every
    load-bearing consumer re-derives digests from decoded structure).
    """
    with open(path, "rb") as fh:
        head = fh.read(26)  # magic(6) + version(2) + flags(2) + digest(16)
    if head.startswith(BINARY_MAGIC) and len(head) == 26:
        return head[10:26].hex()
    return load_file(path).structural_digest()


def peek_alphabet(path: str):
    """The grammar's terminal alphabet as a frozenset, cheaply if possible.

    ``repro-slpb`` files store the terminal blob right after the header,
    so the alphabet is read without decoding the (much larger) rule
    table; JSON files are decoded fully.  Lets tooling infer a shared
    corpus alphabet without the per-file decode the workers will pay
    anyway.
    """
    if sniff_format(path) == "binary":
        with open_binary(path) as fh:
            return frozenset(
                fh.terminal(node_id) for node_id in range(fh.num_terminals)
            )
    return frozenset(load_file(path).alphabet)


def open_binary(path: str, verify: bool = False):
    """Open a ``repro-slpb`` file for lazy, mmap-backed random access.

    Returns a :class:`repro.store.binary.BinarySLPFile`; rules decode on
    demand with ``struct.unpack_from`` against the mapped buffer.
    """
    from repro.store.binary import open_binary as _open

    return _open(path, verify=verify)
