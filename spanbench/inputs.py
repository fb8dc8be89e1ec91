"""Seeded documents and the plain-text oracles that check every answer.

Every document is a function of ``(workload, seed, index)`` only: the
text comes from a generator in :mod:`repro.workloads.documents` seeded
by a stable hash of that triple, and is compressed with RePair
(:func:`repro.slp.repair.repair_slp`).  RePair dominates generation
time, so the block documents come in groups of four: one RePair grammar
and its three images under the symmetries of ``block_text`` over
``"ab"`` (swapping ``a``/``b``, mirroring every rule).  Each image is an
SLP of the same size and depth for a text with the same distribution —
a distinct document with a distinct digest, at no extra RePair cost.

The oracles never touch the grammar: they read the generated text.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from repro.slp import io as slp_io
from repro.slp.grammar import SLP
from repro.slp.repair import repair_slp
from repro.workloads.documents import block_text, server_log

#: ``block_text`` shape of the count workloads' documents.
BLOCK_TEXT_LENGTH = 20_000
BLOCK_POOL = 64
BLOCK_SIZE = 32
#: Lines of the ``server_log`` document of ``restart_enumerate``.
LOG_LINES = 1000

#: S1: every (overlapping) occurrence of ``abba``; q = 26 once padded.
S1_PATTERN = r"(a|b)*(?P<x>abba)(a|b)*"
S1_ALPHABET = "ab"

#: One image per group member: (swap a/b, mirror rules).
_VARIANTS = ((False, False), (True, False), (False, True), (True, True))
_SWAP = str.maketrans("ab", "ba")

Span = Tuple[int, int]


@dataclass(frozen=True)
class Document:
    """A generated ``.slpb`` file and the text its grammar derives."""

    path: str
    text: str


def derive_seed(workload: str, seed: int, index: object) -> int:
    """A stable 64-bit generator seed for ``(workload, seed, index)``."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _image(slp: SLP, swap: bool, mirror: bool) -> SLP:
    """``slp`` with terminals ``a``/``b`` swapped and/or every rule mirrored."""
    if not (swap or mirror):
        return slp
    leaves = {
        name: (symbol.translate(_SWAP) if swap else symbol)
        for name, symbol in slp.leaf_rules.items()
    }
    inner = {
        name: ((right, left) if mirror else (left, right))
        for name, (left, right) in slp.inner_rules.items()
    }
    return SLP(inner, leaves, slp.start)


def _image_text(text: str, swap: bool, mirror: bool) -> str:
    if swap:
        text = text.translate(_SWAP)
    return text[::-1] if mirror else text


def block_documents(
    workload: str,
    seed: int,
    count: int,
    directory: str,
    tag: str = "doc",
    images: int = len(_VARIANTS),
) -> List[Document]:
    """Documents ``0 .. count-1`` of the block shape, written as ``.slpb``.

    Document ``k`` is image ``k % images`` of the RePair grammar of
    ``block_text`` seeded by ``(workload, seed, tag + k // images)``.
    Fewer images per grammar cost more RePair runs and average the
    documents' sizes over more independent texts.
    """
    documents: List[Document] = []
    group = 0
    while len(documents) < count:
        text = block_text(
            BLOCK_TEXT_LENGTH,
            BLOCK_POOL,
            BLOCK_SIZE,
            S1_ALPHABET,
            seed=derive_seed(workload, seed, f"{tag}{group}"),
        )
        slp = repair_slp(text)
        for swap, mirror in _VARIANTS[:images]:
            if len(documents) == count:
                break
            path = os.path.join(directory, f"{tag}-{len(documents)}.slpb")
            slp_io.save_binary(_image(slp, swap, mirror), path)
            documents.append(Document(path, _image_text(text, swap, mirror)))
        group += 1
    return documents


def log_document(workload: str, seed: int, directory: str) -> Document:
    """The ``server_log`` document of ``(workload, seed)``."""
    text = server_log(LOG_LINES, seed=derive_seed(workload, seed, "log"))
    path = os.path.join(directory, "log.slpb")
    slp_io.save_binary(repair_slp(text), path)
    return Document(path, text)


# -- oracles ---------------------------------------------------------------


def abba_spans(text: str) -> List[Span]:
    """S1's spans ``[start, end⟩`` (1-based), from a ``re`` lookahead."""
    return [(m.start() + 1, m.start() + 5) for m in re.finditer("(?=abba)", text)]


_LOG_PAIR = re.compile(r"user=([a-z]+) action=([a-z]+) ")


def log_pairs(text: str) -> Set[Tuple[Span, Span]]:
    """``pair_spanner``'s tuples as ``(user span, action span)``, one per line."""
    return {
        ((m.start(1) + 1, m.end(1) + 1), (m.start(2) + 1, m.end(2) + 1))
        for m in _LOG_PAIR.finditer(text)
    }


def iter_spans(tuples: object, variables: Tuple[str, ...]) -> Iterator[Tuple[Span, ...]]:
    """Span tuples as plain ``((start, end), ...)`` in ``variables`` order."""
    for t in tuples:  # type: ignore[attr-defined]
        yield tuple((t[v].start, t[v].end) for v in variables)
