"""Content-addressed persistence: binary grammars + preprocessing tables.

Two cooperating pieces:

* :mod:`repro.store.binary` — the ``repro-slpb`` binary SLP format:
  varint terminals, a fixed-width topologically-ordered rule table that
  decodes lazily from an mmap (:class:`BinarySLPFile`), CRC + structural
  digest integrity.  Exposed through :mod:`repro.slp.io` as
  ``save_binary`` / ``load_binary`` and the CLI ``convert`` subcommand.
* :mod:`repro.store.prepstore` — :class:`PreprocessingStore`, an on-disk
  map from ``(slp_digest, automaton_digest, padded_digest)`` — with the
  format version checked in-payload — to the Lemma 6.5 bit-plane tables
  (plus counting tables once built), so ``Engine(store=...)`` warm
  starts survive process restarts.  Parallel and daemon workers share
  one store directory: whichever worker builds a digest's tables writes
  them, and later calls restore them.  Within one call, digest-affinity
  sharding keeps every copy of a grammar on one worker, so nothing
  builds or probes the store ahead of fan-out.

Both address content by :meth:`repro.slp.grammar.SLP.structural_digest`,
the naming-independent grammar hash that also powers the engine's opt-in
structural cache keys (``Engine(structural_keys=True)``).
"""

from repro.store.binary import (
    FORMAT_VERSION as BINARY_FORMAT_VERSION,
    BinarySLPFile,
    decode_slp,
    encode_slp,
    load_binary,
    open_binary,
    save_binary,
)
from repro.store.prepstore import (
    STORE_FORMAT_VERSION,
    PreprocessingStore,
    StoreEntryInfo,
    StoreStats,
)

__all__ = [
    "BINARY_FORMAT_VERSION",
    "BinarySLPFile",
    "PreprocessingStore",
    "STORE_FORMAT_VERSION",
    "StoreEntryInfo",
    "StoreStats",
    "decode_slp",
    "encode_slp",
    "load_binary",
    "open_binary",
    "save_binary",
]
