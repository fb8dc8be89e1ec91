"""Evaluation preprocessing: leaf tables ``M_Tx`` and matrices ``R_A``, ``I_A``.

This implements Lemma 6.5 of the paper.  For the (padded) SLP ``S`` and the
(padded, ε-free) spanner automaton ``M`` with ``q`` states it computes:

* ``M_Tx[i, j]`` for every leaf nonterminal — the partial marker sets over a
  single document symbol (Definition 6.2 restricted to leaves);
* ``R_A[i, j] ∈ {⊥, ℮, 1}`` for every nonterminal — whether ``M_A[i, j]``
  is empty, exactly ``{∅}``, or contains a nonempty marker set
  (Definition 6.4);
* ``I_A[i, j]`` for every inner nonterminal — the set of intermediate
  states ``k`` with ``R_B[i, k] ≠ ⊥`` and ``R_C[k, j] ≠ ⊥``, stored as a
  bitmask (Definition 6.4);
* ``F' = {j ∈ F : R_S0[start, j] ≠ ⊥}``, sorted ascending (the canonical
  accepting-state order shared by enumeration and ranked access).

Storage is *bit-plane*, not list-of-lists: per nonterminal ``A`` the matrix
``R_A`` is two vectors of ``q`` row bitmasks (``notbot[A][i]`` has bit ``j``
set iff ``R_A[i,j] ≠ ⊥``; ``one[A][i]`` has bit ``j`` set iff
``R_A[i,j] = 1``); ``I_A`` is a flat row-major vector of ``q·q``
intermediate-state bitmasks.  During construction the transposed column
planes of each right child are built once (not rebuilt per parent as in the
old representation), so a parent rule ``A -> B C`` costs ``O(q²)`` word
operations (one AND + two tests per entry) with no re-scan of the child
matrices.

The build itself is delegated to a pluggable *kernel backend*
(:mod:`repro.core.kernels`): the dependency-free ``python`` kernel runs
the loop above over bigint rows, one rule at a time; the ``numpy`` kernel
computes one whole height level at a time (rules of equal height never
read each other) with broadcast AND/any reductions over stacked uint64
word arrays, storing each rule's column planes as it is built.
Kernels may store plane containers in their native layout (e.g. 1-D
``uint64`` ndarrays for ``q <= 64``); the accessors below normalise every
value with ``int()``, so consumers — and the differential harness — see
bit-identical integers regardless of backend.

Everything is bundled in a :class:`Preprocessing` object consumed by
:mod:`repro.core.computation`, :mod:`repro.core.enumeration` and
:mod:`repro.core.counting` through the accessor API (:meth:`r_value`,
:meth:`notbot_row`, :meth:`intermediate_mask`, :meth:`intermediate_states`,
:meth:`leaf_entry`).

Total time ``O(|M| + size(S) · q^2)`` word operations (the paper states
``O(|M| + size(S) · q^3)``; bit-parallel AND saves a factor).
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, List, Mapping, Set, Tuple, Union

from repro.errors import EvaluationError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.marked_words import is_marker_item
from repro.spanner.markers import Marker, Pairs

from repro.core.boolmat import bits_list
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.kernels.base import LeafTables, PlaneRows

#: R-matrix entries (Definition 6.4).
BOT = 0  # ⊥ : M_A[i,j] = ∅
EMP = 1  # ℮ : M_A[i,j] = {∅}
ONE = 2  # 1 : M_A[i,j] contains a nonempty partial marker set


class Preprocessing:
    """Precomputed evaluation tables for one (automaton, SLP) pair.

    Both inputs must already be ``#``-padded (see
    :mod:`repro.spanner.transform`); the automaton must be ε-free.

    Consumers should go through the accessors (:meth:`r_value`,
    :meth:`notbot_row`, :meth:`one_row`, :meth:`intermediate_mask`,
    :meth:`intermediate_states`, :meth:`leaf_entry`) rather
    than the raw bit-planes.
    """

    __slots__ = (
        "slp",
        "automaton",
        "q",
        "kernel",
        "leaf_tables",
        "notbot",
        "one",
        "I",
        "final_states",
        "order",
    )

    # Annotation-only declarations (no values — compatible with __slots__).
    slp: SLP
    automaton: SpannerNFA
    q: int
    kernel: Kernel
    leaf_tables: LeafTables
    notbot: Mapping[object, PlaneRows]
    one: Mapping[object, PlaneRows]
    I: Mapping[object, PlaneRows]
    final_states: List[int]
    order: List[object]

    def __init__(
        self,
        slp: SLP,
        automaton: SpannerNFA,
        kernel: Union[None, str, Kernel] = None,
    ) -> None:
        if automaton.has_epsilon:
            raise EvaluationError("preprocessing requires an ε-free automaton")
        self.slp = slp
        self.automaton = automaton
        self.q = automaton.num_states
        #: the bit-plane backend that built (and owns the layout of) the
        #: tables; also consulted by the counting-table build.
        self.kernel = resolve_kernel(kernel)
        #: leaf nonterminal -> {(i, j) -> sorted tuple of partial marker sets}
        self.leaf_tables = {}
        self._compute_leaf_tables()
        reachable = self.slp.reachable()
        self.order = [n for n in self.slp.topological_order() if n in reachable]
        #: notbot: nonterminal -> q row bitmasks; bit j of row i set iff
        #: R_A[i,j] ≠ ⊥.  one: same, bit set iff R_A[i,j] = 1.  I: inner
        #: nonterminal -> flat row-major q·q intermediate-state bitmasks.
        #: Containers are kernel-native (int lists or uint64 ndarrays);
        #: go through the accessors, which int()-normalise.
        started = time.monotonic()
        with get_tracer().span(
            "kernel.build_planes", kernel=self.kernel.name, q=self.q
        ):
            self.notbot, self.one, self.I = self.kernel.build_planes(
                self.slp, self.order, self.q, self.leaf_tables
            )
        get_registry().histogram(
            f"kernel.{self.kernel.name}.build_planes_seconds"
        ).observe(time.monotonic() - started)
        start_mask = int(self.notbot[slp.start][automaton.start])
        # Sorted ascending: enumeration streams and RankedAccess.select both
        # walk this list, so construction order must be deterministic.
        self.final_states = sorted(
            j for j in automaton.accepting if (start_mask >> j) & 1
        )

    # -- Lemma 6.5, leaf part ------------------------------------------------

    def _compute_leaf_tables(self) -> None:
        # P_i = {(ℓ, Y) : ℓ --Y--> i with Y a marker-set symbol}
        incoming_marker: Dict[int, List[Tuple[int, FrozenSet[Marker]]]] = {}
        char_arcs: List[Tuple[int, str, int]] = []
        for source, symbol, target in self.automaton.arcs():
            if is_marker_item(symbol):
                incoming_marker.setdefault(target, []).append((source, symbol))
            else:
                char_arcs.append((source, symbol, target))

        tables: Dict[object, Dict[Tuple[int, int], Set[Pairs]]] = {}
        reachable = self.slp.reachable()
        wanted = {
            self.slp.terminal(name): name
            for name in reachable
            if self.slp.is_leaf(name)
        }
        for source, symbol, target in char_arcs:
            leaf_name = wanted.get(symbol)
            if leaf_name is None:
                continue
            bucket = tables.setdefault(leaf_name, {})
            bucket.setdefault((source, target), set()).add(())
            for origin, marker_set in incoming_marker.get(source, []):
                pairs = tuple(sorted((1, marker) for marker in marker_set))
                bucket.setdefault((origin, target), set()).add(pairs)
        for leaf_name in wanted.values():
            entries = tables.get(leaf_name, {})
            self.leaf_tables[leaf_name] = {
                key: tuple(sorted(values)) for key, values in entries.items()
            }

    # -- accessor API used by computation / counting / enumeration -----------
    #
    # Every value is int()-normalised on the way out: plane containers are
    # kernel-native (Python ints, or numpy uint64 scalars for q <= 64), and
    # int() is a no-op on an int, so the reference kernel pays nothing.

    def r_value(self, name: object, i: int, j: int) -> int:
        """``R_A[i, j]`` as one of :data:`BOT` / :data:`EMP` / :data:`ONE`."""
        if not (int(self.notbot[name][i]) >> j) & 1:
            return BOT
        return ONE if (int(self.one[name][i]) >> j) & 1 else EMP

    def notbot_row(self, name: object, i: int) -> int:
        """Bitmask of the ``j`` with ``R_A[i, j] ≠ ⊥``."""
        return int(self.notbot[name][i])

    def one_row(self, name: object, i: int) -> int:
        """Bitmask of the ``j`` with ``R_A[i, j] = 1``."""
        return int(self.one[name][i])

    def intermediate_mask(self, name: object, i: int, j: int) -> int:
        """``I_A[i, j]`` as a bitmask over intermediate states ``k``."""
        return int(self.I[name][i * self.q + j])

    def intermediate_states(self, name: object, i: int, j: int) -> List[int]:
        """``I_A[i, j]`` as a list of states."""
        return bits_list(int(self.I[name][i * self.q + j]))

    def leaf_entry(self, name: object, i: int, j: int) -> Tuple[Pairs, ...]:
        """``M_Tx[i, j]`` as a sorted tuple of partial marker sets."""
        return self.leaf_tables[name].get((i, j), ())

    # -- plane export / import (the persistence hooks) ------------------------

    def export_planes(self) -> Dict[str, Any]:
        """The tables as one *canonical* dict — the serialisation hook.

        Plane containers are normalised to plain Python-int lists, so two
        preprocessings built (or restored) by different kernel backends
        export byte-for-byte comparable dicts — the cross-kernel property
        tests diff exactly this.  ``leaf_tables`` is shared by reference
        (it is kernel-independent); treat the result as read-only.
        Together with the (slp, automaton) pair the dict fully determines
        the object, so :meth:`from_planes` can restore it without
        re-running the Lemma 6.5 computation.
        """
        def canonical(rows: PlaneRows) -> List[int]:
            return [int(v) for v in rows]

        # Walk self.order (not .items()): a store-restored ``I`` is a lazy
        # container that only decodes a vector when it is looked up.
        inner = [name for name in self.order if not self.slp.is_leaf(name)]
        return {
            "leaf_tables": self.leaf_tables,
            "notbot": {name: canonical(self.notbot[name]) for name in self.order},
            "one": {name: canonical(self.one[name]) for name in self.order},
            "I": {name: canonical(self.I[name]) for name in inner},
            "final_states": list(self.final_states),
        }

    @classmethod
    def from_planes(
        cls,
        slp: SLP,
        automaton: SpannerNFA,
        planes: Dict[str, Any],
        kernel: Union[None, str, Kernel] = None,
    ) -> "Preprocessing":
        """Rebuild a :class:`Preprocessing` from :meth:`export_planes` output.

        Skips the ``O(size(S) · q²)`` table computation entirely — this is
        what makes disk-persisted warm starts cheap.  The tables must have
        been built for a structurally identical (slp, automaton) pair with
        matching nonterminal names; coverage of every reachable nonterminal
        is validated, the table *contents* are trusted.  Plane containers
        may be in any kernel's layout (the accessors normalise); ``kernel``
        records the backend that decoded them and steers later derived
        builds (e.g. counting tables).
        """
        if automaton.has_epsilon:
            raise EvaluationError("preprocessing requires an ε-free automaton")
        obj = cls.__new__(cls)
        obj.slp = slp
        obj.automaton = automaton
        obj.q = automaton.num_states
        obj.kernel = resolve_kernel(kernel)
        obj.leaf_tables = planes["leaf_tables"]
        obj.notbot = planes["notbot"]
        obj.one = planes["one"]
        obj.I = planes["I"]
        obj.final_states = list(planes["final_states"])
        reachable = slp.reachable()
        obj.order = [n for n in slp.topological_order() if n in reachable]
        for name in obj.order:
            if name not in obj.notbot or name not in obj.one:
                raise EvaluationError(f"imported planes miss nonterminal {name!r}")
            if slp.is_leaf(name):
                if name not in obj.leaf_tables:
                    raise EvaluationError(f"imported planes miss leaf table {name!r}")
            elif name not in obj.I:
                raise EvaluationError(f"imported planes miss I-vector of {name!r}")
        return obj


def preprocess(
    slp: SLP, automaton: SpannerNFA, kernel: Union[None, str, Kernel] = None
) -> Preprocessing:
    """Run the Lemma 6.5 preprocessing (inputs must be padded, ε-free)."""
    return Preprocessing(slp, automaton, kernel=kernel)
