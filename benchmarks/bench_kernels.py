"""Kernel-backend benchmarks: the acceptance gates of the kernel subsystem.

Gates (run explicitly, not part of tier-1; the numpy gates skip cleanly
when numpy is absent — the import-path gate runs everywhere):

* cold Lemma 6.5 preprocessing with the ``numpy`` kernel must be >= 3x
  faster than the ``python`` kernel at ``q >= 48`` on a large grammar
  (and produce bit-identical planes);
* on a small automaton (``q ≈ 12``, the shape of the ``abba`` count
  query once determinised and padded) over a balanced RePair
  ``block_text`` document, the numpy kernel's ``build_planes`` +
  ``build_counts`` must be no slower than the python kernel's — the
  level-batched build must not lose to the bigint loop where per-call
  numpy overhead is largest;
* a store-backed restore (load + hydrating every I-vector, i.e. what a
  full enumeration descent needs) must be >= 1.5x faster under the numpy
  kernel's zero-copy ``np.frombuffer`` decode than under the reference
  word codec;
* importing :mod:`repro` must never require numpy: with numpy imports
  blocked, ``resolve_kernel(None)`` falls back to the python kernel and
  the engine still evaluates correctly;
* the :func:`repro.core.boolmat.bits_list` byte-table fast path must beat
  the ``iter_bits`` generator on one-word masks (``q <= 64``) and must
  not regress wider masks (``q > 64``), where it falls back.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap

import pytest

from repro.bench.harness import time_call
from repro.core.boolmat import bits_list, iter_bits
from repro.core.kernels import numpy_available, resolve_kernel
from repro.core.matrices import Preprocessing
from repro.core.prepared import PreparedDocument, PreparedSpanner
from repro.slp.families import power_slp
from repro.slp.repair import repair_slp
from repro.spanner.automaton import NFABuilder
from repro.spanner.regex import compile_spanner
from repro.spanner.transform import pad_slp
from repro.store import PreprocessingStore
from repro.workloads.documents import block_text

#: The gate's automaton size: the ISSUE demands the 3x win at q >= 48.
GATE_Q = 56

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable on this host"
)


def dense_automaton(q: int = GATE_Q):
    """An ε-free q-state automaton over {a, b, #} with real bit-plane work.

    Two targets per character per state, so matrix products densify as
    they compose — the planes are neither empty nor trivially full.
    """
    builder = NFABuilder()
    states = [builder.state() for _ in range(q)]
    builder.set_start(states[0])
    for idx, state in enumerate(states):
        builder.arc(state, "a", states[(2 * idx + 1) % q])
        builder.arc(state, "a", states[(idx + 3) % q])
        builder.arc(state, "b", states[(3 * idx + 2) % q])
        builder.arc(state, "b", states[(5 * idx + 1) % q])
        builder.arc(state, "#", state)
    builder.accept(states[0])
    builder.accept(states[1])
    return builder.build()


@pytest.fixture(scope="module")
def gate_pair():
    """(padded large grammar, q=56 automaton) for the kernel gates."""
    return pad_slp(power_slp("ab", 150)), dense_automaton()


@needs_numpy
def test_numpy_cold_preprocessing_at_least_3x_at_q48(gate_pair):
    """The headline gate: vectorised Lemma 6.5 >= 3x at q >= 48."""
    padded, automaton = gate_pair
    assert automaton.num_states >= 48

    numpy_prep, t_numpy = time_call(
        lambda: Preprocessing(padded, automaton, kernel="numpy"), repeat=3
    )
    python_prep, t_python = time_call(
        lambda: Preprocessing(padded, automaton, kernel="python"), repeat=2
    )
    # bit-identical first: a fast wrong kernel is worthless
    assert numpy_prep.export_planes() == python_prep.export_planes()
    assert t_python >= 3.0 * t_numpy, (
        f"numpy kernel only {t_python / t_numpy:.2f}x faster "
        f"(python {t_python * 1e3:.1f} ms, numpy {t_numpy * 1e3:.1f} ms)"
    )


@needs_numpy
def test_numpy_build_no_slower_than_python_at_small_q():
    """Small-q gate: level batching keeps numpy ahead where calls are tiny."""
    document = PreparedDocument(repair_slp(block_text(20_000, 64, 32, "ab", seed=1)))
    spanner = PreparedSpanner(
        compile_spanner(r"(a|b)*(?P<x>abba)(a|b)*", alphabet="ab")
    )
    prep = Preprocessing(document.padded, spanner.padded_dfa, kernel="python")
    assert 8 <= prep.q <= 16 and len(prep.order) > 1000

    def build(kernel_name):
        kernel = resolve_kernel(kernel_name)
        planes = kernel.build_planes(prep.slp, prep.order, prep.q, prep.leaf_tables)
        return planes, kernel.build_counts(prep)

    (numpy_planes, numpy_counts), t_numpy = time_call(build, "numpy", repeat=5)
    (python_planes, python_counts), t_python = time_call(build, "python", repeat=5)
    for numpy_plane, python_plane in zip(numpy_planes, python_planes):
        assert {n: [int(v) for v in rows] for n, rows in numpy_plane.items()} == {
            n: list(rows) for n, rows in python_plane.items()
        }
    assert numpy_counts == python_counts
    assert t_numpy <= t_python, (
        f"numpy build slower than python at q={prep.q} "
        f"(python {t_python * 1e3:.1f} ms, numpy {t_numpy * 1e3:.1f} ms)"
    )


@needs_numpy
def test_store_restore_at_least_1p5x_via_zero_copy(gate_pair, tmp_path):
    """Restore gate: zero-copy word decode >= 1.5x over the int round-trip."""
    padded, automaton = gate_pair
    store = PreprocessingStore(str(tmp_path))
    prep = Preprocessing(padded, automaton, kernel="python")
    slp_digest = padded.structural_digest()
    auto_digest = automaton.structural_digest()
    store.save(slp_digest, auto_digest, prep)

    def restore(kernel_name):
        restored = store.load(
            slp_digest, auto_digest, padded, automaton, kernel=kernel_name
        )
        assert restored is not None
        restored_prep, _ = restored
        # Hydrate every I-vector — the part a full enumeration descent
        # touches and where the decode strategies actually differ.
        for name in restored_prep.order:
            if not padded.is_leaf(name):
                restored_prep.I[name]
        return restored_prep

    numpy_prep, t_numpy = time_call(lambda: restore("numpy"), repeat=3)
    python_prep, t_python = time_call(lambda: restore("python"), repeat=3)
    # same bits either way (spot-check a few cells of the biggest table)
    name = max(
        (n for n in prep.order if not padded.is_leaf(n)),
        key=lambda n: sum(prep.notbot_row(n, i).bit_count() for i in range(prep.q)),
    )
    for i in range(prep.q):
        assert numpy_prep.notbot_row(name, i) == python_prep.notbot_row(name, i)
        for j in range(prep.q):
            assert numpy_prep.intermediate_mask(
                name, i, j
            ) == python_prep.intermediate_mask(name, i, j)
    assert t_python >= 1.5 * t_numpy, (
        f"zero-copy restore only {t_python / t_numpy:.2f}x faster "
        f"(python {t_python * 1e3:.1f} ms, numpy {t_numpy * 1e3:.1f} ms)"
    )


def test_import_repro_never_requires_numpy():
    """Blocking numpy must leave repro importable with a working fallback."""
    script = textwrap.dedent(
        """
        import builtins
        real_import = builtins.__import__

        def no_numpy(name, *args, **kwargs):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy blocked for the import-path gate")
            return real_import(name, *args, **kwargs)

        builtins.__import__ = no_numpy

        import repro
        from repro.core.kernels import available_kernels, resolve_kernel

        kernel = resolve_kernel(None)
        assert kernel.name == "python", kernel.name
        assert available_kernels() == ("python",), available_kernels()

        from repro import Engine, balanced_slp, compile_spanner

        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        assert Engine().count(spanner, balanced_slp("abab")) == 2
        print("fallback ok")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback ok" in result.stdout


def test_bits_list_fast_path_and_wide_mask_fallback():
    """Satellite microbench: faster for q <= 64, no regression for q > 64."""
    rng = random.Random(0xB175)
    one_word = [rng.getrandbits(64) | 1 for _ in range(2000)]
    wide = [rng.getrandbits(192) | (1 << 191) for _ in range(2000)]

    for mask in one_word[:200] + wide[:200] + [0, 1, 1 << 63, 1 << 64, (1 << 64) - 1]:
        assert bits_list(mask) == list(iter_bits(mask))

    def run(masks):
        return [bits_list(m) for m in masks]

    def run_generator(masks):
        return [list(iter_bits(m)) for m in masks]

    _, t_fast = time_call(run, one_word, repeat=5)
    _, t_gen = time_call(run_generator, one_word, repeat=5)
    assert t_fast < t_gen, (
        f"bits_list fast path not faster: {t_fast * 1e3:.2f} ms vs "
        f"generator {t_gen * 1e3:.2f} ms"
    )

    _, t_fast_wide = time_call(run, wide, repeat=5)
    _, t_gen_wide = time_call(run_generator, wide, repeat=5)
    # the wide path *is* iter_bits plus one range check: allow only noise
    assert t_fast_wide <= 1.5 * t_gen_wide, (
        f"bits_list regressed wide masks: {t_fast_wide * 1e3:.2f} ms vs "
        f"generator {t_gen_wide * 1e3:.2f} ms"
    )


@needs_numpy
def test_counting_and_membership_agree_on_gate_workload(gate_pair):
    """Ride-along correctness: the vectorised boolmat product is identical."""
    from repro.core.membership import transition_matrices

    padded, automaton = gate_pair
    python_mats = transition_matrices(padded, automaton, kernel="python")
    numpy_mats = transition_matrices(padded, automaton, kernel="numpy")
    assert python_mats == numpy_mats
