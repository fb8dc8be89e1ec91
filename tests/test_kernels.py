"""Kernel subsystem tests: registry, selection, and cross-kernel identity.

The contract under test is that kernel backends are *bit-identical*: on
randomised (grammar family × spanner × padding) trials the ``python`` and
``numpy`` kernels must produce equal ``export_planes()`` output, equal
:class:`~repro.core.counting.CountingTables` (totals and per-cell), and
equal ``enumerate_marker_sets`` streams — including planes restored from
a preprocessing store that was *written by the other kernel* (the
``.prep`` format is kernel-independent).  The numpy-only tests skip
cleanly where numpy is absent; the registry/fallback tests run
everywhere.
"""

from __future__ import annotations

import itertools
import pickle
import random
import re
from collections import Counter

import pytest

from repro.core.counting import CountingTables
from repro.core.enumeration import enumerate_marker_sets
from repro.core.kernels import (
    KERNEL_CHOICES,
    PYTHON_KERNEL,
    available_kernels,
    default_kernel_name,
    numpy_available,
    resolve_kernel,
)
from repro.core.matrices import Preprocessing
from repro.engine import Engine
from repro.engine.spec import EngineConfig
from repro.errors import EvaluationError
from repro.slp.construct import balanced_slp, bisection_slp
from repro.slp.families import caterpillar_slp, fibonacci_slp, power_slp, thue_morse_slp
from repro.slp.lz import lz_slp
from repro.slp.repair import repair_slp
from repro.spanner.regex import compile_spanner
from repro.spanner.transform import pad_slp, pad_spanner
from repro.store import PreprocessingStore

from test_differential import random_pairs

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable on this host"
)

BUILDERS = [balanced_slp, repair_slp, bisection_slp, lz_slp]

#: The padding axis: every trial alternates the end sentinel, so the
#: kernels must agree on differently-padded forms of the same document.
END_SYMBOLS = ["#", "$"]


# -- registry / selection ------------------------------------------------------


def test_resolve_python_kernel_everywhere():
    assert resolve_kernel("python") is PYTHON_KERNEL
    assert resolve_kernel(PYTHON_KERNEL) is PYTHON_KERNEL
    assert "python" in available_kernels()
    assert "auto" in KERNEL_CHOICES


def test_resolve_unknown_kernel_raises():
    with pytest.raises(EvaluationError, match="unknown kernel"):
        resolve_kernel("fortran")


def test_auto_detection_matches_availability():
    kernel = resolve_kernel(None)
    assert kernel.name == default_kernel_name()
    assert resolve_kernel("auto") is kernel
    if numpy_available():
        assert kernel.name == "numpy"
        assert available_kernels() == ("python", "numpy")
    else:
        assert kernel is PYTHON_KERNEL


@needs_numpy
def test_explicit_numpy_resolves_and_is_cached():
    assert resolve_kernel("numpy") is resolve_kernel("numpy")
    assert resolve_kernel("numpy").name == "numpy"


def test_engine_records_kernel():
    engine = Engine(kernel="python")
    assert engine.kernel is PYTHON_KERNEL
    assert "kernel=python" in repr(engine)


def test_engine_config_carries_kernel_name_through_pickle():
    config = EngineConfig(kernel="python")
    rebuilt = pickle.loads(pickle.dumps(config)).build()
    assert rebuilt.kernel.name == "python"
    # the default config stays auto: workers re-resolve per environment
    assert EngineConfig().kernel is None


# -- cross-kernel identity (the satellite property test) -----------------------


def _dfa_pair(spanner, slp, end_symbol):
    base = spanner.eliminate_epsilon()
    if not base.is_deterministic:
        base = base.determinize().trim()
    return pad_slp(slp, end_symbol), pad_spanner(base, end_symbol)


def _nfa_pair(spanner, slp, end_symbol):
    return (
        pad_slp(slp, end_symbol),
        pad_spanner(spanner.eliminate_epsilon(), end_symbol),
    )


def assert_kernels_bit_identical(padded_slp, padded_automaton, counting=True):
    """Planes, counts and enumeration equal between the two backends."""
    python_prep = Preprocessing(padded_slp, padded_automaton, kernel="python")
    numpy_prep = Preprocessing(padded_slp, padded_automaton, kernel="numpy")
    assert python_prep.final_states == numpy_prep.final_states
    assert python_prep.export_planes() == numpy_prep.export_planes()
    dedup = not padded_automaton.is_deterministic
    streams = zip(
        itertools.islice(enumerate_marker_sets(python_prep, deduplicate=dedup), 200),
        itertools.islice(enumerate_marker_sets(numpy_prep, deduplicate=dedup), 200),
    )
    for python_item, numpy_item in streams:
        assert python_item == numpy_item
    if counting:
        python_tables = CountingTables(python_prep)
        numpy_tables = CountingTables(numpy_prep)
        assert python_tables.total() == numpy_tables.total()
        assert python_tables.counts == numpy_tables.counts
        # flat rows, bit for bit, and exact Python ints (never np.uint64)
        assert python_tables.rows == numpy_tables.rows
        for row in numpy_tables.rows.values():
            assert all(type(value) is int for value in row)
    return python_prep


@needs_numpy
@pytest.mark.parametrize("seed", range(4))
def test_cross_kernel_randomized_trials(seed):
    """Randomised (grammar family × spanner × padding) bit-identity."""
    for index, (pattern, spanner, doc, _alphabet) in enumerate(random_pairs(seed)):
        builder = BUILDERS[(seed + index) % len(BUILDERS)]
        end_symbol = END_SYMBOLS[index % len(END_SYMBOLS)]
        slp = builder(doc)
        assert_kernels_bit_identical(*_dfa_pair(spanner, slp, end_symbol))
        # the evaluation path uses the (possibly nondeterministic) NFA
        # planes; counting is DFA-only, so compare planes + streams only
        assert_kernels_bit_identical(
            *_nfa_pair(spanner, slp, end_symbol), counting=False
        )


@needs_numpy
def test_cross_kernel_directly_constructed_families():
    """The exponential-regime families (huge documents, small grammars)."""
    spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
    for slp in (power_slp("ab", 30), thue_morse_slp(8)):
        assert_kernels_bit_identical(*_dfa_pair(spanner, slp, "#"))
    fib_spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
    assert_kernels_bit_identical(*_dfa_pair(fib_spanner, fibonacci_slp(18), "#"))


@needs_numpy
def test_cross_kernel_wide_automaton_q_over_64():
    """q > 64 exercises the multi-word rows (no native ndarray planes)."""
    spanner = compile_spanner(r".*(?P<x>a{65}).*", alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, power_slp("a", 8), "#")
    assert padded_dfa.num_states > 64
    prep = assert_kernels_bit_identical(padded_slp, padded_dfa)
    assert CountingTables(prep).total() == 256 - 65 + 1


# -- level-batched numpy build: exactness at the edges ----------------------------


@needs_numpy
def test_counts_past_uint64_stay_exact(tmp_path):
    """Counts beyond 2**64 switch to exact ints; the store keeps them exact."""
    spanner = compile_spanner(r".*(?P<x>ab).*(?P<y>ab).*", alphabet="ab")
    source = power_slp("ab", 40)
    padded_slp, padded_dfa = _dfa_pair(spanner, source, "#")
    assert_kernels_bit_identical(padded_slp, padded_dfa)
    expected = 604462909806764831539200  # C(2**40, 2), past uint64
    assert expected >= 2**64
    store = PreprocessingStore(str(tmp_path))
    key = (source.structural_digest(), padded_dfa.structural_digest())
    for kernel in ("python", "numpy"):
        tables = CountingTables(Preprocessing(padded_slp, padded_dfa, kernel=kernel))
        assert tables.total() == expected
        store.save(*key, tables.prep, tables.rows)
        restored_prep, rows = store.load(*key, padded_slp, padded_dfa, kernel=kernel)
        assert rows == tables.rows
        assert CountingTables.from_rows(restored_prep, rows).total() == expected


@needs_numpy
def test_single_rule_levels_of_an_unbalanced_chain():
    """caterpillar_slp: every height level holds exactly one rule."""
    spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, caterpillar_slp(1600), "#")
    assert padded_slp.depth() > 1600  # pad_slp does not rebalance
    prep = assert_kernels_bit_identical(padded_slp, padded_dfa)
    assert CountingTables(prep).total() == 801


@needs_numpy
def test_wide_automaton_levels_of_several_multiword_rules():
    """q > 64 over a RePair document: levels batch several multi-word rules."""
    rng = random.Random(7)
    text = "".join(
        rng.choice(["a" * 70, "a" * 9 + "b", "ab" * 3, "b"]) for _ in range(60)
    )
    spanner = compile_spanner(r".*(?P<x>a{65}).*", alphabet="ab")
    padded_slp, padded_dfa = _dfa_pair(spanner, repair_slp(text), "#")
    assert padded_dfa.num_states > 64
    heights = Counter(
        padded_slp.depth(name)
        for name in padded_slp.reachable()
        if not padded_slp.is_leaf(name)
    )
    assert max(heights.values()) > 1
    prep = assert_kernels_bit_identical(padded_slp, padded_dfa)
    assert CountingTables(prep).total() == len(re.findall("(?=a{65})", text))


@needs_numpy
@pytest.mark.parametrize("writer,reader", [("python", "numpy"), ("numpy", "python")])
def test_store_written_by_one_kernel_restores_under_the_other(
    writer, reader, tmp_path
):
    """The .prep format is kernel-independent: cross-restore bit-identically."""
    pattern, spanner, doc, _alphabet = random_pairs(991)[0]
    slp = repair_slp(doc)
    padded_slp, padded_dfa = _dfa_pair(spanner, slp, "#")
    built = Preprocessing(padded_slp, padded_dfa, kernel=writer)
    tables = CountingTables(built)

    store = PreprocessingStore(str(tmp_path))
    slp_digest = slp.structural_digest()
    auto_digest = padded_dfa.structural_digest()
    store.save(slp_digest, auto_digest, built, tables.rows)

    restored = store.load(
        slp_digest, auto_digest, padded_slp, padded_dfa, kernel=reader
    )
    assert restored is not None
    restored_prep, restored_counts = restored
    assert restored_prep.kernel.name == reader
    assert restored_prep.export_planes() == built.export_planes()
    assert restored_counts == tables.rows
    restored_tables = CountingTables.from_rows(restored_prep, restored_counts)
    assert restored_tables.counts == tables.counts
    assert restored_tables.total() == tables.total()
    assert list(enumerate_marker_sets(restored_prep)) == list(
        enumerate_marker_sets(built)
    )


@needs_numpy
def test_engines_with_different_kernels_share_one_store(tmp_path):
    """A python-kernel engine's store entries warm a numpy-kernel engine."""
    pattern, spanner, doc, _alphabet = random_pairs(117)[1]
    store_dir = str(tmp_path)

    writer_engine = Engine(
        store=PreprocessingStore(store_dir), structural_keys=True, kernel="python"
    )
    expected = writer_engine.evaluate(spanner, balanced_slp(doc))
    expected_count = writer_engine.count(spanner, balanced_slp(doc))

    reader_store = PreprocessingStore(store_dir)
    reader_engine = Engine(
        store=reader_store, structural_keys=True, kernel="numpy"
    )
    assert reader_engine.evaluate(spanner, balanced_slp(doc)) == expected
    assert reader_engine.count(spanner, balanced_slp(doc)) == expected_count
    assert reader_store.stats.hits >= 1
    assert reader_engine.cache_stats()["counting"].misses == 0


# -- CLI -----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["auto", "python"])
def test_cli_kernel_flag_and_profile(kernel, tmp_path, capsys):
    from repro.cli import main
    from repro.slp import io as slp_io

    path = str(tmp_path / "doc.slp.json")
    slp_io.save_file(balanced_slp("ababab"), path)
    assert main(["query", path, r".*(?P<x>ab).*", "--task", "count",
                 "--kernel", kernel]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert main(["stats", path, "--profile", "--kernel", kernel]) == 0
    out = capsys.readouterr().out
    assert "kernel" in out and "prep_build" in out and "store_restore" in out
    expected_name = default_kernel_name() if kernel == "auto" else kernel
    assert expected_name in out
