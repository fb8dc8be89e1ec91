"""Persistence tests: PreprocessingStore round-trips, staleness, corruption."""

from __future__ import annotations

import hashlib
import os
import random
import struct

import pytest

from repro.core.counting import CountingTables
from repro.core.kernels import available_kernels
from repro.core.matrices import Preprocessing
from repro.engine import Engine
from repro.slp.construct import balanced_slp
from repro.slp.families import caterpillar_slp, fibonacci_slp, power_slp
from repro.spanner.regex import compile_spanner
from repro.spanner.transform import pad_slp, pad_spanner
from repro.store import PreprocessingStore
from repro.store import prepstore


def build_pair(doc="abbaab", pattern=r".*(?P<x>a+)b.*", deterministic=True):
    """(source slp, padded slp, padded automaton, preprocessing)."""
    source = balanced_slp(doc)
    spanner = compile_spanner(pattern, alphabet="ab")
    base = spanner.eliminate_epsilon()
    if deterministic and not base.is_deterministic:
        base = base.determinize().trim()
    padded_slp = pad_slp(source)
    padded_nfa = pad_spanner(base)
    return source, padded_slp, padded_nfa, Preprocessing(padded_slp, padded_nfa)


def assert_tables_bit_for_bit(prep, restored):
    """Same r_value / intermediate_mask on every (nonterminal, i, j)."""
    q = prep.q
    assert restored.q == q
    assert restored.final_states == prep.final_states
    assert set(restored.order) == set(prep.order)
    for name in prep.order:
        for i in range(q):
            assert restored.notbot_row(name, i) == prep.notbot_row(name, i)
            assert restored.one_row(name, i) == prep.one_row(name, i)
            for j in range(q):
                assert restored.r_value(name, i, j) == prep.r_value(name, i, j)
                if not prep.slp.is_leaf(name):
                    assert restored.intermediate_mask(
                        name, i, j
                    ) == prep.intermediate_mask(name, i, j)
        if prep.slp.is_leaf(name):
            assert restored.leaf_tables[name] == prep.leaf_tables[name]


class TestRoundTrip:
    def test_tables_roundtrip_bit_for_bit(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        restored, counts = store.load(*key, padded_slp, padded_nfa)
        assert counts is None
        assert_tables_bit_for_bit(prep, restored)

    def test_counts_roundtrip_exactly(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair(doc="ab" * 40)
        tables = CountingTables(prep)
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep, tables.rows)
        restored, counts = store.load(*key, padded_slp, padded_nfa)
        # counts are stored positionally over the notbot cells, which are
        # exactly the cells with a nonzero count
        assert counts == tables.rows
        loaded = CountingTables.from_rows(restored, counts)
        assert loaded.counts == tables.counts
        assert loaded.total() == tables.total()
        for name, i, j in tables.counts:
            assert loaded.count(name, i, j) == tables.count(name, i, j)

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_counts_section_roundtrips_mixed_widths(self, kernel):
        # The codec needs only nonzero cells == notbot cells; one- and
        # multi-byte values in every position exercise each decode path,
        # whether the rows are decoded in canonical order or start first.
        _, padded_slp, padded_dfa, prep = build_pair(doc="abbaab" * 6)
        rng = random.Random(5)
        widths = (1, 127, 128, 300, 2**70)
        rows = {
            name: [rng.choice(widths) if value else 0 for value in row]
            for name, row in CountingTables(prep).rows.items()
        }
        payload = prepstore._encode_prep(prep, rows)
        _, start_first = prepstore._decode_prep(payload, padded_slp, padded_dfa, kernel)
        start = padded_slp.start
        assert start_first[start] == rows[start]
        _, in_order = prepstore._decode_prep(payload, padded_slp, padded_dfa, kernel)
        for name in prep.order:  # children first, the start symbol last
            assert in_order[name] == rows[name]
        assert in_order == rows

    def test_huge_counts_survive(self, tmp_path):
        # power_slp("ab", 40): ~10^12 results — counts are arbitrary ints
        store = PreprocessingStore(str(tmp_path))
        source = power_slp("ab", 40)
        spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        base = spanner.eliminate_epsilon().determinize().trim()
        padded_slp, padded_nfa = pad_slp(source), pad_spanner(base)
        prep = Preprocessing(padded_slp, padded_nfa)
        tables = CountingTables(prep)
        assert tables.total() == 2**40
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep, tables.rows)
        _, counts = store.load(*key, padded_slp, padded_nfa)
        assert CountingTables.from_rows(prep, counts).total() == 2**40

    def test_attaches_to_renamed_but_equal_grammar(self, tmp_path):
        # The whole point of structural keys: a structurally equal padded
        # grammar with completely different nonterminal names gets the
        # same tables back.
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair(doc="abab")
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        from repro.slp.grammar import SLP

        renamed = SLP(
            inner_rules={
                ("R", n): tuple(("R", c) for c in pair)
                for n, pair in padded_slp.inner_rules.items()
            },
            leaf_rules={("R", n): s for n, s in padded_slp.leaf_rules.items()},
            start=("R", padded_slp.start),
        )
        assert renamed.structural_digest() == padded_slp.structural_digest()
        restored, _ = store.load(*key, renamed, padded_nfa)
        assert restored is not None
        assert restored.slp is renamed  # attached to the live object
        # index-based attachment maps tables onto the *renamed* nodes
        # (compare via the accessor: plane containers are kernel-native)
        lookup = dict(zip(padded_slp.canonical_order(), renamed.canonical_order()))
        for name in prep.order:
            twin = lookup[name]
            for i in range(prep.q):
                assert restored.notbot_row(twin, i) == prep.notbot_row(name, i)


class TestGoldenBytes:
    """The ``.prep`` bytes of a fixed pair are pinned, under every kernel.

    A digest change means the format moved: existing stores would stop
    hitting, so it must come with a ``STORE_FORMAT_VERSION`` bump.  The
    pair's counts reach 165, so multi-byte uvarints are covered.
    """

    TABLES_ONLY = "3677d9f4abc9bd251925a2e2d9890c534cb04ca7a3a8322f2228edab120c70dc"
    WITH_COUNTS = "2b1ca18bbb013e985d7dbd4d58076cae9e8138fe1511ade1af32908997ae84b4"

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_encoded_payload_digests(self, kernel):
        assert prepstore.STORE_FORMAT_VERSION == 1
        _, padded_slp, padded_dfa, _ = build_pair(
            doc="abbaab" * 6, pattern=r".*(?P<x>a(a|b)*b).*"
        )
        prep = Preprocessing(padded_slp, padded_dfa, kernel=kernel)
        tables = CountingTables(prep)
        assert tables.total() == 165

        def digest(counts):
            return hashlib.sha256(prepstore._encode_prep(prep, counts)).hexdigest()

        assert digest(None) == self.TABLES_ONLY
        assert digest(tables.rows) == self.WITH_COUNTS


class TestRejection:
    def _saved(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        (entry,) = [
            os.path.join(str(tmp_path), n)
            for n in os.listdir(str(tmp_path))
            if n.endswith(".prep")
        ]
        return store, key, padded_slp, padded_nfa, entry

    def test_rejects_stale_format_version(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            # bump the version field and re-seal the CRC so *only* the
            # version is stale (not a corruption artefact)
            struct.pack_into("<H", data, 6, prepstore.STORE_FORMAT_VERSION + 1)
            import zlib

            struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[:-4]))
            fh.seek(0)
            fh.write(data)
        assert store.load(*key, padded_slp, padded_nfa) is None
        assert store.stats.rejects == 1

    def test_wrong_grammar_is_a_clean_miss(self, tmp_path):
        # A different padded grammar keys to a different file entirely, so
        # this is a plain miss (and configs can coexist), not a reject.
        store, key, _, padded_nfa, _ = self._saved(tmp_path)
        other = pad_slp(balanced_slp("bbbb"))
        assert store.load(*key, other, padded_nfa) is None
        assert store.stats.misses == 1
        assert store.stats.rejects == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_corrupted_file_rebuilds_instead_of_crashing(self, tmp_path, seed):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        rng = random.Random(seed)
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            if seed % 3 == 0:
                data = data[: rng.randrange(1, len(data))]  # truncate
            else:
                for _ in range(rng.randint(1, 5)):
                    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            fh.seek(0)
            fh.truncate()
            fh.write(data)
        result = store.load(*key, padded_slp, padded_nfa)
        if result is not None:
            # flips cancelled out: the tables must still be exact
            assert_tables_bit_for_bit(
                Preprocessing(padded_slp, padded_nfa), result[0]
            )
        else:
            assert store.stats.rejects == 1

    def test_engine_survives_corrupted_store_file(self, tmp_path):
        # End-to-end: a corrupted entry means rebuild, never a crash or a
        # wrong answer.
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        store = PreprocessingStore(str(tmp_path))
        assert Engine(store=store).count(spanner, balanced_slp("abab")) == 2
        for name in os.listdir(str(tmp_path)):
            if name.endswith(".prep"):
                path = os.path.join(str(tmp_path), name)
                with open(path, "r+b") as fh:
                    data = fh.read()
                    fh.seek(0)
                    fh.truncate()
                    fh.write(data[: len(data) // 2])
        fresh = PreprocessingStore(str(tmp_path))
        assert Engine(store=fresh).count(spanner, balanced_slp("abab")) == 2
        assert fresh.stats.rejects >= 1
        assert fresh.stats.writes >= 1  # rebuilt entries were re-persisted

    def test_missing_directory_is_created(self, tmp_path):
        nested = str(tmp_path / "a" / "b" / "store")
        store = PreprocessingStore(nested)
        assert os.path.isdir(nested)
        assert len(store) == 0

    def test_clear_removes_entries(self, tmp_path):
        store, key, padded_slp, padded_nfa, _ = self._saved(tmp_path)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.load(*key, padded_slp, padded_nfa) is None


class TestEngineIntegration:
    def test_nfa_and_dfa_entries_are_distinct_keys(self, tmp_path):
        store = PreprocessingStore(str(tmp_path))
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")  # NFA != DFA
        engine = Engine(store=store)
        slp = balanced_slp("abab")
        engine.evaluate(spanner, slp)  # NFA tables
        engine.count(spanner, slp)  # DFA tables (+ counts rewrite)
        assert len(store) == 2

    def test_restart_restores_counting_without_rebuild(self, tmp_path):
        spanner = compile_spanner(r".*(?P<x>a+)b.*", alphabet="ab")
        engine = Engine(store=PreprocessingStore(str(tmp_path)))
        assert engine.count(spanner, fibonacci_slp(10)) > 0

        restarted = Engine(store=PreprocessingStore(str(tmp_path)))
        assert restarted.count(spanner, fibonacci_slp(10)) == engine.count(
            spanner, fibonacci_slp(10)
        )
        assert restarted.cache_stats()["counting"].misses == 0
        assert restarted.store.stats.hits >= 1

    def test_differently_configured_engines_coexist_in_one_store(self, tmp_path):
        # Regression: balance=True and balance=False pad the same source
        # differently; their entries must not clobber each other.
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        store = PreprocessingStore(str(tmp_path))
        Engine(store=store, balance=True).count(spanner, caterpillar_slp(40))
        Engine(
            store=PreprocessingStore(str(tmp_path)), balance=False
        ).count(spanner, caterpillar_slp(40))
        # both configs warm-start now, with no rejects from clobbering
        for balance in (True, False):
            fresh = PreprocessingStore(str(tmp_path))
            Engine(store=fresh, balance=balance).count(spanner, caterpillar_slp(40))
            assert fresh.stats.hits >= 1, f"balance={balance}"
            assert fresh.stats.rejects == 0, f"balance={balance}"

    def test_cold_count_writes_store_exactly_once(self, tmp_path):
        # Regression: the prep build used to persist a counts-less payload
        # that the counting build immediately rewrote in full.
        store = PreprocessingStore(str(tmp_path))
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        assert Engine(store=store).count(spanner, balanced_slp("abab")) == 2
        assert store.stats.writes == 1

    def test_store_orthogonal_to_identity_keys(self, tmp_path):
        # Identity keys + store: two equal SLP *objects* are two in-memory
        # entries but share one on-disk entry.
        store = PreprocessingStore(str(tmp_path))
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        engine = Engine(store=store)
        assert engine.count(spanner, balanced_slp("abab")) == 2
        assert engine.count(spanner, balanced_slp("abab")) == 2
        assert engine.cache_stats()["preprocessings"].size == 2
        assert store.stats.hits == 1  # second object restored from disk


class TestSelfHealing:
    """PR 9: corrupt entries are quarantined and rebuilt, saves are
    atomic, and a full disk degrades to a warn-once no-op."""

    def _saved(self, tmp_path):
        return TestRejection._saved(self, tmp_path)

    @pytest.fixture(autouse=True)
    def disarm_faults(self):
        from repro.faults import set_plan

        yield
        set_plan(None)

    def _quarantine_files(self, tmp_path):
        return [
            n for n in os.listdir(str(tmp_path)) if n.endswith(".quarantined")
        ]

    @pytest.mark.parametrize("damage", ["header", "body", "truncate"])
    def test_corrupt_entry_is_quarantined_and_rebuilt(self, tmp_path, damage):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            data = bytearray(fh.read())
            if damage == "header":
                data[0] ^= 0xFF  # break the magic
            elif damage == "body":
                data[len(data) // 2] ^= 0xFF  # CRC mismatch
            else:
                data = data[: len(data) // 3]
            fh.seek(0)
            fh.truncate()
            fh.write(data)
        assert store.load(*key, padded_slp, padded_nfa) is None
        # the bad bytes moved aside: the entry path is vacant, the
        # quarantine file holds the evidence, and the stats say so
        assert not os.path.exists(entry)
        assert self._quarantine_files(tmp_path) == [
            os.path.basename(entry) + ".quarantined"
        ]
        assert store.stats.quarantined == 1
        assert store.stats.rejects == 1
        assert len(store) == 0  # quarantine files are not entries
        assert store.scan_headers() == []
        # rebuild: a fresh save lands on the vacant path and round-trips
        prep = Preprocessing(padded_slp, padded_nfa)
        store.save(*key, prep)
        restored, _ = store.load(*key, padded_slp, padded_nfa)
        assert_tables_bit_for_bit(prep, restored)

    def test_clear_also_removes_quarantine_files(self, tmp_path):
        store, key, padded_slp, padded_nfa, entry = self._saved(tmp_path)
        with open(entry, "r+b") as fh:
            fh.write(b"\xff")
        store.load(*key, padded_slp, padded_nfa)
        assert self._quarantine_files(tmp_path)
        store.clear()
        assert self._quarantine_files(tmp_path) == []

    def test_enospc_save_is_a_warn_once_noop(self, tmp_path):
        import warnings as warnings_module

        from repro.faults import FaultPlan, FaultRule, set_plan
        from repro.obs.metrics import get_registry

        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        set_plan(FaultPlan([FaultRule(site="store.save", kind="enospc")]))
        errors_before = get_registry().counter("store.save_errors").value
        with pytest.warns(RuntimeWarning, match="out of disk space"):
            store.save(*key, prep)
        # the second failure is silent: one warning per store instance
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            store.save(*key, prep)
        assert caught == []
        assert store.stats.writes == 0
        assert len(store) == 0
        assert get_registry().counter("store.save_errors").value == errors_before + 2
        # evaluation continues: once space is back, saves work again
        set_plan(None)
        store.save(*key, prep)
        assert store.load(*key, padded_slp, padded_nfa) is not None

    def test_torn_write_is_caught_at_load_and_rebuilt(self, tmp_path):
        from repro.faults import FaultPlan, FaultRule, set_plan

        store = PreprocessingStore(str(tmp_path))
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        set_plan(
            FaultPlan(
                [FaultRule(site="store.save.bytes", kind="torn", nth=1)]
            )
        )
        store.save(*key, prep)  # commits a truncated payload
        set_plan(None)
        assert store.load(*key, padded_slp, padded_nfa) is None
        assert store.stats.quarantined == 1
        store.save(*key, prep)
        restored, _ = store.load(*key, padded_slp, padded_nfa)
        assert_tables_bit_for_bit(prep, restored)

    def test_writer_killed_mid_save_leaves_no_partial_entry(self, tmp_path):
        """Satellite: atomic writes, proven by killing a real writer.

        A child process saves an entry with a ``crash`` fault armed at
        the ``store.save.commit`` site — after the payload bytes are on
        disk, before the rename.  The directory must show *no* ``.prep``
        entry afterwards: a reader can never observe a partial payload.
        """
        import subprocess
        import sys

        from repro.faults import CRASH_EXIT_CODE

        script = (
            "import sys\n"
            "from repro.slp.construct import balanced_slp\n"
            "from repro.spanner.regex import compile_spanner\n"
            "from repro.spanner.transform import pad_slp, pad_spanner\n"
            "from repro.core.matrices import Preprocessing\n"
            "from repro.store import PreprocessingStore\n"
            "source = balanced_slp('abbaab')\n"
            "base = compile_spanner(r'.*(?P<x>a+)b.*', alphabet='ab')"
            ".eliminate_epsilon().determinize().trim()\n"
            "padded_slp, padded_nfa = pad_slp(source), pad_spanner(base)\n"
            "store = PreprocessingStore(sys.argv[1])\n"
            "store.save(source.structural_digest(), "
            "padded_nfa.structural_digest(), "
            "Preprocessing(padded_slp, padded_nfa))\n"
            "sys.exit(3)  # unreachable: the commit fault crashes first\n"
        )
        env = dict(os.environ)
        env["REPRO_FAULTS"] = "store.save.commit:crash"
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src_dir), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        store = PreprocessingStore(str(tmp_path))
        assert len(store) == 0  # no entry, partial or otherwise
        assert store.scan_headers() == []
        # the survivor rebuilds and persists on the same path unharmed
        source, padded_slp, padded_nfa, prep = build_pair()
        key = (source.structural_digest(), padded_nfa.structural_digest())
        store.save(*key, prep)
        restored, _ = store.load(*key, padded_slp, padded_nfa)
        assert_tables_bit_for_bit(prep, restored)
