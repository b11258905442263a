import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarfractal import codes
from polarfractal.codes import (IndexSet, decimal_blocks, generator_matrix,
                                heavy_membership, index_set_json_blocks,
                                kronecker_row, matrix_bytes_blocks,
                                matrix_from_bytes, matrix_text_blocks,
                                polar_index_set, rm_index_set)
from polarfractal.errors import ResourceLimitError
from polarfractal.polarization import bec_leaf_values


def text_export(gm):
    """The whole text export, as ``construct --matrix-out`` writes it."""
    return b"".join(matrix_text_blocks(gm))


def binary_export(gm):
    """The whole binary export, as ``construct --matrix-out`` writes it."""
    return b"".join(matrix_bytes_blocks(gm))


def json_export(index_set):
    """The whole JSON object, as ``construct --json`` writes it."""
    return "".join(index_set_json_blocks(index_set))


def full_kronecker(n):
    """Oracle: materialize the whole matrix with np.kron."""
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    G = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        G = np.kron(G, F)
    return G


class TestKroneckerRow:
    def test_matches_kron_oracle(self):
        for n in range(0, 7):
            G = full_kronecker(n)
            for h in range(1 << n):
                assert np.array_equal(kronecker_row(n, h), G[h]), (n, h)

    def test_known_rows(self):
        assert list(kronecker_row(2, 3)) == [1, 1, 1, 1]
        assert list(kronecker_row(2, 0)) == [1, 0, 0, 0]

    def test_weight_identity_exhaustive(self):
        for n in range(0, 11):
            for h in range(1 << n):
                assert int(kronecker_row(n, h).sum()) == 1 << bin(h).count("1")

    def test_row_weight_shortcut(self):
        # Every row h of the full matrix weighs 2**popcount(h).
        for n in (3, 7, 10):
            index_set = rm_index_set(n, n)
            rows = generator_matrix(index_set).rows
            h = index_set.array
            assert np.array_equal(rows.sum(axis=1), 1 << np.bitwise_count(h).astype(np.int64))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            kronecker_row(3, 8)
        with pytest.raises(ValueError):
            kronecker_row(3, -1)


class TestPolarIndexSet:
    def test_full_selection(self):
        s = polar_index_set(0.3, 3, 8)
        assert s.indices == tuple(range(8))

    def test_single_best_channel(self):
        assert polar_index_set(0.5, 1, 1).indices == (1,)

    def test_depth_three_oracle(self):
        # Enumerate the eight depth-3 values by hand and sort.
        eps = 0.5
        g0 = lambda z: 2 * z - z * z
        g1 = lambda z: z * z
        values = {}
        for h in range(8):
            z = eps
            for step in (4, 2, 1):
                z = g1(z) if h & step else g0(z)
            values[h] = z
        best = sorted(sorted(values), key=lambda h: values[h])[:4]
        assert polar_index_set(eps, 3, 4).indices == tuple(sorted(best))

    def test_tie_break_ascending(self):
        # Deep better-branches underflow to exactly 0.0, giving real ties;
        # the stable rule must pick ascending indices among them.
        z = bec_leaf_values(0.5, 12)
        zeros = [h for h in range(1 << 12) if z[h] == 0.0]
        assert len(zeros) > 1
        assert polar_index_set(0.5, 12, 1).indices == (zeros[0],)
        assert polar_index_set(0.5, 12, len(zeros)).indices == tuple(zeros)

    def test_all_ones_row_has_minimal_value(self):
        for n in (2, 6, 12):
            for eps in (0.1, 0.5, 0.9):
                z = bec_leaf_values(eps, n)
                assert z[-1] == z.min()

    def test_single_best_is_all_ones_when_unique(self):
        # Away from underflow ties the K=1 set is exactly the all-ones row.
        for n, eps in ((2, 0.5), (6, 0.3), (8, 0.5), (12, 0.9)):
            assert polar_index_set(eps, n, 1).indices == ((1 << n) - 1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            polar_index_set(0.0, 2, 1)
        with pytest.raises(ValueError):
            polar_index_set(0.5, 2, 5)
        for size in (0, 1):
            with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
                polar_index_set(0.5, -1, size)

    def test_matches_stable_argsort(self):
        # Reference: the first `size` leaves of a stable argsort.  The
        # sizes include every edge of the 0.0 and 1.0 tie blocks and a cut
        # through the middle of each.
        inside = 0
        for n in range(0, 17):
            for eps in (0.3, 0.5, 0.7, 0.999):
                z = bec_leaf_values(eps, n)
                order = np.argsort(z, kind="stable")
                zeros = int((z == 0.0).sum())
                first_one = z.size - int((z == 1.0).sum())
                sizes = {0, 1, z.size}
                for edge in (zeros, first_one):
                    sizes |= {edge - 1, edge, edge + 1}
                sizes |= {zeros // 2, (first_one + z.size) // 2}
                for size in sorted(k for k in sizes if 0 <= k <= z.size):
                    got = polar_index_set(eps, n, size)
                    assert got.indices == tuple(sorted(order[:size].tolist()))
                    if size:
                        # Cuts that take some, but not all, of a tie block.
                        kth = np.sort(z)[size - 1]
                        taken = size - int((z < kth).sum())
                        inside += 1 < taken < int((z == kth).sum())
        assert inside > 0


class TestRMIndexSet:
    def test_full_order(self):
        for n in (1, 4, 12):
            assert rm_index_set(n, n).indices == tuple(range(1 << n))

    def test_repetition_code(self):
        for n in (1, 4, 12):
            assert rm_index_set(0, n).indices == ((1 << n) - 1,)

    def test_order_one_depth_two(self):
        assert rm_index_set(1, 2).indices == (1, 2, 3)

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    def test_size_is_binomial_tail(self, n, r):
        if r > n:
            return
        size = len(rm_index_set(r, n).indices)
        assert size == sum(math.comb(n, j) for j in range(n - r, n + 1))

    def test_nesting(self):
        for n in (3, 6, 9):
            for r in range(n):
                inner = set(rm_index_set(r, n).indices)
                outer = set(rm_index_set(r + 1, n).indices)
                assert inner < outer

    def test_validation(self):
        with pytest.raises(ValueError):
            rm_index_set(5, 4)
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            rm_index_set(0, -1)


class TestGeneratorMatrix:
    def test_repetition_row(self):
        gm = generator_matrix(rm_index_set(0, 4))
        assert gm.rows.shape == (1, 16)
        assert gm.rows.sum() == 16

    def test_empty_polar_set(self):
        gm = generator_matrix(polar_index_set(0.5, 3, 0))
        assert gm.rows.shape[0] == 0

    def test_full_depth_two(self):
        gm = generator_matrix(rm_index_set(2, 2))
        assert np.array_equal(gm.rows, full_kronecker(2))

    def test_row_weights_are_powers_of_two(self):
        gm = generator_matrix(rm_index_set(2, 5))
        for row in gm.rows:
            w = int(row.sum())
            assert w & (w - 1) == 0

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            generator_matrix(IndexSet(n=25, indices=tuple(range(4)), kind="polar"))

    def test_rows_match_kronecker_row(self):
        # kronecker_row is the oracle for the unpacked rows and, through
        # np.packbits, for the packed bytes, padding bits of n < 3 included.
        for n in range(0, 9):
            for index_set in (rm_index_set(n, n),
                              polar_index_set(0.3, n, (1 << n) // 3)):
                gm = generator_matrix(index_set)
                want = np.array([kronecker_row(n, h)
                                 for h in index_set.array.tolist()],
                                dtype=np.uint8).reshape(-1, 1 << n)
                assert gm.rows.dtype == np.uint8
                assert np.array_equal(gm.rows, want), n
                assert gm.packed.dtype == np.uint8
                assert np.array_equal(
                    gm.packed, np.packbits(want, axis=-1, bitorder="little")), n
        # Depth 13 fills its 378 rows in blocks of 32.
        index_set = rm_index_set(3, 13)
        gm = generator_matrix(index_set)
        for h, row in zip(index_set.array.tolist(), gm.rows):
            assert np.array_equal(row, kronecker_row(13, h)), h


class TestHeavyMembership:
    def test_endpoint_examples(self):
        assert heavy_membership(1, 1)
        assert not heavy_membership(Fraction(9, 10), 1)
        assert not heavy_membership(Fraction(1, 2), 1)

    def test_rho_zero_everything(self):
        rng = random.Random(8)
        for _ in range(50):
            x = Fraction(rng.randrange(0, 1000), 999)
            assert heavy_membership(x, 0)

    def test_dyadics_heavy_below_one(self):
        for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                    Fraction(99, 100)):
            for x in (Fraction(1, 2), Fraction(3, 8), Fraction(11, 16)):
                assert heavy_membership(x, rho)

    def test_boundary_walks(self):
        # 1010... never dips below zero drift; 0101... dips to -1/2.
        assert heavy_membership(Fraction(2, 3), Fraction(1, 2))
        assert not heavy_membership(Fraction(1, 3), Fraction(1, 2))

    def test_preamble_dip_does_not_block(self):
        # 9/20 = 0.01[1100]: the walk dips early but the recurring window
        # stays non-negative, and only the recurring part moves a liminf.
        assert heavy_membership(Fraction(9, 20), Fraction(1, 2))

    def test_zero_drift_matches_fraction_walk(self):
        # Oracle: the digits of x by exact doubling, its preamble and period
        # found where the remainder recurs, and the walk w(b^m) - rho*m in
        # Fractions at rho = weight/length of the period (zero drift).  x is
        # heavy iff the walk's minimum over one recurring window is >= 0.
        members = 0
        for q in range(3, 60):
            for p in range(1, q):
                x = Fraction(p, q)
                if x.denominator != q or q & (q - 1) == 0:
                    continue
                seen, bits, y = {}, [], x
                while y not in seen:
                    seen[y] = len(bits)
                    bits.append(int(2 * y >= 1))
                    y = 2 * y - bits[-1]
                start, k = seen[y], len(bits) - seen[y]
                rho = Fraction(sum(bits[start:]), k)
                bits += bits[start:]
                walk = [sum(bits[:m]) - rho * m
                        for m in range(start + k, start + 2 * k + 1)]
                want = min(walk) >= 0
                members += want
                assert heavy_membership(x, rho) == want, (x, rho)
        assert 0 < members

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=100))
    def test_monotone_in_rho(self, p, q, a, b):
        x = Fraction(p % (q + 1), q)
        r1, r2 = sorted((Fraction(a, 100), Fraction(b, 100)))
        if heavy_membership(x, r2):
            assert heavy_membership(x, r1)

    def test_validation(self):
        with pytest.raises(ValueError):
            heavy_membership(Fraction(1, 2), Fraction(3, 2))


def test_heavy_index_set_counts():
    # The depth-n shadow of the heavy set for rho, the rows with
    # popcount(h) >= ceil(rho*n), is the RM set of order n - ceil(rho*n).
    n, rho = 6, Fraction(1, 2)
    s = rm_index_set(n - math.ceil(rho * n), n)
    want = [h for h in range(64) if bin(h).count("1") >= 3]
    assert list(s.indices) == want


def test_popcount_builders_match_brute_force():
    for n in range(0, 13):
        for r in range(0, n + 1):
            want = tuple(h for h in range(1 << n) if h.bit_count() >= n - r)
            got = rm_index_set(r, n)
            assert got.indices == want, (n, r)
            assert all(type(h) is int for h in got.indices)


class TestIndexSetValidation:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IndexSet(n=3, indices=(1, 4, 1), kind="polar")
        with pytest.raises(ValueError):
            IndexSet(n=3, indices=np.array([2, 2]), kind="polar")

    def test_rejects_out_of_range(self):
        for bad in ((0, 8), (-1, 3), np.array([8]), np.array([-1, 0]),
                    (1, 1 << 70), [-(1 << 70)], np.array([1 << 70], dtype=object),
                    np.array([1 << 63], dtype=np.uint64)):
            with pytest.raises(ValueError):
                IndexSet(n=3, indices=bad, kind="polar")

    def test_accepts_any_iterable(self):
        for given, want in (((h for h in (5, 0, 2)), (0, 2, 5)),
                            ({2, 5, 0}, (0, 2, 5)), (range(0, 6, 2), (0, 2, 4)),
                            (["5", 2.0, True], (1, 2, 5))):
            s = IndexSet(n=3, indices=given, kind="polar")
            assert s.indices == want
            assert all(type(h) is int for h in s.indices)

    def test_accepts_numpy_and_sorts(self):
        s = IndexSet(n=4, indices=np.array([9, 3, 15], dtype=np.uint16),
                     kind="reed-muller", meta={"order": 2})
        assert s.indices == (3, 9, 15)
        assert all(type(h) is int for h in s.indices)
        assert json.loads(json_export(s))["indices"] == [3, 9, 15]
        assert IndexSet(n=2, indices=(), kind="polar").indices == ()

    def test_array_is_read_only_int64(self):
        given = np.array([9, 3, 15])
        s = IndexSet(n=4, indices=given, kind="polar")
        assert s.array.dtype == np.int64 and s.array.tolist() == [3, 9, 15]
        assert not s.array.flags.writeable
        with pytest.raises(ValueError):
            s.array[0] = 1
        assert given.flags.writeable and given.tolist() == [9, 3, 15]
        # Sorted input is copied, not frozen or shared.
        given = np.array([3, 9, 15], dtype=np.int64)
        s = IndexSet(n=4, indices=given, kind="polar")
        assert given.flags.writeable and not s.array.flags.writeable
        assert s.array.flags.owndata
        given[0] = 4
        assert s.array.tolist() == [3, 9, 15]
        for built in (polar_index_set(0.5, 6, 20), rm_index_set(3, 6)):
            assert not built.array.flags.writeable
            assert type(built.indices) is tuple
            assert all(type(h) is int for h in built.indices)


def per_cell_text(gm):
    return "\n".join("".join(str(int(b)) for b in row) for row in gm.rows) + "\n"


class TestExports:
    def test_text_matches_per_cell_reference(self):
        for index_set in (rm_index_set(0, 0), rm_index_set(2, 5),
                          polar_index_set(0.4, 6, 23), polar_index_set(0.4, 6, 0),
                          IndexSet(n=3, indices=(), kind="polar")):
            gm = generator_matrix(index_set)
            assert text_export(gm) == per_cell_text(gm).encode()
        assert text_export(generator_matrix(polar_index_set(0.5, 3, 0))) == b"\n"

    def test_text_format(self):
        gm = generator_matrix(rm_index_set(1, 2))
        assert text_export(gm) == b"1100\n1010\n1111\n"

    def test_binary_round_trip(self):
        gm = generator_matrix(rm_index_set(2, 4))
        back = matrix_from_bytes(binary_export(gm))
        assert back.n == 4
        assert np.array_equal(back.rows, gm.rows)
        empty = generator_matrix(polar_index_set(0.5, 3, 0))
        assert matrix_from_bytes(binary_export(empty)).rows.shape == (0, 8)
        for index_set in (rm_index_set(0, 0), rm_index_set(1, 1),
                          rm_index_set(1, 2), rm_index_set(2, 5),
                          polar_index_set(0.4, 6, 23), rm_index_set(3, 10),
                          polar_index_set(0.5, 3, 0)):
            blob = binary_export(generator_matrix(index_set))
            assert binary_export(matrix_from_bytes(blob)) == blob
        # Rows narrower than a byte (n < 3) read back with their padding
        # bits cleared, so a blob with them set gives the canonical one.
        for n in range(0, 3):
            gm = generator_matrix(rm_index_set(n, n))
            blob = binary_export(gm)
            pad = 0xFF & (0xFF << (1 << n))
            back = matrix_from_bytes(blob[:12] + bytes(c | pad for c in blob[12:]))
            assert binary_export(back) == blob
            assert np.array_equal(back.rows, gm.rows)

    def test_binary_export_stays_packed(self):
        # The 4096 x 8192 matrix of rm(6, 13) packs into 4 MiB; a 0/1 byte
        # matrix of it would take 32 MiB.
        index_set = rm_index_set(6, 13)
        tracemalloc.start()
        try:
            blob = binary_export(generator_matrix(index_set))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blob) == 12 + 4096 * 1024
        assert peak < 16 << 20

    def test_text_export_holds_text_twice(self):
        # 1536 rows of 2^11 bits: 3 MiB of text, held once in the blocks
        # and once in the returned bytes.
        gm = generator_matrix(polar_index_set(0.4, 11, 1536))
        tracemalloc.start()
        try:
            text = text_export(gm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 1536 * 2049
        assert peak < 2.5 * len(text)

    def test_text_blocks_match_whole_export(self, monkeypatch):
        # 1536 rows of 2049 text bytes span several 1 MiB blocks.
        gm = generator_matrix(polar_index_set(0.4, 11, 1536))
        want = np.full((1536, 2049), ord("\n"), dtype=np.uint8)
        want[:, :-1] = gm.rows + ord("0")
        blocks = list(matrix_text_blocks(gm))
        assert len(blocks) > 2
        assert all(b.nbytes <= codes._TEXT_BLOCK_BYTES for b in blocks)
        assert b"".join(blocks) == want.tobytes()
        # Blocks narrower than a row cut it into pieces, and only a row's
        # last piece ends in a newline.
        for size in (8, 16, 72, 4096):
            monkeypatch.setattr(codes, "_TEXT_BLOCK_BYTES", size)
            for index_set in (rm_index_set(0, 0), rm_index_set(1, 2),
                              rm_index_set(2, 5), rm_index_set(3, 9),
                              polar_index_set(0.4, 6, 23),
                              polar_index_set(0.4, 6, 0)):
                gm = generator_matrix(index_set)
                assert (b"".join(matrix_text_blocks(gm))
                        == per_cell_text(gm).encode())

    def test_text_export_streams_in_bounded_memory(self):
        # rm(13, 13) fills the 2^26-cell cap: 64 MiB of text, of which
        # only a block is held at a time.
        gm = generator_matrix(rm_index_set(13, 13))
        sha, size = hashlib.sha256(), 0
        tracemalloc.start()
        try:
            for block in matrix_text_blocks(gm):
                sha.update(block)
                size += block.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == 8192 * 8193
        assert peak < 4 << 20
        assert sha.hexdigest() == ("829dd4d2825d13dc41d3cf8aede8de63"
                                   "142f7d90e24463d608b6e588ce4052ff")

    def test_binary_header(self):
        gm = generator_matrix(rm_index_set(1, 3))
        blob = binary_export(gm)
        assert blob[:4] == b"KPCM"
        with pytest.raises(ValueError):
            matrix_from_bytes(b"XXXX" + blob[4:])

    def test_json_schema(self):
        doc = json.loads(json_export(rm_index_set(1, 2)))
        assert doc == {"kind": "reed-muller", "n": 2, "order": 1,
                       "indices": [1, 2, 3]}


def decimal_list(values, head, sep, tail):
    return "".join(decimal_blocks(values, head, sep, tail))


def reference_json(index_set):
    return json.dumps({"kind": index_set.kind, "n": index_set.n,
                       **index_set.meta, "indices": list(index_set.indices)})


class TestDecimalWriter:
    def test_digit_boundaries(self):
        # Every step in digit count up to 2^26 - 1, and on to int64's 19.
        edges = {0, (1 << 26) - 1}
        for d in range(1, 8):
            edges |= {10 ** d - 2, 10 ** d - 1, 10 ** d, 10 ** d + 1}
        values = sorted(h for h in edges if h < 1 << 26)
        for k in range(len(values) + 1):
            for chosen in (values[:k], values[k:], values[::k or 1]):
                s = IndexSet(n=26, indices=chosen, kind="polar",
                             meta={"eps": 0.25, "size": len(chosen)})
                assert json_export(s) == reference_json(s)
        wide = [0, 9, 10 ** 17, 10 ** 18 - 1, 10 ** 18, (1 << 63) - 1]
        s = IndexSet(n=63, indices=wide, kind="heavy", meta={"rho": "1/3"})
        assert json_export(s) == reference_json(s)
        assert (decimal_list(s.array, "indices = ", " ", "")
                == "indices = " + " ".join(map(str, wide)))

    def test_digit_count_and_uint32_edges(self):
        # Each value alone, so each is a run of its own digit count; the
        # runs of at most 9 digits take the uint32 path.
        edges = [10 ** k + e for k in range(1, 19) for e in (-1, 0)]
        edges += [(1 << 32) - 1, 1 << 32, (1 << 63) - 1]
        for values in [[v] for v in edges] + [sorted(edges)]:
            array = np.array(values, dtype=np.int64)
            for sep in (" ", ", "):
                assert (decimal_list(array, "[", sep, "]")
                        == "[" + sep.join(map(str, values)) + "]")

    def test_empty_single_and_full_sets(self):
        sets = [IndexSet(n=0, indices=(), kind="polar"),
                IndexSet(n=5, indices=(), kind="polar", meta={"eps": 0.5}),
                IndexSet(n=0, indices=(0,), kind="polar"),
                IndexSet(n=7, indices=(0,), kind="reed-muller"),
                polar_index_set(0.5, 4, 0), polar_index_set(0.5, 0, 1)]
        sets += [rm_index_set(n, n) for n in range(0, 15)]
        sets += [polar_index_set(0.7, n, 1 << n) for n in (1, 10, 14)]
        for s in sets:
            assert json_export(s) == reference_json(s)
            for sep in (" ", ", "):
                assert (decimal_list(s.array, "indices = ", sep, "")
                        == "indices = " + sep.join(map(str, s.indices)))

    def test_block_edges(self):
        # 0, 1, B and B + 1 values, several blocks, and the digit-count
        # step 99999 -> 100000 inside a block and on a block edge.
        B = codes._DECIMAL_BLOCK
        cases = [np.arange(0), np.arange(1), np.arange(B), np.arange(B + 1),
                 7 * np.arange(3 * B + 5),
                 np.arange(10 ** 5 - 10, 10 ** 5 - 10 + 2 * B),
                 np.arange(10 ** 5 - B, 10 ** 5 + B)]
        for values in cases:
            s = IndexSet(n=26, indices=values, kind="reed-muller",
                         meta={"order": 3})
            blocks = list(index_set_json_blocks(s))
            assert len(blocks) == 2 + -(-values.size // B)
            assert "".join(blocks) == reference_json(s)
            for sep in (" ", ", "):
                assert (decimal_list(s.array, "indices = ", sep, "\n")
                        == "indices = " + sep.join(map(str, values.tolist()))
                        + "\n")

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_small_blocks(self, monkeypatch, block):
        # Every digit-count step falls at each offset in a block.
        monkeypatch.setattr(codes, "_DECIMAL_BLOCK", block)
        values = [0, 9, 10, 99, 100, 99999, 100000, 100001, 10 ** 9 - 1,
                  10 ** 9, (1 << 32) - 1, 1 << 32, (1 << 63) - 1]
        for k in range(len(values) + 1):
            for chosen in (values[:k], values[k:]):
                array = np.array(chosen, dtype=np.int64)
                for sep in (" ", ", "):
                    assert (decimal_list(array, "[", sep, "]")
                            == "[" + sep.join(map(str, chosen)) + "]")

    def test_random_sets(self):
        rng = np.random.default_rng(5)
        for n in (3, 12, 20, 26):
            for size in (1, 2, 17, 1000):
                chosen = rng.choice(1 << n, size=min(size, 1 << n), replace=False)
                s = IndexSet(n=n, indices=chosen, kind="polar")
                assert json_export(s) == reference_json(s)
