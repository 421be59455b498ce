"""Tests for bit-parallel simulation, BENCH I/O, generators, and PPA."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import (
    GateType,
    Netlist,
    NetlistError,
    area,
    arrival_times,
    c17,
    critical_path_delay,
    decode_int,
    dumps,
    encode_int,
    exhaustive_truth_table,
    from_truth_tables,
    loads,
    output_values,
    pack_patterns,
    ppa_report,
    parity_tree,
    random_circuit,
    random_stimulus,
    ripple_carry_adder,
    simulate,
    step_sequential,
)


class TestSimulate:
    def test_missing_input_raises(self):
        n = c17()
        with pytest.raises(NetlistError):
            simulate(n, {"G1": 1})

    def test_c17_known_vector(self):
        n = c17()
        # all inputs 1: G10=NAND(1,1)=0, G11=0, G16=NAND(1,0)=1,
        # G19=NAND(0,1)=1, G22=NAND(0,1)=1, G23=NAND(1,1)=0
        vals = output_values(n, {k: 1 for k in n.inputs})
        assert vals == {"G22": 1, "G23": 0}

    def test_bitparallel_matches_scalar(self):
        n = random_circuit(6, 40, 3, seed=7)
        rng = random.Random(0)
        width = 32
        stim = random_stimulus(n.inputs, width, rng)
        packed = simulate(n, stim, width)
        for p in range(width):
            scalar = simulate(n, {k: (stim[k] >> p) & 1 for k in n.inputs})
            for out in n.outputs:
                assert (packed[out] >> p) & 1 == scalar[out]

    def test_pack_unpack_roundtrip(self):
        patterns = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
        packed = pack_patterns(patterns, ["a", "b"])
        assert [packed["a"] >> i & 1 for i in range(3)] == [1, 0, 1]
        assert [packed["b"] >> i & 1 for i in range(3)] == [0, 1, 1]

    @staticmethod
    def pack_by_bits(patterns, names):
        """The per-bit bigint loop ``pack_patterns`` used to run."""
        packed = {name: 0 for name in names}
        for position, pattern in enumerate(patterns):
            for name in names:
                if pattern.get(name, 0) & 1:
                    packed[name] |= 1 << position
        return packed

    def test_pack_matches_per_bit_loop(self):
        names = ["a", "b", "c"]
        assert pack_patterns([], names) == {"a": 0, "b": 0, "c": 0}
        assert pack_patterns([{"a": 1}], []) == {}
        cases = [[{"a": 1}, {"b": 1, "c": 0}, {}],              # missing
                 [{"a": 2, "b": 3, "c": 255}, {"a": 7}],      # above 1
                 [{"a": 256, "b": -1, "c": 1 << 70}] * 3]     # > a byte
        rng = random.Random(5)
        for _ in range(200):
            n_names = rng.randint(1, 6)
            batch = [{name: rng.randint(0, 3) for name in names[:n_names]
                      if rng.random() > 0.1}
                     for _ in range(rng.randint(0, 70))]
            cases.append(batch)
        for patterns in cases:
            for subset in (names, names[:1], names[::-1]):
                assert pack_patterns(patterns, subset) == \
                    self.pack_by_bits(patterns, subset)

    def test_encode_decode_roundtrip(self):
        bits = [f"b{i}" for i in range(8)]
        for v in (0, 1, 170, 255):
            assert decode_int(encode_int(v, bits), bits) == v

    def test_encode_replicates_across_width(self):
        enc = encode_int(0b101, ["x0", "x1", "x2"], width=4)
        assert enc["x0"] == 0b1111 and enc["x1"] == 0 and enc["x2"] == 0b1111


class TestSequential:
    def build_counter(self):
        """1-bit toggle flop."""
        n = Netlist("tff")
        n.add_input("en")
        n.add_gate("q", GateType.DFF, ["d"])
        n.add_gate("d", GateType.XOR, ["q", "en"])
        n.add_output("q")
        return n

    def run_cycles(self, n, enables):
        """Per-cycle ``q`` of the toggle flop from reset."""
        state, trace = {}, []
        for en in enables:
            values, state = step_sequential(n, {"en": en}, state)
            trace.append(values["q"])
        return trace

    def test_toggle_flop(self):
        assert self.run_cycles(self.build_counter(), [1] * 4) == [0, 1, 0, 1]

    def test_hold_when_disabled(self):
        assert self.run_cycles(self.build_counter(), [1, 0, 0]) == [0, 1, 1]

    def test_initial_state(self):
        n = self.build_counter()
        vals, nxt = step_sequential(n, {"en": 0}, {"q": 1})
        assert vals["q"] == 1 and nxt["q"] == 1


class TestExhaustive:
    def test_exhaustive_and(self):
        n = Netlist()
        n.add_input("a")
        n.add_input("b")
        n.add_gate("y", GateType.AND, ["a", "b"])
        n.add_output("y")
        assert exhaustive_truth_table(n) == [0, 0, 0, 1]

    def test_too_many_inputs(self):
        n = Netlist()
        for i in range(21):
            n.add_input(f"i{i}")
        n.add_gate("y", GateType.AND, [f"i{k}" for k in range(21)])
        n.add_output("y")
        with pytest.raises(NetlistError):
            exhaustive_truth_table(n)


class TestBench:
    def test_roundtrip_c17(self):
        n = c17()
        m = loads(dumps(n))
        assert exhaustive_truth_table(m, "G22") == exhaustive_truth_table(n, "G22")
        assert exhaustive_truth_table(m, "G23") == exhaustive_truth_table(n, "G23")

    def test_parse_comments_and_blanks(self):
        text = """
        # a comment
        INPUT(a)

        INPUT(b)
        OUTPUT(y)
        y = NAND(a, b)  # trailing comment
        """
        n = loads(text)
        assert n.inputs == ["a", "b"]
        assert output_values(n, {"a": 1, "b": 1}) == {"y": 0}

    def test_parse_dff(self):
        n = loads("INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nd = NOT(q)\nzz = AND(x, q)\nOUTPUT(zz)\n")
        assert n.is_sequential

    def test_bad_line_raises(self):
        with pytest.raises(NetlistError):
            loads("y <- AND(a, b)")

    def test_unknown_op_raises(self):
        with pytest.raises(NetlistError):
            loads("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")


class TestGenerators:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_adder(self, width):
        n = ripple_carry_adder(width)
        hi = 1 << width
        rng = random.Random(width)
        for _ in range(20):
            a, b = rng.randrange(hi), rng.randrange(hi)
            stim = {}
            stim.update(encode_int(a, [f"a{i}" for i in range(width)]))
            stim.update(encode_int(b, [f"b{i}" for i in range(width)]))
            vals = simulate(n, stim)
            got = decode_int(vals, [f"s{i}" for i in range(width)] + ["cout"])
            assert got == a + b

    def test_adder_with_cin(self):
        n = ripple_carry_adder(4, with_cin=True)
        stim = {"cin": 1}
        stim.update(encode_int(7, [f"a{i}" for i in range(4)]))
        stim.update(encode_int(8, [f"b{i}" for i in range(4)]))
        vals = simulate(n, stim)
        assert decode_int(vals, [f"s{i}" for i in range(4)] + ["cout"]) == 16

    @pytest.mark.parametrize("balanced", [True, False])
    def test_parity(self, balanced):
        n = parity_tree(5, balanced=balanced)
        tt = exhaustive_truth_table(n)
        assert all(tt[m] == bin(m).count("1") % 2 for m in range(32))

    def test_parity_depth_differs(self):
        assert parity_tree(16, True).depth() < parity_tree(16, False).depth()

    def test_random_circuit_reproducible(self):
        a = random_circuit(8, 60, 4, seed=11)
        b = random_circuit(8, 60, 4, seed=11)
        assert dumps(a) == dumps(b)
        c = random_circuit(8, 60, 4, seed=12)
        assert dumps(a) != dumps(c)

    def test_from_truth_tables_shares_logic(self):
        table = [i & 1 for i in range(16)]
        multi = from_truth_tables(4, {"f": table, "g": table})
        # identical functions share the entire cone
        single = from_truth_tables(4, {"f": table})
        assert multi.num_cells() <= single.num_cells() + 2

    def test_from_truth_table_wrong_size(self):
        with pytest.raises(ValueError):
            from_truth_tables(3, {"f": [0, 1]})


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.data())
def test_truth_table_synthesis_property(n_inputs, data):
    """from_truth_tables() realizes exactly the requested function."""
    size = 1 << n_inputs
    table = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    netlist = from_truth_tables(n_inputs, {"f": table})
    assert exhaustive_truth_table(netlist) == table


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 63), st.integers(0, 63))
def test_adder_property(width, a, b):
    a &= (1 << width) - 1
    b &= (1 << width) - 1
    n = ripple_carry_adder(width)
    stim = {}
    stim.update(encode_int(a, [f"a{i}" for i in range(width)]))
    stim.update(encode_int(b, [f"b{i}" for i in range(width)]))
    vals = simulate(n, stim)
    assert decode_int(vals, [f"s{i}" for i in range(width)] + ["cout"]) == a + b


class TestMetrics:
    def test_area_positive_and_monotone(self):
        small = ripple_carry_adder(2)
        big = ripple_carry_adder(8)
        assert 0 < area(small) < area(big)

    def test_arrival_monotone_along_paths(self):
        n = c17()
        at = arrival_times(n)
        for g in n.gates.values():
            for fi in g.fanins:
                assert at[g.name] > at[fi]

    def test_critical_path_endpoint(self):
        n = ripple_carry_adder(8)
        at = arrival_times(n)
        assert critical_path_delay(n) == max(at[o] for o in n.outputs)

    def test_ppa_report_fields(self):
        rep = ppa_report(ripple_carry_adder(4))
        d = rep.as_dict()
        assert d["area"] > 0 and d["delay"] > 0 and d["cell_count"] > 0
        assert rep.flop_count == 0
