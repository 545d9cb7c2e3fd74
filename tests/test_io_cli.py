import csv
import importlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homrf
from homrf.baselines import solve_msd, solve_subgradient
from homrf.cli import main
from homrf.decomposition import build_monotonic_chains, local_separator_window
from homrf.errors import NonFiniteCost, NotNested, ParseError, TooLarge
from homrf import fileio
from homrf.fileio import parse_model_file, serialize_model
from homrf.generators import (
    gen_potts_2x2,
    gen_stereo_second_order,
    potts_block_table,
    second_order_table,
)
from homrf.model import build_model, energy
from homrf.oracle import _general_steps, brute_force_map, extract_primal, trws_general_pass
from homrf.trws import _run_passes, chain_state_init, init_tree_params, solve_trws, trws_chain_pass

from conftest import figure_chain_instance, random_instance


MINIMAL = """HOMRF
1
2
1
1 0
0 1
J
0
"""


class TestParse:
    def test_minimal_file(self):
        model, js, order = parse_model_file(MINIMAL)
        assert model.node_count == 1
        assert len(model.factors) == 1
        assert js.outer == {0}
        assert order is None

    def test_figure_topology_end_to_end(self, rng):
        model, js = figure_chain_instance(rng)
        text = serialize_model(model, js)
        model2, js2, _ = parse_model_file(text)
        d = build_monotonic_chains(model2, js2)
        abc = model2.factor_id((0, 1, 2))
        scopes = [d.jstructure.scope(b) for b in local_separator_window(d, abc)]
        assert scopes == [(0,), (1,), (1, 2)]

    def test_truncated_table(self):
        bad = MINIMAL.replace("0 1\n", "0\n")
        with pytest.raises(ParseError, match="factor 0"):
            parse_model_file(bad)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_model_file("MARKOV\n1\n2\n0\n")

    def test_zero_label_count(self):
        with pytest.raises(ParseError, match="label count 0"):
            parse_model_file("HOMRF\n1\n0\n1\n1 0\nJ\n0\n")

    def test_order_section(self):
        text = MINIMAL + "ORDER\n0\n"
        _, _, order = parse_model_file(text)
        assert order == (0,)

    def test_round_trip_is_bit_exact(self, rng):
        for _ in range(5):
            model, js = random_instance(rng, nested=True)
            order = tuple(rng.permutation(model.node_count).tolist())
            text = serialize_model(model, js, order)
            model2, js2, order2 = parse_model_file(text)
            assert order2 == order
            assert model2.label_counts == model.label_counts
            assert model2.scopes == model.scopes
            assert js2.edges == js.edges
            for f1, f2 in zip(model.factors, model2.factors):
                assert np.array_equal(f1.table, f2.table)
            assert serialize_model(model2, js2, order2) == text


# two nodes with 2 and 3 labels; factor 1's six-cell table is line 8 on
_SPLIT_TABLE = [
    "HOMRF",
    "2",
    "2 3",
    "2",
    "1 0",
    "0 1",
    "2 0 1",
    "0 1 2",
    "3 4 5",
    "J",
    "0",
]


def _parse_error(lines):
    with pytest.raises(ParseError) as exc:
        parse_model_file("\n".join(lines) + "\n")
    return str(exc.value)


# three factors, (0,), (1,) and (0, 1); the J section follows
_J_HEAD = ["HOMRF", "3", "2 2 2", "3", "1 0", "0 1", "1 1", "0 1", "2 0 1", "0 1 2 3", "J"]


# the lines after the label counts of three nodes with 2, 3 and 2 labels
_LABELS_TAIL = ["3", "1 0", "0 1", "1 1", "0 1 2", "2 1 2", "0 1 2 3 4 5", "J", "1", "2 1"]


class TestJSection:
    # the J section's edges are read as one block of integers when they sit
    # one edge a line; any other layout, and any fault, is read token by
    # token, so every message and line number is the token cursor's

    def test_end_of_file_inside_an_edge(self):
        lines = _J_HEAD + ["2", "2 0", "2"]
        assert _parse_error(lines) == (
            "line 14: unexpected end of file, expected target of edge 1"
        )

    def test_end_of_file_before_an_edge(self):
        lines = _J_HEAD + ["3", "2 0", "2 1", ""]
        assert _parse_error(lines) == (
            "line 14: unexpected end of file, expected source of edge 2"
        )

    @pytest.mark.parametrize(
        "edges, message",
        [
            (["2 0", "2 x"], "line 14: expected target of edge 1, got 'x'"),
            (["2 0", "1.0 1"], "line 14: expected source of edge 1, got '1.0'"),
            (["2 0 2", "0x1"], "line 14: expected target of edge 1, got '0x1'"),
        ],
    )
    def test_non_integer_names_its_line(self, edges, message):
        assert _parse_error(_J_HEAD + [str(len(edges)), *edges]) == message

    def test_unknown_factor_on_a_later_edge_names_that_edge(self):
        lines = _J_HEAD + ["3", "2 0", "2 1", "", "2 3"]
        assert _parse_error(lines) == "line 16: edge 2 references factor 2 or 3"

    def test_first_bad_edge_in_file_order_is_reported(self):
        # an unknown factor before a non-integer, and the other way round
        lines = _J_HEAD + ["3", "2 0", "2 -1", "2 y"]
        assert _parse_error(lines) == "line 14: edge 1 references factor 2 or -1"
        lines = _J_HEAD + ["3", "2 0", "2 y", "2 -1"]
        assert _parse_error(lines) == "line 14: expected target of edge 1, got 'y'"

    @pytest.mark.parametrize(
        "j_lines",
        [
            ["2", "2 0", "2 1"],
            ["2", "2", "0", "2", "1"],  # edges split over two lines
            ["2", "2 0 2 1"],  # two edges on one line
            ["2 2 0", "2 1"],  # the count on the first edge's line
            ["2", "", "2 0", "   ", "", "2 1", ""],  # blank lines inside J
        ],
    )
    def test_edge_layouts_read_alike(self, j_lines):
        _, js, order = parse_model_file("\n".join(_J_HEAD + j_lines) + "\n")
        assert js.edges == {(2, 0), (2, 1)} and order is None

    @pytest.mark.parametrize(
        "count_lines",
        [
            ["3 2 3 2"],  # the counts on the node-count line
            ["3", "2", "3", "2"],  # one count per line
            ["3", "2 3", "2"],  # wrapped over two lines
            ["3", "", "2", "   ", "3 2", ""],  # blank lines inside
        ],
    )
    def test_label_layouts_read_alike(self, count_lines):
        serialized = parse_model_file("\n".join(["HOMRF", "3", "2 3 2", *_LABELS_TAIL]) + "\n")
        parsed = parse_model_file("\n".join(["HOMRF", *count_lines, *_LABELS_TAIL]) + "\n")
        assert serialize_model(*parsed) == serialize_model(*serialized)
        assert parsed[0].label_counts == (2, 3, 2)

    def test_fault_in_wrapped_label_counts_names_its_line(self):
        lines = ["HOMRF", "3", "2 3", "x", *_LABELS_TAIL]
        assert _parse_error(lines) == "line 4: expected label count of node 2, got 'x'"

    def test_order_on_the_last_edges_line(self):
        text = "\n".join(_J_HEAD + ["2", "2 0", "2 1 ORDER 1", "2 0"]) + "\n"
        _, js, order = parse_model_file(text)
        assert js.edges == {(2, 0), (2, 1)} and order == (1, 2, 0)

    def test_blank_lines_around_order(self):
        lines = _J_HEAD + ["2", "2 0", "2 1", "", "", "ORDER", "", "1 2", "", "0", ""]
        _, js, order = parse_model_file("\n".join(lines) + "\n")
        assert js.edges == {(2, 0), (2, 1)} and order == (1, 2, 0)
        # cut after "1 2": the end of file is on the line of the last id read
        assert _parse_error(lines[:-2]) == (
            "line 19: unexpected end of file, expected node id in order"
        )

    def test_section_after_the_edges_names_its_line(self):
        lines = _J_HEAD + ["2", "2 0", "2 1 FOO"]
        assert _parse_error(lines) == "line 14: unknown section 'FOO'"

    @pytest.mark.parametrize(
        "j_lines, message",
        [
            (["J", "1", "0 0"], "line 13: edge 0 (0, 0): scope (0,) is not strictly inside (0,)"),
            # the first edge in file order, not in the closure's set order
            (["J", "4", "2 0", "1 0", "", "0 2", "2 2"],
             "line 14: edge 1 (1, 0): scope (0,) is not strictly inside (1,)"),
            (["J", "3", "2 0 2 1", "0 2"], "line 14: edge 2 (0, 2): scope (0, 1) is not strictly inside (0,)"),
            # the edges read again after an ORDER section, before one on the
            # bad edge's line, and after blank lines
            (["ORDER", "2 1 0", "J", "2", "2 0", "0 2"],
             "line 16: edge 1 (0, 2): scope (0, 1) is not strictly inside (0,)"),
            (["J", "2", "2 0", "0 2 ORDER 1", "2 0"],
             "line 14: edge 1 (0, 2): scope (0, 1) is not strictly inside (0,)"),
            (["J", "3", "2 0", "", "2 1", "", "", "1 2", "ORDER", "0 1 2"],
             "line 18: edge 2 (1, 2): scope (0, 1) is not strictly inside (1,)"),
        ],
    )
    def test_edge_not_nested_names_its_line(self, j_lines, message):
        # `j_lines` are the lines after the factors
        with pytest.raises(NotNested) as exc:
            parse_model_file("\n".join(_J_HEAD[:-1] + j_lines) + "\n")
        assert str(exc.value) == message

    def test_edge_not_nested_file_exit_1(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("HOMRF\n2\n2 2\n3\n1 0\n0 1\n1 1\n0 1\n2 0 1\n0 1 2 3\nJ\n1\n0 0\n")
        code, err = _exit(["--input", str(path)])
        assert code == 1
        assert err == "error: line 13: edge 0 (0, 0): scope (0,) is not strictly inside (0,)\n"

    def test_duplicate_edges_count_once(self):
        _, js, _ = parse_model_file("\n".join(_J_HEAD + ["3", "2 0", "2 0", "2 1"]) + "\n")
        assert js.edges == {(2, 0), (2, 1)}


class TestParseCursor:
    def test_split_table_parses(self):
        model, _, _ = parse_model_file("\n".join(_SPLIT_TABLE) + "\n")
        assert model.table(1).tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_bad_token_mid_table(self):
        lines = _SPLIT_TABLE[:7] + ["0 1 x 3 4 5"] + _SPLIT_TABLE[9:]
        assert _parse_error(lines) == "line 8: expected table value of factor 1, got 'x'"

    def test_bad_token_on_second_line_of_split_table(self):
        lines = _SPLIT_TABLE[:8] + ["3 x 5"] + _SPLIT_TABLE[9:]
        assert _parse_error(lines) == "line 9: expected table value of factor 1, got 'x'"

    def test_first_bad_token_is_reported(self):
        lines = _SPLIT_TABLE[:7] + ["1e500 y z", "3 x 5"] + _SPLIT_TABLE[9:]
        assert _parse_error(lines) == "line 8: expected table value of factor 1, got 'y'"

    def test_table_runs_into_j(self):
        lines = _SPLIT_TABLE[:7] + ["0 1 2 3"] + _SPLIT_TABLE[9:]
        assert _parse_error(lines) == "line 9: expected table value of factor 1, got 'J'"

    def test_table_truncated_at_end_of_file(self):
        # blank lines after the last token do not move the reported line
        lines = _SPLIT_TABLE[:8] + ["", ""]
        assert _parse_error(lines) == "line 8: table of factor 1 is truncated"

    def test_end_of_file_names_last_token_line(self):
        assert _parse_error(["HOMRF", "", "2", "2 3", ""]) == (
            "line 4: unexpected end of file, expected factor count"
        )

    def test_negative_factor_count(self):
        assert _parse_error(["HOMRF", "1", "2", "-3"]) == (
            "line 4: factor count must be non-negative"
        )

    def test_negative_edge_count(self):
        lines = ["HOMRF", "1", "2", "1", "1 0", "0 1", "J", "-2"]
        assert _parse_error(lines) == "line 8: edge count must be non-negative"

    @pytest.mark.parametrize("a, b", [(0, 1), (1, -1)])
    def test_edge_to_unknown_factor(self, a, b):
        lines = ["HOMRF", "1", "2", "1", "1 0", "0 1", "J", "1", f"{a} {b}"]
        assert _parse_error(lines) == f"line 9: edge 0 references factor {a} or {b}"

    @pytest.mark.parametrize("order", ["0 0", "1 2"])
    def test_order_not_a_permutation(self, order):
        lines = ["HOMRF", "2", "2 2", "0", "ORDER", order]
        assert _parse_error(lines) == "line 6: ORDER is not a permutation"

    def test_second_order_section(self):
        lines = ["HOMRF", "2", "2 2", "0", "ORDER", "0 1", "ORDER", "1 0"]
        assert _parse_error(lines) == "line 7: second ORDER section"

    def test_second_j_section(self):
        # a second J section is not merged into the first
        lines = ["HOMRF", "3", "2 2 2", "3", "1 0", "0 1", "1 1", "0 1", "2 0 1", "0 1 2 3",
                 "J", "1", "2 0", "J", "1", "2 1"]
        assert _parse_error(lines) == "line 14: second J section"
        assert parse_model_file("\n".join(lines[:13]) + "\n")[1].edges == {(2, 0)}

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_node_count_must_be_positive(self, count):
        assert _parse_error(["HOMRF", count]) == "line 2: node count must be positive"

    def test_nan_table_value_is_non_finite(self):
        with pytest.raises(NonFiniteCost):
            parse_model_file(MINIMAL.replace("0 1\n", "0 nan\n"))

    @pytest.mark.parametrize(
        "tok",
        ["0.1", "1_0", "1__0", "+.5", "5.", ".", "1e-400", "4.9e-324", "1.7976931348623157e308",
         "١٢", "１２", "0x10", "1,5", "1d3", "nan", "-inf", "Infinity", "1e500"],
    )
    def test_table_token_reads_as_float_does(self, tok):
        text = MINIMAL.replace("0 1\n", f"0 {tok}\n")
        try:
            want = float(tok)
        except ValueError:
            with pytest.raises(ParseError) as exc:
                parse_model_file(text)
            assert str(exc.value) == f"line 6: expected table value of factor 0, got {tok!r}"
            return
        if not np.isfinite(want):
            with pytest.raises(NonFiniteCost):
                parse_model_file(text)
            return
        model, _, _ = parse_model_file(text)
        assert model.table(0)[1].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrapped_tables_parse_bit_for_bit(self, rng, width):
        for _ in range(5):
            model, js = random_instance(rng, nested=True)
            order = tuple(rng.permutation(model.node_count).tolist())
            text = serialize_model(model, js, order)
            lines = text.splitlines()
            k = len(model.factors)
            wrapped = lines[:4]
            for f in range(k):
                wrapped.append(lines[4 + 2 * f])
                cells = lines[5 + 2 * f].split()
                w = min(width, len(cells) - 1)
                wrapped += [" ".join(cells[i : i + w]) for i in range(0, len(cells), w)]
            wrapped += lines[4 + 2 * k :]
            a = parse_model_file(text)
            b = parse_model_file("\n".join(wrapped) + "\n")
            assert b[0].label_counts == a[0].label_counts
            assert b[0].scopes == a[0].scopes
            for fa, fb in zip(a[0].factors, b[0].factors):
                assert fb.table.tobytes() == fa.table.tobytes()
            assert b[1].closed_edges == a[1].closed_edges
            assert b[2] == a[2] == order


# factor 1's table is wrapped and starts with factor 0's line; factor 4's
# shares its line with factor 5's scope
_REPEATED_LINES = [
    "HOMRF",
    "3",
    "2 2 2",
    "6",
    "1 0",
    "0 1",
    "2 0 1",
    "0 1",
    "2 3",
    "2 0 2",
    "0 1 2 3",
    "2 1 2",
    "0 1 2 3",
    "1 1",
    "0 1 1 2",
    "0 1",
    "J",
    "0",
]


class TestSharedTables:
    def test_repeated_lines_share_one_read_only_table(self):
        model, js = gen_stereo_second_order(6, 5, labels=3, smooth_weight=15.0, seed=0)
        parsed, pjs, _ = parse_model_file(serialize_model(model, js))
        assert parsed.scopes == model.scopes
        assert pjs.closed_edges == js.closed_edges
        for f, g in zip(model.factors, parsed.factors):
            assert g.table.tobytes() == f.table.tobytes() and g.table.shape == f.table.shape
            assert not g.table.flags.writeable
        triples = [f.table for f in parsed.factors if len(f.scope) == 3]
        assert len(triples) == 6 * 3 + 4 * 5
        assert all(np.shares_memory(t, triples[0]) for t in triples)

    def test_wrapped_or_line_sharing_tables_are_not_shared(self):
        model, _, _ = parse_model_file("\n".join(_REPEATED_LINES) + "\n")
        tables = [model.table(f).ravel().tolist() for f in range(6)]
        assert tables == [[0, 1]] + [[0, 1, 2, 3]] * 3 + [[0, 1]] * 2
        shared = {
            (f, g)
            for f in range(6)
            for g in range(f + 1, 6)
            if np.shares_memory(model.table(f), model.table(g))
        }
        # only the factor section's block read shares tables, and only in the
        # serializer's layout; the cursor that reads this one shares none
        assert shared == set()
        # a table whose line the next scope shares reads its own values
        text = "HOMRF\n4\n2 2 2 2\n4\n1 0\n0 1 1\n2\n5 6\n1 1\n0 1 1\n3\n7 8\nJ\n0\n"
        model, _, _ = parse_model_file(text)
        assert model.scopes == ((0,), (2,), (1,), (3,))
        assert [model.table(f).tolist() for f in range(4)] == [[0, 1], [5, 6], [0, 1], [7, 8]]

    def test_bad_token_on_first_of_identical_lines(self):
        lines = _SPLIT_TABLE[:7] + ["0 x 2 3 4 5", "2 0 1", "0 x 2 3 4 5"] + _SPLIT_TABLE[9:]
        lines[3] = "3"
        assert _parse_error(lines) == "line 8: expected table value of factor 1, got 'x'"


def _stereo_lines():
    # a 6x5 stereo file: 30 unary factors, then 38 triples whose table lines
    # are one repeated line; factor f's scope is on line 5 + 2f
    model, js = gen_stereo_second_order(6, 5, labels=4, smooth_weight=15.0, seed=0)
    return serialize_model(model, js).splitlines()


def _nested_lines(seed):
    rng = np.random.default_rng(seed)
    model, js = random_instance(rng, n_nodes=8, nested=True)
    order = tuple(rng.permutation(model.node_count).tolist())
    return serialize_model(model, js, order).splitlines()


def _reflow(lines, section):
    # the file with its factor section's lines replaced by `section(pairs)`,
    # which gets each factor's (scope line, table line)
    k = int(lines[3])
    pairs = list(zip(lines[4 : 4 + 2 * k : 2], lines[5 : 5 + 2 * k : 2]))
    return lines[:4] + section(pairs) + lines[4 + 2 * k :]


def _split_in_two(line):
    toks = line.split()
    half = max(1, len(toks) // 2)
    return [" ".join(toks[:half]), " ".join(toks[half:])]


_LAYOUTS = {
    "scope and table on one line": lambda pairs: [f"{s} {t}" for s, t in pairs],
    "two factors on one line": lambda pairs: [
        " ".join(s + " " + t for s, t in pairs[i : i + 2]) for i in range(0, len(pairs), 2)
    ],
    "blank lines between factors and inside a table": lambda pairs: [
        line for s, t in pairs for line in ["", s, *_split_in_two(t)[:1], "", *_split_in_two(t)[1:]]
    ],
    "a scope split over two lines": lambda pairs: [
        line for s, t in pairs for line in [*_split_in_two(s), t]
    ],
}


def _assert_same_model(a, b):
    assert b[0].label_counts == a[0].label_counts
    assert b[0].scopes == a[0].scopes
    for fa, fb in zip(a[0].factors, b[0].factors):
        assert fb.table.shape == fa.table.shape
        assert fb.table.tobytes() == fa.table.tobytes()
    assert b[1].closed_edges == a[1].closed_edges
    assert b[2] == a[2]


def _drop_last_value(lines, f):
    lines[5 + 2 * f] = lines[5 + 2 * f].rsplit(" ", 1)[0]


def _set_token(lines, index, i, tok):
    toks = lines[index].split()
    toks[i] = tok
    lines[index] = " ".join(toks)


# edits of `_stereo_lines()` and the cursor's message for each
_FAULTS = {
    # factor 40's 64-value table takes factor 41's scope size as its last
    # value; factor 41 then reads its first node as its size
    "short-table": (lambda ls: _drop_last_value(ls, 40), "line 88: factor 41 references node 45"),
    "short-unary-table": (
        lambda ls: _drop_last_value(ls, 12),
        "line 32: expected node id in factor 13, got '39.441790386481671'",
    ),
    "non-integer-node": (
        lambda ls: _set_token(ls, 4 + 2 * 40, 2, "x"),
        "line 85: expected node id in factor 40, got 'x'",
    ),
    "unknown-node": (
        lambda ls: _set_token(ls, 4 + 2 * 40, 2, "99"), "line 85: factor 40 references node 99"
    ),
    "scope-size-0": (
        lambda ls: ls.__setitem__(4 + 2 * 40, "0"), "line 85: factor 40 has scope size 0"
    ),
    "label-count": (
        lambda ls: _set_token(ls, 2, 2, "x"), "line 3: expected label count of node 2, got 'x'"
    ),
}


class TestFactorSection:
    # the factor section is read as blocks when it is laid out as the
    # serializer writes it; any other layout, and any fault, is read one token
    # at a time, so a model and every message are the token cursor's

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("lines", [_stereo_lines(), _nested_lines(3)], ids=["stereo", "nested"])
    def test_layouts_parse_to_the_same_model(self, lines, layout):
        a = parse_model_file("\n".join(lines) + "\n")
        b = parse_model_file("\n".join(_reflow(lines, _LAYOUTS[layout])) + "\n")
        _assert_same_model(a, b)

    def test_reflowed_sections_parse_to_the_same_model(self):
        rng = np.random.default_rng(41)
        for lines in [_stereo_lines()] + [_nested_lines(seed) for seed in range(5)]:
            a = parse_model_file("\n".join(lines) + "\n")
            for _ in range(4):
                width = int(rng.integers(1, 9))

                def section(pairs):
                    toks = " ".join(s + " " + t for s, t in pairs).split()
                    out, i = [], 0
                    while i < len(toks):
                        j = i + int(rng.integers(1, width + 1))
                        out.append(" ".join(toks[i:j]))
                        i = j
                    return out

                _assert_same_model(a, parse_model_file("\n".join(_reflow(lines, section)) + "\n"))

    def test_a_serialized_section_is_read_as_blocks(self, monkeypatch):
        # the token-by-token reads are never reached for the serializer's
        # layout: not for the factors, the J edges or the label counts
        monkeypatch.setattr(fileio, "_read_factors", None)
        monkeypatch.setattr(fileio, "_read_edges", None)
        reads = []

        def ids(self, *args, _ids=fileio._Tokens.ids):
            reads.append(_ids(self, *args))
            return reads[-1]

        monkeypatch.setattr(fileio._Tokens, "ids", ids)
        for lines in (_stereo_lines(), _nested_lines(4)):
            parse_model_file("\n".join(lines) + "\n")
        assert len(reads) == 4 and None not in reads

    def test_a_negative_node_leaves_the_section_to_the_cursor(self, monkeypatch):
        # the block read refuses a negative id; the cursor names its line
        reads = []

        def factors(self, *args, _factors=fileio._Tokens.factors):
            reads.append(_factors(self, *args))
            return reads[-1]

        monkeypatch.setattr(fileio._Tokens, "factors", factors)
        lines = serialize_model(*gen_stereo_second_order(4, 3)).splitlines()
        _set_token(lines, 30, 2, "-1")  # factor 13's scope line, line 31
        assert _parse_error(lines) == "line 31: factor 13 references node -1"
        assert reads == [None]

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_faults_name_the_cursors_line(self, fault):
        edit, message = _FAULTS[fault]
        lines = _stereo_lines()
        edit(lines)
        assert _parse_error(lines) == message


class TestGenerators:
    def test_stereo_table_values(self):
        table = second_order_table(8, 15.0)
        assert table[3, 3, 3] == 0.0
        assert table[2, 3, 3] == 15.0
        assert table[0, 2, 4] == 45.0

    def test_stereo_grid_shape(self):
        model, js = gen_stereo_second_order(4, 3, labels=3, seed=1)
        triplets = [s for s in model.scopes if len(s) == 3]
        # 2 per row horizontally, 1 per column vertically
        assert len(triplets) == 3 * 2 + 4 * 1
        assert len(js.outer) == len(triplets)

    def test_stereo_pair_mode_adds_pair_separators(self):
        model, js = gen_stereo_second_order(4, 3, labels=3, seed=1, separators="pair")
        pairs = [s for s in model.scopes if len(s) == 2]
        assert pairs
        for s in pairs:
            fid = model.factor_id(s)
            assert fid in js.separators

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_stereo_weight_must_be_finite(self, weight):
        with pytest.raises(ValueError, match="finite"):
            gen_stereo_second_order(3, 3, labels=2, smooth_weight=weight)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_potts_block_weight_must_be_finite(self, weight):
        with pytest.raises(ValueError, match="finite"):
            gen_potts_2x2(2, 2, labels=2, block_weight=weight)

    def test_negative_stereo_weight_needs_given_unaries(self):
        with pytest.raises(ValueError, match="non-negative"):
            gen_stereo_second_order(3, 3, labels=2, smooth_weight=-5.0)
        model, _ = gen_stereo_second_order(3, 3, labels=2, smooth_weight=-5.0, unary_source=np.ones(18))
        assert model.table(model.factor_id((0, 1, 2)))[0, 0, 1] == -5.0

    def test_potts_block_values(self):
        table = potts_block_table(4, 5000.0)
        assert table[3, 3, 3, 3] == 0.0
        assert table[0, 0, 0, 1] == 5000.0
        pair = potts_block_table(2, 10.0, variant="pairwise")
        assert pair[0, 0, 0, 0] == 0.0
        assert pair[0, 0, 1, 1] == 20.0  # two vertical pairs disagree

    def test_single_block_zero_unaries_map(self):
        zeros = np.zeros((4, 3))
        model, js = gen_potts_2x2(2, 2, labels=3, unary_source=zeros, block_weight=7.0)
        labeling, value = brute_force_map(model)
        assert value == 0.0
        assert len(set(labeling)) == 1

    def test_generated_files_round_trip(self, tmp_path):
        for gen, kwargs in [
            (gen_stereo_second_order, dict(width=3, height=3, labels=2, seed=3)),
            (gen_potts_2x2, dict(width=3, height=2, labels=2, seed=4)),
        ]:
            model, js = gen(**kwargs)
            text = serialize_model(model, js)
            model2, js2, _ = parse_model_file(text)
            for f1, f2 in zip(model.factors, model2.factors):
                assert np.array_equal(f1.table, f2.table)
            assert serialize_model(model2, js2) == text

    def test_seeded_runs_reproduce(self):
        a, _ = gen_potts_2x2(3, 3, labels=2, seed=9)
        b, _ = gen_potts_2x2(3, 3, labels=2, seed=9)
        for f1, f2 in zip(a.factors, b.factors):
            assert np.array_equal(f1.table, f2.table)


def _read_trace(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestCli:
    def test_generated_run_monotone_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = main(
            [
                "--gen", "stereo", "--width", "4", "--height", "4",
                "--labels", "4", "--method", "trws",
                "--passes", "20", "--eps", "0", "--trace", str(trace), "--seed", "5",
            ]
        )
        assert code == 0
        rows = _read_trace(trace)
        assert len(rows) == 20
        bounds = [float(r["bound"]) for r in rows]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
        meff = [int(r["meff"]) for r in rows]
        assert all(m2 > m1 for m1, m2 in zip(meff, meff[1:]))
        out = capsys.readouterr().out
        assert "final bound" in out
        assert "primal energy" in out

    def test_reuse_matches_direct(self, tmp_path):
        traces = {}
        for mode in ("none", "after"):
            path = tmp_path / f"{mode}.csv"
            code = main(
                [
                    "--gen", "stereo", "--width", "3", "--height", "3",
                    "--labels", "3", "--method", "trws", "--passes", "10",
                    "--eps", "0", "--reuse", mode, "--trace", str(path), "--seed", "2",
                ]
            )
            assert code == 0
            traces[mode] = [float(r["bound"]) for r in _read_trace(path)]
        assert np.allclose(traces["none"], traces["after"], atol=1e-9)

    def test_all_methods_run(self, tmp_path):
        for method in ("trws", "trws-general", "msd", "subgrad"):
            code = main(
                [
                    "--gen", "potts2x2", "--width", "2", "--height", "2",
                    "--labels", "2", "--method", method, "--passes", "5",
                    "--trace", str(tmp_path / f"{method}.csv"), "--seed", "1",
                ]
            )
            assert code == 0
            rows = _read_trace(tmp_path / f"{method}.csv")
            assert len(rows) >= 1
            meff = [int(r["meff"]) for r in rows]
            assert all(m2 > m1 for m1, m2 in zip(meff, meff[1:]))

    def test_wide_grid_skips_agreement_check(self, capsys):
        # 8**30 joint states per chain: the size guard must not wrap around
        code = main(
            ["--gen", "stereo", "--width", "30", "--height", "3", "--labels", "8", "--passes", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "final bound" in captured.out
        assert "tree agreement" not in captured.out

    @pytest.mark.parametrize(
        "method, passes, eps, stop",
        [
            ("trws", "500", "1e-7", "eps"),
            ("trws", "3", "0", "passes"),
            ("msd", "500", "1e-3", "eps"),
            ("subgrad", "7", "1", "passes"),
        ],
    )
    def test_stop_reason_follows_final_bound(self, capsys, method, passes, eps, stop):
        argv = ["--gen", "stereo", "--width", "4", "--height", "4", "--labels", "4", "--seed", "5"]
        code = main(argv + ["--method", method, "--passes", passes, "--eps", eps])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].startswith("final bound: ")
        assert lines[1] == f"stopped: {stop}"

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1e-3"])
    def test_bad_eps_exit_2(self, capsys, eps):
        with pytest.raises(SystemExit) as exc:
            main(["--gen", "potts2x2", "--width", "2", "--height", "2", f"--eps={eps}"])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("passes", ["0", "-1"])
    def test_bad_passes_exit_2(self, capsys, passes):
        with pytest.raises(SystemExit) as exc:
            main(["--gen", "potts2x2", "--width", "2", "--height", "2", f"--passes={passes}"])
        assert exc.value.code == 2
        assert "--passes must be at least 1" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        code = main(["--input", "missing.txt", "--method", "trws"])
        assert code == 1
        assert "missing.txt" in capsys.readouterr().err

    def test_conflicting_sources_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--input", "x.txt", "--gen", "potts2x2"])
        assert exc.value.code == 2

    def test_separators_flag_requires_generator(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["--input", str(path), "--separators", "pair"])
        assert exc.value.code == 2

    def test_input_file_run(self, tmp_path, rng):
        model, js = figure_chain_instance(rng)
        path = tmp_path / "m.txt"
        path.write_text(serialize_model(model, js))
        trace = tmp_path / "t.csv"
        code = main(
            ["--input", str(path), "--method", "trws", "--passes", "8",
             "--eps", "0", "--trace", str(trace)]
        )
        assert code == 0
        rows = _read_trace(trace)
        _, value = brute_force_map(model)
        assert float(rows[-1]["bound"]) <= value + 1e-9

    def test_node_order_file(self, tmp_path, rng):
        model, js = figure_chain_instance(rng)
        path = tmp_path / "m.txt"
        path.write_text(serialize_model(model, js))
        order = tmp_path / "order.txt"
        order.write_text("4 3 2 1 0\n")
        code = main(
            ["--input", str(path), "--method", "trws", "--passes", "4",
             "--node-order", str(order)]
        )
        assert code == 0

    def test_python_dash_m_runs_quietly(self, tmp_path):
        # `python -m homrf` is the package's __main__, so no runpy warning
        path = [str(Path(homrf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        run = subprocess.run(
            [sys.executable, "-m", "homrf", "--gen", "stereo", "--width", "3", "--height", "3", "--passes", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0
        assert run.stderr == ""
        assert "final bound" in run.stdout

    def test_console_script_runs(self, monkeypatch):
        # the `homrf` command an install creates calls this target with no
        # arguments, so it reads sys.argv
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        (target,) = re.findall(r'^\[project\.scripts\]\nhomrf = "([\w.]+:\w+)"$', text, re.M)
        module, attr = target.split(":")
        entry = getattr(importlib.import_module(module), attr)
        argv = ["homrf", "--gen", "stereo", "--width", "4", "--height", "4", "--passes", "3"]
        monkeypatch.setattr(sys, "argv", argv)
        out = io.StringIO()
        with redirect_stdout(out):
            assert entry() == 0
        assert "final bound" in out.getvalue()


def _exit(argv):
    """Exit code and stderr of one in-process CLI run; usage errors included."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestCliErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--gen", "stereo", "--width", "2"],
            ["--gen", "potts2x2", "--width", "1"],
            ["--gen", "stereo", "--labels", "0"],
            ["--gen", "potts2x2", "--labels", "-1"],
            ["--gen", "stereo", "--stereo-lambda", "nan"],
            ["--gen", "stereo", "--stereo-lambda", "inf"],
            ["--gen", "stereo", "--stereo-lambda=-inf"],
            ["--gen", "stereo", "--stereo-lambda=-5"],
            ["--gen", "potts2x2", "--block-weight", "nan"],
            ["--gen", "potts2x2", "--block-weight", "inf"],
            ["--gen", "potts2x2", "--block-weight=-inf"],
            ["--gen", "potts2x2", "--labels", "0"],
            # weights whose tables would hold an infinite cost
            ["--gen", "stereo", "--width", "3", "--height", "3", "--labels", "2",
             "--stereo-lambda", "1e308"],
            ["--gen", "potts2x2", "--potts-variant", "pairwise", "--block-weight", "1e308"],
        ],
    )
    def test_bad_generator_parameters_exit_2(self, argv):
        code, err = _exit(argv + ["--passes", "1"])
        assert code == 2
        assert f"--gen {argv[1]}: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--gen", "stereo", "--width", "3", "--height", "3", "--block-weight", "nan",
              "--potts-variant", "pairwise"], "--block-weight"),
            (["--gen", "stereo", "--width", "4", "--height", "4", "--block-weight", "5"],
             "--block-weight"),
            (["--gen", "stereo", "--potts-variant", "pairwise"], "--potts-variant"),
            (["--gen", "potts2x2", "--stereo-lambda", "2"], "--stereo-lambda"),
            (["--input", "M", "--labels", "5", "--seed", "3", "--stereo-lambda", "2",
              "--width", "9"], "--width"),
            (["--input", "M", "--labels", "3"], "--labels"),
            (["--input", "M", "--height", "6"], "--height"),
            (["--input", "M", "--stereo-lambda", "2"], "--stereo-lambda"),
            (["--input", "M", "--block-weight", "5"], "--block-weight"),
            (["--input", "M", "--potts-variant", "pairwise"], "--potts-variant"),
            (["--input", "M", "--seed", "3"], "--seed"),
            (["--input", "M", "--separators", "pair"], "--separators"),
        ],
    )
    def test_generator_flag_the_source_does_not_take_exit_2(self, tmp_path, argv, flag):
        path = tmp_path / "m.txt"
        path.write_text(MINIMAL)
        argv = [str(path) if a == "M" else a for a in argv]
        code, err = _exit(argv + ["--passes", "2"])
        assert code == 2
        assert f"{flag} does not apply to " in err and "Traceback" not in err

    def test_allocation_failure_exit_1(self):
        # the 100000**3 stereo table is 7 PiB: numpy refuses it at once
        argv = ["--gen", "stereo", "--width", "3", "--height", "3", "--labels", "100000"]
        code, err = _exit(argv + ["--passes", "1"])
        assert code == 1
        assert err.startswith("error: out of memory") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["4 3 2 1 1\n", "0 1 2 x 4\n", "0 1 2 3\n"])
    def test_bad_node_order_file_exit_1(self, tmp_path, rng, text):
        model, js = figure_chain_instance(rng)
        path = tmp_path / "m.txt"
        path.write_text(serialize_model(model, js))
        order = tmp_path / "order.txt"
        order.write_text(text)
        code, err = _exit(["--input", str(path), "--passes", "2", "--node-order", str(order)])
        assert code == 1
        assert err.startswith("error:") and "order.txt" in err

    def test_unwritable_trace_exit_1(self, tmp_path):
        trace = tmp_path / "missing" / "t.csv"
        code, err = _exit(["--gen", "potts2x2", "--passes", "1", "--trace", str(trace)])
        assert code == 1
        assert err.startswith("error:") and "t.csv" in err

    def test_trace_to_a_directory_names_the_flag(self, tmp_path):
        argv = ["--gen", "stereo", "--width", "3", "--height", "3", "--passes", "2"]
        code, err = _exit(argv + ["--trace", str(tmp_path)])
        assert code == 1
        assert err.startswith(f"error: cannot write --trace {tmp_path}: ")

    def test_zero_label_count_file_exit_1(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("HOMRF\n1\n0\n1\n1 0\nJ\n0\n")
        code, err = _exit(["--input", str(path)])
        assert code == 1
        assert err.startswith("error:") and "label count" in err

    @pytest.mark.parametrize(
        "text",
        ["HOMRF\n1\n2\n-3\n", "HOMRF\n1\n2\n1\n1 0\n0 1\nJ\n-2\n"],
    )
    def test_negative_count_file_exit_1(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        code, err = _exit(["--input", str(path)])
        assert code == 1
        assert err.startswith("error:") and "count must be non-negative" in err

    def test_label_count_past_intp_file_exit_1(self, tmp_path):
        # a count numpy cannot take as a dimension, which the zero singletons
        # the chain builder adds would need
        path = tmp_path / "m.txt"
        path.write_text("HOMRF\n2\n2 99999999999999999999\n0\n")
        code, err = _exit(["--input", str(path)])
        assert code == 1
        assert err == "error: line 3: node 1 has label count 99999999999999999999\n"

    @pytest.mark.parametrize("n", [63, 64])
    def test_table_size_past_int64_exit_1(self, tmp_path, n):
        # one factor over n binary nodes: 2**63 and 2**64 cells wrap an int64
        path = tmp_path / "m.txt"
        nodes = " ".join(str(v) for v in range(n))
        path.write_text(f"HOMRF\n{n}\n{' '.join(['2'] * n)}\n1\n{n} {nodes}\n0 1\nJ\n0\n")
        code, err = _exit(["--input", str(path)])
        assert code == 1
        assert err.startswith("error:") and "table value of factor 0" in err

    @pytest.mark.parametrize("step_base", ["nan", "inf", "-inf", "-1"])
    def test_bad_step_base_exit_1(self, step_base):
        argv = ["--gen", "stereo", "--width", "4", "--height", "4", "--method", "subgrad"]
        code, err = _exit(argv + ["--passes", "3", f"--lambda={step_base}"])
        assert code == 1
        assert err.startswith("error:") and "step-size base" in err


@given(
    gen=st.sampled_from(["stereo", "potts2x2"]),
    method=st.sampled_from(["trws", "trws-general", "msd", "subgrad"]),
    width=st.integers(-1, 4),
    height=st.integers(-1, 4),
    labels=st.one_of(st.none(), st.integers(-1, 3)),
    passes=st.integers(-1, 3),
    separators=st.sampled_from(["singleton", "pair"]),
)
@settings(max_examples=60, deadline=None)
def test_generator_flags_never_traceback(gen, method, width, height, labels, passes, separators):
    argv = [
        "--gen", gen, "--method", method, "--width", str(width), "--height", str(height),
        "--passes", str(passes), "--separators", separators,
    ]
    if labels is not None:
        argv += ["--labels", str(labels)]
    code, err = _exit(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_PAIR_MODEL = """HOMRF
2
2 2
3
1 0
0.5 0
1 1
0 1
2 0 1
0 1 1 0
J
2
2 0
2 1
ORDER
1 0
"""
_TOKENS = ["HOMRF", "J", "ORDER", "0", "1", "2", "3", "-1", "0.5", "nan", "x"]


@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, len(_PAIR_MODEL.split()) - 1),
            st.sampled_from(["drop", "put"]),
            st.sampled_from(_TOKENS),
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=100, deadline=None)
def test_malformed_model_file_never_tracebacks(tmp_path_factory, edits):
    tokens = _PAIR_MODEL.split()
    for i, op, tok in edits:
        if op == "drop":
            del tokens[min(i, len(tokens) - 1)]
        else:
            tokens[min(i, len(tokens) - 1)] = tok
    path = tmp_path_factory.mktemp("fuzz") / "m.txt"
    path.write_text(" ".join(tokens))
    code, err = _exit(["--input", str(path), "--passes", "2"])
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:")


def _trace_rows(tmp_path, argv):
    path = tmp_path / "t.csv"
    assert main(argv + ["--trace", str(path)]) == 0
    return [(r["pass"], r["direction"], r["method"], r["bound"], r["meff"]) for r in _read_trace(path)]


class TestCliMatchesLibrary:
    @pytest.mark.parametrize(
        "gen, flags, kwargs",
        [
            ("stereo", [], {}),
            ("stereo", ["--labels", "3"], {"labels": 3}),
            ("stereo", ["--stereo-lambda", "7"], {"smooth_weight": 7.0}),
            ("stereo", ["--seed", "4"], {"seed": 4}),
            ("stereo", ["--separators", "pair"], {"separators": "pair"}),
            ("potts2x2", [], {}),
            ("potts2x2", ["--labels", "3"], {"labels": 3}),
            ("potts2x2", ["--block-weight", "0.1"], {"block_weight": 0.1}),
            (
                "potts2x2",
                ["--block-weight", "0.1", "--potts-variant", "pairwise"],
                {"block_weight": 0.1, "variant": "pairwise"},
            ),
            ("potts2x2", ["--seed", "4"], {"seed": 4}),
            ("potts2x2", ["--separators", "pair"], {"separators": "pair"}),
        ],
    )
    def test_generator_flags_reach_the_generator(self, tmp_path, capsys, gen, flags, kwargs):
        # an unset flag takes the generator's default; the last flag set
        # changes the run
        make = {"stereo": gen_stereo_second_order, "potts2x2": gen_potts_2x2}[gen]
        argv = ["--gen", gen, "--width", "4", "--height", "4", "--passes", "3"]
        rows = _trace_rows(tmp_path, argv + flags)
        lines = capsys.readouterr().out.splitlines()

        def run(**kw):
            result = solve_trws(build_monotonic_chains(*make(4, 4, **kw)), passes=3)
            return result, [
                (str(r.pass_index), r.direction, "trws", f"{r.bound:.12g}", str(r.meff))
                for r in result.rows
            ]

        result, want = run(**kwargs)
        assert rows == want
        assert f"final bound: {result.bound:.9g}" in lines
        if kwargs:
            *others, _ = kwargs.items()
            assert want != run(**dict(others))[1]

    def test_grid_side_defaults_to_six(self, tmp_path):
        rows = _trace_rows(tmp_path, ["--gen", "stereo", "--labels", "2", "--passes", "2"])
        d = build_monotonic_chains(*gen_stereo_second_order(6, 6, labels=2))
        assert rows == [
            (str(r.pass_index), r.direction, "trws", f"{r.bound:.12g}", str(r.meff))
            for r in solve_trws(d, passes=2).rows
        ]

    GEN = ["--gen", "potts2x2", "--width", "3", "--height", "3", "--labels", "2", "--separators", "pair"]

    def _decomp(self):
        model, js = gen_potts_2x2(3, 3, labels=2, seed=0, separators="pair")
        return build_monotonic_chains(model, js)

    def test_trws_rows(self, tmp_path):
        rows = _trace_rows(tmp_path, self.GEN + ["--passes", "30", "--reuse", "before-after"])
        want = solve_trws(self._decomp(), passes=30, reuse="before-after").rows
        assert rows == [
            (str(r.pass_index), r.direction, "trws", f"{r.bound:.12g}", str(r.meff)) for r in want
        ]

    def test_trws_primal_energy_is_the_library_rounding(self, tmp_path, capsys):
        # a nested model on which rounding the state and rounding its tree
        # parameters pick different labelings
        path = tmp_path / "m.txt"
        path.write_text(serialize_model(*random_instance(np.random.default_rng(228), nested=True)))
        assert main(["--input", str(path)]) == 0
        d = build_monotonic_chains(*parse_model_file(path.read_text()))
        primal = energy(d.model, extract_primal(d, solve_trws(d).state))
        assert f"primal energy: {primal:.9g}" in capsys.readouterr().out.splitlines()

    def test_trws_general_rows(self, tmp_path):
        rows = _trace_rows(tmp_path, self.GEN + ["--method", "trws-general", "--passes", "5", "--eps", "0"])
        d = self._decomp()
        params = init_tree_params(d)
        want = []
        for k in range(5):
            order = d.separator_order if k % 2 == 0 else tuple(reversed(d.separator_order))
            phi = trws_general_pass(d, params, order)
            direction = "forward" if k % 2 == 0 else "backward"
            want.append((str(k), direction, "trws-general", f"{phi:.12g}", str(params.cells)))
        assert rows == want

    def test_msd_bounds(self, tmp_path):
        rows = _trace_rows(tmp_path, self.GEN + ["--method", "msd", "--passes", "200"])
        bounds, _ = solve_msd(self._decomp(), passes=200)
        assert [r[3] for r in rows] == [f"{b:.12g}" for b in bounds]
        assert {r[1:3] for r in rows} == {("forward", "msd")}

    def test_subgrad_bounds_ignore_eps(self, tmp_path):
        rows = _trace_rows(tmp_path, self.GEN + ["--method", "subgrad", "--eps", "1", "--passes", "7"])
        assert len(rows) == 7
        bounds, _ = solve_subgradient(self._decomp(), 1.0, passes=7)
        assert [r[3] for r in rows] == [f"{b:.12g}" for b in bounds]


# two ternary factors whose finite costs sum past the largest float
OVERFLOW = (
    "HOMRF\n4\n2 2 2 2\n4\n2 0 1\n0 0 0 0\n1 1\n1e308 1e308\n"
    "2 2 3\n0 0 0 0\n1 3\n1e308 1e308\n"
)
METHODS = ["trws", "trws-general", "msd", "subgrad"]


class TestBoundOverflow:
    """A bound that overflows raises `NonFiniteCost` naming the pass; numpy
    may overflow first, so its warnings are silenced here."""

    def _decomp(self):
        return build_monotonic_chains(*parse_model_file(OVERFLOW))

    @pytest.mark.parametrize("method", METHODS)
    def test_library_raises(self, method):
        d = self._decomp()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteCost, match="^pass 0: the bound is not finite"):
                if method == "trws":
                    solve_trws(d, passes=3)
                elif method == "trws-general":
                    _run_passes(_general_steps(d)[1], 3, None, method)
                elif method == "msd":
                    solve_msd(d, passes=3)
                else:
                    solve_subgradient(d, passes=3)

    def test_lone_chain_pass_raises(self):
        # a pass outside the pass/stop loop checks its own bound
        d = self._decomp()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteCost, match="^pass 0: the bound is not finite"):
                trws_chain_pass(d, chain_state_init(d))

    @pytest.mark.parametrize("method", METHODS)
    def test_cli_exit_1(self, tmp_path, method):
        path = tmp_path / "m.txt"
        path.write_text(OVERFLOW)
        with np.errstate(over="ignore", invalid="ignore"):
            code, err = _exit(["--input", str(path), "--passes", "3", "--method", method])
        assert code == 1
        assert err == "error: pass 0: the bound is not finite; a cost sum overflows\n"


class TestLabelCountTooLarge:
    """A label count whose float table numpy cannot size raises `TooLarge`
    naming the node; one that fits but cannot be allocated is out of memory."""

    CELLS = np.iinfo(np.intp).max // 8

    def _text(self, count):
        return f"HOMRF\n2\n2 {count}\n1\n1 0\n0.5 1.5\n"

    @pytest.mark.parametrize("count", [CELLS + 1, np.iinfo(np.intp).max])
    def test_library_raises(self, count):
        message = f"^node 1: label count {count} is too large for a cost table$"
        with pytest.raises(TooLarge, match=message):
            build_model([2, count], [((0,), [0.5, 1.5])])
        with pytest.raises(TooLarge, match=message):
            parse_model_file(self._text(count))

    def test_largest_table_count_is_accepted(self):
        model = build_model([2, self.CELLS], [((0,), [0.5, 1.5])])
        assert model.label_counts == (2, self.CELLS)

    def test_cli_exit_1(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(self._text(np.iinfo(np.intp).max))
        code, err = _exit(["--input", str(path)])
        assert code == 1
        assert err == f"error: node 1: label count {np.iinfo(np.intp).max} is too large for a cost table\n"

    def test_cli_count_that_fits_is_out_of_memory(self, tmp_path):
        # the added singleton's 8 EiB table cannot be allocated
        path = tmp_path / "m.txt"
        path.write_text(self._text(self.CELLS))
        code, err = _exit(["--input", str(path)])
        assert code == 1
        assert err.startswith("error: out of memory")
