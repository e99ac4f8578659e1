"""Document formats: kind detection, loading, round trips, diagnostics."""

import json
import re

import numpy as np
import pytest

from jetconn import (
    Connection1,
    FormatError,
    SymbolUniverse,
    TransportResult,
    connection1_to_data,
    connection2_to_data,
    curvature_to_data,
    detect_kind,
    dump_json,
    ehresmann_prolongation,
    load_data,
    load_path,
    parse_expr,
    curvature,
    simplify,
    to_text,
    transport_csv,
)
from jetconn.io import KIND_LABELS, Document

from conftest import random_connection1

SAMPLES = {
    "conn_a.json": "connection1",
    "conn_b.json": "connection1",
    "conn_zero2.json": "connection2",
    "conn_linear.json": "linear",
    "conn_affine_polar.json": "affine",
    "conn_exp.json": "connection1",
    "curve_unit.json": "curve",
    "loop_polar.json": "curve",
    "curve_revolution.json": "curve",
    "jet_semi.json": "jet",
    "jet_nonholo.json": "jet",
    "twofold.json": "twofold",
    "transform.json": "transform",
}


class TestDetection:
    def test_sample_kinds(self, sample_dir):
        for name, kind in SAMPLES.items():
            doc = load_path(sample_dir / name)
            assert doc.kind == kind, name
            assert doc.kind in KIND_LABELS

    def test_non_object_rejected(self):
        with pytest.raises(FormatError, match="JSON object"):
            detect_kind([1, 2])

    def test_unknown_layout(self):
        with pytest.raises(FormatError, match="unrecognized"):
            detect_kind({"what": "ever"})

    def test_flag_keys_must_be_true(self):
        # linear: false is not a linear document
        with pytest.raises(FormatError, match="unrecognized"):
            detect_kind({"linear": False, "coeff": []})


class TestLoading:
    def test_connection1_round_trip(self, rng):
        for _ in range(5):
            g = random_connection1(rng, 2, 2)
            doc = load_data(connection1_to_data(g))
            assert doc.kind == "connection1"
            # negative constants reparse as unary minus; compare semantically
            for got_row, want_row in zip(doc.value.F, g.F):
                for got, want in zip(got_row, want_row):
                    assert simplify(got) == simplify(want)

    def test_connection2_round_trip(self, rng):
        delta = ehresmann_prolongation(random_connection1(rng, 2, 1))
        doc = load_data(connection2_to_data(delta))
        assert doc.kind == "connection2"

        def same(a, b):
            if isinstance(a, tuple):
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    same(x, y)
            else:
                assert simplify(a) == simplify(b)

        same(doc.value.F, delta.F)
        same(doc.value.G, delta.G)
        same(doc.value.H, delta.H)

    def test_curvature_round_trip(self, rng):
        g = random_connection1(rng, 2, 1)
        grid = curvature(g)
        data = curvature_to_data(grid, g.universe)
        doc = load_data(data)
        assert doc.kind == "curvature"

        def same(a, b):
            if isinstance(a, tuple):
                for x, y in zip(a, b):
                    same(x, y)
            else:
                assert simplify(a) == simplify(b)

        same(doc.value, grid)

    def test_missing_field_names_kind_and_key(self):
        with pytest.raises(FormatError, match="connection2.*'G'"):
            load_data(
                {"order": 2, "base_dim": 1, "fiber_dim": 1, "F": [["0"]]}
            )

    def test_dims_must_be_integers(self):
        with pytest.raises(FormatError, match="'base_dim'.*integer"):
            load_data({"order": 1, "F": [["0"]], "base_dim": True, "fiber_dim": 1})
        with pytest.raises(FormatError, match="'fiber_dim'.*integer"):
            load_data({"order": 1, "F": [["0"]], "base_dim": 1, "fiber_dim": "1"})
        blocks = {name: [["0"]] for name in ("g1_base", "g2_base", "g12_base", "g12_f1", "g12_f2")}
        for dims in ([1.9, 1.9, 1.9, 1.9], [1, 1, True, 1], [1, 1, 1, 1.0]):
            with pytest.raises(FormatError, match="twofold dims must be an array of integers"):
                load_data({"dims": dims, "blocks": blocks})
        with pytest.raises(FormatError, match="transform dims must be an array of integers"):
            load_data({"transform": True, "dims": [1, 1, 1, 1.5], "components": ["u1"] * 4})

        # So does every other number field: each integer field takes only
        # JSON integers, each real field only JSON numbers, and true and
        # false are neither.
        def jet(record=None, base=(0.0,)):
            first = {"p": 1, "seq": [0], "value": 1.0, **(record or {})}
            values = [first, {"p": 1, "seq": [1], "value": 0.0}]
            return {"order": 1, "base_dim": 1, "fiber_dim": 1, "base": list(base), "values": values}

        cases = [
            (jet({"p": 1.7}), "jet record field 'p' must be an integer"),
            (jet({"p": True}), "jet record field 'p' must be an integer"),
            (jet({"seq": [False]}), "jet record field 'seq' must be an array of integers"),
            (jet({"seq": [0.0]}), "jet record field 'seq' must be an array of integers"),
            (jet({"value": True}), "jet record field 'value' must be a number"),
            (jet({"value": "1.0"}), "jet record field 'value' must be a number"),
            (jet(base=[False]), "jet base must be an array of numbers"),
            (jet(base=["0"]), "jet base must be an array of numbers"),
        ]
        curve = {"dim": 1, "components": ["t"], "t0": 0.0, "t1": 1.0}
        cases += [
            ({**curve, "t0": False, "t1": True}, "curve field 't0' must be a number"),
            ({**curve, "t1": True}, "curve field 't1' must be a number"),
            ({**curve, "t0": "0"}, "curve field 't0' must be a number"),
        ]
        for data, message in cases:
            with pytest.raises(FormatError, match=re.escape(message)):
                load_data(data)
        # Integers are JSON numbers too, and the constructors convert them.
        assert load_data({**curve, "t0": 0, "t1": 2}).value.t1 == 2.0
        assert load_data(jet({"value": 3})).value.values[(1, (0,))] == 3.0

    def test_grid_entries_must_be_text(self):
        with pytest.raises(FormatError, match="expression text"):
            load_data({"order": 1, "base_dim": 1, "fiber_dim": 1, "F": [[0]]})

    def test_grid_nesting_checked(self):
        with pytest.raises(FormatError, match="nested array"):
            load_data({"order": 1, "base_dim": 1, "fiber_dim": 1, "F": ["y1"]})

    def test_duplicate_jet_record(self):
        data = {
            "order": 1,
            "base_dim": 1,
            "fiber_dim": 1,
            "base": [0.0],
            "values": [
                {"p": 1, "seq": [0], "value": 1.0},
                {"p": 1, "seq": [0], "value": 2.0},
            ],
        }
        with pytest.raises(FormatError, match="duplicate jet record"):
            load_data(data)

    def test_jet_sample_loads(self, sample_dir):
        doc = load_path(sample_dir / "jet_semi.json")
        pt = doc.value
        assert pt.order == 2
        assert pt.values[(1, (1, 2))] == 3.0
        assert pt.values[(1, (2, 1))] == 4.0

    def test_twofold_override_grid(self):
        data = {
            "dims": [1, 1, 1, 1],
            "blocks": {
                "g1_base": [["0"]],
                "g2_base": [["0"]],
                "g12_base": [["0"]],
                "g12_f1": [["0"]],
                "g12_f2": [["0"]],
            },
            "gamma12_base": [["u1^2"]],
        }
        doc = load_data(data)
        assert doc.kind == "twofold"
        assert to_text(doc.value.g12_base[0][0]) == "u1^2"

    def test_twofold_missing_block(self):
        data = {"dims": [1, 1, 1, 1], "blocks": {"g1_base": [["0"]]}}
        with pytest.raises(FormatError, match="twofold blocks.*'g2_base'"):
            load_data(data)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_path(p)

    def test_bad_expression_propagates(self):
        data = {"order": 1, "base_dim": 1, "fiber_dim": 1, "F": [["y1 +"]]}
        from jetconn import ParseError

        with pytest.raises(ParseError):
            load_data(data)


class TestEmission:
    def test_dump_json_trailing_newline(self):
        text = dump_json({"a": 1})
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1}

    def test_emitted_connection_text_parses_back(self, rng):
        g = random_connection1(rng, 3, 2)
        data = connection1_to_data(g)
        u = SymbolUniverse(3, 2)
        for row in data["F"]:
            for cell in row:
                parse_expr(cell, u)

    def test_transport_csv_layout(self):
        times = np.array([0.0, 0.5, 1.0])
        values = np.array([[1.0, 2.0], [1.5, 2.5], [0.1234567890123456, 3.0]])
        res = TransportResult(times, values, 2, 8)
        text = transport_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "t,y1,y2"
        assert lines[1] == "0.0,1.0,2.0"
        # full float precision survives the round trip
        assert float(lines[3].split(",")[1]) == 0.1234567890123456

    def test_transport_csv_jet_columns(self):
        times = np.array([0.0, 1.0])
        values = np.array([[1.0], [2.0]])
        jets = np.array([[[0.5, 0.25]], [[0.75, 0.125]]])
        res = TransportResult(times, values, 1, 4, jets)
        lines = transport_csv(res).strip().split("\n")
        assert lines[0] == "t,y1,y1_1,y1_2"
        assert lines[2] == "1.0,2.0,0.75,0.125"
