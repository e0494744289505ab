import json

import numpy as np
import pytest
from click.testing import CliRunner

from sievelogic.cli import (
    dump_context_family,
    dump_system,
    load_context_family,
    load_system,
    main,
)


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# Full stdout of `axioms spin_one -v partial:Sz=0 --json`: one
# (title, checks, notes) row per report, none with violations.
AXIOMS_SPIN1_PARTIAL_SZ0 = [
    ("Sx: valuation axioms", 29, ["unit condition: violated (legal for partial-valuation families)"]),
    ("Sx: naturality (0|1|2)", 11, []),
    ("Sx: naturality (0|1,2)", 11, []),
    ("Sx: naturality (0,1|2)", 11, []),
    ("Sx: naturality (0,1,2)", 11, []),
    ("Sx: naturality (0,2|1)", 11, ["Sx: disjunction strength on disjoint pairs: 6 equalities, 0 strict"]),
    ("Sz: valuation axioms", 38, ["unit condition: holds"]),
    ("Sz: naturality (0|1|2)", 11, []),
    ("Sz: naturality (0|1,2)", 11, []),
    ("Sz: naturality (0,1|2)", 11, []),
    ("Sz: naturality (0,1,2)", 11, []),
    ("Sz: naturality (0,2|1)", 11, ["Sz: disjunction strength on disjoint pairs: 6 equalities, 0 strict"]),
    ("Sx2: valuation axioms", 11, ["unit condition: violated (legal for partial-valuation families)"]),
    ("Sx2: naturality (0|1)", 6, []),
    ("Sx2: naturality (0,1)", 6, ["Sx2: disjunction strength on disjoint pairs: 1 equalities, 0 strict"]),
]


class TestEval:
    def test_spin1_frozen_output(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}")
        assert res.exit_code == 0
        assert res.output.splitlines() == [
            "{-1,0,1}",
            "{-1,1}|{0}",
            "classification: Intermediate",
        ]

    @pytest.mark.parametrize(
        "mode,expected",
        [
            ("o", ["{-1,0,1}", "classification: MinimallyTrue"]),
            ("ostar", ["classification: TotallyFalse"]),
        ],
    )
    def test_partial_frozen_output(self, runner, mode, expected):
        res = run(runner, "eval", "spin_one", "-v", "partial:Sz=0", "-p", "Sx in {1}", "--mode", mode)
        assert res.exit_code == 0
        assert res.output == "".join(line + "\n" for line in expected)

    def test_spectrum_past_the_limit_exits_2(self, runner, tmp_path):
        data = {
            "format": "sievelogic.system/1",
            "dimension": 10,
            "mode": "o",
            "operators": {"A": {"matrix": np.diag(np.arange(10.0)).tolist()}},
            "states": {"e0": {"vector": [1.0] + [0.0] * 9}},
        }
        f = tmp_path / "big.json"
        f.write_text(json.dumps(data))
        res = run(runner, "eval", str(f), "-v", "state:e0", "-p", "A in {0}")
        assert res.exit_code == 2
        assert "Bell(10) = 115975" in res.stderr

    def test_spin1_union_true(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx in {-1,1}")
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == "classification: TotallyTrue"

    def test_empty_subset_false(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx in {}")
        assert res.output.splitlines() == ["classification: TotallyFalse"]

    def test_density_full_spectrum_true(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:mixed", "-p", "Sx in {-1,0,1}")
        assert res.output.splitlines()[-1] == "classification: TotallyTrue"

    def test_json_payload(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}", "--json")
        data = json.loads(res.output)
        assert data == {
            "classification": "Intermediate",
            "indices": [2],
            "k": 3,
            "mode": "o",
            "operator": "Sx",
            "partitions": [[[0, 1, 2]], [[0, 2], [1]]],
        }

    def test_by_index(self, runner):
        by_value = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}", "--json")
        by_index = run(
            runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx in {2}", "--by-index", "--json"
        )
        assert json.loads(by_value.output) == json.loads(by_index.output)

    def test_mode_flag_overrides_file(self, runner):
        res = run(runner, "eval", "spin_half", "-v", "state:psi", "-p", "Sz in {0.5}", "--mode", "ostar")
        assert res.output.splitlines() == ["classification: TotallyFalse"]

    def test_partial_valuation_spec(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "partial:Sz=0", "-p", "Sz in {0}")
        assert res.output.splitlines()[-1] == "classification: TotallyTrue"

    def test_threshold_spec(self, runner):
        res = run(runner, "eval", "spin_half", "-v", "threshold:mixed:0.4", "-p", "Sz in {0.5}")
        assert res.output.splitlines()[-1] == "classification: TotallyTrue"

    def test_unknown_operator_exits_2(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sq in {1}")
        assert res.exit_code == 2
        assert "Sq" in res.stderr

    def test_unknown_state_exits_2(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:nope", "-p", "Sx in {1}")
        assert res.exit_code == 2

    @pytest.mark.parametrize("index", ["3", "-1", "10000000000", "1000000000000", "100000000000000000000"])
    def test_index_outside_spectrum_exits_2(self, runner, index):
        # refused with the range message, before any int of that size is built
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", f"Sx in {{{index}}}", "--by-index")
        assert res.exit_code == 2
        assert "eigenvalue index outside 0..2" in res.stderr

    def test_bad_proposition_exits_2(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx = 1")
        assert res.exit_code == 2

    def test_missing_file_exits_2(self, runner):
        res = run(runner, "eval", "no_such_system", "-v", "state:psi", "-p", "Sx in {1}")
        assert res.exit_code == 2

    def test_bad_tol_exits_2(self, runner):
        res = run(runner, "eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}", "--tol", "tau_bogus=1")
        assert res.exit_code == 2

    def test_non_numeric_file_tolerance_exits_2(self, runner, tmp_path):
        data = json.loads(dump_system(load_system("spin_one")))
        for bad in ("abc", True, None, [1e-9]):
            data["tolerances"] = {"tau_one": bad}
            f = tmp_path / "badtol.json"
            f.write_text(json.dumps(data))
            res = run(runner, "eval", str(f), "-v", "state:psi", "-p", "Sx in {1}")
            assert res.exit_code == 2
            assert "tau_one" in res.stderr

    @pytest.mark.parametrize("args", [
        ("ks", "ks18_dim4", "--tol", "tau_proj=nan"),
        ("axioms", "spin_one", "-v", "state:psi", "--tol", "tau_one=nan"),
        ("eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}", "--tol", "tau_one=-1e-9"),
    ])
    def test_nan_or_negative_tolerance_exits_2(self, runner, args):
        res = run(runner, *args)
        assert res.exit_code == 2
        assert "finite and non-negative" in res.stderr

    @pytest.mark.parametrize("args", [
        ("-v", "state:psi", "-p", "Sz in {nan}"),
        ("-v", "partial:Sz=nan", "-p", "Sz in {0.5}"),
    ])
    def test_nan_eigenvalue_exits_2(self, runner, args):
        res = run(runner, "eval", "spin_half", *args)
        assert res.exit_code == 2
        assert "nan" in res.stderr

    @pytest.mark.parametrize("eigenvalues, message", [
        (["x", 0.5], "operator 'Sz': eigenvalue 'x' at index 0 is not a finite real"),
        (5, "operator 'Sz': expected a sequence of eigenvalues, got 5"),
    ])
    def test_non_real_eigenvalues_exit_2(self, runner, tmp_path, eigenvalues, message):
        data = json.loads(dump_system(load_system("spin_half")))
        data["operators"]["Sz"]["eigenvalues"] = eigenvalues
        f = tmp_path / "eigs.json"
        f.write_text(json.dumps(data))
        res = run(runner, "eval", str(f), "-v", "state:psi", "-p", "Sz in {0.5}")
        assert res.exit_code == 2
        assert message in res.stderr

    def test_directory_input_exits_2(self, runner, tmp_path):
        res = run(runner, "ks", str(tmp_path))
        assert res.exit_code == 2
        assert str(tmp_path) in res.stderr

    def test_non_utf8_input_exits_2(self, runner, tmp_path):
        f = tmp_path / "latin1.json"
        f.write_bytes(b'{"format": "sievelogic.system/1", "name": "\xe9"}')
        res = run(runner, "eval", str(f), "-v", "state:psi", "-p", "Sx in {1}")
        assert res.exit_code == 2
        assert str(f) in res.stderr

    def test_missing_mode_exits_2(self, runner, tmp_path):
        data = json.loads(dump_system(load_system("spin_half")))
        del data["mode"]
        f = tmp_path / "nomode.json"
        f.write_text(json.dumps(data))
        res = run(runner, "eval", str(f), "-v", "state:psi", "-p", "Sz in {0.5}")
        assert res.exit_code == 2
        assert "mode" in res.stderr

    def test_close_eigenvalues_print_apart(self, runner, tmp_path):
        # %g prints both 1.0000001 and 1.0000002 as "1"
        data = {
            "format": "sievelogic.system/1",
            "dimension": 3,
            "mode": "o",
            "operators": {"A": {"matrix": [[1.0000001, 0, 0], [0, 1.0000002, 0], [0, 0, 3.0]]}},
            "states": {"e0": {"vector": [1.0, 0.0, 0.0]}},
        }
        f = tmp_path / "close.json"
        f.write_text(json.dumps(data))
        res = run(runner, "eval", str(f), "-v", "state:e0", "-p", "A in {0}", "--by-index")
        assert res.exit_code == 0
        assert "{1.0000001}|{1.0000002}|{3}" in res.output.splitlines()
        assert "{1.0000001,3}|{1.0000002}" in res.output.splitlines()
        dot = run(runner, "dot", str(f), "A")
        assert 'label="{1.0000001}|{1.0000002}|{3}"' in dot.output


    def test_merged_eigenvalues_load(self, runner, tmp_path):
        # 0 and 5e-9 merge within eps_group into one eigenvalue 2.5e-9
        data = {
            "format": "sievelogic.system/1",
            "dimension": 3,
            "mode": "o",
            "operators": {"A": {"matrix": [[0.0, 0, 0], [0, 5e-9, 0], [0, 0, 1.0]]}},
            "states": {"e0": {"vector": [1.0, 0.0, 0.0]}},
        }
        f = tmp_path / "merged.json"
        f.write_text(json.dumps(data))
        res = run(runner, "eval", str(f), "-v", "state:e0", "-p", "A in {0}", "--by-index")
        assert res.exit_code == 0
        assert "TotallyTrue" in res.output


class TestAxioms:
    def test_spin1_state_passes(self, runner):
        res = run(runner, "axioms", "spin_one", "-v", "state:psi")
        assert res.exit_code == 0
        assert "violation" not in res.output
        assert "disjunction strength" in res.output

    def test_partial_valuation_unit_note(self, runner):
        res = run(runner, "axioms", "spin_one", "-v", "partial:Sz=0", "--operator", "Sx")
        assert res.exit_code == 0
        assert "unit condition: violated (legal for partial-valuation families)" in res.output

    def test_partial_frozen_json(self, runner):
        res = run(runner, "axioms", "spin_one", "-v", "partial:Sz=0", "--json")
        assert res.exit_code == 0
        reports = [
            {"checks": checks, "notes": notes, "title": title, "violations": []}
            for title, checks, notes in AXIOMS_SPIN1_PARTIAL_SZ0
        ]
        assert res.output == json.dumps({"ok": True, "reports": reports}, indent=2, sort_keys=True) + "\n"

    def test_low_threshold_fails(self, runner):
        res = run(runner, "axioms", "spin_half", "-v", "threshold:mixed:0.4", "--operator", "Sz")
        assert res.exit_code == 1
        assert "exclusivity fails" in res.output

    def test_json_shape(self, runner):
        res = run(runner, "axioms", "spin_half", "-v", "state:up", "--operator", "Sz", "--json")
        data = json.loads(res.output)
        assert data["ok"] is True
        assert all({"title", "checks", "violations", "notes"} <= set(r) for r in data["reports"])

    def test_unknown_operator_exits_2(self, runner):
        res = run(runner, "axioms", "spin_one", "-v", "state:psi", "--operator", "Sq")
        assert res.exit_code == 2

    def test_near_hermitian_projectors_pass(self, runner, tmp_path):
        # each projector is Hermitian within tau_herm, sum j P_j is not
        s, x = 0.45e-9, np.ones((3, 3)) - np.eye(3)
        projectors = [e + s * (e @ x - x @ e) for e in map(np.diag, np.eye(3))]
        data = {
            "format": "sievelogic.system/1",
            "dimension": 3,
            "mode": "o",
            "operators": {"A": {"eigenvalues": [0.0, 0.001, 0.002], "projectors": [p.tolist() for p in projectors]}},
            "states": {"e0": {"vector": [1.0, 0.0, 0.0]}},
        }
        f = tmp_path / "near_hermitian.json"
        f.write_text(json.dumps(data))
        res = run(runner, "axioms", str(f), "-v", "state:e0")
        assert res.exit_code == 0
        assert "violation" not in res.output


class TestKs:
    def test_bundled_family_uncolorable(self, runner):
        res = run(runner, "ks", "ks18_dim4")
        assert res.exit_code == 3
        assert res.output == "uncolorable\n"

    def test_minimize(self, runner):
        res = run(runner, "ks", "ks18_dim4", "--minimize", "--json")
        assert res.exit_code == 3
        data = json.loads(res.output)
        assert data["colorable"] is False
        assert data["minimal_subfamily"] == [f"c{i}" for i in range(1, 10)]

    def test_colorable_with_witness(self, runner, tmp_path):
        doc = {
            "format": "sievelogic.contexts/1",
            "dimension": 2,
            "vectors": {"e0": [1.0, 0.0], "e1": [0.0, 1.0], "p": [1.0, 1.0], "m": [1.0, -1.0]},
            "contexts": [
                {"name": "z", "rays": ["e0", "e1"]},
                {"name": "x", "rays": ["p", "m"]},
            ],
        }
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(doc))
        res = run(runner, "ks", str(f), "--witness")
        assert res.exit_code == 0
        assert res.output.splitlines() == ["colorable", "z: atom 0", "x: atom 0"]

    def test_malformed_family_exits_2(self, runner, tmp_path):
        doc = {
            "format": "sievelogic.contexts/1",
            "dimension": 2,
            "vectors": {"e0": [1.0, 0.0], "p": [1.0, 1.0]},
            "contexts": [{"name": "bad", "rays": ["e0", "p"]}],
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        res = run(runner, "ks", str(f))
        assert res.exit_code == 2


class TestDot:
    def test_plain_lattice(self, runner):
        res = run(runner, "dot", "spin_one", "Sx")
        assert res.exit_code == 0
        assert res.output.count("[label=") == 5
        assert res.output.count(" -> ") == 6
        assert "fillcolor" not in res.output

    def test_highlighted_sieve(self, runner):
        res = run(runner, "dot", "spin_one", "Sx", "-v", "state:psi", "-p", "Sx in {1}")
        assert res.exit_code == 0
        assert res.output.count("fillcolor") == 2

    def test_frozen_spin_half(self, runner):
        res = run(runner, "dot", "spin_half", "Sz", "-v", "state:up", "-p", "Sz in {0.5}")
        assert res.output == (
            "digraph partition_lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  "0|1" [label="{-0.5}|{0.5}", style=filled, fillcolor="lightblue"];\n'
            '  "0,1" [label="{-0.5,0.5}", style=filled, fillcolor="lightblue"];\n'
            '  "0|1" -> "0,1";\n'
            "}\n"
        )

    def test_frozen_partial_spin_one(self, runner):
        res = run(runner, "dot", "spin_one", "Sx", "-v", "partial:Sz=0", "-p", "Sx in {1}")
        assert res.exit_code == 0
        assert res.output == (
            "digraph partition_lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  "0|1|2" [label="{-1}|{0}|{1}"];\n'
            '  "0|1,2" [label="{-1}|{0,1}"];\n'
            '  "0,1|2" [label="{-1,0}|{1}"];\n'
            '  "0,1,2" [label="{-1,0,1}", style=filled, fillcolor="lightblue"];\n'
            '  "0,2|1" [label="{-1,1}|{0}"];\n'
            '  "0|1|2" -> "0|1,2";\n'
            '  "0|1|2" -> "0,1|2";\n'
            '  "0|1|2" -> "0,2|1";\n'
            '  "0|1,2" -> "0,1,2";\n'
            '  "0,1|2" -> "0,1,2";\n'
            '  "0,2|1" -> "0,1,2";\n'
            "}\n"
        )

    def test_valuation_without_proposition_exits_2(self, runner):
        res = run(runner, "dot", "spin_one", "Sx", "-v", "state:psi")
        assert res.exit_code == 2

    def test_proposition_must_target_operator(self, runner):
        res = run(runner, "dot", "spin_one", "Sx", "-v", "state:psi", "-p", "Sz in {0}")
        assert res.exit_code == 2


class TestHeyting:
    def test_neg_without_constants(self, runner):
        res = run(runner, "heyting", "neg", "3", "0,2|1", "--mode", "ostar", "--close")
        assert res.output.splitlines() == ["0|1,2", "0,1|2", "classification: Intermediate"]

    def test_neg_with_constants_empty(self, runner):
        res = run(runner, "heyting", "neg", "3", "0,2|1", "--mode", "o", "--close")
        assert res.output.splitlines() == ["classification: TotallyFalse"]

    def test_implies(self, runner):
        res = run(
            runner, "heyting", "implies", "3", "0,2|1; 0,1,2", "0,1,2", "--mode", "o", "--close"
        )
        assert res.output.splitlines() == [
            "0|1,2",
            "0,1|2",
            "0,1,2",
            "classification: Intermediate",
        ]

    def test_meet_join(self, runner):
        meet = run(runner, "heyting", "meet", "3", "0,2|1", "0,1,2", "--mode", "o", "--close")
        assert meet.output.splitlines() == ["0,1,2", "classification: MinimallyTrue"]
        join = run(runner, "heyting", "join", "3", "0|1,2", "0,1|2", "--mode", "ostar", "--close")
        assert join.output.splitlines() == ["0|1,2", "0,1|2", "classification: Intermediate"]

    def test_json(self, runner):
        res = run(runner, "heyting", "neg", "3", "0,2|1", "--mode", "ostar", "--close", "--json")
        data = json.loads(res.output)
        assert data["partitions"] == [[[0], [1, 2]], [[0, 1], [2]]]
        assert data["mode"] == "ostar"

    def test_wrong_arity_exits_2(self, runner):
        res = run(runner, "heyting", "meet", "3", "0,1,2", "--mode", "o")
        assert res.exit_code == 2

    def test_non_up_closed_without_close_exits_2(self, runner):
        res = run(runner, "heyting", "neg", "3", "0|1|2", "--mode", "o")
        assert res.exit_code == 2


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["spin_half", "spin_one"])
    def test_system_round_trip(self, name, tmp_path):
        first = dump_system(load_system(name))
        f = tmp_path / "sys.json"
        f.write_text(first)
        second = dump_system(load_system(str(f)))
        assert first == second

    def test_family_round_trip(self, tmp_path):
        first = dump_context_family(load_context_family("ks18_dim4"))
        f = tmp_path / "fam.json"
        f.write_text(first)
        second = dump_context_family(load_context_family(str(f)))
        assert first == second

    def test_bundled_path_variants(self):
        a = load_system("spin_one")
        assert set(a.operators) == {"Sx", "Sz", "Sx2"}
        assert set(a.states) == {"psi", "plus", "mixed"}


class TestDeterminism:
    def test_eval_byte_identical(self, runner):
        args = ("eval", "spin_one", "-v", "state:psi", "-p", "Sx in {1}", "--json")
        assert run(runner, *args).output == run(runner, *args).output

    def test_ks_byte_identical(self, runner):
        args = ("ks", "ks18_dim4", "--minimize", "--json")
        assert run(runner, *args).output == run(runner, *args).output

    def test_axioms_byte_identical(self, runner):
        args = ("axioms", "spin_one", "-v", "state:psi", "--json")
        assert run(runner, *args).output == run(runner, *args).output
