"""Byte-identity of the CLI on the bundled examples.

Every invocation of a (command, system) group runs in-process; its
arguments, exit code and stdout are folded into one SHA-256 per group,
which must equal the digest recorded below.  A refactor that changes any
printed byte or exit code on these inputs fails here.  After an intended
output change, print the new digests with

    PYTHONPATH=src python tests/test_cli_golden.py

and replace GOLDEN with them.
"""
import hashlib
import itertools
import json

import pytest
from click.testing import CliRunner

from sievelogic.cli import main

MODES = ("o", "ostar")

# Valuation specs per system: every state, a threshold at two cut-offs
# (on a vector state too, an error path), and every partial anchor.
SPECS = {
    "spin_half": [
        "state:psi", "state:up", "state:mixed",
        "threshold:mixed:0.5", "threshold:mixed:0.9", "threshold:psi:0.5",
        *(f"partial:{op}={v}" for op in ("Sz", "Sx", "Sy") for v in ("-0.5", "0.5")),
    ],
    "spin_one": [
        "state:psi", "state:plus", "state:mixed",
        "threshold:mixed:0.5", "threshold:mixed:0.9", "threshold:psi:0.5",
        "partial:Sx=-1", "partial:Sx=0", "partial:Sx=1",
        "partial:Sz=-0.7071067811865476", "partial:Sz=0", "partial:Sz=0.7071067811865476",
        "partial:Sx2=0", "partial:Sx2=1",
    ],
}
OPERATORS = {"spin_half": {"Sz": 2, "Sx": 2, "Sy": 2}, "spin_one": {"Sx": 3, "Sz": 3, "Sx2": 2}}
SIEVES_K3 = ["", "0,1,2", "0,2|1; 0,1,2", "0|1,2", "0|1|2"]


def _propositions(system):
    for op, k in OPERATORS[system].items():
        for n in range(k + 1):
            for subset in itertools.combinations(range(k), n):
                yield op, f"{op} in {{{','.join(map(str, subset))}}}"


def _invocations(command, system):
    if command == "eval":
        for mode, spec, (_, prop) in itertools.product(MODES, SPECS[system], _propositions(system)):
            yield ["eval", system, "-v", spec, "-p", prop, "--by-index", "--mode", mode]
        for _, prop in _propositions(system):
            yield ["eval", system, "-v", SPECS[system][0], "-p", prop, "--by-index", "--json"]
    elif command == "dot":
        for mode, op in itertools.product(MODES, OPERATORS[system]):
            yield ["dot", system, op, "--mode", mode]
        for mode, spec, (op, prop) in itertools.product(MODES, SPECS[system], _propositions(system)):
            yield ["dot", system, op, "-v", spec, "-p", prop, "--by-index", "--mode", mode]
    elif command == "axioms":
        for mode, spec, as_json in itertools.product(MODES, SPECS[system], (False, True)):
            yield ["axioms", system, "-v", spec, "--mode", mode] + (["--json"] if as_json else [])
    elif command == "ks":
        for flags in itertools.product(([], ["--witness"]), ([], ["--minimize"]), ([], ["--json"])):
            yield ["ks", system, *itertools.chain(*flags)]
    elif command == "heyting":
        for mode in MODES:
            for text in SIEVES_K3:
                yield ["heyting", "neg", "3", text, "--mode", mode, "--close"]
                yield ["heyting", "neg", "3", text, "--mode", mode]
            for op, (s, t) in itertools.product(("meet", "join", "implies"), itertools.product(SIEVES_K3, repeat=2)):
                yield ["heyting", op, "3", s, t, "--mode", mode, "--close"]
            for op in ("meet", "join", "implies", "neg"):
                yield ["heyting", op, "3", *SIEVES_K3[2:4][: 1 if op == "neg" else 2], "--mode", mode, "--json"]
    else:
        raise ValueError(command)


def digest(command, system):
    """SHA-256 over (arguments, exit code, stdout) of every invocation of
    one group, and the number of invocations."""
    runner = CliRunner()
    h = hashlib.sha256()
    count = 0
    for args in _invocations(command, system):
        res = runner.invoke(main, args, catch_exceptions=False)
        h.update(json.dumps(args).encode() + b"\0" + str(res.exit_code).encode() + b"\0")
        h.update(res.stdout_bytes + b"\0")
        count += 1
    return h.hexdigest(), count


GOLDEN = {
    ('eval', 'spin_half'): ('f79c69011f5246780f2be3fbbf775ad68aeaf652ce0dfa76101b35e4ffca8540', 300),
    ('eval', 'spin_one'): ('46b4e00036cd950956bc736eeed401327163a3beaf92b82411758d076a2fdfe0', 580),
    ('dot', 'spin_half'): ('b4a097322290c95bbd9e15831fafc81af85ec1bd30ec7e5c07474697e2a20578', 294),
    ('dot', 'spin_one'): ('4244a8c35bbbb7f3c465f034f0c3bb2c249b9a449b8a2abf7dbefb632455a07e', 566),
    ('axioms', 'spin_half'): ('159efe723ac0d3ce72945e5a42f38a398c560668933adf5a299b9364203402e6', 48),
    ('axioms', 'spin_one'): ('dd1fcef42c8c7c9668e2411f136338d464a87df9e86d2b3b2a1ee6b639d22b65', 56),
    ('ks', 'ks18_dim4'): ('43fedd59199538661394ff1eb5283d6850cfd597499697159ea9b0479ac98032', 8),
    ('heyting', 'k3'): ('22755788a23e670a4840e28446dc99c9fbd1992b0adc2e2ffa240de180998235', 178),
}


@pytest.mark.parametrize("command,system", list(GOLDEN))
def test_cli_output_matches_golden_digest(command, system):
    assert digest(command, system) == GOLDEN[(command, system)]


if __name__ == "__main__":
    for group in GOLDEN:
        print(f"    {group!r}: {digest(*group)!r},")
