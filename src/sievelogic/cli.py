"""Command-line front end.

Subcommands: eval (one proposition under one valuation), axioms (full
audit of a valuation over a system's observables), ks (witness search
over context families), dot (partition-lattice export), heyting
(sieve algebra from the shell).

System files are JSON with format tag "sievelogic.system/1": a
dimension, named operators (dense matrices or explicit spectral data),
named states (vector, density or projector), optional tolerance
overrides (finite and non-negative, like those of --tol) and an
optional default mode token ("o" admits constant coarse-grainings,
"ostar" excludes them).  Context-family files use the
tag "sievelogic.contexts/1" and list contexts as rays into a shared
vector table or as explicit atom matrices.  Matrix entries are numbers
or [re, im] pairs; output always uses pairs.

Bare names (spin_half, spin_one, ks18_dim4) resolve to bundled data
when no file of that name exists.  Output is deterministic for fixed
input and flags.  Exit codes: 0 success/colorable, 1 axiom violation,
2 bad input (an unreadable or non-UTF-8 file included), 3 uncolorable.
"""
from __future__ import annotations

import itertools
import json
import re
from dataclasses import asdict, dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import click

from .errors import InputError, SieveLogicError
from .sieves import Mode, Partition, Sieve, all_partitions, lattice_dot, up_closure

# numpy and the linear-algebra layers are imported inside the functions
# that use them, so each command loads only what it runs.
if TYPE_CHECKING:
    import numpy as np

    from .ks_search import ContextFamily
    from .spectral import QuantumState, SpectralOperator, Tolerances
    from .valuations import GeneralizedValuation, Proposition

SYSTEM_FORMAT = "sievelogic.system/1"
CONTEXTS_FORMAT = "sievelogic.contexts/1"
BUNDLED = ("spin_half", "spin_one", "ks18_dim4")


# -- value (de)serialization ------------------------------------------

def _num_in(x, where: str) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(isinstance(t, (int, float)) for t in x):
        return complex(x[0], x[1])
    raise InputError(f"{where}: expected a number or [re, im] pair, got {x!r}")


def _matrix_in(rows, where: str) -> np.ndarray:
    import numpy as np

    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{where}: expected a list of rows")
    return np.array(
        [[_num_in(x, where) for x in row] for row in rows], dtype=complex
    )


def _vector_in(entries, where: str) -> np.ndarray:
    import numpy as np

    if not isinstance(entries, list) or not entries:
        raise InputError(f"{where}: expected a list of entries")
    return np.array([_num_in(x, where) for x in entries], dtype=complex)


def _num_out(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_out(m: np.ndarray) -> list:
    import numpy as np

    return [[_num_out(z) for z in row] for row in np.asarray(m)]


def _vector_out(v: np.ndarray) -> list:
    import numpy as np

    return [_num_out(z) for z in np.asarray(v).reshape(-1)]


def _fmt(v: float, digits: int = 6) -> str:
    # %g trims relative float noise; snap absolute noise near zero too
    if abs(v) < 1e-12:
        v = 0.0
    return f"{v:.{digits}g}"


def _formatter(values) -> Callable[[float], str]:
    """_fmt at %g's six significant digits, or at the fewest digits
    beyond that which print the given eigenvalues pairwise apart."""
    digits = 6
    while digits < 17 and len({_fmt(v, digits) for v in values}) < len(values):
        digits += 1
    return partial(_fmt, digits=digits)


# -- input loading ----------------------------------------------------

def _read_input(token: str) -> str:
    path = Path(token)
    if path.exists():
        try:
            return path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {token}: {e}") from e
    stem = token[:-5] if token.endswith(".json") else token
    if stem in BUNDLED:
        return (resources.files("sievelogic") / "data" / f"{stem}.json").read_text()
    raise InputError(f"no such file or bundled name: {token}")


def _parse_json(text: str, expected_format: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError("top level must be an object")
    fmt = data.get("format")
    if fmt != expected_format:
        raise InputError(f"format: expected {expected_format!r}, got {fmt!r}")
    return data


def _merge_tolerances(data: dict, cli_overrides: tuple[str, ...]) -> Tolerances:
    from .spectral import Tolerances

    file_part = data.get("tolerances", {})
    if not isinstance(file_part, dict):
        raise InputError("tolerances: expected an object")
    tol = Tolerances().replace(**file_part)
    pairs = {}
    for item in cli_overrides:
        key, sep, val = item.partition("=")
        if not sep:
            raise InputError(f"--tol: expected key=value, got {item!r}")
        try:
            pairs[key] = float(val)
        except ValueError:
            raise InputError(f"--tol {key}: not a number: {val!r}") from None
    return tol.replace(**pairs) if pairs else tol


@dataclass
class SystemData:
    dimension: int
    mode: Optional[Mode]
    tol: Tolerances
    operators: dict[str, SpectralOperator]
    states: dict[str, QuantumState]


def load_system(token: str, tol_overrides: tuple[str, ...] = ()) -> SystemData:
    from .spectral import QuantumState, decompose, from_spectral_data

    data = _parse_json(_read_input(token), SYSTEM_FORMAT)
    dim = data.get("dimension")
    if not isinstance(dim, int) or dim < 1:
        raise InputError("dimension: expected a positive integer")
    tol = _merge_tolerances(data, tol_overrides)
    mode = Mode.parse(data["mode"]) if "mode" in data else None

    operators: dict[str, SpectralOperator] = {}
    for name, entry in (data.get("operators") or {}).items():
        where = f"operator {name!r}"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected an object")
        try:
            if "matrix" in entry:
                operators[name] = decompose(_matrix_in(entry["matrix"], where), tol)
            elif "eigenvalues" in entry and "projectors" in entry:
                projs = tuple(_matrix_in(p, where) for p in entry["projectors"])
                operators[name] = from_spectral_data(entry["eigenvalues"], projs, tol)
            else:
                raise InputError("needs 'matrix' or 'eigenvalues' + 'projectors'")
        except SieveLogicError as e:
            raise InputError(f"{where}: {e}") from e
        if operators[name].dim != dim:
            raise InputError(f"{where}: dimension {operators[name].dim} != {dim}")

    states: dict[str, QuantumState] = {}
    for name, entry in (data.get("states") or {}).items():
        where = f"state {name!r}"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected an object")
        try:
            if "vector" in entry:
                states[name] = QuantumState.vector(_vector_in(entry["vector"], where), tol)
            elif "density" in entry:
                states[name] = QuantumState.density(_matrix_in(entry["density"], where), tol)
            elif "projector" in entry:
                states[name] = QuantumState.projector(_matrix_in(entry["projector"], where), tol)
            else:
                raise InputError("needs 'vector', 'density' or 'projector'")
        except SieveLogicError as e:
            raise InputError(f"{where}: {e}") from e
        if states[name].dim != dim:
            raise InputError(f"{where}: dimension {states[name].dim} != {dim}")

    return SystemData(dim, mode, tol, operators, states)


def dump_system(system: SystemData) -> str:
    data: dict = {"format": SYSTEM_FORMAT, "dimension": system.dimension}
    if system.mode is not None:
        data["mode"] = system.mode.value
    data["tolerances"] = asdict(system.tol)
    data["operators"] = {
        name: {
            "eigenvalues": list(op.eigenvalues),
            "projectors": [_matrix_out(p) for p in op.projectors],
        }
        for name, op in system.operators.items()
    }
    def _state_out(s: QuantumState) -> dict:
        if s.kind == "vector":
            return {"vector": _vector_out(s.payload)}
        return {s.kind: _matrix_out(s.payload)}
    data["states"] = {name: _state_out(s) for name, s in system.states.items()}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@dataclass
class FamilyData:
    family: ContextFamily
    names: list[str]


def load_context_family(token: str, tol_overrides: tuple[str, ...] = ()) -> FamilyData:
    from .contexts import BooleanContext, context_from_vectors
    from .ks_search import ContextFamily

    data = _parse_json(_read_input(token), CONTEXTS_FORMAT)
    dim = data.get("dimension")
    if not isinstance(dim, int) or dim < 1:
        raise InputError("dimension: expected a positive integer")
    tol = _merge_tolerances(data, tol_overrides)
    vectors = {}
    for name, entry in (data.get("vectors") or {}).items():
        vectors[name] = _vector_in(entry, f"vector {name!r}")
        if vectors[name].shape != (dim,):
            raise InputError(f"vector {name!r}: expected {dim} entries")
    raw = data.get("contexts")
    if not isinstance(raw, list) or not raw:
        raise InputError("contexts: expected a nonempty list")
    contexts = []
    names = []
    for i, entry in enumerate(raw):
        name = entry.get("name", f"context{i}") if isinstance(entry, dict) else None
        where = f"context {name!r}"
        if not isinstance(entry, dict):
            raise InputError(f"context {i}: expected an object")
        try:
            if "rays" in entry:
                missing = [r for r in entry["rays"] if r not in vectors]
                if missing:
                    raise InputError(f"unknown ray name {missing[0]!r}")
                ctx = context_from_vectors([vectors[r] for r in entry["rays"]], tol)
            elif "atoms" in entry:
                ctx = BooleanContext([_matrix_in(a, where) for a in entry["atoms"]], tol)
            else:
                raise InputError("needs 'rays' or 'atoms'")
        except SieveLogicError as e:
            raise InputError(f"{where}: {e}") from e
        if ctx.dim != dim:
            raise InputError(f"{where}: dimension {ctx.dim} != {dim}")
        contexts.append(ctx)
        names.append(name)
    return FamilyData(ContextFamily(contexts, tol), names)


def dump_context_family(fam: FamilyData) -> str:
    data = {
        "format": CONTEXTS_FORMAT,
        "dimension": fam.family.dim,
        "contexts": [
            {"name": name, "atoms": [_matrix_out(a) for a in ctx.atoms]}
            for name, ctx in zip(fam.names, fam.family.contexts)
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- command argument parsing -----------------------------------------

def _resolve_mode(flag: Optional[str], system: SystemData) -> Mode:
    if flag is not None:
        return Mode.parse(flag)
    if system.mode is not None:
        return system.mode
    raise InputError("no sieve mode: pass --mode o|ostar or set \"mode\" in the file")


def _lookup(table: dict, kind: str, name: str):
    """The named operator or state of a system file."""
    if name not in table:
        raise InputError(f"unknown {kind} {name!r}; available: {', '.join(sorted(table))}")
    return table[name]


def build_valuation(spec: str, system: SystemData, mode: Mode) -> GeneralizedValuation:
    """Parse a valuation spec: state:<name>, threshold:<name>:<r>, or
    partial:<operator>=<eigenvalue>."""
    from .valuations import GeneralizedValuation, PartialValuation

    head, _, rest = spec.partition(":")
    if head == "state" and rest:
        return GeneralizedValuation.from_state(_lookup(system.states, "state", rest), mode, system.tol)
    if head == "threshold" and rest:
        name, sep, r_text = rest.rpartition(":")
        if not sep:
            raise InputError("threshold spec: expected threshold:<state>:<r>")
        try:
            r = float(r_text)
        except ValueError:
            raise InputError(f"threshold spec: not a number: {r_text!r}") from None
        return GeneralizedValuation.threshold(_lookup(system.states, "state", name), r, mode, system.tol)
    if head == "partial" and rest:
        name, sep, v_text = rest.partition("=")
        if not sep:
            raise InputError("partial spec: expected partial:<operator>=<eigenvalue>")
        op = _lookup(system.operators, "operator", name)
        try:
            value = float(v_text)
        except ValueError:
            raise InputError(f"partial spec: not a number: {v_text!r}") from None
        try:
            idx = op.eigenvalue_index(value, system.tol.eps_group)
        except SieveLogicError as e:
            raise InputError(f"partial spec: {e}") from e
        return GeneralizedValuation.from_partial(
            PartialValuation.maximal(op, idx, system.tol), mode, system.tol
        )
    raise InputError(
        f"bad valuation spec {spec!r}; expected state:<name>, "
        "threshold:<name>:<r>, or partial:<operator>=<eigenvalue>"
    )


_PROP_RE = re.compile(r"^\s*(\S+)\s+in\s+\{([^{}]*)\}\s*$")


def parse_proposition(
    text: str, system: SystemData, by_index: bool = False
) -> tuple[str, Proposition]:
    """Parse "<operator> in {v1, v2, ...}"; numbers are eigenvalues
    matched within eps_group, or indices with by_index."""
    from .valuations import Proposition

    m = _PROP_RE.match(text)
    if not m:
        raise InputError(f"bad proposition {text!r}; expected \"<operator> in {{v1,v2}}\"")
    name, body = m.group(1), m.group(2)
    op = _lookup(system.operators, "operator", name)
    entries = [s.strip() for s in body.split(",") if s.strip()]
    if by_index:
        try:
            indices = frozenset(int(s) for s in entries)
        except ValueError:
            raise InputError(f"proposition indices must be integers: {body!r}") from None
        return name, Proposition(op, indices)
    try:
        values = [float(s) for s in entries]
    except ValueError:
        raise InputError(f"proposition values must be numbers: {body!r}") from None
    try:
        return name, Proposition.by_values(op, values, system.tol.eps_group)
    except SieveLogicError as e:
        raise InputError(f"proposition: {e}") from e


def _sieve_lines(sieve: Sieve, values) -> list[str]:
    fmt = _formatter(values)
    return [p.format(values, fmt) for p in sieve]


def _sieve_json(sieve: Sieve) -> dict:
    return {
        "mode": sieve.mode.value,
        "k": sieve.k,
        "partitions": [[list(b) for b in p.blocks] for p in sieve],
        "classification": sieve.classify().value,
    }


def parse_sieve_text(text: str, k: int, mode: Mode, close: bool = False) -> Sieve:
    """Parse a sieve given as semicolon-separated partitions of 0-based
    indices, blocks separated by '|', e.g. "0,2|1; 0,1,2"."""
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        blocks = []
        for block_text in chunk.split("|"):
            entries = [s.strip() for s in block_text.split(",") if s.strip()]
            try:
                blocks.append([int(s) for s in entries])
            except ValueError:
                raise InputError(f"bad partition {chunk!r}: indices must be integers") from None
        parts.append(Partition.of(blocks))
    if close:
        return up_closure(k, mode, parts)
    return Sieve(k, mode, parts)


# -- commands ---------------------------------------------------------

def _fail(e: Exception) -> None:
    click.echo(f"error: {e}", err=True)
    raise SystemExit(2)


@click.group()
@click.version_option(package_name="sievelogic")
def main() -> None:
    """Sieve-valued truth assignments for finite quantum systems."""


@main.command("eval")
@click.argument("system_file")
@click.option("--valuation", "-v", required=True, help="state:<name> | threshold:<name>:<r> | partial:<op>=<eigenvalue>")
@click.option("--proposition", "-p", required=True, help='"<operator> in {v1,v2}"')
@click.option("--mode", "mode_flag", type=click.Choice(["o", "ostar"]), default=None)
@click.option("--by-index", is_flag=True, help="read proposition entries as eigenvalue indices")
@click.option("--json", "as_json", is_flag=True)
@click.option("--tol", multiple=True, metavar="KEY=VAL")
def cmd_eval(system_file, valuation, proposition, mode_flag, by_index, as_json, tol):
    """Print the sieve and classification of one proposition."""
    try:
        system = load_system(system_file, tol)
        mode = _resolve_mode(mode_flag, system)
        nu = build_valuation(valuation, system, mode)
        name, prop = parse_proposition(proposition, system, by_index)
        sieve = nu.evaluate(prop)
    except SieveLogicError as e:
        _fail(e)
    if as_json:
        payload = {"operator": name, "indices": sorted(prop.indices), **_sieve_json(sieve)}
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in _sieve_lines(sieve, prop.operator.eigenvalues):
            click.echo(line)
        click.echo(f"classification: {sieve.classify().value}")


@main.command("axioms")
@click.argument("system_file")
@click.option("--valuation", "-v", required=True)
@click.option("--operator", "only", default=None, help="restrict the audit to one operator")
@click.option("--mode", "mode_flag", type=click.Choice(["o", "ostar"]), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--tol", multiple=True, metavar="KEY=VAL")
def cmd_axioms(system_file, valuation, only, mode_flag, as_json, tol):
    """Audit a valuation: axioms, functional rule, naturality, and the
    disjunction-strength tally for every operator."""
    from .valuations import DisjunctionStrength, check_axioms, check_disjunction_strength, check_naturality

    try:
        system = load_system(system_file, tol)
        mode = _resolve_mode(mode_flag, system)
        nu = build_valuation(valuation, system, mode)
        names = [only] if only else list(system.operators)
        reports = []
        for name in names:
            op = _lookup(system.operators, "operator", name)
            rep = check_axioms(nu, op)
            rep.title = f"{name}: {rep.title}"
            reports.append(rep)
            for p in all_partitions(op.k):
                nat = check_naturality(nu, op, [float(p.block_of(i)) for i in range(op.k)])
                nat.title = f"{name}: {nat.title} ({p})"
                reports.append(nat)
            equal = strict = 0
            for d1, d2 in _disjoint_pairs(op.k):
                outcome = check_disjunction_strength(nu, op, d1, d2)
                if outcome is DisjunctionStrength.EQUALITY:
                    equal += 1
                else:
                    strict += 1
            reports[-1].notes.append(
                f"{name}: disjunction strength on disjoint pairs: {equal} equalities, {strict} strict"
            )
    except SieveLogicError as e:
        _fail(e)
    ok = all(r.ok for r in reports)
    if as_json:
        payload = {
            "ok": ok,
            "reports": [
                {"title": r.title, "checks": r.checks, "violations": r.violations, "notes": r.notes}
                for r in reports
            ],
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            click.echo(str(r))
    raise SystemExit(0 if ok else 1)


def _disjoint_pairs(k: int):
    subsets = [
        frozenset(c)
        for n in range(1, k + 1)
        for c in itertools.combinations(range(k), n)
    ]
    for d1, d2 in itertools.combinations(subsets, 2):
        if not (d1 & d2):
            yield d1, d2


@main.command("ks")
@click.argument("context_file")
@click.option("--witness", "show_witness", is_flag=True, help="print the chosen atom per context")
@click.option("--minimize", "minimize", is_flag=True, help="shrink an uncolorable family to an inclusion-minimal one")
@click.option("--json", "as_json", is_flag=True)
@click.option("--tol", multiple=True, metavar="KEY=VAL")
def cmd_ks(context_file, show_witness, minimize, as_json, tol):
    """Search for a global 0/1 valuation over a context family."""
    from .ks_search import minimal_uncolorable_subfamily, search_dual_section

    try:
        fam = load_context_family(context_file, tol)
        witness = search_dual_section(fam.family)
        minimal_names = None
        if witness is None and minimize:
            sub = minimal_uncolorable_subfamily(fam.family)
            kept = {id(c) for c in sub.contexts}
            minimal_names = [
                name for name, ctx in zip(fam.names, fam.family.contexts) if id(ctx) in kept
            ]
    except SieveLogicError as e:
        _fail(e)
    colorable = witness is not None
    if as_json:
        payload = {"colorable": colorable}
        if colorable and show_witness:
            payload["witness"] = {
                name: atom for name, atom in zip(fam.names, witness.chosen)
            }
        if minimal_names is not None:
            payload["minimal_subfamily"] = minimal_names
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        click.echo("colorable" if colorable else "uncolorable")
        if colorable and show_witness:
            for name, atom in zip(fam.names, witness.chosen):
                click.echo(f"{name}: atom {atom}")
        if minimal_names is not None:
            click.echo("minimal uncolorable subfamily: " + ", ".join(minimal_names))
    raise SystemExit(0 if colorable else 3)


@main.command("dot")
@click.argument("system_file")
@click.argument("operator_name")
@click.option("--valuation", "-v", default=None)
@click.option("--proposition", "-p", default=None)
@click.option("--mode", "mode_flag", type=click.Choice(["o", "ostar"]), default=None)
@click.option("--by-index", is_flag=True)
@click.option("--tol", multiple=True, metavar="KEY=VAL")
def cmd_dot(system_file, operator_name, valuation, proposition, mode_flag, by_index, tol):
    """Emit the partition lattice of one operator as DOT, highlighting a
    sieve when a valuation and proposition are given."""
    try:
        system = load_system(system_file, tol)
        mode = _resolve_mode(mode_flag, system)
        op = _lookup(system.operators, "operator", operator_name)
        sieve = None
        if (valuation is None) != (proposition is None):
            raise InputError("--valuation and --proposition go together")
        if valuation is not None:
            nu = build_valuation(valuation, system, mode)
            _, prop = parse_proposition(proposition, system, by_index)
            if prop.operator is not op:
                raise InputError("proposition must target the drawn operator")
            sieve = nu.evaluate(prop)
        text = lattice_dot(op.k, mode, sieve=sieve, values=op.eigenvalues, fmt=_formatter(op.eigenvalues))
    except SieveLogicError as e:
        _fail(e)
    click.echo(text, nl=False)


@main.command("heyting")
@click.argument("operation", type=click.Choice(["meet", "join", "implies", "neg"]))
@click.argument("k", type=int)
@click.argument("sieves", nargs=-1)
@click.option("--mode", "mode_flag", type=click.Choice(["o", "ostar"]), required=True)
@click.option("--close", is_flag=True, help="take the up-closure of the listed partitions")
@click.option("--json", "as_json", is_flag=True)
def cmd_heyting(operation, k, sieves, mode_flag, close, as_json):
    """Combine sieves given as semicolon-separated partitions, e.g.
    "0,2|1; 0,1,2" for the k=3 sieve with two members."""
    try:
        mode = Mode.parse(mode_flag)
        need = 1 if operation == "neg" else 2
        if len(sieves) != need:
            raise InputError(f"{operation} takes exactly {need} sieve argument(s)")
        parsed = [parse_sieve_text(s, k, mode, close) for s in sieves]
        if operation == "neg":
            result = parsed[0].neg()
        elif operation == "meet":
            result = parsed[0].meet(parsed[1])
        elif operation == "join":
            result = parsed[0].join(parsed[1])
        else:
            result = parsed[0].implies(parsed[1])
    except SieveLogicError as e:
        _fail(e)
    if as_json:
        click.echo(json.dumps(_sieve_json(result), indent=2, sort_keys=True))
    else:
        for p in result:
            click.echo(str(p))
        click.echo(f"classification: {result.classify().value}")


if __name__ == "__main__":
    main()
