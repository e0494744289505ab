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
A file value of the wrong JSON type (a non-object section, a non-list,
a ragged matrix, a bool as the dimension, as an eigenvalue or as a matrix
or vector entry, a non-string or repeated context name) is bad input; its
message names its location.
"""
from __future__ import annotations

import itertools
import json
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import click

from . import __version__
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
#
# One accessor per JSON shape: a file value of the wrong type raises
# InputError, and `_at` puts its location in front of the message once.

@contextmanager
def _at(where: str):
    try:
        yield
    except SieveLogicError as e:
        raise InputError(f"{where}: {e}") from e


def _object(x) -> dict:
    if not isinstance(x, dict):
        raise InputError("expected an object")
    return x


def _list(x) -> list:
    if not isinstance(x, list) or not x:
        raise InputError("expected a nonempty list")
    return x


def _is_real(t) -> bool:
    """Whether a JSON value is a number; a bool is not one, though
    Python counts it as an int."""
    return isinstance(t, (int, float)) and not isinstance(t, bool)


def _number(x) -> complex:
    pair = x if isinstance(x, list) and len(x) == 2 else [x, 0]
    try:
        if all(_is_real(t) for t in pair):
            return complex(*pair)
    except OverflowError:  # an int beyond the float range
        pass
    raise InputError(f"expected a number or [re, im] pair, got {x!r}")


def _reals(x, what: str) -> list:
    """A list of JSON numbers; the spectral layer checks that each is
    finite and names a bad one the same way."""
    if not isinstance(x, list):
        raise InputError(f"expected a sequence of {what}s, got {x!r}")
    for i, t in enumerate(x):
        if not _is_real(t):
            raise InputError(f"{what} {t!r} at index {i} is not a finite real")
    return x


def _matrix_in(rows) -> np.ndarray:
    import numpy as np

    rows = [_list(r) for r in _list(rows)]
    if len({len(r) for r in rows}) > 1:
        raise InputError("rows differ in length")
    return np.array([[_number(x) for x in row] for row in rows], dtype=complex)


def _vector_in(entries) -> np.ndarray:
    return _matrix_in([entries])[0]


def _text_number(kind: type, text: str, what: str):
    """int(text) or float(text) of a command-line value."""
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{what}: {text!r}") from None


def _num_out(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_out(m: np.ndarray) -> list:
    import numpy as np

    return [[_num_out(z) for z in row] for row in np.asarray(m)]


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

def _read(token: str, expected_format: str, tol_overrides: tuple[str, ...]) -> tuple[dict, int, Tolerances]:
    """The top-level object of a system or context-family file (a path,
    or a bundled name), its checked dimension and merged tolerances."""
    path = Path(token)
    stem = token[:-5] if token.endswith(".json") else token
    if path.exists():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {token}: {e}") from e
    elif stem in BUNDLED:
        text = (resources.files("sievelogic") / "data" / f"{stem}.json").read_text()
    else:
        raise InputError(f"no such file or bundled name: {token}")
    try:
        data = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an int past the digit limit
        raise InputError(f"invalid JSON: {e}") from e
    with _at("top level"):
        _object(data)
    if data.get("format") != expected_format:
        raise InputError(f"format: expected {expected_format!r}, got {data.get('format')!r}")
    dim = data.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("dimension: expected a positive integer")
    return data, dim, _merge_tolerances(data, tol_overrides)


def _merge_tolerances(data: dict, cli_overrides: tuple[str, ...]) -> Tolerances:
    from .spectral import Tolerances

    tol = Tolerances().replace(**_section(data, "tolerances"))
    pairs = {}
    for item in cli_overrides:
        key, sep, val = item.partition("=")
        if not sep:
            raise InputError(f"--tol: expected key=value, got {item!r}")
        pairs[key] = _text_number(float, val, f"--tol {key}: not a number")
    return tol.replace(**pairs) if pairs else tol


def _section(data: dict, key: str) -> dict:
    with _at(key):
        return _object(data.get(key, {}))


def _entries(noun: str, pairs, build: Callable, dim: int, dim_of: Callable = lambda v: v.dim) -> list:
    """(name, value) for each named entry of a file section; an error
    names the entry, and each value must have the file's dimension."""
    out = []
    for name, entry in pairs:
        with _at(f"{noun} {name!r}"):
            value = build(entry)
            if dim_of(value) != dim:
                raise InputError(f"dimension {dim_of(value)} != {dim}")
        out.append((name, value))
    return out


@dataclass
class SystemData:
    dimension: int
    mode: Optional[Mode]
    tol: Tolerances
    operators: dict[str, SpectralOperator]
    states: dict[str, QuantumState]


def load_system(token: str, tol_overrides: tuple[str, ...] = ()) -> SystemData:
    from .spectral import QuantumState, decompose, from_spectral_data

    data, dim, tol = _read(token, SYSTEM_FORMAT, tol_overrides)
    mode = Mode.parse(data["mode"]) if "mode" in data else None

    def operator(entry) -> SpectralOperator:
        if "matrix" in _object(entry):
            return decompose(_matrix_in(entry["matrix"]), tol)
        if "eigenvalues" in entry and "projectors" in entry:
            projs = [_matrix_in(p) for p in _list(entry["projectors"])]
            return from_spectral_data(_reals(entry["eigenvalues"], "eigenvalue"), projs, tol)
        raise InputError("needs 'matrix' or 'eigenvalues' + 'projectors'")

    def state(entry) -> QuantumState:
        for kind, parse in (("vector", _vector_in), ("density", _matrix_in), ("projector", _matrix_in)):
            if kind in _object(entry):
                return getattr(QuantumState, kind)(parse(entry[kind]), tol)
        raise InputError("needs 'vector', 'density' or 'projector'")

    operators = _entries("operator", _section(data, "operators").items(), operator, dim)
    states = _entries("state", _section(data, "states").items(), state, dim)
    return SystemData(dim, mode, tol, dict(operators), dict(states))


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
            return {"vector": _matrix_out([s.payload])[0]}
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

    data, dim, tol = _read(token, CONTEXTS_FORMAT, tol_overrides)
    vectors = dict(_entries("vector", _section(data, "vectors").items(), _vector_in, dim, len))

    def context(entry) -> BooleanContext:
        if "rays" in entry:
            rays = _list(entry["rays"])
            missing = [r for r in rays if not isinstance(r, str) or r not in vectors]
            if missing:
                raise InputError(f"unknown ray name {missing[0]!r}")
            return context_from_vectors([vectors[r] for r in rays], tol)
        if "atoms" in entry:
            return BooleanContext([_matrix_in(a) for a in _list(entry["atoms"])], tol)
        raise InputError("needs 'rays' or 'atoms'")

    with _at("contexts"):
        raw = _list(data.get("contexts"))
    names: list[str] = []
    for i, entry in enumerate(raw):
        names.append(_context_name(i, entry, names))
    contexts = _entries("context", zip(names, raw), context, dim)
    return FamilyData(ContextFamily([c for _, c in contexts], tol), names)


def _context_name(i: int, entry, earlier: list[str]) -> str:
    """The name of context i, distinct from the names before it: the
    text output and the JSON witness are keyed by name."""
    with _at(f"context {i}"):
        name = _object(entry).get("name", f"context{i}")
        if not isinstance(name, str):
            raise InputError(f"name: expected a string, got {name!r}")
        if name in earlier:
            raise InputError(f"name {name!r} repeats that of context {earlier.index(name)}")
    return name


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
        r = _text_number(float, r_text, "threshold spec: not a number")
        return GeneralizedValuation.threshold(_lookup(system.states, "state", name), r, mode, system.tol)
    if head == "partial" and rest:
        name, sep, v_text = rest.partition("=")
        if not sep:
            raise InputError("partial spec: expected partial:<operator>=<eigenvalue>")
        op = _lookup(system.operators, "operator", name)
        value = _text_number(float, v_text, "partial spec: not a number")
        with _at("partial spec"):
            idx = op.eigenvalue_index(value, system.tol.eps_group)
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
        indices = frozenset(_text_number(int, s, "proposition indices must be integers") for s in entries)
        return name, Proposition(op, indices)
    values = [_text_number(float, s, "proposition values must be numbers") for s in entries]
    with _at("proposition"):
        return name, Proposition.by_values(op, values, system.tol.eps_group)


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
            blocks.append([_text_number(int, s, f"bad partition {chunk!r}: not an integer") for s in entries])
        parts.append(Partition.of(blocks))
    if close:
        return up_closure(k, mode, parts)
    return Sieve(k, mode, parts)


# -- commands ---------------------------------------------------------

class _Main(click.Group):
    """The command group: any SieveLogicError a command raises is bad
    input, printed as `error: <message>` on stderr with exit code 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SieveLogicError as e:
            click.echo(f"error: {e}", err=True)
            raise SystemExit(2) from None


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="sievelogic")
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
    system = load_system(system_file, tol)
    mode = _resolve_mode(mode_flag, system)
    nu = build_valuation(valuation, system, mode)
    name, prop = parse_proposition(proposition, system, by_index)
    sieve = nu.evaluate(prop)
    if as_json:
        payload = {"operator": name, "indices": sorted(prop.indices), **_sieve_json(sieve)}
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        values = prop.operator.eigenvalues
        fmt = _formatter(values)
        for p in sieve:
            click.echo(p.format(values, fmt))
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
        outcomes = [check_disjunction_strength(nu, op, d1, d2) for d1, d2 in _disjoint_pairs(op.k)]
        equal = outcomes.count(DisjunctionStrength.EQUALITY)
        strict = len(outcomes) - equal
        reports[-1].notes.append(
            f"{name}: disjunction strength on disjoint pairs: {equal} equalities, {strict} strict"
        )
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

    fam = load_context_family(context_file, tol)
    witness = search_dual_section(fam.family)
    minimal_names = None
    if witness is None and minimize:
        sub = minimal_uncolorable_subfamily(fam.family)
        kept = {id(c) for c in sub.contexts}
        minimal_names = [
            name for name, ctx in zip(fam.names, fam.family.contexts) if id(ctx) in kept
        ]
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
    mode = Mode.parse(mode_flag)
    need = 1 if operation == "neg" else 2
    if len(sieves) != need:
        raise InputError(f"{operation} takes exactly {need} sieve argument(s)")
    first, *rest = (parse_sieve_text(s, k, mode, close) for s in sieves)
    result = getattr(first, operation)(*rest)
    if as_json:
        click.echo(json.dumps(_sieve_json(result), indent=2, sort_keys=True))
    else:
        for p in result:
            click.echo(str(p))
        click.echo(f"classification: {result.classify().value}")


if __name__ == "__main__":
    main()
