"""Source-layout rules for the package, checked on its syntax trees.

No module imports a private (single-underscore) name from a sibling, no
module other than ``__init__`` imports a name it never uses, and no module
other than ``sampling`` touches a random-number source: every Monte Carlo
sample comes from its engine, which draws only uniforms and random bytes.
Every package name the benchmark under
``perfbench/`` calls or traces exists, and every call it makes binds to the
signature of the function it calls, so a deletion cannot break it silently,
and every name the package exports is used by the package or the benchmark.
Each rule that several modules share has one owner: only ``bounds.fsum_inf``
calls ``math.fsum``, only ``bounds.comparator_tail`` takes the chi tail of
u / scale and only ``bounds.comparator_bounds`` takes the array of them,
only ``bounds._bound_result`` builds a ``BoundResult``, for
``comparator_bound`` and ``comparator_bounds`` alone, only ``cli._Parser`` parses known arguments, only
``sampling._angle_rule`` builds the Gauss-Legendre rule on which
``sampling.cos_rule`` integrates against the law of C, no module calls the
numerical references ``is_bisubharmonic_numeric`` and ``chi_expectation``
(``check bisub``, ``gauss`` and ``bc`` decide bisubharmonicity by
``moment_compare.bisub_rule`` alone), ``cos_marginal`` and the draws
``_cos_draw`` and ``_cos_column`` behind it evaluate no cosine or sine, only ``report.csv_text`` and ``report.json_text`` write CSV
and JSON (``cli`` imports neither ``csv``, ``io`` nor ``json``), only
``bounds.pow2_above`` picks a power-of-two scaling, every comparator scale
goes through ``bounds.scales``, and the messages of the alpha, threshold and
command-line usage checks are each written once.
Importing the package loads neither ``scipy.stats``, which it does not
need, nor ``scipy.integrate``, which one function needs.  The benchmark's
``perfbench/selftest.py`` passes, so no change to the package breaks the
benchmark's output checks unseen.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spheretail"
BENCH = ROOT / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "sampling.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("spheretail"))
        for alias in node.names
        if _is_private(alias.name)
    ]
    assert not private, f"{path.name} imports private names: {private}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} has unused imports: {unused}"


#: names through which random numbers are drawn
RANDOM_NAMES = {"RngStream", "cos_marginal", "random", "default_rng", "generator"}


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name not in ("sampling.py", "__init__.py")],
    ids=lambda p: p.name,
)
def test_only_sampling_draws_random_numbers(path):
    # __init__ only re-exports RngStream as part of the public API
    uses = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        uses += [f"line {node.lineno}: {name}" for name in names if name in RANDOM_NAMES]
    assert not uses, f"{path.name} draws random numbers outside the engine: {uses}"


def test_sampling_draws_only_uniforms_and_bytes():
    # every law of C is a closed form of uniforms (or random bytes at d = 1),
    # so a second sampler path, such as numpy's Beta, cannot come back
    # without a benchmark to pay for it
    methods = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    called = {
        node.func.attr
        for node in ast.walk(_tree(PACKAGE / "sampling.py"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    extra = sorted(called & methods - {"random", "uniform", "integers"})
    assert "random" in called
    assert not extra, f"sampling.py draws through Generator.{extra}"


def _spheretail_aliases(tree: ast.Module) -> dict[str, str]:
    """Local alias -> module for each spheretail import in TREE, e.g.
    st -> spheretail, st_cli -> spheretail.cli."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "spheretail"
    }


def test_benchmark_calls_only_existing_names():
    tree = _tree(BENCH / "workloads.py")
    aliases = _spheretail_aliases(tree)
    assert "spheretail" in aliases.values()
    missing = sorted(
        f"line {node.lineno}: {aliases[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and not hasattr(importlib.import_module(aliases[node.value.id]), node.attr)
    )
    assert not missing, f"perfbench/workloads.py calls missing names: {missing}"


def test_benchmark_calls_bind_to_signatures():
    # deleting a parameter that a benchmark call passes must fail here, not in the benchmark
    tree = _tree(BENCH / "workloads.py")
    aliases = _spheretail_aliases(tree)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) in aliases
    ]
    assert calls
    unbound = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        assert all(k.arg is not None for k in call.keywords), ast.unparse(call)
        target = getattr(importlib.import_module(aliases[call.func.value.id]), call.func.attr)
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {ast.unparse(call)}: {exc}")
    assert not unbound, f"perfbench/workloads.py calls that do not bind: {unbound}"


def _traced_pairs() -> list[tuple[str, str]]:
    """The (module, function) pairs of ``TRACED`` in perfbench/spans.py."""
    traced = next(
        node.value
        for node in _tree(BENCH / "spans.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    return [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in traced.elts]


def test_benchmark_traces_only_existing_functions():
    pairs = _traced_pairs()
    assert pairs
    missing = [
        f"{home}.{name}"
        for home, name in pairs
        if not hasattr(importlib.import_module(f"spheretail.{home}"), name)
    ]
    assert not missing, f"perfbench/spans.py traces missing functions: {missing}"


def _names_read(tree: ast.Module) -> set[str]:
    """Names the code in TREE reads, bare or as ``alias.name`` of an imported
    spheretail module, outside the def or class statement that defines them."""
    aliases = _spheretail_aliases(tree)
    read = set()

    def visit(node: ast.AST, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining |= {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            name = node.attr
        if name is not None and name not in defining:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return read


def test_every_export_is_used_by_program_code():
    exported = {
        alias.asname or alias.name
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    programs = [p for p in MODULES if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    read = set().union(*(_names_read(_tree(path)) for path in programs))
    read |= {name for _, name in _traced_pairs()}  # spans.py wraps these by name
    unused = sorted(exported - read)
    assert not unused, f"spheretail exports names no program code uses: {unused}"


def _callers_of(name: str) -> list[tuple[str, str | None]]:
    """(module file, innermost enclosing def or None) of each call of NAME,
    bare or as an attribute, in the package."""
    callers = []

    def visit(node: ast.AST, path: Path, owner: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            callers.append((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in MODULES:
        visit(_tree(path), path, None)
    return callers


def test_only_the_sum_owner_calls_fsum():
    # every other correctly rounded sum goes through fsum_inf, which maps an
    # intermediate overflow to inf instead of raising OverflowError
    assert _callers_of("fsum") == [("bounds.py", "fsum_inf")]


def test_only_the_comparator_owner_takes_a_chi_tail_of_a_ratio():
    # u / scale may overflow a finite u; comparator_tail maps that to tail 0,
    # which chi_tail would reject as a non-finite threshold; the array form
    # chi_tails takes the overflowed ratio itself
    assert _callers_of("chi_tail") == [("bounds.py", "comparator_tail"), ("bounds.py", "g_lower")]
    assert _callers_of("chi_tails") == [("bounds.py", "comparator_bounds")]


def test_only_the_bound_owner_builds_a_bound_result():
    # theorem_bound and corollary_bound go through comparator_bound, the sweep
    # and bound records through its array form comparator_bounds, and both
    # through _bound_result, so c * tail, raw and capped, has one owner
    assert _callers_of("BoundResult") == [("bounds.py", "_bound_result")]
    assert _callers_of("_bound_result") == [
        ("bounds.py", "comparator_bound"), ("bounds.py", "comparator_bounds")
    ]


def test_only_the_bound_owner_takes_the_comparator_tail():
    # a record reads its ratio's denominator from BoundResult.tail, the value
    # the constant multiplies, instead of evaluating the chi tail again
    assert _callers_of("comparator_tail") == [("bounds.py", "comparator_bound")]


def test_only_the_sampler_of_c_builds_its_quadrature():
    # cos_rule integrates against the law that cos_marginal samples, so the
    # quadrature of C lives beside its sampler and is built in one place
    assert _callers_of("leggauss") == [("sampling.py", "_angle_rule")]


def test_no_verdict_rests_on_a_numerical_reference():
    # every verdict is closed form or Monte Carlo: the quadrature of
    # bisubharmonicity at a few centres and the chi-density quadrature are
    # references the tests check the closed forms against
    assert _callers_of("is_bisubharmonic_numeric") == []
    assert _callers_of("chi_expectation") == []
    assert _callers_of("bisub_rule") == [
        ("cli.py", "_bisub"), ("moment_compare.py", "_certify_comparison_function")
    ]


def test_the_sampler_of_c_evaluates_no_cosine_or_sine():
    # numpy evaluates float64 cos and sin one value at a time but tan in SIMD
    # lanes, so the sampler of C draws its angle through the tangent; only the
    # cached quadrature of C evaluates a cosine or a sine
    for trig in ("cos", "sin"):
        callers = _callers_of(trig)
        assert ("sampling.py", "_angle_rule") in callers
        assert ("sampling.py", "cos_marginal") not in callers
        assert ("sampling.py", "_cos_draw") not in callers
        assert ("sampling.py", "_cos_column") not in callers


def test_only_the_chunk_map_draws_c_and_runs_the_chain():
    # one sampling engine: every C column and every radial chain comes from
    # chunk, the per-(family, chunk) job inside sampling.map_sum_norms, and
    # cos_marginal is the one-column case of the same draws
    assert _callers_of("cos_marginal") == []
    for step in ("_cos_draw", "_cos_column"):
        assert _callers_of(step) == [("sampling.py", "cos_marginal"), ("sampling.py", "chunk")]
    assert _callers_of("_radial_chain") == [("sampling.py", "chunk")]
    [owner] = [
        node.name
        for node in ast.walk(_tree(PACKAGE / "sampling.py"))
        if isinstance(node, ast.FunctionDef)
        and any(getattr(inner, "name", None) == "chunk" for inner in node.body)
    ]
    assert owner == "map_sum_norms"


def test_only_the_report_owner_writes_csv_and_json():
    # cli, the constants table and the check results print through these two,
    # so every CSV and JSON report has one format; json_text encodes through
    # the C encoders of _json_encoder, joined by _indented
    assert _callers_of("writer") == [("report.py", "csv_text")]
    assert _callers_of("dumps") == []
    assert _callers_of("JSONEncoder") == [("report.py", "_json_encoder")]
    assert _callers_of("_json_encoder") == [("report.py", "_indented")]
    assert _callers_of("_indented") == [("report.py", "_indented"), ("report.py", "json_text")]
    imported = {
        alias.name
        for node in ast.walk(_tree(PACKAGE / "cli.py"))
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert not imported & {"csv", "io", "json"}


def test_only_the_power_of_two_owner_calls_frexp():
    # the radial chain and the comparator scale divide by the same power of two
    assert _callers_of("frexp") == [("bounds.py", "pow2_above")]


def test_every_comparator_scale_goes_through_scale():
    # corollary_bound and pattern normalisation call scale, the one-dimension
    # case of scales, which keeps the squares of a tiny vector normal; only
    # these sum squares themselves
    assert _callers_of("sum_sq") == [
        ("bounds.py", "coeff_array"),
        ("bounds.py", "scales"),
        ("moment_compare.py", "second_moment_exact"),
    ]


def test_only_the_parser_class_parses_known_arguments():
    # each parser reports its own leftovers, so nothing else may parse
    # loosely and then guess from argv which parser an argument was given to
    assert _callers_of("parse_known_args") == [("cli.py", "parse_known_args")]


@pytest.mark.parametrize(
    "message",
    [
        "alpha must lie in (0, 1)",
        "threshold must be finite",
        "unrecognized arguments",
        "argument --out: needs --format",
    ],
)
def test_each_input_rule_is_written_once(message):
    found = [
        f"{path.name} line {node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and message in node.value
    ]
    assert len(found) == 1, f"{message!r} is written at {found}"


def test_import_does_not_load_scipy_stats():
    # a fresh interpreter: this one may have imported either module already;
    # scipy.integrate is loaded by chi_expectation on first use
    code = "import sys, spheretail; print({'scipy.stats', 'scipy.integrate'} & set(sys.modules))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "set()"


def test_benchmark_selftest_passes(tmp_path):
    # its output checks include the classc and lemma2 verdicts; a fresh
    # interpreter in a scratch directory, writing no bytecode, leaves the
    # tree untouched
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
