"""Static checks of the library modules.

Every name a library module imports is used in that module.  Package
`__init__.py` files only re-export, so they are left out.  A name that
perfbench imports from a module counts as used there: the benchmark
reaches it through that module.

No library module runs scalar field arithmetic in a loop: the vector
kernels of `gf` do that work.

No library module but `counting` writes an operation counter: every
charge goes through `counting.charge`, which alone knows that a `None`
counter costs nothing.

Every public function, class, method and property of the library is
referenced by name somewhere in `src/`, `tests/` or `perfbench/`: a name
nothing uses is dead code.

No module-level library function only forwards its own parameters to
another call: callers call the target.

The library's caches are a fixed list: a new cache, or a new size for
one, is added to CACHES on purpose.  So are the places that wrap an array
in a `FieldMatrix`: a new wrap is added to FIELD_MATRIX_WRAPS on purpose.
Each field operation has one kernel: a `Field` subclass that replaces a
method with a real body is a second kernel, added to FIELD_OVERRIDES on
purpose.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import regencodes

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "regencodes"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of a module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _perfbench_imports() -> dict[str, set[str]]:
    """Module name -> the names perfbench imports from it."""
    out: dict[str, set[str]] = {}
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regencodes"):
                out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def _library_modules():
    """(path, module name, syntax tree) of every library module but the
    package `__init__.py` files."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            yield path, module, ast.parse(path.read_text())


def test_no_unused_imports():
    kept = _perfbench_imports()
    unused = []
    for path, module, tree in _library_modules():
        used = _used(tree) | kept.get(module, set())
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def test_check_finds_an_unused_import():
    tree = ast.parse("from .errors import SingularMatrix, ParamsInvalid\n"
                     "raise ParamsInvalid('x')\n")
    assert set(_imported(tree)) - _used(tree) == {"SingularMatrix"}


# the scalar Field methods; `add` is left out because `set.add` shares the name
SCALAR_METHODS = {"mul", "sub", "neg", "div", "pow_"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _scalar_loop_calls(tree: ast.Module) -> list[tuple[str | None, str, int]]:
    """(enclosing function, method, line) of each scalar field method called
    inside a loop or a comprehension."""
    found = []

    def visit(node, func, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, looped = node.name, False
        looped = looped or isinstance(node, LOOPS)
        if (looped and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCALAR_METHODS):
            found.append((func, node.func.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func, looped)

    visit(tree, None, False)
    return found


def _scalar_loop_allowed(module: str, func: str | None, method: str) -> bool:
    # gf defines the scalar arithmetic and the selftest checks it; poly_eval
    # is the tests' scalar reference, and poly_divmod takes one quotient
    # coefficient per step
    return (module in ("regencodes.gf", "regencodes.harness.selftest")
            or (module, func) == ("regencodes.poly", "poly_eval")
            or (module, func, method) == ("regencodes.poly", "poly_divmod", "mul"))


def test_no_scalar_field_loops():
    loops = [f"{path.relative_to(ROOT)}:{line} {func} .{method}"
             for path, module, tree in _library_modules()
             for func, method, line in _scalar_loop_calls(tree)
             if not _scalar_loop_allowed(module, func, method)]
    assert loops == []


def test_guard_finds_a_scalar_loop():
    tree = ast.parse("def f(field, xs, seen):\n"
                     "    ys = [field.mul(x, x) for x in xs]\n"
                     "    for x in xs:\n"
                     "        seen.add(field.neg(x))\n"
                     "    return field.pow_(ys[0], 2)\n")
    assert _scalar_loop_calls(tree) == [("f", "mul", 2), ("f", "neg", 4)]
    assert not _scalar_loop_allowed("regencodes.poly", "poly_divmod", "sub")


COUNTER_METHODS = {"count_mul", "count_add"}


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _counter_writes(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) of each counter write outside `counting.charge`: a name
    containing `counter` compared with None, a store to a `.mul` or `.add`
    attribute, and any use of `count_mul` or `count_add`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(side, ast.Constant) and side.value is None for side in sides)
                    and any("counter" in _name(side) for side in sides)):
                found.append((node.lineno, "None test"))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and node.attr in ("mul", "add"):
            found.append((node.lineno, f".{node.attr} store"))
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in COUNTER_METHODS:
            found.append((node.lineno, _name(node)))
    return sorted(found)


def test_only_counting_writes_a_counter():
    writes = [f"{path.relative_to(ROOT)}:{line} {what}"
              for path, module, tree in _library_modules() if module != "regencodes.counting"
              for line, what in _counter_writes(tree)]
    assert writes == []


def test_guard_finds_a_counter_write():
    tree = ast.parse("def f(counter, cost, n):\n"
                     "    if counter is not None and n:\n"
                     "        counter.count_mul(n)\n"
                     "    cost.add += n\n"
                     "    return cost.mul, n is None, self_counter == None\n")
    assert _counter_writes(tree) == [(2, "None test"), (3, "count_mul"), (4, ".add store"),
                                     (5, "None test")]


def _public_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each public function and class of a module and each
    public method and property of its classes; dunder methods are exempt."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
    return [(name, line) for name, line in found if not name.startswith("_")]


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a tree uses: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_definition_is_referenced():
    referenced = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            referenced |= _referenced(ast.parse(path.read_text()))
    unreferenced = [f"{path.relative_to(ROOT)}:{line} {name}"
                    for path, module, tree in _library_modules()
                    for name, line in _public_definitions(tree) if name not in referenced]
    assert unreferenced == []


def test_guard_finds_an_unreferenced_definition():
    tree = ast.parse("class Report:\n"
                     "    def __len__(self):\n"
                     "        return 0\n"
                     "    @property\n"
                     "    def total(self):\n"
                     "        return helper()\n"
                     "def helper():\n"
                     "    return 1\n"
                     "def _private():\n"
                     "    return Report().total\n")
    defined = _public_definitions(tree)
    assert defined == [("total", 5), ("Report", 1), ("helper", 7)]
    assert [name for name, _ in defined if name not in _referenced(tree)] == []
    assert {name for name, _ in defined} - _referenced(ast.parse("helper()")) == {"total", "Report"}


def _forwarders(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each module-level function whose body, past its
    docstring, only returns one call that passes some of the function's
    own parameters on, in order, as positional arguments."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not isinstance(call, ast.Call) or call.keywords or not call.args:
            continue
        params = [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        if not all(isinstance(arg, ast.Name) and arg.id in params for arg in call.args):
            continue
        places = [params.index(arg.id) for arg in call.args]
        if places == sorted(set(places)):
            found.append((node.name, node.lineno))
    return found


def test_no_pure_forwarders():
    forwarders = [f"{path.relative_to(ROOT)}:{line} {name}"
                  for path, module, tree in _library_modules()
                  for name, line in _forwarders(tree)]
    assert forwarders == []


def test_guard_finds_a_forwarder():
    tree = ast.parse("def repair(params, responses, failed, counter=None):\n"
                     "    \"\"\"Rebuild by placement.\"\"\"\n"
                     "    return transfer(params, responses, failed)\n"
                     "def swapped(a, b):\n"
                     "    return g(b, a)\n"
                     "def keyword(a, b):\n"
                     "    return g(a, b=b)\n"
                     "def computed(a, b):\n"
                     "    return g(a, b + 1)\n"
                     "def two_steps(a):\n"
                     "    a = h(a)\n"
                     "    return g(a)\n"
                     "def no_arguments(a):\n"
                     "    return g()\n"
                     "class Codec:\n"
                     "    def repair(self, a):\n"
                     "        return g(a)\n")
    assert _forwarders(tree) == [("repair", 1)]


# (module, function, maxsize) of every cache in the library
CACHES = {
    ("regencodes.gf", "_bit_reverse_permutation", None),
    ("regencodes.harness.cli", "build_parser", 1),
    ("regencodes.matrix", "triangle", None),
    ("regencodes.mbr", "_collector_inverse", 8),
    ("regencodes.mbr", "_psrs_params", None),
    ("regencodes.mbr", "_psrs_points", None),
    ("regencodes.mbr", "_repair_inverse", 8),
    ("regencodes.mbr", "_stage_factors", 8),
    ("regencodes.mbr", "mbr_build_encoding", None),
    ("regencodes.psrs", "_gamma", None),
    ("regencodes.psrs", "_generator", None),
    ("regencodes.psrs", "_sys_basis", None),
    ("regencodes.rbt", "_psi_t_inv", None),
    ("regencodes.rbt", "_sys_points", None),
    ("regencodes.rbt", "rbt_build_encoding", None),
    ("regencodes.shah", "_generator_rows", None),
}


def test_cache_inventory():
    # every function with cache_info that a library module defines, found
    # the way perfbench's clear_caches finds the caches it empties
    found = set()
    for info in pkgutil.walk_packages(regencodes.__path__, "regencodes."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found.add((module.__name__, name, value.cache_parameters()["maxsize"]))
    assert found == CACHES


# (module, enclosing function) of every FieldMatrix(...) call in the library
FIELD_MATRIX_WRAPS = [
    ("regencodes.matrix", "collector_inverse"),
    ("regencodes.mbr", "_repair_inverse"),
    ("regencodes.shah", "shah_reconstruct"),
]


def _field_matrix_wraps(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each FieldMatrix(...) call."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and _name(node.func) == "FieldMatrix":
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_field_matrix_wrap_inventory():
    wraps = sorted((module, func) for path, module, tree in _library_modules()
                   for func, _ in _field_matrix_wraps(tree))
    assert wraps == FIELD_MATRIX_WRAPS


def test_guard_finds_a_field_matrix_wrap():
    tree = ast.parse("def solve(field, a, b):\n"
                     "    x = mat_solve(FieldMatrix(field, a), b)\n"
                     "    return x, matrix.FieldMatrix(field, b)\n"
                     "EMPTY = FieldMatrix(F, [[]])\n")
    assert _field_matrix_wraps(tree) == [("solve", 2), ("solve", 3), (None, 4)]


# (class, method) of every method that a Field subclass in gf defines where
# an ancestor has a real body; the calls are per set-up, begin and one pass
# of a perfbench workload at seed 11
FIELD_OVERRIDES = [
    ("BinaryField", "vprod"),  # a sum of logs: 67 calls on archive-gf256, 35 on churn-cli
    ("PrimeField", "dot"),  # Python ints: rebuild-fermat's helper responses, 816 calls
    ("PrimeField", "vreduce"),  # rebuild-fermat's eliminations, 712 calls
    ("PrimeField", "vsub_mul"),  # unreduced updates: rebuild-fermat's eliminations, 494 calls
]


def _stub(func: ast.FunctionDef) -> bool:
    """Whether the body of `func`, past its docstring, is `raise NotImplementedError`."""
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and _name(body[0].exc) == "NotImplementedError")


def _field_overrides(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of each method or alias that a subclass of Field
    defines where an ancestor has a real body; dunder methods aside."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def ancestors(cls):
        for base in cls.bases:
            if _name(base) in classes:
                yield classes[_name(base)]
                yield from ancestors(classes[_name(base)])

    def real(cls, name):
        return any(isinstance(node, ast.FunctionDef) and node.name == name and not _stub(node)
                   for node in cls.body)

    found = []
    for cls in classes.values():
        chain = list(ancestors(cls))
        if "Field" not in [c.name for c in chain]:
            continue
        names = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
        names += [_name(t) for node in cls.body if isinstance(node, ast.Assign)
                  for t in node.targets]
        found += [(cls.name, name) for name in names
                  if not name.startswith("__") and any(real(a, name) for a in chain)]
    return sorted(found)


def test_field_override_inventory():
    assert _field_overrides(ast.parse((SRC / "gf.py").read_text())) == FIELD_OVERRIDES


def test_guard_finds_a_field_override():
    tree = ast.parse("class Field:\n"
                     "    def stub(self):\n"
                     "        \"\"\"Only a docstring.\"\"\"\n"
                     "        raise NotImplementedError\n"
                     "    def kernel(self):\n"
                     "        return 1\n"
                     "    def __eq__(self, other):\n"
                     "        return True\n"
                     "class Prime(Field):\n"
                     "    def stub(self):\n"
                     "        return 2\n"
                     "    def kernel(self):\n"
                     "        return 2\n"
                     "    def __eq__(self, other):\n"
                     "        return False\n"
                     "    def own(self):\n"
                     "        return 3\n"
                     "class Fermat(Prime):\n"
                     "    stub = own = kernel\n"
                     "class Other:\n"
                     "    def kernel(self):\n"
                     "        return 4\n")
    assert _field_overrides(tree) == [("Fermat", "own"), ("Fermat", "stub"), ("Prime", "kernel")]
