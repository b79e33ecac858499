"""Every public function, class, method and property of the package has a
caller in the package, as has every defaulted parameter of a public function,
every imported name is used, JSON is encoded in one place, and no function
rebinds a module-level or enclosing name.

A public top-level name, or a public method or property of a public class,
that nothing in ``src/bankdistress`` refers to is dead weight, unless it is a
test oracle or the benchmark wraps it; those stay on ALLOWED with their reason.
A member counts as used wherever any expression looks up an attribute of its
name, since the type behind an attribute is not known from the syntax.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bankdistress")

ALLOWED = {
    "evaluation.MonthScore": "acceptance criterion 2 scores MonthScore rows",
    "neural.loss": "finite-difference oracle of neural.gradients (criterion 3)",
    "pvdm.step_loss": "finite-difference oracle of step_gradients (criteria 3 and 5)",
    "pvdm.step_gradients": "step-math oracle of pvdm.train and pvdm.infer_vectors "
                           "(criterion 3, reference_train, reference_infer_vector)",
    "pvdm.infer_vector": "wrapped by perfbench/tracing.py as pvdm.infer",
    "fusion.build_sample_table": "the acceptance fixture embed_dataset builds its table with "
                                 "it; wrapped by perfbench/tracing.py as fusion.build",
    "fusion.write_sample_table": "oracle of the bytes fusion.write_fused writes; wrapped by "
                                 "perfbench/tracing.py as fusion.io",
    "fusion.FoldAssignment.banks_in": "acceptance criterion 6 reads the banks of each fold",
    "fusion.SampleTable.semantic_dim": "acceptance criterion 7b checks the fused "
                                       "semantic width",
}


def parse_modules(src):
    modules = {}
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            modules[os.path.basename(path)[:-3]] = ast.parse(fh.read(), filename=path)
    return modules


def _binds(function, name):
    """Whether ``function`` has a parameter or a local variable called ``name``."""
    for node in ast.walk(function):
        if isinstance(node, ast.arg) and node.arg == name:
            return True
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store):
            return True
    return False


def _used_in_own_module(tree, name, definition):
    """A load of ``name`` outside its definition and outside any function
    that shadows it with a local of the same name."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is definition:
            continue
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and _binds(node, name):
            continue
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _used_from(tree, module, name):
    """``module.name`` or ``from .module import name`` in another module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.value, ast.Name) and node.value.id == module):
            return True
        if (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
                and any(alias.name == name for alias in node.names)):
            return True
    return False


def _attribute_used(modules, name, definition):
    """``<expression>.name`` in any module, outside ``definition`` itself."""
    stack = list(modules.values())
    while stack:
        node = stack.pop()
        if node is definition:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def public_orphans(src=SRC):
    modules = parse_modules(src)
    orphans = []
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            used = _used_in_own_module(tree, node.name, node) or any(
                _used_from(other, module, node.name)
                for name, other in modules.items() if name != module)
            if not used:
                orphans.append("%s.%s" % (module, node.name))
            if isinstance(node, ast.ClassDef):
                orphans.extend("%s.%s.%s" % (module, node.name, member.name)
                               for member in node.body
                               if isinstance(member, ast.FunctionDef)
                               and not member.name.startswith("_")
                               and not _attribute_used(modules, member.name, member))
    return sorted(orphans)


def test_every_public_name_has_a_caller_or_a_reason():
    orphans = public_orphans()
    unexplained = [name for name in orphans if name not in ALLOWED]
    assert not unexplained, "public names nothing in src/ uses: %s" % unexplained
    # an entry that gained a caller no longer needs its exemption
    assert sorted(ALLOWED) == orphans


def test_orphan_check_sees_unused_and_shadowed_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def only_recursive(n):\n    return only_recursive(n - 1)\n\n\n"
        "def shadowed():\n    return 2\n\n\n"
        "def caller(shadowed):\n    return used() + shadowed\n\n\n"
        "class Imported:\n    pass\n\n\n"
        "def by_attribute():\n    pass\n\n\n"
        "class Shape:\n"
        "    def area(self):\n        return self.side\n\n"
        "    @property\n    def side(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.unused()\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import Imported\n\n\n"
        "def _private():\n    return a.by_attribute, Imported, a.Shape().area()\n",
        encoding="utf-8")
    assert public_orphans(str(tmp_path)) == ["a.Shape.unused", "a.caller",
                                             "a.only_recursive", "a.shadowed"]


def unused_imports(src=SRC):
    """``module.name`` of each name a module imports and neither loads nor
    lists in its ``__all__``."""
    unused = []
    for module, tree in parse_modules(src).items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # "import a.b" binds the name a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append("%s.%s" % (module, name))
    return sorted(unused)


def test_every_imported_name_is_used():
    assert unused_imports() == []


def test_unused_import_check_sees_every_kind_of_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\nimport json.decoder\nimport re as regex\nfrom math import pi, tau as t\n"
        "from . import b\n\n__all__ = [\"b\"]\n\n\n"
        "def f(os_path):\n    return json.loads(os_path), pi\n",
        encoding="utf-8")
    assert unused_imports(str(tmp_path)) == ["a.os", "a.regex", "a.t"]


# The functions of src/ that may encode JSON, with the reason for each.
JSON_ENCODERS = {
    "corpus.write_jsonl": "writes every JSON-lines file without a float vector",
    "corpus.write_vector_jsonl": "writes every JSON-lines file of float vectors: the keys "
                                 "beside each vector's text, printed or copied",
    "corpus.write_json": "writes every JSON document",
    "corpus.json_entry": "encodes the model header and a twin's ids into an entry of an "
                         ".npz, not a file",
}


def json_encoders(src=SRC):
    """``module.function`` of each top-level function of ``src`` that refers
    to ``json.dump`` or ``json.dumps``; ``<module>`` for a reference outside
    any top-level function, or for a ``from json import`` of either name."""
    found = set()
    for module, tree in parse_modules(src).items():
        for node in tree.body:
            owner = ("%s.%s" % (module, node.name) if isinstance(node, ast.FunctionDef)
                     else "%s.<module>" % module)
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and sub.attr in ("dump", "dumps")
                        and isinstance(sub.value, ast.Name) and sub.value.id == "json"):
                    found.add(owner)
                if (isinstance(sub, ast.ImportFrom) and sub.module == "json"
                        and any(alias.name in ("dump", "dumps") for alias in sub.names)):
                    found.add("%s.<module>" % module)
    return sorted(found)


def test_json_is_encoded_in_one_place():
    assert json_encoders() == sorted(JSON_ENCODERS), (
        "json.dump/json.dumps outside corpus.write_jsonl and corpus.write_json "
        "(and the encoders JSON_ENCODERS gives a reason for): %s" % json_encoders())


def rebinding_statements(src=SRC):
    """``module.function:line`` of each ``global`` or ``nonlocal`` statement,
    named by its top-level function (``<module>`` outside any)."""
    found = []
    for module, tree in parse_modules(src).items():
        for node in tree.body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            found += ["%s.%s:%d" % (module, owner, sub.lineno) for sub in ast.walk(node)
                      if isinstance(sub, (ast.Global, ast.Nonlocal))]
    return sorted(found)


def test_no_function_rebinds_module_or_enclosing_state():
    # state a run needs is passed to it, as protocol_runs passes run_once its
    # run index's shared work
    assert rebinding_statements() == []


def test_rebinding_check_sees_global_and_nonlocal(tmp_path):
    (tmp_path / "a.py").write_text(
        "count = 0\n\n\n"
        "def bump():\n    global count\n    count += 1\n\n\n"
        "def outer():\n    n = 0\n\n    def inner():\n        nonlocal n\n        n += 1\n"
        "    return inner\n\n\n"
        "def reads():\n    return count\n",
        encoding="utf-8")
    assert rebinding_statements(str(tmp_path)) == ["a.bump:5", "a.outer:13"]



# Defaulted parameters of public functions that no call in src/ passes, with
# the reason each stays; any other is a knob only tests can turn.
UNPASSED = {
    "cli.main.argv": "the console script calls main() without one; tests pass the arguments",
}


def _calls(tree, module, modules):
    """(``module.function`` called, call node) of each call in ``tree`` that
    names a top-level function of the package, as ``f`` or ``module.f``.
    Calls inside ALLOWED top-level definitions do not count."""
    targets = {node.name: "%s.%s" % (module, node.name) for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    packages = {}  # local name -> package module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    packages[local] = alias.name
                else:
                    targets[local] = "%s.%s" % (node.module, alias.name)
    for top in tree.body:
        if "%s.%s" % (module, getattr(top, "name", "")) in ALLOWED:
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in targets:
                yield targets[func.id], node
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and packages.get(func.value.id) in modules):
                yield "%s.%s" % (packages[func.value.id], func.attr), node


def unpassed_parameters(src=SRC):
    """``module.function.parameter`` of each defaulted parameter of a public
    top-level function, not on ALLOWED, that no call in ``src`` passes by
    position or by keyword. A call with ``*args`` or ``**kwargs`` passes
    every parameter."""
    modules = parse_modules(src)
    passed = {}  # module.function -> positions and keywords some call passes
    for module, tree in modules.items():
        for target, call in _calls(tree, module, modules):
            given = passed.setdefault(target, set())
            given.update(range(len(call.args)))
            given.update(k.arg for k in call.keywords)  # None for **kwargs
            if None in given or any(isinstance(a, ast.Starred) for a in call.args):
                given.add("*")
    unpassed = []
    for module, tree in modules.items():
        for node in tree.body:
            name = "%s.%s" % (module, getattr(node, "name", ""))
            if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                    or name in ALLOWED):
                continue
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(a.arg, a.arg) for a, d in zip(node.args.kwonlyargs,
                                                          node.args.kw_defaults) if d is not None]
            given = passed.get(name, set())
            unpassed += ["%s.%s" % (name, arg) for key, arg in defaulted
                         if "*" not in given and key not in given and arg not in given]
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_or_explained():
    unpassed = unpassed_parameters()
    unexplained = [name for name in unpassed if name not in UNPASSED]
    assert not unexplained, "defaulted parameters no call in src/ passes: %s" % unexplained
    # an entry that gained a caller no longer needs its exemption
    assert sorted(UNPASSED) == unpassed


def test_parameter_check_sees_positions_keywords_and_allowed_callers(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text(
        "def f(x, by_position=1, by_keyword=2, unpassed=3, *, only_kw=4, kw_unpassed=5):\n"
        "    return x\n\n\n"
        "def _private(x=0):\n    return f(x, 1, by_keyword=2, only_kw=4)\n\n\n"
        "def splatted(a=0, b=1):\n    return a + b\n\n\n"
        "def by_module(x, unpassed=0):\n    return x\n\n\n"
        "def oracle(x, unpassed=0):\n    return x\n\n\n"
        "def only_from_oracle(x, unpassed=0):\n    return x\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import splatted as s\n\n\n"
        "def g(args):\n    return s(*args), a.by_module(1)\n\n\n"
        "def oracle_caller(x):\n    return a.only_from_oracle(x, unpassed=1)\n",
        encoding="utf-8")
    assert unpassed_parameters(str(tmp_path)) == [
        "a.by_module.unpassed", "a.f.kw_unpassed", "a.f.unpassed", "a.oracle.unpassed"]
    # an ALLOWED function's defaults are exempt, and its calls do not count
    monkeypatch.setitem(ALLOWED, "a.oracle", "fixture")
    monkeypatch.setitem(ALLOWED, "b.oracle_caller", "fixture")
    assert unpassed_parameters(str(tmp_path)) == [
        "a.by_module.unpassed", "a.f.kw_unpassed", "a.f.unpassed",
        "a.only_from_oracle.unpassed"]
