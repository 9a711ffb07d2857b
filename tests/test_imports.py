"""Import hygiene of ``src/cvdist``, read from each module's syntax tree.

No linter ships with the test dependencies, so these checks read the trees:

- No module keeps an import it does not use: every name an import binds
  must be read somewhere in that module, as a name or as the root of an
  attribute chain. Unquoted annotations are names in the tree, so they
  count as uses.
- No module reads a private (``_``-prefixed, non-dunder) attribute of a
  module it imports from outside the package, such as
  ``argparse._SubParsersAction``: such names may change in any release.
  Reads are attribute chains rooted at an imported name, and
  ``from x import _y`` imports.
- Library code never prints: no module but ``cli.py`` calls ``print``.
  The library reports through return values, exceptions and ``logging``.
- Code used only by tests lives in ``tests/``: every public top-level
  function or class of ``src/cvdist`` is referenced, by name, from
  ``src/``, the acceptance suite or the benchmark. A reference is a name,
  an attribute, a ``from x import`` name or a dotted string constant (the
  benchmark names the functions it times in strings); a definition is not
  a reference to itself.
- The independent oracles in ``tests/`` stay independent of the code they
  check: ``wigner_oracle.py`` and ``fock_oracle.py`` import nothing from
  ``cvdist.measurements`` but the description of a measurement, and nothing
  from ``cvdist.channels``, ``protocols``, ``nogo`` or ``entanglement``.
- The error taxonomy stays flat: every class in ``cvdist.errors`` but
  ``CvdistError`` has ``CvdistError`` as its one direct base
  (``MalformedInput`` also has ``ValueError``), and ``src/`` raises each of
  them by name. A class that only renames its parent gets the parent's exit
  code and label, so it tells the CLI nothing that its message does not.
- Each refusal is stated once: no two ``raise`` sites in ``src/cvdist``
  share a message template, the constant text of the message with each
  f-string field read as ``{}``. A rule spelled out at two sites can drift:
  the mode-count rule was raised with two classes. The sites of one rule
  call one helper instead.
- A covariance is symmetrized at one site: no module writes ``X + X.T`` (or
  ``X.T + X``) outside ``symplectic._symmetrized``, which halves first so
  that a finite matrix with entries near the top of float64 stays finite.
- A command's only inputs are its argv and the files it names: no module
  reads the environment, through ``os.environ``, ``os.environb``,
  ``os.getenv`` or ``os.getenvb``, as an attribute of ``os`` or imported
  from it.
- Every file is written at one site: no code outside
  ``cli.write_text_atomic`` calls ``open`` (the builtin or a method) with a
  mode string that writes, a pathlib ``write_text`` or ``write_bytes``, or
  ``os.replace`` or ``os.rename``. That site writes a temp file, renames it
  over the target and removes it if either step fails.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cvdist"
CALLERS = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "bench").glob("*.py"))]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_external_reads(source: str) -> list:
    tree = ast.parse(source)
    external = set()
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            external.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module != "__future__":
            for alias in node.names:
                external.add(alias.asname or alias.name)
                if _private(alias.name):
                    hits.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        root = node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        # report each private read once, at its own node
        if isinstance(root, ast.Name) and root.id in external and _private(node.attr):
            hits.append((node.lineno, ".".join([root.id, *reversed(chain)])))
    return sorted(hits)


def print_calls(source: str) -> list:
    """Lines that call the builtin ``print`` by name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print")


def public_definitions(source: str) -> list:
    """(line, name) of each public top-level function and class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source: str) -> set:
    """Names read as names or attributes, imported by ``from x import``, or
    spelled out, whole or dotted, in a string constant."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


#: What the independent oracles may import from each module whose results
#: they check: a measurement's description, and nothing else.
ORACLE_MAY_IMPORT = {"cvdist.measurements": {"DyneKind", "DyneSpec"}, "cvdist.channels": set(),
                     "cvdist.protocols": set(), "cvdist.nogo": set(),
                     "cvdist.entanglement": set()}
ORACLES = [ROOT / "tests" / "wigner_oracle.py", ROOT / "tests" / "fock_oracle.py"]


def checked_code_imports(source: str) -> list:
    """(line, dotted name) of each import of a checked module, or of a name
    from one, that ``ORACLE_MAY_IMPORT`` does not allow."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            module, _, leaf = name.rpartition(".")
            if name in ORACLE_MAY_IMPORT or (module in ORACLE_MAY_IMPORT
                                             and leaf not in ORACLE_MAY_IMPORT[module]):
                hits.append((node.lineno, name))
    return sorted(hits)


def taxonomy_problems(errors_source: str, sources: list) -> list:
    """(line, class, problem) of each class in ``errors_source`` but
    ``CvdistError`` whose bases are not ``CvdistError`` alone (``CvdistError,
    ValueError`` for ``MalformedInput``), or that no source in ``sources``
    raises by name."""
    excs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and node.exc is not None]
    raised = {exc.id for exc in excs if isinstance(exc, ast.Name)}
    hits = []
    for node in ast.parse(errors_source).body:
        if not isinstance(node, ast.ClassDef) or node.name == "CvdistError":
            continue
        bases = [ast.unparse(base) for base in node.bases]
        expected = ["CvdistError", "ValueError"] if node.name == "MalformedInput" \
            else ["CvdistError"]
        if bases != expected:
            hits.append((node.lineno, node.name, f"bases {', '.join(bases)}"))
        if node.name not in raised:
            hits.append((node.lineno, node.name, "never raised"))
    return hits


def message_template(node: ast.Raise):
    """The message template of a ``raise E(message, ...)``: the constant text
    of a string or f-string first argument, each field read as ``{}``; None
    for any other raise."""
    if not (isinstance(node.exc, ast.Call) and node.exc.args):
        return None
    message = node.exc.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in message.values)
    return None


def repeated_messages(modules: dict) -> list:
    """(template, [(module, line), ...]) of each message template that more
    than one ``raise`` in ``modules`` (name -> source) states."""
    sites = {}
    for module, source in sorted(modules.items()):
        for node in ast.walk(ast.parse(source)):
            template = message_template(node) if isinstance(node, ast.Raise) else None
            if template is not None:
                sites.setdefault(template, []).append((module, node.lineno))
    return sorted((template, sorted(where)) for template, where in sites.items()
                  if len(where) > 1)


#: The one function that may add a matrix to its own transpose.
SYMMETRIZER = "_symmetrized"


def hand_symmetrizations(source: str) -> list:
    """Lines that add an expression to its own transpose, ``X + X.T`` or
    ``X.T + X``, outside the function named ``SYMMETRIZER``."""
    tree = ast.parse(source)
    exempt = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == SYMMETRIZER
              for node in ast.walk(func)}
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)) \
                or id(node) in exempt:
            continue
        for x, xt in ((node.left, node.right), (node.right, node.left)):
            if isinstance(xt, ast.Attribute) and xt.attr == "T" \
                    and ast.dump(xt.value) == ast.dump(x):
                hits.append(node.lineno)
                break
    return sorted(hits)


#: The names through which ``os`` hands out the environment.
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def _os_uses(tree: ast.AST, names: set) -> list:
    """(line, dotted name) of each use of ``os.<name>`` for ``name`` in
    ``names``: an attribute of a name bound to ``os``, or a name imported from
    ``os``."""
    bound_to_os = set()
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound_to_os.update(alias.asname or "os" for alias in node.names
                               if alias.name == "os" or (alias.name.startswith("os.")
                                                         and not alias.asname))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits.extend((node.lineno, f"os.{alias.name}") for alias in node.names
                        if alias.name in names)
    hits.extend((node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id in bound_to_os)
    return sorted(hits)


def environment_reads(source: str) -> list:
    """(line, dotted name) of each read of the environment: an attribute in
    ``ENVIRONMENT_READS`` of a name bound to ``os``, or one imported from ``os``."""
    return _os_uses(ast.parse(source), ENVIRONMENT_READS)


#: The one function of ``src/cvdist`` that writes files, and its module.
WRITER_MODULE, WRITER = "cli.py", "write_text_atomic"
#: What ``os`` moves files with, and the pathlib methods that write them.
OS_FILE_MOVES = {"replace", "rename"}
PATH_WRITES = {"write_text", "write_bytes"}


def _writing_mode(node: ast.AST) -> bool:
    """Whether ``node`` is a string constant made of mode letters, one of
    which writes (w, x, a or +)."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[rwxabt+]+", node.value) is not None
            and bool(set(node.value) & set("wxa+")))


def file_writes(source: str, writer: str | None = None) -> list:
    """(line, what) of each file write outside the function named ``writer``:
    a call of ``open``, by name or as a method, that passes a writing mode
    string (as ``mode`` or positionally), a call of a name in ``PATH_WRITES``,
    and a use of ``os`` in ``OS_FILE_MOVES``."""
    tree = ast.parse(source)
    hits = _os_uses(tree, OS_FILE_MOVES)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            modes = [*node.args, *(kw.value for kw in node.keywords if kw.arg == "mode")]
            if name in PATH_WRITES or (name == "open" and any(map(_writing_mode, modes))):
                hits.append((node.lineno, name))
    spans = [(func.lineno, func.end_lineno) for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) and func.name == writer]
    return sorted(hit for hit in hits
                  if not any(first <= hit[0] <= last for first, last in spans))


def uncalled_public_names(modules: dict, callers: list) -> list:
    """(module, line, name) of each public definition in ``modules`` (name ->
    source) that no source in ``callers`` references."""
    referenced = set().union(*map(referenced_names, callers))
    return [(module, line, name) for module, source in sorted(modules.items())
            for line, name in public_definitions(source) if name not in referenced]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_private_attribute_of_an_outside_module(path):
    assert private_external_reads(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_library_module_does_not_print(path):
    assert print_calls(path.read_text()) == []


def test_unused_import_is_found():
    source = "from .errors import NotPhysical, ParamOutOfRange\nraise ParamOutOfRange\n"
    assert unused_imports(source) == [(1, "NotPhysical")]


def test_private_external_read_is_found():
    source = (
        "import argparse\n"
        "import numpy as np\n"
        "from numpy.linalg import _umath_linalg\n"
        "from .symplectic import _freeze\n"
        "def walk(parser):\n"
        "    _freeze(np.__version__)\n"
        "    return isinstance(parser, argparse._SubParsersAction), np.linalg._umath_linalg\n"
    )
    assert private_external_reads(source) == [
        (3, "numpy.linalg._umath_linalg"),
        (7, "argparse._SubParsersAction"),
        (7, "np.linalg._umath_linalg"),
    ]


def test_print_call_is_found():
    source = (
        "def report(x, log):\n"
        "    log.print(x)\n"
        "    print(x, end='')\n"
        "    return [print(y) for y in x]\n"
    )
    assert print_calls(source) == [3, 4]


def test_public_name_has_a_caller():
    modules = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert uncalled_public_names(modules, [path.read_text() for path in CALLERS]) == []


def test_public_name_without_a_caller_is_found():
    module = (
        "def used(x):\n"
        "    return x\n"
        "def traced(x):\n"
        "    return x\n"
        "class Orphan:\n"
        "    def used(self):\n"
        "        return orphan_helper\n"
        "def _private():\n"
        "    return used(1)\n"
    )
    caller = "from m import used\nSPANS = {'m.traced': ('m', 'traced')}\n"
    assert uncalled_public_names({"m.py": module}, [module, caller]) == [(
        "m.py", 5, "Orphan")]


def test_error_taxonomy_is_flat_and_raised():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert taxonomy_problems((SRC / "errors.py").read_text(), sources) == []


def test_error_taxonomy_problem_is_found():
    errors_source = (
        "class CvdistError(Exception):\n    pass\n"
        "class Flat(CvdistError):\n    pass\n"
        "class Renamed(Flat):\n    pass\n"
        "class Unused(CvdistError):\n    pass\n"
        "class Mixed(CvdistError, ValueError):\n    pass\n"
        "class MalformedInput(CvdistError, ValueError):\n    pass\n"
    )
    source = (
        "from .errors import Flat, MalformedInput, Mixed, Renamed\n"
        "def check(x):\n"
        "    if x:\n        raise Flat(x)\n"
        "    raise Renamed\n"
        "def more(x):\n"
        "    raise errors.Mixed(x) from MalformedInput\n"
        "def last():\n"
        "    raise MalformedInput('bad')\n"
    )
    assert taxonomy_problems(errors_source, [source]) == [
        (5, "Renamed", "bases Flat"),
        (7, "Unused", "never raised"),
        (9, "Mixed", "bases CvdistError, ValueError"),
        (9, "Mixed", "never raised"),
    ]


def test_each_refusal_message_is_raised_once():
    assert repeated_messages({path.name: path.read_text() for path in SRC.glob("*.py")}) == []


def test_repeated_refusal_message_is_found():
    first = (
        "def vacuum(n):\n"
        "    if n < 1:\n"
        "        raise DimensionMismatch(f'mode count must be >= 1, got {n}')\n"
        "    raise ValueError('empty list')\n"
    )
    second = (
        "def sample(n_modes, scale, err):\n"
        "    if n_modes < 1:\n"
        "        raise ParamOutOfRange(\n"
        "            f'mode count must be '\n"
        "            f'>= 1, got {n_modes!r}')\n"
        "    if scale < 0:\n"
        "        raise ParamOutOfRange(f'scale {scale:.3e} must be >= 0', scale)\n"
        "    if err:\n"
        "        raise err\n"
        "    raise ValueError('empty list') from KeyError(message)\n"
        "def once(x):\n"
        "    raise ValueError(f'scale {x} must be >= 1')\n"
        "def opaque(message):\n"
        "    raise ValueError(message)\n"
        "def opaque_too(message):\n"
        "    raise ValueError(message)\n"
    )
    assert repeated_messages({"a.py": first, "b.py": second}) == [
        ("empty list", [("a.py", 4), ("b.py", 10)]),
        ("mode count must be >= 1, got {}", [("a.py", 3), ("b.py", 3)]),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_symmetrizes_only_through_the_helper(path):
    assert hand_symmetrizations(path.read_text()) == []


def test_hand_symmetrization_is_found():
    source = (
        "def _symmetrized(c):\n"
        "    h = c * 0.5\n"
        "    return h + h.T\n"
        "def update(cov, s):\n"
        "    cov = (cov + cov.T) / 2.0\n"
        "    out = s @ cov @ s.T\n"
        "    d = cov - cov.T\n"
        "    e = cov + s.T\n"
        "    return out.T + out, (s[0] + s[0].T) / 2, d + e\n"
    )
    assert hand_symmetrizations(source) == [5, 9, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []


def test_environment_read_is_found():
    source = (
        "import os\n"
        "import os.path\n"
        "import os as system\n"
        "import os.path as osp\n"
        "from os import getenv, path\n"
        "from os import environb as env\n"
        "def seed(a, log):\n"
        "    text = os.environ.get('CVDIST_SEED') or system.getenv('X')\n"
        "    return path.join(a, text), log.environ, osp.environ, os.getpid()\n"
    )
    assert environment_reads(source) == [
        (5, "os.getenv"),
        (6, "os.environb"),
        (8, "os.environ"),
        (8, "system.getenv"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_writes_files_only_through_the_writer(path):
    source = path.read_text()
    if path.name == WRITER_MODULE:  # the exemption names the real writer
        assert [name for _, name in file_writes(source)] == ["open", "os.replace"]
    assert file_writes(source, WRITER if path.name == WRITER_MODULE else None) == []


def test_file_write_is_found():
    source = (
        "import io\n"
        "import os\n"
        "from os import rename\n"
        "from pathlib import Path\n"
        "def write_text_atomic(path, text):\n"
        "    with open(path + '.tmp', 'w') as fh:\n"
        "        fh.write(text)\n"
        "    os.replace(path + '.tmp', path)\n"
        "def report(path, text, log):\n"
        "    log.write_text(open(path).read(), open(path, 'rb'), text.replace('a', 'b'))\n"
        "    open(path, mode='a'), io.open(path, 'x'), Path(path).open('r+')\n"
        "    Path(path).write_bytes(text), os.rename(path, 'w')\n"
    )
    assert file_writes(source, "write_text_atomic") == [
        (3, "os.rename"),
        (10, "write_text"),
        (11, "open"),
        (11, "open"),
        (11, "open"),
        (12, "os.rename"),
        (12, "write_bytes"),
    ]


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracle_imports_nothing_it_checks(path):
    assert checked_code_imports(path.read_text()) == []


def test_oracle_import_of_checked_code_is_found():
    source = (
        "import cvdist.nogo\n"
        "import cvdist.states\n"
        "from cvdist import entanglement, symplectic\n"
        "from cvdist.measurements import DyneKind, DyneSpec, condition\n"
        "from cvdist.channels import apply as apply_channel\n"
        "from cvdist.protocols import *\n"
    )
    assert checked_code_imports(source) == [
        (1, "cvdist.nogo"),
        (3, "cvdist.entanglement"),
        (4, "cvdist.measurements.condition"),
        (5, "cvdist.channels.apply"),
        (6, "cvdist.protocols.*"),
    ]
