"""There is one place a rank parks: ``Worker.park`` (``repro.ucp.context``).

A hand-written wait — an ``Event``/``Condition`` ``.wait(`` or a
``time.sleep(`` poll — anywhere else in the MPI layer, the request classes or
the tag matcher would be a blocking site the failure detector and the
sanitizer never hear about (it hangs where ``recv`` raises).  This walk
fails when one grows back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GUARDED = sorted((SRC / "mpi").glob("*.py")) + [
    SRC / "ucp" / "context.py", SRC / "ucp" / "tagmatch.py"]
#: The primitive: the only function allowed to block.
PRIMITIVE = ("context.py", "park")
_SYNC_TYPES = {"Event", "Condition", "Semaphore", "BoundedSemaphore",
               "Barrier", "Latch"}


def _sync_names() -> set[str]:
    """Every name the package binds to a ``threading`` primitive or a
    :class:`repro.ucp.wire.Latch` (``self.matched = Latch()`` ->
    ``matched``)."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Call)):
                continue
            fn = node.value.func
            made = fn.attr if isinstance(fn, ast.Attribute) else \
                getattr(fn, "id", None)
            if made not in _SYNC_TYPES:
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                names.add(t.attr if isinstance(t, ast.Attribute)
                          else getattr(t, "id", ""))
    # ...and the names a primitive usually travels under as an argument.
    return (names | {"event", "cond", "condition", "wake"}) - {""}


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) \
        else getattr(node, "id", "")


def _blocking_calls(tree, sync_names):
    """(line, text) of every wait on a sync primitive and every sleep."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))):
            continue
        called = _name(node.func)
        if called == "sleep":
            yield node.lineno, ast.unparse(node)
        elif called == "wait" and isinstance(node.func, ast.Attribute) \
                and _name(node.func.value) in sync_names:
            yield node.lineno, ast.unparse(node)


def _outside_primitive(path: Path, sync_names):
    tree = ast.parse(path.read_text())
    if path.name == PRIMITIVE[0]:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == PRIMITIVE[1]:
                node.body = []          # what happens in park stays in park
    return [f"{path.relative_to(SRC)}:{line}: {text}"
            for line, text in _blocking_calls(tree, sync_names)]


def test_the_walk_knows_the_events():
    names = _sync_names()
    assert {"matched", "completed", "arrival"} <= names


def test_the_walk_sees_a_hand_written_wait():
    names = _sync_names()
    bad = ast.parse("def f(self):\n"
                    "    while not self._posted.matched.wait(0.01):\n"
                    "        time.sleep(1e-4)\n"
                    "    event.wait(timeout=poll)\n"
                    "    self.req.wait()\n")
    assert sorted(line for line, _ in _blocking_calls(bad, names)) == [2, 3, 4]


def test_only_the_primitive_blocks():
    names = _sync_names()
    found = [hit for path in GUARDED
             for hit in _outside_primitive(path, names)]
    assert found == [], "blocking outside Worker.park:\n" + "\n".join(found)


def test_the_primitive_is_one_wait_and_one_loop():
    tree = ast.parse((SRC / "ucp" / PRIMITIVE[0]).read_text())
    park = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                and n.name == PRIMITIVE[1])
    # No branch of its own for a pristine wait: every wait, watched or
    # not, is the one nap inside the one loop.
    loops = [n for n in ast.walk(park) if isinstance(n, (ast.While, ast.For))]
    assert len(loops) == 1
    blocking = {"wait", "sleep", "nap", "progress"}

    def naps(tree):
        return [ast.unparse(n) for n in ast.walk(tree)
                if isinstance(n, ast.Call) and _name(n.func) in blocking]

    assert naps(park) == naps(loops[0]) == ["nap(tick)"]
