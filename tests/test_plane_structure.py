"""There is one remote plane (``repro.ucp.transport.remote``).

Both remote backends read frames in one loop, ``FramePlane.progress``, run
by each rank itself, and ``shm`` applies failure-detector frames by one
rule.  A second frame loop, a second detector wrapper, an event loop or a
helper thread in ``src/repro/ucp/transport/`` would be a second reader of
the frames, and a second copy of the rule "a rank's finish or death must
not outrun its last frames" — the copy that drifts.  This walk fails when
one grows back: the loop is the only function that reads or polls a plane
channel and the only caller of ``deliver_frame``, readiness comes from
``select.poll``, not from ``selectors`` or ``asyncio``, and the only thread
the package builds is a rank (``ThreadedTransport.run_job``'s
``mpi-rank-*``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
TRANSPORT = SRC / "ucp" / "transport"
#: (file, function) of the one frame loop.
LOOP = ("remote.py", "progress")
#: Functions that may read a connection besides the loop: the shm driver
#: collecting rank reports from its result pipes (not plane channels).
REPORT_READERS = {("shm.py", "run_job")}
#: The one function that may build a thread: ``ThreadedTransport.run_job``,
#: starting one thread per rank.
RANK_SPAWNER = ("base.py", "run_job")
#: Calls that read a channel or wait for one to be readable (building the
#: loop's one ``select.poll`` object is neither).
_READS = {"recv", "read", "wait", "conn_wait", "poll"}
_DETECTOR_TRANSITIONS = {"mark_dead", "mark_finished", "abort_job"}


def _functions(tree):
    """(function name, node) for every node, by innermost function."""
    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, None)


def _called(node) -> str:
    fn = node.func
    return fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")


def violations(sources: dict[str, str]) -> list[str]:
    """Everything in ``{file name: source}`` that breaks the one plane."""
    found = []
    appliers, detectors = [], []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text)
        for fn, node in _functions(tree):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [node.module or ""] if isinstance(
                    node, ast.ImportFrom) else [a.name for a in node.names]
                if {m.split(".")[0] for m in mods} & {"asyncio",
                                                      "selectors"}:
                    found.append(f"{where}: imports an event loop")
            elif isinstance(node, ast.Call):
                called = _called(node)
                if called == "deliver_frame" and (name, fn) != LOOP:
                    found.append(f"{where}: deliver_frame outside the loop")
                if called == "Thread" and (name, fn) != RANK_SPAWNER:
                    found.append(f"{where}: starts a thread")
                if called in _READS \
                        and ast.unparse(node.func) != "select.poll" \
                        and (name, fn) != LOOP \
                        and (name, fn) not in REPORT_READERS:
                    found.append(f"{where}: {called}() outside the loop")
            elif isinstance(node, ast.ClassDef):
                methods = {m.name for m in node.body
                           if isinstance(m, ast.FunctionDef)}
                if any(m.startswith("apply_remote") for m in methods):
                    appliers.append(node.name)
                bases = {ast.unparse(b).split(".")[-1] for b in node.bases}
                if "FailureDetector" in bases \
                        or methods & _DETECTOR_TRANSITIONS:
                    detectors.append(node.name)
    if len(appliers) > 1:
        found.append(f"apply_remote_* defined by {appliers}")
    if len(detectors) > 1:
        found.append(f"FailureDetector wrapped by {detectors}")
    return found


def test_the_walk_sees_a_second_plane():
    bad = ("import asyncio\n"
           "class A:\n"
           "    def apply_remote_dead(self): pass\n"
           "    def abort_job(self, r): pass\n"
           "class B:\n"
           "    def apply_remote(self, f): pass\n"
           "    def mark_finished(self, r): pass\n"
           "    def _drain(self, c, w):\n"
           "        f = c.recv()\n"
           "        os.read(c.fileno(), 4)\n"
           "        self.deliver_frame(w, 0, f)\n"
           "    def _start(self):\n"
           "        threading.Thread(target=self._drain).start()\n")
    found = violations({"x.py": bad})
    assert len(found) == 7, found


def test_one_loop_one_rule_no_event_loop():
    sources = {p.name: p.read_text() for p in TRANSPORT.glob("*.py")}
    assert violations(sources) == []


def test_deliver_frame_has_one_caller_in_the_package():
    calls = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in SRC.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and _called(node) == "deliver_frame"]
    assert len(calls) == 1, calls
