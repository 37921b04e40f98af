"""Coverage for previously untested support modules (ISSUE 5 satellite).

* ``repro/config.py`` — every ``__post_init__`` validation error fires
  with a readable message, and the derived ``elog_entries`` property.
* ``repro/errors.py`` — the exception hierarchy, the payload-carrying
  errors (``MediaError``, ``SimulatedCrash``) and their reprs.
* ``bench/__main__.py`` — argument parsing: bad dataset/kernel/batch
  size/subcommand exit nonzero with a message on stderr (argparse),
  not a traceback; help exits zero.
* ``tools/check_reachability.py`` — passes on this tree, bites on a
  planted dead name and on a rotted allow-list.
* ``tools/check_doc_refs.py`` — passes on this tree, bites on a
  reference to a missing file or to a name not defined where it points,
  and on a dotted ``repro.…`` reference to a module that is gone.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.config import DGAPConfig
from repro.core.pma_tree import TAU_LEAF, TAU_ROOT
from repro.bench.__main__ import main
from repro import errors


# -- repro/config.py -------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"init_vertices": 0}, "must be positive"),
        ({"init_edges": -1}, "must be positive"),
        # in the slots of the deleted merge-point and PMA-bound rows
        ({"ulog_size": -8}, "ulog_size must be non-negative"),
        ({"ulog_size": -1}, "ulog_size must be non-negative"),
        ({"gap_distribution": "Uniform"}, "gap_distribution"),  # names are exact
        ({"segment_slots": 0}, "power of two"),
        ({"segment_slots": 128 + 64}, "power of two"),
        # the other side of the first two bounds, and both at once, in the
        # deleted rho rows' slots
        ({"init_vertices": -1}, "must be positive"),
        ({"init_edges": 0}, "must be positive"),
        ({"init_vertices": 0, "init_edges": 0}, "must be positive"),
        ({"segment_slots": 63}, "power of two"),
        ({"segment_slots": 96}, "power of two"),
        ({"segment_slots": 32}, "power of two"),
        ({"gap_distribution": "randomly"}, "gap_distribution"),
    ],
)
def test_config_validation_errors(kwargs, match):
    with pytest.raises(ValueError, match=match):
        DGAPConfig(**kwargs)


def test_config_defaults_are_valid_and_paper_shaped():
    cfg = DGAPConfig()
    assert cfg.elog_size == 2048 and cfg.ulog_size == 2048  # paper defaults
    assert cfg.segment_slots & (cfg.segment_slots - 1) == 0
    assert 0 < TAU_ROOT <= TAU_LEAF <= 1.0  # the paper's fixed PMA bounds


def test_config_elog_entries_derivation():
    from repro.core.edge_log import ENTRY_BYTES

    cfg = DGAPConfig(elog_size=2048)
    assert cfg.elog_entries == 2048 // ENTRY_BYTES
    tiny = DGAPConfig(elog_size=1)  # still at least one entry
    assert tiny.elog_entries == 1


def test_config_boundary_values_accepted():
    DGAPConfig(ulog_size=0)                      # smallest legal undo log
    DGAPConfig(segment_slots=64)                 # smallest legal section
    DGAPConfig(gap_distribution="uniform")


# -- repro/errors.py -------------------------------------------------------

def test_error_hierarchy_roots():
    for exc in (
        errors.PMemError,
        errors.GraphError,
        errors.SimulatedCrash,
    ):
        assert issubclass(exc, errors.ReproError)
    for exc in (
        errors.OutOfPMemError,
        errors.PoolLayoutError,
        errors.TransactionError,
        errors.MediaError,
    ):
        assert issubclass(exc, errors.PMemError)
    for exc in (
        errors.LockDisciplineError,
        errors.VertexRangeError,
        errors.ImmutableGraphError,
        errors.SnapshotError,
        errors.RecoveryError,
    ):
        assert issubclass(exc, errors.GraphError)
    # SimulatedCrash is NOT a bug class: it must not be a PMemError or
    # GraphError so `except GraphError` in callers never swallows it.
    assert not issubclass(errors.SimulatedCrash, errors.PMemError)
    assert not issubclass(errors.SimulatedCrash, errors.GraphError)


def test_media_error_carries_range():
    e = errors.MediaError("poisoned", off=256, length=64)
    assert e.off == 256 and e.length == 64
    assert isinstance(e, errors.ReproError)
    defaults = errors.MediaError("poisoned")
    assert defaults.off == -1 and defaults.length == 0


def test_simulated_crash_coordinates_and_repr():
    e = errors.SimulatedCrash(op="flush", op_index=7, total_index=19)
    assert e.op == "flush" and e.op_index == 7 and e.total_index == 19
    assert "flush" in str(e) and "#7" in str(e) and "#19" in str(e)
    assert repr(e) == "SimulatedCrash(op='flush', op_index=7, total_index=19)"
    bare = errors.SimulatedCrash()
    assert bare.op == "?" and bare.op_index == -1 and bare.total_index == -1
    assert "simulated power failure" in str(bare)


def test_one_except_catches_everything():
    for exc in (
        errors.OutOfPMemError("x"),
        errors.RecoveryError("x"),
        errors.SimulatedCrash(),
        errors.MediaError("x", off=0, length=1),
    ):
        with pytest.raises(errors.ReproError):
            raise exc


# -- bench/__main__.py argument parsing ------------------------------------

def test_cli_no_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_bad_dataset_exits_with_message(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["insert", "--dataset", "no-such-graph"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "no-such-graph" in err


def test_cli_bad_kernel_exits_with_message(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["analysis", "--kernel", "dijkstra"])
    assert ei.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_non_integer_batch_size_exits_with_message(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["insert", "--batch-size", "lots"])
    assert ei.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_cli_bad_profile_experiment_exits_with_message(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["profile", "warp-drive"])
    assert ei.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    for argv in (["--help"], ["insert", "--help"], ["profile", "--help"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


def test_cli_batch_size_normalization():
    from repro.core.batch import batch_limit

    assert batch_limit(0) is None  # <= 0 means "one unbounded batch"
    assert batch_limit(-3) is None
    assert batch_limit(None) is None
    assert batch_limit(7) == 7


# -- tools/check_reachability.py -------------------------------------------

def test_reachability_gate_passes_here_and_bites(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "check_reachability.py"
    spec = importlib.util.spec_from_file_location("check_reachability", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0, capsys.readouterr().out

    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "config.py").write_text(
        "class DGAPConfig:\n    set_field: int = 0\n    test_field: int = 0\n    read_field: int = 0\n"
        "    dict_field: int = 0\n"
        "class SweepPolicy:\n    dead_field: int = 0\n"
        "def reached():\n    return f'{DGAPConfig(set_field=1).read_field}'\n"
        "ARMS = [{'dict_field': 1}]\n"
        "def unreached_def():\n    'reached() and unreached_def() here are not callers'\n"
        "__all__ = ['unreached_def']\nreached()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("cfg.test_field = 3\nunreached_def()\n")
    assert tool.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    # a field is an option only if product code sets it — by keyword or
    # by a dict-literal key; a read of the default is one value in use, and
    # a field only tests set needs its reason on the list
    assert "never set: SweepPolicy.dead_field" in out and "never set: DGAPConfig.read_field" in out
    assert "never set: DGAPConfig.test_field" in out
    assert "DGAPConfig.set_field" not in out and "DGAPConfig.dict_field" not in out
    # tests are neither product callers nor setters
    assert "unreached: unreached_def" in out and "unreached: reached" not in out
    # the allow-list cannot rot: its names are not defined in this tree
    assert "stale allow-list entry: is_persisted — no longer defined" in out


def test_reachability_gate_resolves_parameters_and_field_owners(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "check_reachability.py"
    spec = importlib.util.spec_from_file_location("check_reachability", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "from dataclasses import replace\n"
        "class ServeConfig:\n    mode: str = 'closed'\n    seed: int = 0\n    kept: int = 0\n"
        "class Report:\n    def __init__(self, mode='x'):\n        self.m = mode\n"
        "def knob(a, b=1, c=2, d=3, *, e=4):\n    return a\n"
        "class Base:\n    def __init__(self, profile=None, size=1):\n        pass\n"
        "class Child(Base):\n    pass\n"
        "def wrapper(x, **kw):\n    return Child(**kw)\n"
        "def pr(view, damping=0.85):\n    return view\n"
        "def cc(view, rounds=64):\n    return view\n"
        "KERNELS = {'pr': pr, 'cc': cc}\n"
        "def run(view, kernel, flag=False):\n"
        "    fn = KERNELS[kernel]\n    fn(view, 0.9)\n"
        "    cfg = replace(ServeConfig(), seed=1)\n    cfg.kept = 2\n    return cfg\n"
        "def bfs(view, source=0):\n    return view\n"
        "def cc0(view):\n    return view\n"
        "SOURCED = {'bfs': bfs, 'cc': cc0}\n"
        "def branched(view, k):\n    fn = SOURCED[k]\n"
        "    if k == 'bfs':\n        fn(view, 7)\n    else:\n        fn(view)\n"
        "def near(view, radius=1):\n    return view\n"
        "WALKS = {'near': near, 'far': cc0}\n"
        "WALKS['near'](None, 2)\n"
        "def hops(view, k=1):\n    return view\n"
        "MIXED = {'hops': hops, 'len': len}\n"
        "def opaque(view, name):\n    return MIXED[name](view, 2)\n"
        "def main(params):\n    return run(**params)\n"
        "class Inner:\n    def sweep(self, tid=0):\n        return tid\n"
        "class Outer:\n    def sweep(self, tid=0):\n        return Inner().sweep(tid)\n"
        "def route(tid=0):\n    return _dispatch(tid)\n"
        "def _dispatch(tid):\n    return shard_put(1, tid=tid)\n"
        "def shard_put(x, tid=0):\n    return x\n"
        "def scaled(scale=1.0):\n    return scale\n"
        "def halved(n=1):\n    return n\n"
        "def entry(x, scale=1.0, n=2):\n    n = n // 2\n    return scaled(scale) + halved(n)\n"
        "entry(0, scale=2.0)\n"
        "Report(mode='y')\n"
        "knob(0, 5)\n"
        "knob(0, d=1, **{'e': 2})\n"
        "wrapper(0, size=3)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_y.py").write_text(
        "knob(0, c=9)\nBase(profile=1)\nServeConfig(mode='open')\n")
    assert tool.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    # a keyword, a position, a dict literal's keys behind ``**`` — and a
    # keyword that reaches a constructor through ``**kwargs`` and a base
    # class — pass a parameter; a test passing it does not
    assert "never passed: knob(c)" in out and "never passed: Base(profile)" in out
    for passed in ("knob(b)", "knob(d)", "knob(e)", "Base(size)", "Report(mode)"):
        assert passed not in out, passed
    # a call through a registry passes for every function it holds; an
    # opaque ``**`` (an argparse namespace) passes every parameter
    assert "pr(damping)" not in out and "cc(rounds)" not in out and "run(flag)" not in out
    # ... but only what every value it may select takes: a branch may pick
    # the values a call fits, which the gate cannot follow; a constant key
    # selects one value; a value that is not ours leaves the gate unable to tell
    assert "never passed: bfs(source)" in out and "near(radius)" not in out
    assert "never passed: hops(k)" in out
    # handing on one's own parameter delegates, whatever the callee is
    # named: the value is set only where the outermost parameter is
    assert "never passed: Inner.sweep(tid)" in out and "never passed: Outer.sweep(tid)" in out
    assert "never passed: route(tid)" in out and "never passed: shard_put(tid)" in out
    assert "scaled(scale)" not in out and "entry(scale)" not in out
    # a parameter rebound before the call is a new value, not a delegation
    assert "never passed: entry(n)" in out and "halved(n)" not in out
    # a field is set by its own class, replace() or a store — not by
    # another callee's keyword of the same name
    assert "never set: ServeConfig.mode" in out
    assert "ServeConfig.seed" not in out and "ServeConfig.kept" not in out


# -- tools/check_doc_refs.py ------------------------------------------------

def test_doc_reference_gate_passes_here_and_bites(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "check_doc_refs.py"
    spec = importlib.util.spec_from_file_location("check_doc_refs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0, capsys.readouterr().out

    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "ROWS = []\nclass TestA:\n    def test_b(self):\n        pass\ndef test_c():\n    pass\n"
    )
    (tmp_path / "DESIGN.md").write_text(
        "`tests/test_x.py::TestA::test_b`, tests/test_x.py::ROWS and tests/test_x.py resolve;\n"
        "`tests/test_gone.py` and `tests/test_x.py::TestA::test_c` do not,\n"
        "nor does src/repro/m.py::f\n"
    )
    assert tool.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DESIGN.md:2: tests/test_gone.py — no such file" in out
    # a function at the top level is not a method of the class before it
    assert "DESIGN.md:2: tests/test_x.py::TestA::test_c — 'test_c' is not defined there" in out
    assert "DESIGN.md:3: src/repro/m.py::f — no such file" in out
    assert "6 references, 3 unresolved" in out


def test_doc_reference_gate_resolves_dotted_names_through_reexports(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "check_doc_refs.py"
    spec = importlib.util.spec_from_file_location("check_doc_refs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    pkg = tmp_path / "src" / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg.parent / "__init__.py").write_text("from .pkg import Thing\n")
    (pkg / "__init__.py").write_text("from .mod import Ghost, Thing as Thing\nfrom . import mod\n")
    (pkg / "mod.py").write_text("class Thing:\n    def go(self):\n        pass\nLIMIT = 3\n")
    (tmp_path / "PAPER.md").write_text(
        "`repro.pkg.mod.Thing.go`, `repro.pkg.mod.LIMIT`, `repro.pkg.Thing.go`, `repro.Thing`\n"
        "and `repro.pkg.mod` resolve; the stale `repro.workloads.vthreads` does not,\n"
        "nor do `repro.pkg.Missing`, `repro.pkg.mod.Thing.stop` and the re-exported\n"
        "`repro.pkg.Ghost`, which its module never defines; repro.gone is not quoted\n"
    )
    assert tool.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "PAPER.md:2: repro.workloads.vthreads — 'workloads' is not defined there" in out
    assert "PAPER.md:3: repro.pkg.Missing — 'Missing' is not defined there" in out
    assert "PAPER.md:3: repro.pkg.mod.Thing.stop — 'stop' is not defined there" in out
    assert "PAPER.md:4: repro.pkg.Ghost — 'Ghost' is not defined there" in out
    assert "9 references, 4 unresolved" in out


# -- tools/check_coverage.py --dead-defs -------------------------------------

def test_dead_defs_gate_sees_what_the_name_gate_cannot(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "check_coverage.py"
    spec = importlib.util.spec_from_file_location("check_coverage", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    mod = pkg / "m.py"
    mod.write_text(
        "class Base:\n"
        "    def run(self):\n"          # 2
        "        return 1\n"            # 3: executes
        "class Override(Base):\n"
        "    def run(self):\n"          # 5: same name as a live def — never dispatched to
        "        '''doc'''\n"
        "        return 2\n"            # 7
        "def outer():\n"                # 8
        "    def inner():\n"            # 9
        "        return 3\n"            # 10: never executes
        "    return inner\n"            # 11: executes
        "def one_line(): return 4\n"    # 12: cannot be told from its def statement
    )
    allow = tmp_path / "allow.txt"
    monkeypatch.setattr(tool, "SRC", pkg)
    monkeypatch.setattr(tool, "DEAD_DEFS_ALLOW", allow)
    hits = {str(mod): {1, 2, 3, 4, 5, 8, 9, 11, 12}}
    assert tool.dead_defs(hits) == {"repro.m:Override.run", "repro.m:outer.inner"}

    allow.write_text("# header\nrepro.m:Override.run  # kept for the example\n")
    assert tool.check_dead_defs(hits) == 1
    assert "dead definition: repro.m:outer.inner" in capsys.readouterr().err
    allow.write_text(
        "repro.m:Override.run  # kept\nrepro.m:outer.inner\nrepro.m:Base.run  # executes\n"
    )
    assert tool.check_dead_defs(hits) == 2  # a missing reason, an entry that is alive
    err = capsys.readouterr().err
    assert "without a reason: repro.m:outer.inner" in err
    assert "stale allow-list entry: repro.m:Base.run" in err
    allow.write_text("repro.m:Override.run  # kept\nrepro.m:outer.inner  # kept\n")
    assert tool.check_dead_defs(hits) == 0

    # every entry of the real allow-list names a def of this tree, with a reason
    monkeypatch.undo()
    names = {
        f"{'.'.join(p.relative_to(tool.SRC.parent).with_suffix('').parts)}:{q}"
        for p in tool.SRC.rglob("*.py") for q, _ in tool.function_bodies(p)
    }
    for entry, reason in tool.allowed_dead_defs().items():
        assert entry in names and reason, entry
