"""What a cold ``import repro.api, repro.service, repro.workloads`` loads.

A sweep scripted as many ``repro`` invocations pays that import every
time.  The stdlib stacks that only one backend or writer runs — the
process pool (``multiprocessing``, ``socket``, ``subprocess``), the
daemon client (``http.client``, ``email``, ``ssl``), the CSV writer,
the atomic writers' ``tempfile``, the pool workers' ``signal`` and the
daemon URL check's ``urllib.parse`` — are imported inside the function
that uses them, so an inline sweep never loads them.  Each check runs in
a fresh interpreter started without ``site``, so a ``.pth`` file that
preloads one of these modules cannot hide a module-level import of it.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Stdlib modules the cold import must not add to ``sys.modules``.
DEFERRED = (
    "concurrent.futures.process",
    "multiprocessing",
    "socket",
    "http.client",
    "ssl",
    "email.parser",
    "csv",
    "tempfile",
    "signal",
    "urllib.parse",
)

COLD_IMPORT = "import repro.api, repro.service, repro.workloads\n"

ONE_CELL = (
    "from repro.api import Engine, SweepSpec\n"
    "spec = SweepSpec.from_presets(['baseline'], workloads=['histogram'], size='tiny')\n"
)


def _fresh(script, *args):
    """Run ``script`` in a new interpreter without ``site``, on this
    interpreter's ``sys.path``; its stdout, split."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in sys.path if p])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_the_cold_import_adds_none_of_the_deferred_stacks():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + COLD_IMPORT
        + "added = set(sys.modules) - before\n"
        "print(' '.join(m for m in %r if m in added) or '-')\n" % (DEFERRED,)
    )
    assert _fresh(script) == ["-"]


def test_the_cold_import_builds_no_workload():
    """Workloads are built on first use, one module each: the import
    builds none, loads no kernel's module and no ``numpy.random`` (what
    their inputs are drawn with), so ``setup_s`` pays for none."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + COLD_IMPORT
        + "from repro.workloads import suite\n"
        "added = set(sys.modules) - before\n"
        "kernels = {info.module for info in suite.list_workloads()} & added\n"
        "print(len(suite._BUILT), 'numpy.random' in added, ' '.join(sorted(kernels)) or '-')\n"
    )
    assert _fresh(script) == ["0", "False", "-"]


@pytest.mark.parametrize(
    "module, path",
    [
        (
            "concurrent.futures.process",
            ONE_CELL
            + "rs = Engine(backend='process', jobs=1, memo={}).run(spec)\n"
            "assert len(rs) == 1 and not rs.errors\n",
        ),
        (
            "csv",
            ONE_CELL
            + "text = Engine(backend='inline', memo={}).run(spec).to_csv()\n"
            "assert text.startswith('workload,size,config,cycles,'), text\n"
            "assert text.count('\\n') == 2, text\n",
        ),
        (
            "http.client",
            "from repro.service import RemoteClient, RemoteError\n"
            "try:\n"
            "    RemoteClient('http://127.0.0.1:1', retries=0).health()\n"
            "except RemoteError as exc:\n"
            "    assert 'ConnectionRefusedError' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('a closed port answered')\n",
        ),
        (
            "tempfile",
            "import os\n"
            + ONE_CELL
            + "from repro.api import cache\n"
            "cell = spec.cells()[0]\n"
            "(result,) = Engine(backend='inline', memo={}).run(spec)\n"
            "stats = result.stats\n"
            "digest = cache.disk_store(sys.argv[1], cell.workload, cell.size, cell.config, stats)\n"
            "assert cache.disk_load(sys.argv[1], cell.workload, cell.size, cell.config) == stats\n"
            "assert os.path.isfile(cache.digest_path(sys.argv[1], digest))\n",
        ),
    ],
    ids=["process_backend", "to_csv", "remote_client", "disk_store"],
)
def test_each_deferred_stack_loads_where_it_runs(tmp_path, module, path):
    script = (
        "import sys\n"
        + COLD_IMPORT
        + "assert %r not in sys.modules\n" % module
        + path
        + "print(%r in sys.modules)\n" % module
    )
    assert _fresh(script, str(tmp_path)) == ["True"]
