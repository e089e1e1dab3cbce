"""What a simulated memory image costs the process that holds it.

A ``MemoryImage``'s words live on a private anonymous mapping, so an
image holds only the pages a kernel writes, and gives them back to the
OS when it is dropped.  The tree before the mapping (2c0fd46) backed
each image with ``np.zeros``: after the first 8 MiB default image was
freed, glibc's dynamic mmap threshold rose above 8 MiB, every later
image was carved from the C heap, zeroed in full, and its pages stayed
resident after the image was gone (+8.0 MiB of ``VmRSS`` after five
written-and-dropped images; +0.06 MiB with the mapping).  A pool worker
simulating cell after cell paid that once per worker.

The mapping must be ``MAP_PRIVATE``: under Python's anonymous default,
``MAP_SHARED``, a child forked after an image is written would share
its pages, and the child's writes would reach the parent's image.

Linux only (``VmRSS`` from ``/proc/self/status``).  Every case runs in a
fresh interpreter, so what an earlier test left on the heap cannot hide
or fake a retention.  ``python tests/test_memory_footprint.py`` prints
the "Resident memory per image" table.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status (Linux)"
)

#: Rounds of the written-and-dropped case.
ROUNDS = 5


def vmrss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


# ----------------------------------------------------------------------
# The cases, each run in a child interpreter; each returns a JSON-able dict.
# ----------------------------------------------------------------------


def case_unwritten():
    """``VmRSS`` growth from one default image nobody writes."""
    from repro.functional.memory import MemoryImage

    start = vmrss_kib()
    image = MemoryImage()
    return {"size_bytes": image.size_bytes, "delta_kib": vmrss_kib() - start}


def case_written_and_dropped():
    """``VmRSS`` after ``ROUNDS`` default images, each written in full
    and then dropped, against before the first; and while one is held."""
    from repro.functional.memory import MemoryImage

    start = vmrss_kib()
    held = 0
    for _ in range(ROUNDS):
        image = MemoryImage()
        image.words[:] = 1.0
        held = max(held, vmrss_kib() - start)
        del image
    return {"held_kib": held, "delta_kib": vmrss_kib() - start}


def case_fork_isolation():
    """A child forked after a write sees the parent's values; its own
    writes stay out of the parent's image."""
    from repro.functional.memory import MemoryImage

    image = MemoryImage(1 << 16)
    image.words[:] = 7.0
    pid = os.fork()
    if pid == 0:
        saw_parent = bool((image.words == 7.0).all())
        image.words[:] = 9.0
        os._exit(0 if saw_parent else 1)
    _, status = os.waitpid(pid, 0)
    return {
        "child_saw_parent": os.waitstatus_to_exitcode(status) == 0,
        "parent_unchanged": bool((image.words == 7.0).all()),
    }


def case_words_contract():
    """``words`` is what the functional model has always read and written."""
    import numpy as np

    from repro.functional.memory import MemoryImage, SharedMemory

    shapes = []
    for image in (MemoryImage(), MemoryImage(4096), MemoryImage(0), SharedMemory(10)):
        words = image.words
        shapes.append(
            {
                "size_bytes": image.size_bytes,
                "count": int(words.size),
                "ndim": words.ndim,
                "dtype": str(words.dtype),
                "writeable": bool(words.flags.writeable),
                "c_contiguous": bool(words.flags.c_contiguous),
                "zero": bool((words == 0.0).all()),
            }
        )
    image = MemoryImage(4096)
    image.write_array(128, np.arange(4.0))
    out = image.read_array(128, 4)
    out[:] = -1.0
    image.words[32] = 5.0
    return {
        "shapes": shapes,
        "image_after": image.read_array(128, 4).tolist(),
        "copy_after": out.tolist(),
    }


CASES = {
    "unwritten": case_unwritten,
    "written_and_dropped": case_written_and_dropped,
    "fork_isolation": case_fork_isolation,
    "words_contract": case_words_contract,
}


def run_case(name):
    """Run one case in a fresh interpreter and return its dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case", name],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


# ----------------------------------------------------------------------
# The contract.
# ----------------------------------------------------------------------


def test_an_unwritten_image_is_not_resident():
    got = run_case("unwritten")
    assert got["size_bytes"] == 1 << 22
    assert got["delta_kib"] < 1024, got


def test_dropped_images_go_back_to_the_os():
    got = run_case("written_and_dropped")
    # A held image is resident: its 8 MiB of float64 words were written.
    assert got["held_kib"] >= 7 * 1024, got
    assert got["delta_kib"] < 2 * 1024, got


def test_a_forked_child_shares_nothing_back():
    assert run_case("fork_isolation") == {"child_saw_parent": True, "parent_unchanged": True}


def test_words_are_a_zeroed_writable_float64_vector():
    got = run_case("words_contract")
    expected = [(1 << 22, 1 << 20), (4096, 1024), (0, 0), (12, 3)]
    assert [(s["size_bytes"], s["count"]) for s in got["shapes"]] == expected
    for shape in got["shapes"]:
        assert shape["ndim"] == 1 and shape["dtype"] == "float64", shape
        assert shape["writeable"] and shape["c_contiguous"] and shape["zero"], shape
    # read_array hands out a copy: neither side sees the other's writes.
    assert got["image_after"] == [5.0, 1.0, 2.0, 3.0]
    assert got["copy_after"] == [-1.0] * 4


def main():
    if sys.argv[1:2] == ["--case"]:
        print(json.dumps(CASES[sys.argv[2]]()))
        return
    unwritten = run_case("unwritten")
    dropped = run_case("written_and_dropped")
    print("| image (default, %d KiB of float64 words) | VmRSS growth (KiB) |"
          % ((1 << 20) * 8 // 1024))
    print("| --- | ---: |")
    print("| one image, unwritten | %d |" % unwritten["delta_kib"])
    print("| one image, written in full, held | %d |" % dropped["held_kib"])
    print("| %d images, each written in full and dropped | %d |"
          % (ROUNDS, dropped["delta_kib"]))


if __name__ == "__main__":
    main()
