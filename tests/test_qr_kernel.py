"""Every QR factorization in the package runs through one kernel.

``structured_linalg._StackQR`` factors each stack in the array it was built
in, with no workspace query, and forms only the Q columns its callers keep;
a QR called anywhere else would bring back the query's copy of the stack or
a whole Q.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "transport_nare"

#: The one class per module allowed to call a QR routine.
KERNEL = {"structured_linalg.py": "_StackQR"}

#: scipy.linalg.qr and numpy.linalg.qr (attribute or imported name ``qr``)
#: and LAPACK's QR routines, with or without their type prefix.
QR_NAME = re.compile(r"qr|[sdcz]?(geqrf|geqp3|geqr2|geqrt|gemqrt|tpqrt|tpmqrt|orgqr|"
                     r"ormqr|org2r|orm2r|ungqr|unmqr)(_lwork)?")


def qr_references(source, kernel=None):
    """(line, name) of each QR routine ``source`` names outside class ``kernel``.

    A name is an attribute (``sla.qr``, ``lapack.dgeqrf``), an imported name,
    or a string (``get_lapack_funcs("geqrf")``).
    """
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == kernel:
            allowed.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if QR_NAME.fullmatch(a.name)]
            continue
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if QR_NAME.fullmatch(name):
            found.append((node.lineno, name))
    return sorted(found)


def test_detector_flags_qr_outside_the_kernel():
    source = ("import numpy as np\nimport scipy.linalg as sla\n"
              "from scipy.linalg import lapack, qr\n"
              "class K:\n    def f(self, a):\n        return lapack.dgeqrf(a)\n"
              "def g(a):\n    sla.qr(a)\n    np.linalg.qr(a, mode='r')\n"
              "    lapack.dorgqr(a, a)\n    sla.get_lapack_funcs('geqp3')\n"
              "    lapack.dgemqrt(a, a, a)\n"
              "    return a.qrs, 'dormqr is not a name'\n")
    assert qr_references(source, kernel="K") == [
        (3, "qr"), (8, "qr"), (9, "qr"), (10, "dorgqr"), (11, "geqp3"), (12, "dgemqrt")]
    assert (6, "dgeqrf") in qr_references(source)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_qr_outside_the_kernel(path):
    found = qr_references(path.read_text(), KERNEL.get(path.name))
    assert not found, "%s: QR outside the kernel %s" % (path.name, found)


def test_kernel_still_holds_the_qr_calls():
    # once the kernel calls no QR routine, it needs no exemption
    for module, kernel in KERNEL.items():
        source = (SRC / module).read_text()
        names = {name for _, name in qr_references(source)}
        assert names == {"dgeqrt", "dgemqrt", "dgeqp3", "dorgqr"}, module
        assert not qr_references(source, kernel), module
