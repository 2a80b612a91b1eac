"""Spans around the calls into the package's modules, kept in memory.

``instrument`` swaps each traced function or method of the package for a
wrapper that opens a span on entry and closes it on exit, and puts the
originals back when the block ends.  Spans nest: each records its parent, and
top-level spans opened by the benchmark carry a request label (one solve, or
one set-up) that its children inherit.  A layer's self time is its span's
duration minus the durations of its direct children.
"""

import functools
import json
import time
from contextlib import contextmanager

from transport_nare import dense_sda, modified_sda_ls, sda_ls, structured_linalg, \
    transport_problem

#: (owner, attribute, span name).  Functions imported by name into a solver
#: module are swapped in that module, where the solver looks them up.
TRACED = (
    (transport_problem, "gauss_legendre", "transport_problem.gauss_legendre"),
    (transport_problem, "build_instance", "transport_problem.build_instance"),
    (structured_linalg.BaseOperators, "apply", "structured_linalg.base_apply"),
    (structured_linalg.ImplicitIterate, "apply", "structured_linalg.implicit_apply"),
    (structured_linalg.ImplicitIterate, "push_update", "structured_linalg.push_update"),
    (structured_linalg.ShiftedSolver, "solve", "structured_linalg.smw_solve"),
    (sda_ls, "orthonormalize_against", "structured_linalg.orthonormalize"),
    (modified_sda_ls, "orthonormalize_against", "structured_linalg.orthonormalize"),
    (sda_ls, "truncated_svd", "structured_linalg.truncated_svd"),
    (modified_sda_ls, "truncated_svd", "structured_linalg.truncated_svd"),
    (sda_ls, "residual_norm", "structured_linalg.residual_norm"),
    (modified_sda_ls, "residual_norm", "structured_linalg.residual_norm"),
    (sda_ls, "sda_ls_step", "sda_ls.step"),
    (modified_sda_ls, "msda_step", "modified_sda_ls.step"),
    (dense_sda, "dense_sda_step", "dense_sda.step"),
    (dense_sda, "dense_residual", "dense_sda.residual"),
)


class Recorder:
    """In-memory span store: [name, start, end, parent, request] per span."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _enter(self, name, request=None):
        parent = self._open[-1] if self._open else None
        if parent is not None:
            request = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, request])
        self._open.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name, request=None):
        self._enter(name, request)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def summary(self, since, until):
        """{name: (self seconds, calls)} over spans ``since`` <= id < ``until``.

        Every span in the range must have its parent in the range too, or no
        parent: the benchmark takes ranges between its own top-level spans.
        """
        spans = self.spans[since:until]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child[parent - since] += end - start
        out = {}
        for (name, start, end, _, _), kids in zip(spans, child):
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - kids, c + 1)
        return out

    def write(self, path, extra):
        doc = dict(extra)
        doc["spans"] = [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                         "request": r}
                        for i, (n, s, e, p, r) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


@contextmanager
def instrument(recorder):
    """Route the traced package calls through ``recorder`` inside the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TRACED]
    try:
        for owner, attr, name in TRACED:
            setattr(owner, attr, recorder.wrap(getattr(owner, attr), name))
        yield recorder
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
