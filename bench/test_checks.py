"""The benchmark's checks accept the program's outputs and reject corrupted ones.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from iwacalc import IdealSpan, TruncationSpec, load_abelian  # noqa: E402
from run import Run  # noqa: E402


def execute(op):
    args = op.prepare(op.setup())
    return args, op.run(args)


# -- group-route ---------------------------------------------------------------

@pytest.fixture(scope="module")
def product():
    op = workloads.ColdProduct(6, seed=3)
    args, out = execute(op)
    return op, args, out


def test_product_check_accepts_program_output(product):
    op, args, out = product
    assert op.check(args, out) == []


def test_product_check_rejects_flipped_coefficient(product):
    op, args, out = product
    a, c = next(iter(out.coeffs.items()))
    bad = out.trunc.from_dict({**out.coeffs, a: c + 1})
    assert op.check(args, bad)


def test_product_check_rejects_dropped_term(product):
    op, args, out = product
    a = max(out.coeffs)
    bad = out.trunc.from_dict({k: v for k, v in out.coeffs.items() if k != a})
    assert op.check(args, bad)


def test_embed_sum_matches_direct_binomials():
    labels = sorted(oracle.monomials_below((1, 1, 2), 7))
    terms = [(3, (24, 7, 101)), (2, (5, 0, 3)), (4, (24, 7, 101))]
    want = {}
    for c, lam in terms:
        for beta in labels:
            v = c * math.prod(math.comb(m, k) for m, k in zip(lam, beta))
            want[beta] = (want.get(beta, 0) + v) % 5
    assert oracle.embed_sum(terms, labels, 5, 3) == {a: v for a, v in want.items() if v}


def test_heisenberg_law_matches_matrices():
    # (a,b,c) is the matrix with entries pa, pb, p^2 ab + pc
    p, M = 5, 3
    m = p ** (M + 1)

    def matrix(a, b, c):
        return np.array([[1, p * a, p * p * a * b + p * c], [0, 1, p * b], [0, 0, 1]])
    x, y = (7, 31, 102), (44, 3, 9)
    prod = matrix(*x) @ matrix(*y) % m
    z = oracle.heisenberg_mul(x, y, p, M)
    assert np.array_equal(prod % p ** M, matrix(*z) % p ** M)


# -- ideal-closure -------------------------------------------------------------

@pytest.fixture(scope="module")
def closure():
    ops = workloads.ideal_closure_ops(seed=5, widths=(8,))
    return [(op, *execute(op)) for op in ops]


def fresh(op):
    """The same operation with no verified span recorded yet."""
    return workloads.IdealClosure(op.W, op.sided, 5, {})


def with_rows(span, rows, pivots):
    return IdealSpan(span.trunc, np.asarray(rows, dtype=np.int64),
                     tuple(pivots), span.sided)


def test_closure_check_accepts_program_output(closure):
    for op, args, out in closure:
        assert op.check(args, out) == [], op.name


def test_closure_check_rejects_dropped_row(closure):
    op, args, (span, wit, ctl) = closure[0]
    bad = with_rows(span, span.rows[:-1], span.pivots[:-1])
    assert fresh(op).check(args, (bad, wit, ctl))


def test_closure_check_rejects_flipped_coefficient(closure):
    op, args, (span, wit, ctl) = closure[0]
    rows = span.rows.copy()
    free = [c for c in range(rows.shape[1]) if c not in span.pivots]
    rows[0, free[-1]] = (rows[0, free[-1]] + 1) % 3
    assert fresh(op).check(args, (with_rows(span, rows, span.pivots), wit, ctl))


def test_closure_check_rejects_broken_echelon_form(closure):
    op, args, (span, wit, ctl) = closure[0]
    rows = span.rows.copy()
    rows[0, span.pivots[0]] = 2
    assert fresh(op).check(args, (with_rows(span, rows, span.pivots), wit, ctl))


def test_closure_check_rejects_witnesses_and_wrong_controller(closure):
    op, args, (span, wit, ctl) = closure[0]
    assert fresh(op).check(args, (span, [{"direction": 1}], ctl))
    assert fresh(op).check(args, (span, wit, tuple(1 - c for c in ctl)))


def test_closure_check_rejects_sides_that_differ(closure):
    (right, args, out), (two, args2, out2) = closure
    op = workloads.IdealClosure(two.W, two.sided, 5,
                                {two.W: np.zeros(1, dtype=np.int64).tobytes()})
    assert op.check(args2, out2) == [
        f"{two.name}: right and two-sided spans differ"]


def test_rank_and_residual_helpers():
    rows = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    assert oracle.rank_mod_p(rows, 3) == 2
    assert oracle.rank_mod_p(rows, 5) == 3
    basis = np.array([[1, 2, 0], [0, 0, 1]])
    assert not oracle.residual(np.array([[2, 1, 2]]), basis, [0, 2], 3).any()
    assert oracle.residual(np.array([[0, 1, 0]]), basis, [0, 2], 3).any()


# -- cli-tasks -----------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("cli"))
    name, doc, expect = workloads.cli_configs(seed=9)[0]
    op = workloads.CliRun(name, doc, expect, workdir)
    _, out = execute(op)
    return op, out


def edit_record(text: bytes, k: int, edit) -> bytes:
    records = [json.loads(line) for line in text.decode().splitlines()]
    edit(records[k])
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def test_cli_check_accepts_program_output(cli_run):
    op, out = cli_run
    assert op.check(None, out) == []


def test_cli_check_rejects_bad_exit_status_and_records(cli_run):
    op, (rc, text) = cli_run
    assert op.check(None, (1, text))
    assert op.check(None, (rc, text.splitlines(keepends=True)[0]))
    assert op.check(None, (rc, edit_record(text, 0, lambda r: r.update(status="fail"))))


def test_cli_check_rejects_wrong_dagger_cosets(cli_run):
    op, (rc, text) = cli_run

    def drop_coset(record):
        record["witnesses"] = record["witnesses"][:-1]
    assert op.check(None, (rc, edit_record(text, 5, drop_coset)))


def test_cli_check_rejects_wrong_metric(cli_run):
    op, (rc, text) = cli_run
    assert op.check(None, (rc, edit_record(
        text, 2, lambda r: r["metrics"].update(columns=9))))


class _Fixed(workloads.Op):
    name = "fixed"

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def setup(self):
        return None

    def run(self, args):
        return next(self.outputs)

    def check(self, args, out):
        return []

    def fingerprint(self, out):
        return out


def test_later_pass_must_repeat_checked_output():
    r = Run([_Fixed([b"a", b"a", b"b"])])
    for _ in range(3):
        r.one_pass(setup_reps=1)
    assert (r.attempted, r.failed) == (3, 1)
    assert r.problems == ["fixed: output differs from the checked pass"]


# -- tracing -------------------------------------------------------------------

def test_tracer_counts_and_reports_absent_names():
    t = TruncationSpec(load_abelian(3, 2, 4, ["1", "1"]), 6)
    x = t.monomial((1, 0)) + t.monomial((0, 1))
    tracer = spans.Tracer()
    tracer.install(targets=[("series", "TruncatedSeries.__mul__"),
                            ("padic", "comb_mod"), ("series", "no_such_name")])
    try:
        x * x * x
    finally:
        tracer.uninstall()
    assert tracer.absent == ["series.no_such_name"]
    assert tracer.count("series.TruncatedSeries.__mul__") == 2
    assert all(s >= 0 for s in tracer.self_s)
    assert type(t).__module__ == "iwacalc.series"
    x * x
    assert tracer.count("series.TruncatedSeries.__mul__") == 2   # uninstalled
