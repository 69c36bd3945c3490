"""find_q1 and sup_bound decide from their Gauss sums what the scalar tail
probe used to decide before them, and condition (9) reads the budget
integral as find_q1 does.

``tail_probe`` is a frozen copy of the scalar adaptive-Simpson probe the
package used to run; its cap on integrand evaluations, which could only end
a call, is left out.  ``probe_find_q1`` is a frozen copy of an earlier
``find_q1``: the probe bounds q1, then the Gauss cells are summed from q0 to
one doubling past the probe's last limit.  ``probe_sup_bound`` is an
earlier ``sup_bound``: the same probe of 1/Phi, then the current sup budget.
The current functions must raise the same exception with the same message.
Where find_q1 sums the same cells as the frozen copy, from q0 >= 1 on a
smooth gauge, q1 is the same bit for bit; elsewhere the budget at q1, by
adaptive Simpson split at the kinks and the powers of two, must be 2M up to
1e-13 2M plus one ulp of q1 times the integrand there.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dynbc import certificate, numerics
from dynbc.certificate import (
    PsiSpec, _doubling_edges, _gauss_sums, _reach, build_barrier, check_hypotheses, find_q1,
    sup_bound,
)
from dynbc.errors import ConditionViolated, PreconditionFailed
from dynbc.expr import compile_expr, parse
from dynbc.problem import DynamicBC, ProblemSpec
from simpson import adaptive_simpson, psi_fn


class TailProbe:
    """Classification of an integral over [a, infinity).

    converged      -- True when successive doubling windows stopped contributing
    value          -- accumulated integral up to the last probed limit
    upper          -- last probed upper limit
    crossed_target -- probing ended early because the accumulated integral
                      passed the caller's stop_above threshold (unclassified)
    """

    def __init__(self, converged: bool, value: float, upper: float,
                 crossed_target: bool = False):
        self.converged = converged
        self.value = value
        self.upper = upper
        self.crossed_target = crossed_target

    @property
    def classification(self) -> str:
        if self.crossed_target:
            return "crossed_target"
        return "convergent" if self.converged else "divergent"


def tail_probe(f, a: float, rel_tol: float = 1e-14, max_doublings: int = 60,
               stop_above: float | None = None) -> TailProbe:
    """Probe whether the improper integral of f over [a, inf) converges.

    Upper limits double from max(1, a); convergence is declared when the
    increment of a doubling window drops below rel_tol relative to the
    accumulated value.  With stop_above set, probing ends early once the
    accumulated integral exceeds that target (the caller only needed to
    know the integral gets that far).
    """
    upper = max(1.0, abs(a)) * 2.0
    total = adaptive_simpson(f, a, upper)
    for _ in range(max_doublings):
        if stop_above is not None and total > stop_above:
            return TailProbe(False, total, upper, crossed_target=True)
        nxt = upper * 2.0
        inc = adaptive_simpson(f, upper, nxt)
        total += inc
        upper = nxt
        if abs(inc) <= rel_tol * (1.0 + abs(total)):
            return TailProbe(True, total, upper)
    return TailProbe(False, total, upper)


def probe_find_q1(psi: PsiSpec, q0: float, M: float) -> float:
    if not (q0 > 0):
        raise PreconditionFailed(f"q0 must be positive, got {q0}")
    if not (M > 0):
        raise PreconditionFailed(f"M must be positive, got {M}")
    fn = psi_fn(psi)
    target = 2.0 * M

    probe = tail_probe(lambda r: r / fn(r), q0, stop_above=target)
    if not probe.value > target:
        reach = "converges to" if probe.converged else f"up to {probe.upper:.6g} reaches"
        raise ConditionViolated(
            f"integral of rho/psi over [{q0}, inf) {reach} ~{probe.value:.6g}"
            f" <= 2M = {target:.6g}; no finite q1 exists")

    kernel = psi.kernel()

    def integrand(rho):
        return rho / kernel(rho)

    edges = _doubling_edges(q0, 2.0 * probe.upper)
    return _reach(integrand, edges, _gauss_sums(integrand, edges[:-1], edges[1:]), target)


def probe_sup_bound(Phi, B, u0_sup, T):
    phi_fn = compile_expr(Phi)
    probe = tail_probe(lambda r: 1.0 / float(phi_fn(t=r, x=r, z=r, p=r)), 0.0)
    if probe.converged:
        raise ConditionViolated(
            f"integral of 1/Phi over [0, inf) converges (~{probe.value:.6g}); "
            "the sup budget construction requires divergence")
    return sup_bound(Phi, B, u0_sup, T)


def assert_meets_budget(psi: PsiSpec, q0: float, M: float, q1: float, kinks=()) -> None:
    """The integral of rho/psi over [q0, q1] is 2M, to 1e-13 2M plus one ulp
    of q1 times the integrand at q1.  The oracle integrates at tol = 1e-14:
    at its default 1e-12 its own error can use up that bound."""
    fn = psi_fn(psi)
    powers = (2.0 ** j for j in range(math.ceil(math.log2(q0)), math.floor(math.log2(q1)) + 1))
    cuts = sorted({q0, q1, *(c for c in (*kinks, *powers) if q0 < c < q1)})
    budget = math.fsum(adaptive_simpson(lambda r: r / fn(r), lo, hi, tol=1e-14)
                       for lo, hi in zip(cuts, cuts[1:]))
    assert abs(budget - 2.0 * M) <= 1e-13 * 2.0 * M + math.ulp(q1) * q1 / fn(q1)


def outcome(fn, *args):
    """('value', result) or (exception type, message)."""
    try:
        return "value", fn(*args)
    except ConditionViolated as exc:
        return type(exc), str(exc)


def bits(x: float) -> int:
    return int(np.array(x, dtype=np.float64).view(np.uint64))


PROBLEM = ProblemSpec(ell=1.0, T=1.0, a=parse("1"), f=parse("0"), u0=parse("0"),
                      bc_minus=DynamicBC(parse("1"), parse("0")),
                      bc_plus=DynamicBC(parse("1"), parse("0")))


def condition_9(psi: PsiSpec, q0: float, M: float):
    """The (9) entry of check_hypotheses on a small problem."""
    return check_hypotheses(PROBLEM, M=M, q0=q0, psi=psi, pmax=1.0, n_samples=3).entry("(9)")


def assert_9_agrees(psi: PsiSpec, q0: float, M: float, found) -> None:
    """(9) reads crossed_target iff find_q1 returns q1, convergent iff it
    raises "converges to", divergent iff it raises "up to ... reaches"."""
    classified = condition_9(psi, q0, M).witness["classified"]
    if found[0] == "value":
        assert classified == "crossed_target"
    elif "converges to" in found[1]:
        assert classified == "convergent"
    else:
        assert "up to " in found[1] and " reaches " in found[1]
        assert classified == "divergent"


def assert_q1_agrees(psi: PsiSpec, q0: float, M: float, old, new, kinks=()) -> None:
    """The same decision and message as the frozen find_q1; the same q1 bit
    for bit from q0 >= 1 on a smooth gauge, else a q1 that meets the budget."""
    if old[0] == "value" and new[0] == "value":
        if q0 >= 1.0 and not kinks:
            assert bits(new[1]) == bits(old[1])
        else:
            assert_meets_budget(psi, q0, M, new[1], kinks)
    else:
        assert new == old


@st.composite
def gauges(draw):
    """A gauge's text and its kinks."""
    kind = draw(st.sampled_from(["1", "1+p", "1+p^2", "(1+p^2)^1.5", "kinked", "power"]))
    if kind == "kinked":
        c = draw(st.floats(0.0, 10.0))
        return f"1+abs(p-{c!r})", (c,)
    if kind == "power":
        return f"(1+p^2)^{draw(st.floats(0.9, 1.6))!r}", ()
    return kind, ()


@settings(deadline=None, max_examples=150)
@given(gauges(), st.floats(-9.0, 1.0), st.floats(-2.0, 1.0))
# the oracle at tol = 1e-12 missed this q1 by 2.4633e-14 against a bound of 2.4645e-14
@example(("(1+p^2)^1.2081058968129912", ()), -1.1426146805599604, -0.91015625)
def test_find_q1_decides_as_the_probe_did(gauge, log_q0, log_M):
    text, kinks = gauge
    psi = PsiSpec.from_text(text)
    q0, M = 10.0 ** log_q0, 10.0 ** log_M
    old, new = outcome(probe_find_q1, psi, q0, M), outcome(find_q1, psi, q0, M)
    assert_q1_agrees(psi, q0, M, old, new, kinks)
    assert_9_agrees(psi, q0, M, new)


@pytest.mark.parametrize("text, q0, M", [
    ("(1+p^2)^1.5", 1e-9, 1.0),       # converges to 1 < 2M
    ("(1+p^2)^1.05", 1e-9, 9.0),      # still open at the probe's last limit 2^61
    ("(1+p^2)^1.05", 3.0, 9.0),       # the same with q0 >= 1, limit 3 2^61
    ("(1+p^2)^1.05", 1e-9, 4.0),      # passes 2M late
    ("1", 1e-9, 1e-2),                # a tiny q0 must not look converged at once
])
def test_find_q1_decides_as_the_probe_did_at_the_edges(text, q0, M):
    psi = PsiSpec.from_text(text)
    old, new = outcome(probe_find_q1, psi, q0, M), outcome(find_q1, psi, q0, M)
    assert_q1_agrees(psi, q0, M, old, new)
    assert_9_agrees(psi, q0, M, new)


@settings(deadline=None, max_examples=100)
@given(st.floats(0.0, 10.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.5))
@example(6.0, 0.5, 1.0)  # psi 1+abs(p-6), q0 = 10^0.5, M = 10
def test_find_q1_meets_the_budget_on_a_kinked_gauge(c, log_q0, log_M):
    # each cell halves at the kink on its own, so no other cell of its call
    # can stop it short
    psi = PsiSpec.from_text(f"1+abs(p-{c!r})")
    q0, M = 10.0 ** log_q0, 10.0 ** log_M
    assert_meets_budget(psi, q0, M, find_q1(psi, q0, M), (c,))


def test_a_cell_is_read_alike_in_any_call():
    fn = PsiSpec.from_text("1+abs(p-6)").budget_integrand()
    edges = _doubling_edges(10.0 ** 0.5, 2.0 ** 61)
    together = certificate._cells(fn, edges[:-1], edges[1:])
    alone = np.concatenate([certificate._cells(fn, edges[i:i + 1], edges[i + 1:i + 2])
                            for i in range(edges.size - 1)])
    assert np.max(np.abs(together - alone) / np.abs(alone)) <= 1e-15


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(["1", "1+z", "2+z", "(1+z)^2", "1+z^2"]),
       st.floats(-2.0, 1.0), st.floats(0.0, 2.0), st.floats(0.1, 2.0))
def test_sup_bound_decides_as_the_probe_did(text, log_B, u0_sup, T):
    Phi, B = parse(text), 10.0 ** log_B
    assert outcome(sup_bound, Phi, B, u0_sup, T) == outcome(probe_sup_bound, Phi, B, u0_sup, T)


def test_build_barrier_runs_no_tail_probe(monkeypatch):
    # no scalar probe is left; find_q1, check_hypotheses and sup_bound read
    # one tail integral each, and sup_bound inverts G twice
    assert not hasattr(numerics, "tail_probe")
    starts, reaches = [], []
    tail, reach = certificate.tail_integral, certificate._reach
    monkeypatch.setattr(certificate, "tail_integral",
                        lambda fn, a: starts.append(a) or tail(fn, a))
    monkeypatch.setattr(certificate, "_reach",
                        lambda *args: reaches.append(args[-1]) or reach(*args))
    psi = PsiSpec.from_text("1+p^2")
    build_barrier(psi, q0=1.0, M=1.0, K=0.5)
    assert (starts, len(reaches)) == ([1.0], 1)
    check_hypotheses(PROBLEM, M=1.0, q0=1.0, psi=psi, n_samples=3)  # pmax = 4 q1
    assert (starts, len(reaches)) == ([1.0, 1.0], 2)
    sup_bound(parse("1+z"), B=1.0, u0_sup=0.5, T=1.0)
    assert (starts, len(reaches)) == ([1.0, 1.0, 0.0], 4)


def test_an_oscillating_gauge_at_a_large_q0_meets_condition_9():
    # the scalar probe stopped here at its cap of 2^20 integrand evaluations
    # while find_q1 returned q1; the two now read one quadrature
    psi, q0, M = PsiSpec.from_text("2+sin(p)"), 2393.0, 10.0
    q1 = find_q1(psi, q0, M)
    assert q1 > q0
    entry = condition_9(psi, q0, M)
    assert entry.satisfied and entry.witness["classified"] == "crossed_target"
    assert adaptive_simpson(lambda r: r / (2.0 + math.sin(r)), q0, q1) == pytest.approx(2.0 * M)
