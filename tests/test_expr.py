"""Parser / evaluator / derivative tests, incl. randomized oracle checks."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynbc.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from dynbc.expr import (
    FUNCTIONS, Binary, Const, Unary, Var, _fold_binary, _fold_unary,
    compile_expr, diff, evaluate, free_variables, parse, to_str,
)


def test_parse_example_tree():
    e = parse("z*p^2 + sin(x)")
    expected = Binary("+",
                      Binary("*", Var("z"), Binary("^", Var("p"), Const(2.0))),
                      Unary("sin", Var("x")))
    assert e == expected


def test_parse_single_constant():
    assert parse("1") == Const(1.0)


def test_parse_named_constants():
    assert parse("pi") == Const(math.pi)
    assert parse("e") == Const(math.e)


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifier) as exc:
        parse("q*(x)")
    assert exc.value.offset == 0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + * 2")
    assert exc.value.offset == 4


def test_unclosed_paren():
    with pytest.raises(ExprSyntaxError):
        parse("sin(x")


def test_exponent_must_be_constant():
    with pytest.raises(ExprSyntaxError):
        parse("z^p")
    # folded exponents are fine
    assert parse("p^(1+1)") == Binary("^", Var("p"), Const(2.0))


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert evaluate(parse("-2^2")) == -4.0
    assert evaluate(parse("2*3^2")) == 18.0
    assert evaluate(parse("2+3*4")) == 14.0
    assert evaluate(parse("(2+3)*4")) == 20.0


def test_eval_examples():
    assert evaluate(parse("1+p^2"), p=2) == 5.0
    assert evaluate(parse("exp(0)*x"), x=3) == 3.0


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("log(z)"), z=-1)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), x=-2)
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), x=0)
    err = None
    try:
        evaluate(parse("x + log(z)"), x=1, z=-1)
    except DomainError as ex:
        err = ex
    assert err is not None and err.node == Unary("log", Var("z"))


def test_every_failed_operation_is_a_domain_error_naming_its_node():
    # math's OverflowError and ValueError, and float **'s OverflowError
    for text, env, node in [("exp(z)", {"z": 800.0}, Unary("exp", Var("z"))),
                            ("sin(x)", {"x": math.inf}, Unary("sin", Var("x"))),
                            ("x + 10^400", {}, Binary("^", Const(10.0), Const(400.0)))]:
        with pytest.raises(DomainError) as exc:
            evaluate(parse(text), **env)
        assert exc.value.node == node
        assert str(exc.value).startswith(f"{to_str(node)}: ")
    # an inner node's error reaches the caller unchanged
    with pytest.raises(DomainError) as exc:
        evaluate(parse("1 + exp(z)*2"), z=800.0)
    assert exc.value.node == Unary("exp", Var("z")) and str(exc.value) == "exp(z): math range error"


def test_folding_leaves_an_overflow_to_evaluation():
    # math.exp and float ** raise OverflowError; the compiled exp gives inf
    e = parse("exp((3^2)^3)")
    assert e == Unary("exp", Const(729.0))
    with np.errstate(all="ignore"):
        assert compile_expr(e)() == math.inf
    assert parse("10^400") == Binary("^", Const(10.0), Const(400.0))


def test_folding_leaves_a_math_domain_error_to_evaluation():
    # math.sin and math.cos of inf raise ValueError("math domain error")
    for name in ("sin", "cos"):
        e = parse(f"{name}(1e400)")
        assert e == Unary(name, Const(math.inf))
        with pytest.raises(DomainError) as exc:
            evaluate(e)
        assert exc.value.node == e and str(exc.value) == f"{name}(inf): math domain error"


def test_diff_linearity_of_constant_times_p():
    b0 = parse("3.5")
    e = Binary("*", b0, Var("p"))
    d = diff(e, "p")
    assert evaluate(d, p=123.0) == 3.5


def test_diff_product_example():
    d = diff(parse("sin(x)*p^2"), "p")
    for xx, pp in [(0.3, 1.2), (1.0, -0.5), (2.0, 4.0)]:
        assert evaluate(d, x=xx, p=pp) == pytest.approx(math.sin(xx) * 2 * pp, rel=1e-14)


def test_diff_exp_fd_oracle():
    # frozen value from the central finite difference of exp(p*z) at step 1e-5
    d = diff(parse("exp(p*z)"), "p")
    assert evaluate(d, p=1, z=2) == pytest.approx(14.7781121978613, abs=1e-9)


def test_abs_derivative_zero_at_kink():
    d = diff(parse("abs(p)"), "p")
    assert evaluate(d, p=0.0) == 0.0
    assert evaluate(d, p=2.0) == 1.0
    assert evaluate(d, p=-2.0) == -1.0


# ---------------------------------------------------------------------------
# randomized properties

_UNARY = ["neg", "sin", "cos", "exp", "tanh", "abs"]
_BINARY = ["+", "-", "*", "/", "^"]


def _random_expr(rng: random.Random, depth: int):
    """Random tree of depth <= depth, avoiding domain singularities by
    construction (log/sqrt wrapped around squares plus one)."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.5:
            return Var(rng.choice(["t", "x", "z", "p"]))
        return Const(round(rng.uniform(-3, 3), 3))
    kind = rng.random()
    if kind < 0.35:
        op = rng.choice(_UNARY)
        child = _random_expr(rng, depth - 1)
        if op == "exp":  # keep magnitudes sane
            child = Binary("*", Const(0.3), Unary("tanh", child))
        return Unary(op, child)
    if kind < 0.45:
        # positive-argument log/sqrt
        inner = Binary("+", Const(1.0), Binary("^", _random_expr(rng, depth - 1), Const(2.0)))
        return Unary(rng.choice(["log", "sqrt"]), inner)
    op = rng.choice(_BINARY)
    left = _random_expr(rng, depth - 1)
    if op == "^":
        return Binary("^", Binary("+", Const(1.0), Binary("^", left, Const(2.0))),
                      Const(float(rng.randint(1, 3))))
    right = _random_expr(rng, depth - 1)
    if op == "/":
        right = Binary("+", Const(1.5), Binary("^", Unary("tanh", right), Const(2.0)))
    return Binary(op, left, right)


def test_roundtrip_randomized():
    # parse(print(parse(s))) == parse(s): parsing constant-folds, so the
    # canonical tree is the one the parser itself produces
    rng = random.Random(20240811)
    for _ in range(300):
        e = parse(to_str(_random_expr(rng, 6)))
        assert parse(to_str(e)) == e


def test_derivative_matches_central_difference():
    rng = random.Random(7)
    step = 1e-5
    checked = 0
    for _ in range(400):
        e = _random_expr(rng, 5)
        v = rng.choice(["t", "x", "z", "p"])
        d = diff(e, v)
        env = {n: rng.uniform(-1.5, 1.5) for n in ["t", "x", "z", "p"]}
        try:
            lo = dict(env); lo[v] -= step
            hi = dict(env); hi[v] += step
            fd = (evaluate(e, **hi) - evaluate(e, **lo)) / (2 * step)
            exact = evaluate(d, **env)
        except DomainError:
            continue
        if not (math.isfinite(fd) and math.isfinite(exact)):
            continue
        # skip near the abs/sign kinks where the FD oracle itself is invalid
        if _near_kink(e, env, step):
            continue
        assert abs(exact - fd) <= 1e-6 * (1 + abs(exact)) + 1e-4 * step, to_str(e)
        checked += 1
    assert checked > 200


def _near_kink(e, env, step):
    if isinstance(e, Unary):
        if e.op in ("abs", "sign"):
            try:
                if abs(evaluate(e.arg, **env)) < 50 * step:
                    return True
            except DomainError:
                return True
        return _near_kink(e.arg, env, step)
    if isinstance(e, Binary):
        return _near_kink(e.left, env, step) or _near_kink(e.right, env, step)
    return False


def test_diff_is_linear():
    rng = random.Random(99)
    for _ in range(60):
        e1 = _random_expr(rng, 4)
        e2 = _random_expr(rng, 4)
        d_sum = diff(Binary("+", e1, e2), "z")
        env = {n: rng.uniform(-1, 1) for n in ["t", "x", "z", "p"]}
        try:
            lhs = evaluate(d_sum, **env)
            rhs = evaluate(diff(e1, "z"), **env) + evaluate(diff(e2, "z"), **env)
        except DomainError:
            continue
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_compile_matches_evaluate():
    rng = random.Random(3)
    for _ in range(100):
        e = _random_expr(rng, 5)
        f = compile_expr(e)
        env = {n: rng.uniform(-1.2, 1.2) for n in ["t", "x", "z", "p"]}
        try:
            ref = evaluate(e, **env)
        except DomainError:
            continue
        assert float(f(**env)) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_a_kernel_gives_inf_or_nan_and_never_raises():
    with np.errstate(all="ignore"):
        # constants that print as inf/nan, and folds that failed
        assert compile_expr(parse("1e400*x"))(x=2.0) == math.inf
        assert math.isnan(compile_expr(parse("1+0*1e400"))())
        assert math.isnan(compile_expr(parse("-z*p + 0*10^400"))(z=1.0, p=1.0))
        assert math.isnan(compile_expr(parse("0*(1/0)"))())
        assert math.isnan(compile_expr(parse("(0-8)^(1/3)"))())
        # numpy scalars, as the solver hands its end kernels
        assert compile_expr(parse("0.1/t"))(t=np.float64(0.0)) == math.inf


# each function's reference value, independent of the table
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
         "sqrt": math.sqrt, "abs": math.fabs, "tanh": math.tanh,
         "sign": lambda v: math.copysign(1.0, v) if v else 0.0}


def test_the_parser_accepts_exactly_the_table():
    assert sorted(FUNCTIONS) == sorted(_MATH)
    for name in ("tan", "sinh", "cosh", "arcsin", "log10", "ln", "sgn", "floor", "square"):
        with pytest.raises(UnknownIdentifier):
            parse(f"{name}(x)")


@pytest.mark.parametrize("name", FUNCTIONS)
def test_each_function_parses_folds_compiles_and_differentiates(name):
    assert parse(f"{name}(x)") == Unary(name, Var("x"))
    for text in (name, f"{name}*x", f"{name}(x"):
        with pytest.raises(ExprSyntaxError):
            parse(text)
    assert parse(f"{name}(0.7)") == Const(_MATH[name](0.7))
    xs = np.array([-2.0, -0.5, -0.0, 0.0, 0.7, 3.0, math.inf])
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(compile_expr(parse(f"{name}(x)"))(x=xs), getattr(np, name)(xs))
    h, x0 = 1e-6, 0.7
    fd = (_MATH[name](x0 + h) - _MATH[name](x0 - h)) / (2 * h)
    assert evaluate(diff(parse(f"{name}(x)"), "x"), x=x0) == pytest.approx(fd, rel=1e-8, abs=1e-9)


def test_compile_broadcasts():
    f = compile_expr(parse("z*p^2 + sin(x)"))
    x = np.array([0.0, math.pi / 2])
    out = f(x=x, z=2.0, p=3.0)
    assert np.allclose(out, [18.0, 19.0])


def test_free_variables():
    assert free_variables(parse("z*p^2 + sin(x)")) == {"z", "p", "x"}
    assert free_variables(parse("1+pi")) == set()


# ---------------------------------------------------------------------------
# derivatives of variables an expression does not read

def test_unused_variable_derivative_is_zero_where_tree_overflows():
    # exp(900) overflows; the derivative in t must still be exactly 0
    d = diff(parse("z*exp(p^2)"), "t")
    assert compile_expr(d)(p=30.0, z=1.0) == 0.0
    assert diff(parse("-2*z^3"), "p") == Const(0.0)
    assert diff(parse("x^0"), "x") == Const(0.0)
    # the parser still folds constants only
    assert parse("0*p") == Binary("*", Const(0.0), Var("p"))
    assert free_variables(parse("0*p")) == {"p"}


def reference_diff(e, v):
    """Symbolic derivative with constant folding only, kept verbatim from
    before zero factors and zero terms were dropped; the property below
    compares ``diff`` against it."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == v else 0.0)
    if isinstance(e, Unary):
        du = reference_diff(e.arg, v)
        if e.op == "neg":
            return _fold_unary("neg", du)
        if e.op == "sin":
            outer = _fold_unary("cos", e.arg)
        elif e.op == "cos":
            outer = _fold_unary("neg", _fold_unary("sin", e.arg))
        elif e.op == "exp":
            outer = e
        elif e.op == "log":
            outer = _fold_binary("/", Const(1.0), e.arg)
        elif e.op == "sqrt":
            outer = _fold_binary("/", Const(0.5), e)
        elif e.op == "tanh":
            outer = _fold_binary("-", Const(1.0), _fold_binary("^", e, Const(2.0)))
        elif e.op == "abs":
            outer = _fold_unary("sign", e.arg)
        elif e.op == "sign":
            outer = Const(0.0)
        else:
            raise ValueError(f"unknown unary op {e.op!r}")
        return _fold_binary("*", outer, du)
    if isinstance(e, Binary):
        dl = reference_diff(e.left, v)
        dr = reference_diff(e.right, v)
        if e.op == "+":
            return _fold_binary("+", dl, dr)
        if e.op == "-":
            return _fold_binary("-", dl, dr)
        if e.op == "*":
            return _fold_binary("+", _fold_binary("*", dl, e.right), _fold_binary("*", e.left, dr))
        if e.op == "/":
            num = _fold_binary("-", _fold_binary("*", dl, e.right), _fold_binary("*", e.left, dr))
            return _fold_binary("/", num, _fold_binary("^", e.right, Const(2.0)))
        if e.op == "^":
            c = e.right
            powm1 = _fold_binary("^", e.left, Const(c.value - 1.0))
            return _fold_binary("*", _fold_binary("*", c, powm1), dl)
    raise TypeError(f"not an Expr node: {e!r}")


_leaves = st.one_of(
    st.sampled_from([Var(n) for n in ("t", "x", "z", "p")]),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -0.5, 3.0]).map(Const),
)


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt",
                                          "abs", "tanh", "sign"]), children),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(lambda base, c: Binary("^", base, Const(c)), children,
                  st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5])),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=12)
_point = st.one_of(st.floats(-3.0, 3.0), st.floats(-40.0, 40.0), st.sampled_from([0.0, 30.0, -30.0]))


@settings(max_examples=400, deadline=None)
@given(tree=_trees, v=st.sampled_from(["t", "x", "z", "p"]),
       t=_point, x=_point, z=_point, p=_point)
def test_diff_equals_reference_wherever_reference_is_finite(tree, v, t, x, z, p):
    # reparse so constant subtrees fold exactly as for real coefficient text
    e = parse(to_str(tree))
    env = {n: np.float64(val) for n, val in zip("txzp", (t, x, z, p))}
    with np.errstate(all="ignore"):
        try:
            ref = compile_expr(reference_diff(e, v))(**env)
        except (ZeroDivisionError, OverflowError):
            assume(False)
        assume(np.isfinite(ref))
        got = compile_expr(diff(e, v))(**env)
    assert got == ref  # -0.0 == 0.0
