"""verify on damaged run directories: every artifact it reads, field by
field, refused with exit 1 and one line naming the file, never a traceback;
and the pass rule that turns the slacks into the exit code."""

from __future__ import annotations

import json
import math
import re
import shutil
from pathlib import Path

import pytest

from dynbc.cli import main, preset_path
from dynbc.verify import VerificationReport

# the fields verify reads from each preset's reports
_BARRIER = ["barrier", *(f"barrier.{k}" for k in ("q0", "q1", "kappa0", "M", "K", "psi")),
            "sup_bound"]
_SUMMARY = ["status", "status.kind", "step_log"]
READ = {
    "steady": {"certificate.json": _BARRIER, "summary.json": _SUMMARY},
    "cubic_damping": {
        "certificate.json": _BARRIER + [f"sup_bound.{k}" for k in (
            "Phi", "B", "u0_sup", "T", "M_paper", "M_proof", "lambda_star")],
        "summary.json": _SUMMARY},
    "blowup_270": {"certificate.json": ["psi"],
                   "summary.json": _SUMMARY + ["status.time", "status.max_gradient"]},
}
REMOVED = "removed"
VALUES = {REMOVED: None, "list": [1.0], "object": {"x": 1.0}, "null": None, "string": "x"}
# whole documents, as the text written
DOCUMENTS = {"list": "[1]", "string": '"x"', "number": "1", "not-json": "{"}
TABLES = ("empty", "two-column", "non-numeric", "one-row", "nan-xi")
# the damage verify reads as valid: optional blocks, free text verify does not parse
ACCEPTED = {("certificate.json", "barrier.psi", "string"),
            ("certificate.json", "sup_bound", REMOVED), ("certificate.json", "sup_bound", "null"),
            ("certificate.json", "sup_bound.Phi", "string"),
            ("summary.json", "step_log", REMOVED), ("summary.json", "step_log", "object")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each preset certified and solved once; cases copy its directory."""
    root = tmp_path_factory.mktemp("runs")
    for preset in READ:
        for stage in ("certify", "solve"):
            main([stage, "--spec", str(preset_path(preset)), "--out", str(root / preset)])
    return root


def _damage(out: Path, name: str, field: str | None, label: str) -> None:
    path = out / name
    if name == "h_table.csv":
        header, *rows = path.read_text().splitlines()
        rows = {"empty": [], "two-column": [r.rsplit(",", 1)[0] for r in rows],
                "non-numeric": rows[:4] + ["x,x,x"] + rows[5:], "one-row": rows[:1],
                "nan-xi": ["nan" + r[r.index(","):] for r in rows]}[label]
        path.write_text("\n".join([header, *rows]) + "\n")
        return
    if field is None:
        path.write_text(DOCUMENTS[label])
        return
    doc = json.loads(path.read_text())
    *blocks, key = field.split(".")
    block = doc
    for b in blocks:
        block = block[b]
    if label == REMOVED:
        del block[key]
    else:
        block[key] = VALUES[label]
    path.write_text(json.dumps(doc))


def _cases():
    for preset, files in READ.items():
        for name, fields in files.items():
            for field in fields:
                for label in VALUES:
                    yield pytest.param(preset, name, field, label,
                                       id=f"{preset}-{name}:{field}={label}")
            for label in DOCUMENTS:
                yield pytest.param(preset, name, None, label, id=f"{preset}-{name}=<{label}>")
        if preset != "blowup_270":  # a blow-up run reads no barrier table
            for label in TABLES:
                yield pytest.param(preset, "h_table.csv", None, label,
                                   id=f"{preset}-h_table.csv={label}")


@pytest.mark.parametrize("preset, name, field, label", _cases())
def test_a_damaged_artifact_is_refused_with_one_line_naming_it(
        runs, tmp_path, capsys, preset, name, field, label):
    out = tmp_path / "run"
    shutil.copytree(runs / preset, out, ignore=shutil.ignore_patterns("solution.csv"))
    _damage(out, name, field, label)
    capsys.readouterr()
    code = main(["verify", "--spec", str(preset_path(preset)), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if (name, field, label) in ACCEPTED:
        assert code == 0 and err == []
        return
    assert code == 1 and len(err) == 1 and err[0].startswith("verify: "), err
    assert not (out / "verification.json").exists()
    if preset == "blowup_270" and field == "psi" and label == "string":
        # a string, as certify writes it, that is not a gauge in p
        assert err[0] == "verify: psi may depend on p only, found ['x']"
    elif field is not None and "." in field:
        assert f"{name} {field}" in err[0]
    else:
        assert name in err[0]


def _certified_and_solved(tmp_path, preset: str) -> Path:
    out = tmp_path / "run"
    for stage in ("certify", "solve"):
        assert main([stage, "--spec", str(preset_path(preset)), "--out", str(out)]) == 0
    return out


def test_a_nan_barrier_table_does_not_verify(tmp_path, capsys):
    # a NaN h makes every pair's comparison value NaN, so no scan ever sets
    # an extreme: max_w_tilde stayed -inf and modulus_slack inf, and verify passed
    out = _certified_and_solved(tmp_path, "burgers")
    header, *rows = (out / "h_table.csv").read_text().splitlines()
    cells = [row.split(",") for row in rows]
    (out / "h_table.csv").write_text(
        "\n".join([header, *(f"{xi},nan,{hp}" for xi, _, hp in cells)]) + "\n")
    capsys.readouterr()
    assert main(["verify", "--spec", str(preset_path("burgers")), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "verify: h_table.csv holds a number that is not finite\n"
    assert not (out / "verification.json").exists()


def test_a_nan_slack_names_itself(tmp_path, capsys):
    out = _certified_and_solved(tmp_path, "steady")
    doc = json.loads((out / "certificate.json").read_text())
    doc["barrier"]["q1"] = "nan"  # as certify writes a NaN
    (out / "certificate.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--spec", str(preset_path("steady")), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("verify: gradient_slack = nan below ") for line in err), err
    rep = json.loads((out / "verification.json").read_text())
    assert rep["passed"] is False and rep["report"]["gradient_slack"] == "nan"


def _report(**slacks) -> VerificationReport:
    fields = dict(max_w_tilde=-1.0, max_w1_tilde=-1.0, gradient_slack=1.0, modulus_slack=1.0,
                  sup_slack=None, sup_slack_paper=None, blowup_lhs=None, witnesses={},
                  tolerance=0.1)
    return VerificationReport(**(fields | slacks))


def test_the_pass_rule_gates_each_slack_at_minus_tol():
    assert _report().failing(0.1) == {}
    assert _report(gradient_slack=-0.1, max_w_tilde=0.1).failing(0.1) == {}
    assert _report(gradient_slack=-0.2, max_w_tilde=0.2).failing(0.1) == {
        "max_w_tilde": -0.2, "gradient_slack": -0.2}
    assert _report(sup_slack=-0.2, sup_slack_paper=-5.0).failing(0.1) == {"sup_slack": -0.2}
    nan = _report(modulus_slack=math.nan).failing(0.1)
    assert list(nan) == ["modulus_slack"] and math.isnan(nan["modulus_slack"])


def test_the_documented_gated_slacks_are_the_pass_rule():
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    gated = re.search(r"verify gates the slacks\s+(.*?)\.\s+It\s+passes", text, re.S).group(1)
    # a NaN slack fails any tolerance, so an all-NaN report fails every gated slack
    names = ("max_w_tilde", "max_w1_tilde", "gradient_slack", "modulus_slack", "sup_slack")
    failing = _report(**dict.fromkeys(names, math.nan)).failing(0.1)
    assert re.findall(r"`(\w+)`", gated) == list(failing)
