"""verify on damaged run directories: every field it reads from
``summary.json`` refused with exit 1 and one line naming the file, never a
traceback; certify's reports, which verify does not read, damaged, stale or
replaced, leaving its exit code and report as they are; and the pass rule
that turns the slacks into the exit code."""

from __future__ import annotations

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from dynbc.cli import main, preset_path
from dynbc.verify import VerificationReport

# the fields of each preset's reports that the cases damage
_BARRIER = ["barrier", *(f"barrier.{k}" for k in ("q0", "q1", "kappa0", "M", "K", "psi")),
            "sup_bound"]
_SUMMARY = ["status", "status.kind", "step_log"]
READ = {
    "steady": {"certificate.json": _BARRIER, "summary.json": _SUMMARY},
    "cubic_damping": {
        "certificate.json": _BARRIER + [f"sup_bound.{k}" for k in (
            "Phi", "B", "u0_sup", "T", "M_paper", "M_proof", "lambda_star")],
        "summary.json": _SUMMARY},
    "burgers": {"certificate.json": ["barrier.kappa0"], "summary.json": []},
    "blowup_270": {"certificate.json": ["psi"],
                   "summary.json": _SUMMARY + ["status.time", "status.max_gradient"]},
}
REMOVED = "removed"
VALUES = {REMOVED: None, "list": [1.0], "object": {"x": 1.0}, "null": None, "string": "x"}
# a kappa0 that leaves the pair scans no pair, as certify writes a NaN or as a number
KAPPA0 = {"nan": "nan", "negative": -1.0, "tiny": 1e-9}
# whole documents, as the text written; a directory in place of the file
DOCUMENTS = {"list": "[1]", "string": '"x"', "number": "1", "not-json": "{"}
DIRECTORY = "directory"
TABLES = ("empty", "two-column", "non-numeric", "one-row", "nan-xi", "nan-h")
# certify's reports of another preset in place of the run's own
STALE = "from-steady"
CERTIFY_REPORTS = ("certificate.json", "h_table.csv")
# the summary damage verify reads as valid
ACCEPTED = {("summary.json", "step_log", REMOVED), ("summary.json", "step_log", "object")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each preset certified, solved and verified once; cases copy its
    directory."""
    root = tmp_path_factory.mktemp("runs")
    for preset in READ:
        for stage in ("certify", "solve", "verify"):
            main([stage, "--spec", str(preset_path(preset)), "--out", str(root / preset)])
    return root


def _damage(runs: Path, out: Path, name: str, field: str | None, label: str) -> None:
    path = out / name
    if label == STALE:
        for report in CERTIFY_REPORTS:
            shutil.copy(runs / "steady" / report, out / report)
        return
    if label == DIRECTORY:
        path.unlink(missing_ok=True)
        path.mkdir()
        return
    if name == "h_table.csv":
        header, *rows = path.read_text().splitlines()
        rows = {"empty": [], "two-column": [r.rsplit(",", 1)[0] for r in rows],
                "non-numeric": rows[:4] + ["x,x,x"] + rows[5:], "one-row": rows[:1],
                "nan-xi": ["nan" + r[r.index(","):] for r in rows],
                "nan-h": [f"{xi},nan,{hp}" for xi, _, hp in (r.split(",") for r in rows)]}[label]
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
        block[key] = (VALUES | KAPPA0)[label]
    path.write_text(json.dumps(doc))


def _cases():
    for preset, files in READ.items():
        for name, fields in files.items():
            for field in fields:
                labels = [*VALUES, *KAPPA0] if field == "barrier.kappa0" else VALUES
                for label in labels:
                    yield pytest.param(preset, name, field, label,
                                       id=f"{preset}-{name}:{field}={label}")
            for label in [*DOCUMENTS, DIRECTORY]:
                yield pytest.param(preset, name, None, label, id=f"{preset}-{name}=<{label}>")
        yield pytest.param(preset, "h_table.csv", None, DIRECTORY,
                           id=f"{preset}-h_table.csv=<{DIRECTORY}>")
        if preset != "blowup_270":  # certify writes no barrier table for a blow-up run
            for label in TABLES:
                yield pytest.param(preset, "h_table.csv", None, label,
                                   id=f"{preset}-h_table.csv={label}")
        if preset != "steady":
            yield pytest.param(preset, "certificate.json", None, STALE,
                               id=f"{preset}-certify-reports=<{STALE}>")


def _verify_damaged(runs, tmp_path, capsys, preset, name, field, label):
    """verify's exit code and stderr lines on a copy of ``preset``'s run
    with ``name`` damaged, and the copy."""
    out = tmp_path / "run"
    shutil.copytree(runs / preset, out, ignore=shutil.ignore_patterns("solution.csv"))
    _damage(runs, out, name, field, label)
    capsys.readouterr()
    code = main(["verify", "--spec", str(preset_path(preset)), "--out", str(out)])
    return code, capsys.readouterr().err.splitlines(), out


@pytest.mark.parametrize("preset, name, field, label", [
    case for case in _cases() if case.values[1] in CERTIFY_REPORTS])
def test_certifys_reports_do_not_change_the_verification(
        runs, tmp_path, capsys, preset, name, field, label):
    # verify builds the barrier from the spec: a damaged table, a kappa0
    # that leaves no pair to scan or a stale certificate once passed or
    # failed by what certify's reports held
    code, err, out = _verify_damaged(runs, tmp_path, capsys, preset, name, field, label)
    assert code == 0 and err == []
    clean = (runs / preset / "verification.json").read_bytes()
    assert (out / "verification.json").read_bytes() == clean


@pytest.mark.parametrize("preset, name, field, label", [
    case for case in _cases() if case.values[1] == "summary.json"])
def test_a_damaged_summary_is_refused_with_one_line_naming_it(
        runs, tmp_path, capsys, preset, name, field, label):
    code, err, out = _verify_damaged(runs, tmp_path, capsys, preset, name, field, label)
    if (name, field, label) in ACCEPTED:
        assert code == 0 and err == []
        return
    assert code == 1 and len(err) == 1 and err[0].startswith("verify: "), err
    assert not (out / "verification.json").exists()
    if field is not None and "." in field:
        assert f"{name} {field}" in err[0]
    else:
        assert name in err[0]


def test_a_nan_slack_names_itself(tmp_path, capsys):
    spec = str(preset_path("steady"))
    out = tmp_path / "run"
    assert main(["solve", "--spec", spec, "--out", str(out)]) == 0
    data = np.load(out / "solution.npy")
    data[data.shape[0] // 2, 3] = math.nan  # one u_x cell
    np.save(out / "solution.npy", data)
    capsys.readouterr()
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 2
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
