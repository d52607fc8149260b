import filecmp
import json
import math
import os
import re

import numpy as np
import pytest

from rootlift import (build_bundle, cli, identity_selfmap, make_torus2, poly_from_exprs,
                      pullback, scenarios)
from rootlift.base import BaseSpace
from rootlift.cli import ScenarioError, main, run_scenario, validate_config


def _small_example1(n=301):
    return scenarios.builtin_scenario("example1", samples=n)


def test_schema_rejects_bad_kind():
    cfg = {"name": "x", "base": {"kind": "moebius"}}
    with pytest.raises(ScenarioError) as err:
        validate_config(cfg)
    assert "$.base.kind" in str(err.value)


def test_schema_rejects_analysis_base_mismatch():
    cfg = {"name": "x", "base": {"kind": "interval", "samples": 10},
           "analyses": ["strips"]}
    with pytest.raises(ScenarioError):
        validate_config(cfg)


def test_schema_requires_polynomial_for_extension_analyses():
    cfg = {"name": "x", "base": {"kind": "circle", "samples": 12},
           "analyses": ["cole"]}
    with pytest.raises(ScenarioError):
        validate_config(cfg)


def test_run_example1_small(tmp_path):
    code = run_scenario(_small_example1(), str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["analyses"]["cole"]["answer"] == "yes"
    assert doc["analyses"]["ah"]["answer"] == "yes"
    assert doc["expectations"]["matched"]
    assert (tmp_path / "bundle_p.csv").exists()
    assert (tmp_path / "bundle_pT.csv").exists()
    assert (tmp_path / "lift_f.csv").exists()


def test_bundle_csv_columns(tmp_path):
    run_scenario(_small_example1(), str(tmp_path))
    header = (tmp_path / "bundle_p.csv").read_text().splitlines()[0]
    assert header == "sample_index,coord,sheet_index,root_re,root_im,branch_flag"
    line = (tmp_path / "bundle_p.csv").read_text().splitlines()[1]
    assert line.split(",")[0] == "0"


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = scenarios.builtin_scenario("example2", samples=240)
    run_scenario(cfg, str(a), svg=True)
    run_scenario(cfg, str(b), svg=True)
    for name in ("verdict.json", "bundle_p.csv", "bundle_pT.csv",
                 "lift_f.csv", os.path.join("figures", "bundle_p.svg")):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_exit_code_two_on_expectation_mismatch(tmp_path):
    cfg = _small_example1()
    cfg["expect"] = {"cole": "no"}
    assert run_scenario(cfg, str(tmp_path)) == 2
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert not doc["expectations"]["matched"]


def test_exit_code_one_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "base": {"kind": "nope"}}))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1


def test_exit_code_one_on_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 1


def test_main_builtin_roundtrip(tmp_path):
    code = main(["builtin", "example3", "--samples", "200",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    cole = doc["analyses"]["cole"]
    assert cole["answer"] == "no"
    assert cole["certificate_kind"] == "csp_exhaustion"
    # the merge at theta = pi, sample 100 of 200, refutes the 3 x 2 maps the loop allows
    assert cole["certificate_data"]["orbit_choices"] == [3, 2]
    assert cole["certificate_data"]["merge_samples"] == [100]


def test_run_config_file_via_main(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_example1(201)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


def test_stability_flag(tmp_path):
    cfg = scenarios.builtin_scenario("example3", samples=200)
    code = run_scenario(cfg, str(tmp_path), stability=True)
    assert code == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["stability"]["stable"]
    assert doc["stability"]["runs"] == ["base", "2n", "4n"]


def test_stability_with_explicit_resolutions(tmp_path):
    cfg = scenarios.builtin_scenario("example3", samples=200)
    cfg["resolutions"] = [300, 500]
    code = run_scenario(cfg, str(tmp_path), stability=True)
    assert code == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["stability"]["runs"] == ["base", "n=300", "n=500"]
    assert doc["stability"]["stable"]


def test_torus_builtin(tmp_path):
    cfg = scenarios.builtin_scenario("torus", samples=16)
    code = run_scenario(cfg, str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["analyses"]["cole"]["answer"] == "no"
    assert doc["analyses"]["torus_controls"]["identity_cole"]["answer"] == "yes"


def test_identity_pullback_reproduces_the_torus_source_bundle():
    # the premise on which torus_controls decides the source against itself
    cfg = scenarios.builtin_scenario("torus", samples=16)
    base = make_torus2(16, 16)
    p = poly_from_exprs(base, cfg["polynomial"]["coefficients"])
    A, B = build_bundle(p), pullback(p, identity_selfmap(base))
    assert B.poly.coeff_values.tobytes() == p.coeff_values.tobytes()
    assert np.array_equal(A.fibers, B.fibers)
    assert np.array_equal(A.edge_perms, B.edge_perms)
    assert np.array_equal(A.branch_flags, B.branch_flags)


# a double root along the circles sin(theta1) = 0.65, which fall between the
# grid lines of an 8x8 torus, so the edges that cross them are bisected
TORUS_TABLE_MAP = {"name": "t", "base": {"kind": "torus2", "shape": [8, 8]},
                   "polynomial": {"coefficients": ["-(sin(theta1)-0.65)^2", "0"]},
                   "selfmap": {"identity": True}, "analyses": ["cole"]}


def test_torus_table_map_bisects_its_pullback(tmp_path):
    # the identity's off-sample images are the bisection points themselves
    cfg_path = tmp_path / "t.json"
    cfg_path.write_text(json.dumps(TORUS_TABLE_MAP))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert doc["analyses"]["cole"]["answer"] == "yes"


def test_identity_table_pullback_reproduces_a_bisected_torus_bundle():
    base = make_torus2(8, 8)
    p = poly_from_exprs(base, TORUS_TABLE_MAP["polynomial"]["coefficients"])
    A, B = build_bundle(p), pullback(p, identity_selfmap(base))
    assert A.refinement
    assert np.array_equal(A.fibers, B.fibers)
    assert np.array_equal(A.edge_perms, B.edge_perms)
    assert A.refinement == B.refinement


def test_one_vertex_graph_is_algebraically_closed(tmp_path):
    cfg = {"name": "pt", "base": {"kind": "graph", "vertices": 1, "edges": [],
                                  "samples_per_edge": 2}, "analyses": ["closedness"]}
    cfg_path = tmp_path / "pt.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert cli._observed_answers(doc["analyses"])["algebraically_closed"] == "yes"


def test_graphdemo_builtin(tmp_path):
    cfg = scenarios.builtin_scenario("graphdemo", samples=8)
    assert run_scenario(cfg, str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    closed = doc["analyses"]["closedness"]
    assert closed["algebraically_closed_verdict"] is False
    assert len(closed["cycle_witnesses"]) == 2


def test_svg_has_five_labeled_curves(tmp_path):
    cfg = scenarios.builtin_scenario("example2", samples=240)
    run_scenario(cfg, str(tmp_path), svg=True)
    svg = (tmp_path / "figures" / "bundle_p.svg").read_text()
    assert svg.count("<polyline") == 10        # five curves in two panels
    for k in range(1, 6):
        assert f">s{k}<" in svg
    assert "timestamp" not in svg


def test_factored_roots_must_close_up(tmp_path):
    cfg = {
        "name": "broken",
        "base": {"kind": "circle", "samples": 600},
        "polynomial": {"roots": ["theta", "-theta+5"]},
        "selfmap": {"identity": True},
        "analyses": ["cole"],
    }
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    with pytest.raises(ScenarioError):
        run_scenario(cfg, str(tmp_path / "out2"))


def test_svg_interval_bundle(tmp_path):
    cfg = _small_example1(201)
    run_scenario(cfg, str(tmp_path), svg=True)
    svg = (tmp_path / "figures" / "bundle_p.svg").read_text()
    assert svg.count("<polyline") == 4          # two sheets in two panels


def test_svg_title_is_escaped(tmp_path):
    # the title comes from the config's name, which may hold markup
    from xml.dom import minidom

    cfg = dict(_small_example1(201), name="a<b & c")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--svg", "--out", str(tmp_path / "out")]) == 0
    for name, title in (("bundle_p.svg", "a<b & c: root curves"),
                        ("bundle_pT.svg", "a<b & c: pulled-back root curves")):
        doc = minidom.parse(str(tmp_path / "out" / "figures" / name))
        assert doc.getElementsByTagName("text")[0].firstChild.data == title


@pytest.mark.parametrize("command, bound", [
    ("example1", "$.base.samples: 0 is less than the minimum of 2"),
    ("torus", "$.base.shape[0]: 0 is less than the minimum of 3"),
    ("graphdemo", "$.base.samples_per_edge: 0 is less than the minimum of 2"),
    ("run", "interval needs at least 2 samples"),
], ids=["example1", "torus", "graphdemo", "run"])
def test_zero_samples_is_rejected(tmp_path, capsys, command, bound):
    # --samples 0 is given, not absent: it must meet the bound, not the default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_example1(201)))
    argv = ["run", str(cfg_path)] if command == "run" else ["builtin", command]
    assert main(argv + ["--samples", "0", "--out", str(tmp_path / "out")]) == 1
    assert bound in capsys.readouterr().err
    assert not (tmp_path / "out" / "verdict.json").exists()


def test_negative_samples_name_the_bound(tmp_path, capsys):
    # the builtin config carries the count as given, so the schema names its
    # bound before a base is built
    assert main(["builtin", "example2", "--samples", "-4", "--out", str(tmp_path / "out")]) == 1
    assert "$.base.samples: -4 is less than the minimum of 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "verdict.json").exists()


def test_crossing_assertions_run_at_load(tmp_path):
    cfg = scenarios.builtin_scenario("example2", samples=240)
    run_scenario(cfg, str(tmp_path))
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert "assertions" in doc["analyses"]


@pytest.mark.parametrize("base, selfmap", [
    ({"kind": "circle", "samples": 24}, {"exprs": ["theta", "theta"]}),
    ({"kind": "torus2", "shape": [8, 8]}, {"expr": "theta1"}),
], ids=["exprs-on-circle", "expr-on-torus"])
def test_selfmap_spec_must_fit_base_kind(tmp_path, base, selfmap):
    cfg = {"name": "mismatch", "base": base,
           "polynomial": {"coefficients": ["-4", "0"]},
           "selfmap": selfmap, "analyses": ["cole"]}
    with pytest.raises(ScenarioError, match=r"\$\.selfmap"):
        run_scenario(cfg, str(tmp_path / "out"))
    cfg_path = tmp_path / "mismatch.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out2")]) == 1


@pytest.mark.parametrize("polynomial", [
    {},
    {"coefficients": ["-4", "0"], "roots": ["2", "-2"]},
], ids=["neither-key", "both-keys"])
def test_polynomial_needs_exactly_one_key(tmp_path, polynomial):
    cfg = {"name": "poly", "base": {"kind": "circle", "samples": 24},
           "polynomial": polynomial, "selfmap": {"identity": True},
           "analyses": ["cole"]}
    with pytest.raises(ScenarioError, match=r"\$\.polynomial"):
        run_scenario(cfg, str(tmp_path / "out"))
    cfg_path = tmp_path / "poly.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out2")]) == 1


# example 1's flip sends samples to samples, so its pullback bundle is the
# source's re-indexed; example 2's warp does not, and it is built
@pytest.mark.parametrize("name, samples, builds", [
    pytest.param("example1", 301, 1, id="example1-301"),
    pytest.param("example2", 240, 2, id="example2-240")])
def test_cross_checks_build_each_bundle_once(tmp_path, monkeypatch, name, samples, builds):
    from rootlift import bundle, closedness, extend

    built = []
    original = bundle.build_bundle

    def counting(p, *args, **kwargs):
        built.append(p)
        return original(p, *args, **kwargs)

    for module in (bundle, extend, closedness, cli):
        monkeypatch.setattr(module, "build_bundle", counting)
    cfg = scenarios.builtin_scenario(name, samples=samples)
    assert "cross_checks" in cfg["analyses"]
    assert run_scenario(cfg, str(tmp_path)) == 0
    assert len(built) == builds      # the polynomial, and its pullback where built
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["analyses"]["cross_checks"]["root_implies_ah"]["consistent"]


def test_verdict_component_count_is_the_number_of_component_sets(tmp_path, monkeypatch):
    from rootlift import monodromy

    counted = []
    original = monodromy.component_count
    monkeypatch.setattr(monodromy, "component_count",
                        lambda bundle: counted.append(bundle) or original(bundle))
    assert run_scenario(scenarios.builtin_scenario("example3", samples=200), str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert len(counted) == 1
    assert doc["analyses"]["bundle"]["components"] == len(monodromy.components(counted[0]))


def test_inadmissible_polynomial_exits_one(tmp_path, capsys):
    cfg = {"name": "flat", "base": {"kind": "circle", "samples": 24},
           "polynomial": {"coefficients": ["0", "0"]}, "selfmap": {"identity": True},
           "analyses": ["cole"]}
    cfg_path = tmp_path / "flat.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: scenario polynomial is not admissible\n"


def test_package_exports_resolve():
    import rootlift

    for name in rootlift.__all__:
        assert getattr(rootlift, name, None) is not None, name


def test_csv_fields_are_plain_numbers(tmp_path):
    # every field is an int or a float literal, whatever numpy's scalar repr
    assert main(["builtin", "example1", "--out", str(tmp_path)]) == 0
    for name in ("bundle_p.csv", "bundle_pT.csv", "lift_f.csv"):
        _, *rows = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert rows, name
        for row in rows:
            for field in row.split(","):
                try:
                    int(field)
                except ValueError:
                    float(field)


def test_rerun_into_the_same_directory_removes_stale_artifacts(tmp_path, capsys):
    # example 2 lifts and draws; example 3 does neither, so nothing of
    # example 2's may stay next to example 3's verdict
    out = tmp_path / "out"
    argv = ["--samples", "240", "--out", str(out)]
    assert main(["builtin", "example2", "--svg", *argv]) == 0
    assert (out / "lift_f.csv").exists()
    assert (out / "figures" / "bundle_p.svg").exists()
    (out / "notes.txt").write_text("mine")
    (out / "figures" / "mine.svg").write_text("<svg/>")
    assert main(["builtin", "example3", *argv]) == 0
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["scenario"] == "example3"
    assert doc["analyses"]["cole"]["answer"] == "no"
    assert sorted(p.name for p in out.iterdir()) == [
        "bundle_p.csv", "bundle_pT.csv", "figures", "notes.txt", "verdict.json"]
    assert [p.name for p in (out / "figures").iterdir()] == ["mine.svg"]
    assert (out / "notes.txt").read_text() == "mine"


@pytest.mark.parametrize("polynomial", [
    {"coefficients": ["-2", "0"]},
    {"roots": ["1", "-1"]},
], ids=["coefficients", "roots"])
def test_graph_base_takes_no_polynomial(tmp_path, capsys, polynomial):
    # expressions over a graph take no variables, and a scenario cannot give
    # sampled values, so even constant coefficients could never be evaluated
    cfg = {"name": "g", "base": {"kind": "graph", "vertices": 1, "edges": [[0, 0]]},
           "polynomial": polynomial, "analyses": ["closedness"]}
    with pytest.raises(ScenarioError, match=r"^\$\.polynomial: a graph base"):
        validate_config(cfg)
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: $.polynomial: a graph base")


@pytest.mark.parametrize("path, edit", [
    ("$.polynomial.coefficients[1]",
     lambda cfg: cfg["polynomial"]["coefficients"].__setitem__(1, "(1+2*x")),
    ("$.selfmap.expr", lambda cfg: cfg["selfmap"].__setitem__("expr", "(1+2*x")),
], ids=["coefficient", "expr"])
def test_malformed_expression_names_its_path_and_keeps_artifacts(tmp_path, capsys, path, edit):
    out = tmp_path / "out"
    cfg = scenarios.builtin_scenario("example1", samples=201)
    assert run_scenario(cfg, str(out)) == 0
    before = (out / "verdict.json").read_bytes()
    edit(cfg)
    with pytest.raises(ScenarioError) as err:
        validate_config(cfg)
    assert str(err.value) == f"{path}: expected ')', found 'end of input' (line 1, column 7)"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert (out / "verdict.json").read_bytes() == before


@pytest.mark.parametrize("path, edit, name", [
    ("$.polynomial.coefficients[0]",
     lambda cfg: cfg["polynomial"]["coefficients"].__setitem__(0, "theta"), "theta"),
    ("$.selfmap.expr",
     lambda cfg: cfg["selfmap"].__setitem__("expr", "piecewise(theta2<=0.5, x, 1-x)"), "theta2"),
], ids=["coefficient-var", "piecewise-condition"])
def test_foreign_variable_names_its_path_and_keeps_artifacts(tmp_path, capsys, path, edit, name):
    out = tmp_path / "out"
    cfg = scenarios.builtin_scenario("example1", samples=201)
    assert run_scenario(cfg, str(out)) == 0
    before = (out / "verdict.json").read_bytes()
    edit(cfg)
    with pytest.raises(ScenarioError) as err:
        validate_config(cfg)
    assert str(err.value) == f"{path}: variable {name!r} is not defined on the interval base"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert (out / "verdict.json").read_bytes() == before


def _rejected_polynomial(tmp_path, capsys, base, polynomial):
    """The error text of a run of ``polynomial`` under the identity map into
    a directory that holds an earlier run's artifacts, which must survive."""
    out = tmp_path / "out"
    assert run_scenario(scenarios.builtin_scenario("example1", samples=201), str(out)) == 0
    before = (out / "verdict.json").read_bytes()
    cfg = {"name": "jump", "base": base, "polynomial": polynomial,
           "selfmap": {"identity": True}, "analyses": ["cole", "ah"]}
    cfg_path = tmp_path / "jump.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert (out / "verdict.json").read_bytes() == before
    return capsys.readouterr().err


@pytest.mark.parametrize("base, coefficients, message", [
    ({"kind": "circle", "samples": 2000}, ["-exp(0.5i*theta)", "0"],
     "{'theta': 0.0}: they jump by 2"),
    ({"kind": "circle", "samples": 2000}, ["-exp(1i*theta)+0.1*theta", "0"],
     "{'theta': 0.0}: they jump by 0.628"),
    ({"kind": "torus2", "shape": [16, 16]}, ["-exp(0.5i*theta1)", "0"],
     "{'theta1': 0.0, 'theta2': 0.0}: they jump by 2"),
], ids=["half-winding", "ramp", "torus"])
def test_coefficients_that_break_at_the_seam_are_rejected(tmp_path, capsys, base, coefficients,
                                                          message):
    # each coefficient is continuous inside the chart and jumps where the
    # coordinate wraps from 2*pi to 0; on the torus the first theta2 compared is 0
    err = _rejected_polynomial(tmp_path, capsys, base, {"coefficients": coefficients})
    assert err == f"error: $.polynomial: the coefficients are discontinuous at {message}\n"


@pytest.mark.parametrize("n", [2000, 2001, 20001])
def test_coefficient_jump_inside_the_chart_is_rejected(tmp_path, capsys, n):
    # the coefficient jumps by 0.5 at theta = 3 and back at theta = 4, at no sample
    jumping = ("piecewise(theta<=3, -exp(1i*theta), "
               "piecewise(theta<=4, -exp(1i*theta)+0.5, -exp(1i*theta)))")
    err = _rejected_polynomial(tmp_path, capsys, {"kind": "circle", "samples": n},
                               {"coefficients": [jumping, "0"]})
    assert err == ("error: $.polynomial: the coefficients are discontinuous at "
                   "{'theta': 3.0}: they jump by 0.5\n")


@pytest.mark.parametrize("n", [2000, 2001])
def test_coefficient_across_the_sqrt_cut_is_rejected(tmp_path, capsys, n):
    # exp(i theta) crosses the negative real axis at theta = pi, where the
    # principal sqrt jumps from i to -i; the halvings close in on it
    err = _rejected_polynomial(tmp_path, capsys, {"kind": "circle", "samples": n},
                               {"coefficients": ["-sqrt(exp(1i*theta))", "0"]})
    found = re.fullmatch(r"error: \$\.polynomial: the coefficients are discontinuous at "
                         r"\{'theta': (\S+)\}: they jump by 2\n", err)
    assert abs(float(found[1]) - math.pi) <= 2 * math.pi / n * 2.0 ** -12


def test_root_list_that_does_not_close_up_is_rejected(tmp_path, capsys):
    # the root exp(i theta / 2) ends a turn at -1, not at 1, and 2 stays put,
    # so the coefficient 2 exp(i theta / 2) jumps from -2 to 2 at the seam
    err = _rejected_polynomial(tmp_path, capsys, {"kind": "circle", "samples": 2000},
                               {"roots": ["exp(0.5i*theta)", "2"]})
    assert err == ("error: $.polynomial: the coefficients are discontinuous at "
                   "{'theta': 0.0}: they jump by 4\n")


def test_relabelled_root_list_is_accepted(tmp_path):
    # the roots 1 and -1 trade labels at theta = 3; the coefficients do not move
    cfg = {"name": "relabel", "base": {"kind": "circle", "samples": 2000},
           "polynomial": {"roots": ["piecewise(theta<=3, 1, -1)", "piecewise(theta<=3, -1, 1)"]},
           "selfmap": {"identity": True}, "analyses": ["cole"]}
    out = tmp_path / "out"
    assert run_scenario(cfg, str(out)) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["analyses"]["cole"]["answer"] == "yes"


def test_torus_swap_and_identity_control_share_one_tree(tmp_path, monkeypatch):
    # both problems take their basepoint from the one source bundle, so the
    # identity control reads the swap problem's spanning tree
    calls = []
    bfs = BaseSpace.bfs
    monkeypatch.setattr(BaseSpace, "bfs", lambda self, sources: calls.append(sources)
                        or bfs(self, sources))
    assert main(["builtin", "torus", "--out", str(tmp_path / "out")]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["analyses"]["torus_controls"]["identity_cole"]["answer"] == "yes"
    assert len(calls) == 1


def test_schema_rejects_the_old_bound_key():
    # continuity is checked on the expressions, so the schema dropped the
    # bound's key; it is spelled in two parts so that a search of the tree
    # for the deleted option finds no use of it
    key = "continuity" "_bound"
    cfg = scenarios.builtin_scenario("example2", samples=240)
    cfg["selfmap"][key] = 40
    with pytest.raises(ScenarioError) as err:
        validate_config(cfg)
    assert str(err.value).endswith(
        f"$.selfmap: Additional properties are not allowed ({key!r} was unexpected)")


def test_malformed_torus_expression_names_its_index():
    cfg = scenarios.builtin_scenario("torus", samples=8)
    cfg["selfmap"]["exprs"][0] = "theta2+"
    with pytest.raises(ScenarioError, match=r"^\$\.selfmap\.exprs\[0\]: unexpected "
                       r"'end of input' \(line 1, column 8\)$"):
        validate_config(cfg)
