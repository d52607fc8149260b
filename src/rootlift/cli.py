"""Scenario runner: config ingestion, verdicts, CSV/SVG artifacts.

Usage:
    rootlift run <config.json> [--samples N] [--out DIR] [--seed S]
                 [--svg] [--stability]
    rootlift builtin <example1|example2|example3|torus|graphdemo> [flags]

Exit codes: 0 on success, 2 when a verdict contradicts the scenario's
declared expectation (or fails resolution-stability), 1 on runtime or
config errors.  Outputs are byte-deterministic for a fixed config+seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import _kernels, figures, funcspec, monodromy, scenarios
from .base import (discontinuity, identity_selfmap, make_circle, make_graph, make_interval,
                   make_torus2, sample_selfmap)
from .bundle import (DEFAULT_TOL, Tolerances, _expand_monic, build_bundle, poly_from_exprs,
                     poly_from_roots)
from .closedness import closedness_report
from .extend import (InadmissibleError, LiftProblem, _jsonable, cross_checks, decide_lift,
                     decide_subalgebra, lift_problem)
from ._kernels import residuals

SCHEMA = {
    "type": "object",
    "required": ["name", "base"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "seed": {"type": "integer"},
        "base": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["interval", "circle", "torus2", "graph"]},
                "samples": {"type": "integer", "minimum": 2},
                "shape": {"type": "array", "minItems": 2, "maxItems": 2,
                          "items": {"type": "integer", "minimum": 3}},
                "vertices": {"type": "integer", "minimum": 1},
                "edges": {"type": "array",
                          "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                    "items": {"type": "integer", "minimum": 0}}},
                "samples_per_edge": {"type": "integer", "minimum": 2},
            },
        },
        "polynomial": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "coefficients": {"type": "array", "minItems": 2,
                                 "items": {"type": "string"}},
                "roots": {"type": "array", "minItems": 2,
                          "items": {"type": "string"}},
            },
        },
        "selfmap": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "expr": {"type": "string"},
                "exprs": {"type": "array", "minItems": 2, "maxItems": 2,
                          "items": {"type": "string"}},
                "identity": {"type": "boolean"},
            },
        },
        "analyses": {
            "type": "array",
            "items": {"enum": ["bundle", "strips", "cole", "ah",
                               "cross_checks", "closedness", "torus_controls"]},
        },
        "assertions": {"enum": ["crossing_quintic"]},
        "expect": {"type": "object",
                   "additionalProperties": {"type": "string"}},
        "resolutions": {"type": "array", "minItems": 1,
                        "items": {"type": "integer", "minimum": 2}},
    },
}


class ScenarioError(ValueError):
    pass


def validate_config(config: dict) -> None:
    import jsonschema

    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        lines = [f"  {e.json_path}: {e.message}" for e in errors]
        raise ScenarioError("config does not match the scenario schema:\n"
                            + "\n".join(lines))
    analyses = config.get("analyses", [])
    kind = config["base"]["kind"]
    if "strips" in analyses and kind != "circle":
        raise ScenarioError("$.analyses: 'strips' needs a circle base")
    if "closedness" in analyses and kind != "graph":
        raise ScenarioError("$.analyses: 'closedness' needs a graph base")
    if "torus_controls" in analyses and kind != "torus2":
        raise ScenarioError("$.analyses: 'torus_controls' needs a torus2 base")
    # the schema admits no other polynomial keys
    if "polynomial" in config and len(config["polynomial"]) != 1:
        raise ScenarioError(
            "$.polynomial: give exactly one of 'coefficients' and 'roots'")
    if "polynomial" in config and kind == "graph":
        # expressions over a graph take no variables, and a scenario file
        # has no way to give sampled values
        raise ScenarioError("$.polynomial: a graph base takes no polynomial")
    if any(a in analyses for a in ("cole", "ah", "cross_checks")):
        if "polynomial" not in config or "selfmap" not in config:
            raise ScenarioError(
                "$.analyses: extension analyses need 'polynomial' and 'selfmap'")
    selfmap = config.get("selfmap")
    if selfmap is not None and not selfmap.get("identity"):
        key = {"interval": "expr", "circle": "expr", "torus2": "exprs"}.get(kind)
        if key is None:
            raise ScenarioError(f"$.selfmap: a {kind} base takes only 'identity'")
        other = "exprs" if key == "expr" else "expr"
        if other in selfmap:
            raise ScenarioError(
                f"$.selfmap: '{other}' does not fit a {kind} base, which takes '{key}'")
        if key not in selfmap:
            raise ScenarioError(f"$.selfmap: a {kind} base needs '{key}' or 'identity'")
    # every expression parses and uses only its base's variables here, before
    # a run touches its output directory
    texts = [(f"$.polynomial.{key}[{k}]", text)
             for key, column in config.get("polynomial", {}).items()
             for k, text in enumerate(column)]
    spec = config.get("selfmap", {})
    if "expr" in spec:
        texts.append(("$.selfmap.expr", spec["expr"]))
    texts += [(f"$.selfmap.exprs[{k}]", text) for k, text in enumerate(spec.get("exprs", []))]
    names = funcspec.COORDINATES.get(kind, ())
    for path, text in texts:
        try:
            tree = funcspec.parse(text)
        except funcspec.ParseError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
        for node in funcspec.walk(tree):
            name = node.name if isinstance(node, funcspec.Var) else getattr(node, "var", None)
            if name is not None and name not in names:
                raise ScenarioError(f"{path}: variable {name!r} is not defined on the {kind} base")


def _scaled_base(spec: dict, factor: int, override: int | None):
    kind = spec["kind"]
    if override is not None:            # --samples sets every size, 0 included
        spec = {**spec, "samples": override, "shape": [override, override],
                "samples_per_edge": override}
    if kind == "interval":
        return make_interval((spec.get("samples", 201) - 1) * factor + 1)
    if kind == "circle":
        return make_circle(spec.get("samples", 240) * factor)
    if kind == "torus2":
        shape = spec.get("shape", [16, 16])
        return make_torus2(shape[0] * factor, shape[1] * factor)
    if kind == "graph":
        k = spec.get("samples_per_edge", 8) * factor
        return make_graph(spec.get("vertices", 1), [tuple(e) for e in spec.get("edges", [])], k)
    raise ScenarioError(f"unknown base kind {kind!r}")


def _build_selfmap(base, spec: dict):
    if spec.get("identity"):
        return identity_selfmap(base)
    return sample_selfmap(base, tuple(spec["exprs"]) if "exprs" in spec else spec["expr"])


def _coord_columns(base):
    if base.kind in ("interval", "circle"):
        return ["coord"]
    return ["coord1", "coord2"]


# The CSV writers build the text of _BLOCK samples with one %-format call over
# columns of strings formatted once each: the head "s,coord…," per sample,
# repr of every root part, and the flag as a constant tail; tests/test_writers.py
# holds them to per-line reference writers byte for byte.  Blocks of 64 to
# 1,024 samples write equally fast; larger ones hold more strings at once.
_BLOCK = 128
_TAILS = (",0\n", ",1\n")
_LIFT_HEADER = "sample_index,sheet_index,target_sheet,f_re,f_im\n"


def _parts(z):
    """repr of the real and of the imaginary parts of ``z``, in C order; of
    Python floats from tolist(), so "-2.0", never "np.float64(-2.0)"."""
    return (list(map(repr, z.real.ravel().tolist())),
            list(map(repr, z.imag.ravel().tolist())))


def _columns(m, n, *columns):
    """The arguments of m samples' n rows each, row-major: a column is a
    sequence with one entry per sample (repeated on each of its rows) or with
    one entry per row."""
    k = len(columns)
    args = [None] * (k * m * n)
    for j, col in enumerate(columns):
        if len(col) == m * n:
            args[j::k] = col
        else:
            for i in range(n):
                args[k * i + j::k * n] = col
    return tuple(args)


def _lift_rows(a, targets, re, im):
    """lift_f.csv rows of the samples a, a+1, …: ``targets`` is their block of
    assignments, ``re``/``im`` the formatted parts of f row-major."""
    m, n = targets.shape
    rows = "".join(f"%d,{i},%d,%s,%s\n" for i in range(n))
    return (rows * m) % _columns(m, n, range(a, a + m), targets.ravel().tolist(), re, im)


def _reused_parts(fibers, a, source):
    """:func:`_parts` of the rows of samples a, a+1, …, where each row equal
    as bytes to the source's row at phi takes the source's texts, and only
    the other rows are formatted; see :func:`write_bundle_csv`."""
    src_fibers, texts, phi = source
    m, n = fibers.shape
    at = phi[a:a + m]
    same = (np.ascontiguousarray(fibers).view(np.uint64)
            == np.take(src_fibers, at, axis=0).view(np.uint64)).all(axis=1)
    if not same.any():
        return _parts(fibers)
    # one pool: the other rows' texts, then those of the equal rows' source
    # blocks; start is each row's first root in it
    re, im = _parts(fibers[~same])
    start = np.empty(m, dtype=np.intp)
    start[~same] = n * np.arange(m - np.count_nonzero(same))
    for blk in np.unique(at[same] // _BLOCK).tolist():
        rows = same & (at // _BLOCK == blk)
        start[rows] = len(re) + (at[rows] - blk * _BLOCK) * n
        words = texts[blk].split(",")
        re += words[:len(words) // 2]
        im += words[len(words) // 2:]
    at = (start[:, None] + np.arange(n)).ravel().tolist()
    return list(map(re.__getitem__, at)), list(map(im.__getitem__, at))


def write_bundle_csv(bundle, path, witness=None, lift_path=None, keep=None, source=None):
    """Write the bundle's roots to ``path``.  Given a ``witness`` of a lift
    into this bundle, also write its values to ``lift_path`` in the same pass:
    they are the bundle's own roots (``LiftWitness.values``), so each lift row
    takes the text of the root it was gathered from.

    A list ``keep`` receives each block's root texts as one string, real
    parts then imaginary.  With ``source`` = (another bundle's fibers, the
    texts ``keep`` took of them, the (S,) source sample phi of each sample),
    row s takes the source's texts at phi[s] wherever the two fiber rows
    are equal as bytes, as a pullback's by a map onto the samples are."""
    if witness is not None and witness.problem.target is not bundle:
        raise ValueError("the witness lifts into another bundle")
    base = bundle.base
    S, n = bundle.fibers.shape
    cols = _coord_columns(base)
    coords = base.coords.reshape(S, -1)
    head = "%d" + ",%s" * len(cols)
    rows = "".join(f"%s,{i},%s,%s%s" for i in range(n))
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", encoding="utf-8"))
        fh.write(",".join(["sample_index", *cols,
                           "sheet_index", "root_re", "root_im", "branch_flag"])
                 + "\n")
        if witness is not None:
            lift_fh = stack.enter_context(open(lift_path, "w", encoding="utf-8"))
            lift_fh.write(_LIFT_HEADER)
            assignments = witness.assignments
        for a in range(0, S, _BLOCK):
            b = min(a + _BLOCK, S)
            m = b - a
            coord_texts = (map(repr, c) for c in coords[a:b].T.tolist())
            heads = list(map(head.__mod__, zip(range(a, b), *coord_texts)))
            tails = list(map(_TAILS.__getitem__, bundle.branch_flags[a:b].tolist()))
            re, im = (_parts(bundle.fibers[a:b]) if source is None
                      else _reused_parts(bundle.fibers[a:b], a, source))
            if keep is not None:
                keep.append(",".join(re + im))
            fh.write((rows * m) % _columns(m, n, heads, re, im, tails))
            if witness is not None:
                targets = assignments[a:b]
                at = (targets + n * np.arange(m)[:, None]).ravel().tolist()
                lift_fh.write(_lift_rows(a, targets, list(map(re.__getitem__, at)),
                                         list(map(im.__getitem__, at))))


def write_lift_csv(witness, path):
    values, assignments = witness.values, witness.assignments
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_LIFT_HEADER)
        for a in range(0, len(values), _BLOCK):
            fh.write(_lift_rows(a, assignments[a:a + _BLOCK],
                                *_parts(values[a:a + _BLOCK])))


def _analyze(config: dict, factor: int, override: int | None,
             out_dir: str | None, svg: bool, tol: Tolerances):
    """One resolution pass; artifacts are written only when out_dir is set."""
    base = _scaled_base(config["base"], factor, override)
    results: dict = {"resolution": base.n_samples}
    analyses = config.get("analyses", [])

    if config.get("assertions") == "crossing_quintic":
        scenarios.verify_crossing_configuration()
        results["assertions"] = "crossing_quintic: all checks passed"

    poly = smap = None
    if "polynomial" in config:
        pspec = config["polynomial"]
        poly = (poly_from_roots(base, pspec["roots"]) if "roots" in pspec
                else poly_from_exprs(base, pspec["coefficients"]))
        found = discontinuity(base, poly.source.exprs,
                              expand=_expand_monic if poly.source.roots else None)
        if found:
            raise ScenarioError(f"$.polynomial: the coefficients are discontinuous at "
                                f"{found[0]}: they jump by {found[1]:.3g}")
    if "selfmap" in config:
        smap = _build_selfmap(base, config["selfmap"])
    if out_dir is not None:
        # once the inputs pass their checks, an earlier run's artifacts go;
        # every other file is left alone
        os.makedirs(out_dir, exist_ok=True)
        for name in _ARTIFACTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))

    problem = None
    bundle_a = bundle_b = None
    if poly is not None and smap is not None and any(
            a in analyses for a in ("bundle", "strips", "cole", "ah", "cross_checks")):
        try:
            problem = lift_problem(poly, smap, tol)
        except InadmissibleError:
            raise ScenarioError("scenario polynomial is not admissible") from None
        results["admissible"] = True
        bundle_a, bundle_b = problem.source, problem.target

    if "bundle" in analyses and bundle_a is not None:
        res_a = float(np.max(residuals(poly.coeff_values, bundle_a.fibers)))
        results["bundle"] = {
            "degree": bundle_a.degree,
            "samples": base.n_samples,
            "branch_samples": [int(s) for s in
                               np.flatnonzero(bundle_a.branch_flags)],
            "residual_max": res_a,
            "components": monodromy.component_count(bundle_a),
        }
        if out_dir and svg and base.kind in ("interval", "circle"):
            figdir = os.path.join(out_dir, "figures")
            os.makedirs(figdir, exist_ok=True)
            figures.emit_bundle_svg(
                bundle_a, os.path.join(figdir, "bundle_p.svg"),
                f"{config['name']}: root curves")
            figures.emit_bundle_svg(
                bundle_b, os.path.join(figdir, "bundle_pT.svg"),
                f"{config['name']}: pulled-back root curves")

    if "strips" in analyses and bundle_a is not None:
        results["strips"] = {
            "p": monodromy.strips(bundle_a).windings,
            "pT": monodromy.strips(bundle_b).windings,
        }

    cole = ah = witness = None
    if "cole" in analyses and problem is not None:
        cole = decide_lift(problem)
        witness = cole.witness if out_dir else None
        results["cole"] = cole.to_json(None if witness is None else "lift_f.csv")
    if out_dir:
        # the source's roots, then the target's and the lift f, which takes
        # its values from them, in one pass; a target row equal to the
        # source's at its image sample takes the source's texts
        lift_path = os.path.join(out_dir, "lift_f.csv")
        if "bundle" in analyses and bundle_b is not None:
            texts = []
            write_bundle_csv(bundle_a, os.path.join(out_dir, "bundle_p.csv"), keep=texts)
            write_bundle_csv(bundle_b, os.path.join(out_dir, "bundle_pT.csv"), witness,
                             lift_path, source=(bundle_a.fibers, texts, smap.image_samples))
            del texts
        elif witness is not None:
            write_lift_csv(witness, lift_path)
    if "ah" in analyses and problem is not None:
        ah = decide_subalgebra(problem)
        results["ah"] = ah.to_json()
    if "cross_checks" in analyses and problem is not None:
        checks = cross_checks(problem, cole=cole, ah=ah)
        implies, root = checks["ah_implies_cole"], checks["root_implies_ah"]
        results["cross_checks"] = {
            "ah_implies_cole": {"ah": implies["ah"].answer, "cole": implies["cole"].answer,
                                "consistent": implies["consistent"]},
            "root_implies_ah": {"pullback_has_root": root["has_root"].answer,
                                "ah": root["ah"].answer, "consistent": root["consistent"]},
        }

    if "torus_controls" in analyses and poly is not None:
        # pulling back by the identity reproduces the source's coefficients
        # bit for bit, so the identity control is the source against itself
        source = bundle_a or build_bundle(poly, tol)
        results["torus_controls"] = {
            "identity_cole": decide_lift(LiftProblem(source, source)).to_json()}

    if "closedness" in analyses:
        report = closedness_report(base, trials=20, seed=config.get("seed", 0), tol=tol)
        results["closedness"] = report.to_json()

    return results


def _observed_answers(results: dict) -> dict:
    out = {}
    if "cole" in results:
        out["cole"] = results["cole"]["answer"]
    if "ah" in results:
        out["ah"] = results["ah"]["answer"]
    if "strips" in results:
        out["strips"] = results["strips"]
    if "closedness" in results:
        closed = results["closedness"]["algebraically_closed_verdict"]
        out["algebraically_closed"] = "yes" if closed else "no"
    return out


# every file a run may write, relative to its output directory
_ARTIFACTS = ("verdict.json", "bundle_p.csv", "bundle_pT.csv", "lift_f.csv",
              os.path.join("figures", "bundle_p.svg"),
              os.path.join("figures", "bundle_pT.svg"))


def run_scenario(config: dict, out_dir: str, samples: int | None = None,
                 seed: int | None = None, svg: bool = False,
                 stability: bool = False,
                 tol: Tolerances = DEFAULT_TOL) -> int:
    """Execute a validated scenario; writes verdict.json and artifacts.

    Returns the process exit code (0 ok, 2 expectation/stability mismatch).
    """
    validate_config(config)
    if seed is not None:
        config = dict(config)
        config["seed"] = seed
    results = _analyze(config, 1, samples, out_dir, svg, tol)

    doc = {
        "scenario": config["name"],
        "seed": config.get("seed", 0),
        "backend": _kernels.BACKEND,
        "tolerances": tol.as_dict(),
        "analyses": _jsonable(results),
    }
    code = 0
    expect = config.get("expect")
    if expect:
        observed = _observed_answers(results)
        matched = all(observed.get(k) == v for k, v in expect.items()
                      if k in observed)
        doc["expectations"] = {"expected": expect,
                               "observed": _jsonable(observed),
                               "matched": matched}
        if not matched:
            code = 2
    if stability:
        answers = [_jsonable(_observed_answers(results))]
        if "resolutions" in config:
            reruns = [("n=" + str(n), 1, n) for n in config["resolutions"]]
        else:
            reruns = [("2n", 2, samples), ("4n", 4, samples)]
        for _, factor, override in reruns:
            more = _analyze(config, factor, override, None, False, tol)
            answers.append(_jsonable(_observed_answers(more)))
        stable = all(a == answers[0] for a in answers[1:])
        doc["stability"] = {"runs": ["base"] + [r[0] for r in reruns],
                            "answers": answers, "stable": stable}
        if not stable:
            code = 2

    with open(os.path.join(out_dir, "verdict.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rootlift",
        description="root-surface construction and endomorphism-extension "
                    "verdicts on discretized compact bases")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_builtin = sub.add_parser("builtin", help="run a builtin scenario")
    p_builtin.add_argument("scenario", choices=scenarios.BUILTIN_NAMES)
    for p in (p_run, p_builtin):
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--svg", action="store_true")
        p.add_argument("--stability", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        else:
            config = scenarios.builtin_scenario(args.scenario, args.samples)
        return run_scenario(config, args.out, samples=args.samples,
                            seed=args.seed, svg=args.svg,
                            stability=args.stability)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - contract: runtime errors exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
