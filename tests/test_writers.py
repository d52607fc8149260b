"""The CSV writers and the SVG sheet chains against the per-sample loops they
replaced, which are kept here as the reference: the files must be byte-identical."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from rootlift import (build_bundle, make_circle, make_interval, make_torus2,
                      poly_from_exprs, poly_from_roots)
from rootlift import figures
from rootlift.cli import _coord_columns, write_bundle_csv, write_lift_csv
from rootlift.extend import decide_lift, lift_problem
from rootlift.scenarios import flip_map, interval_square_pair, quintic_root_texts


def _ref_write_bundle_csv(bundle, path):
    base = bundle.base
    cols = _coord_columns(base)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["sample_index", *cols,
                           "sheet_index", "root_re", "root_im", "branch_flag"])
                 + "\n")
        for s in range(base.n_samples):
            coord = np.atleast_1d(base.coords[s])
            cvals = [repr(float(c)) for c in coord[: len(cols)]]
            flag = int(bool(bundle.branch_flags[s]))
            for i in range(bundle.degree):
                z = bundle.fibers[s, i]
                fh.write(",".join([str(s), *cvals, str(i),
                                   repr(float(z.real)), repr(float(z.imag)),
                                   str(flag)]) + "\n")


def _ref_write_lift_csv(witness, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_index,sheet_index,target_sheet,f_re,f_im\n")
        rows = zip(witness.values.tolist(), witness.assignments.tolist())
        for s, (values, targets) in enumerate(rows):
            for i, (z, t) in enumerate(zip(values, targets)):
                fh.write(f"{s},{i},{t},{z.real!r},{z.imag!r}\n")


def _ref_sheet_chains(bundle):
    base = bundle.base
    S, n = base.n_samples, bundle.degree
    chains = []
    closed = base.kind == "circle"
    for start in range(n):
        slot = start
        xs = [float(np.atleast_1d(base.coords[0])[0])]
        ys = [bundle.fibers[0, slot]]
        for e in range(S - 1):
            slot = int(bundle.edge_perms[e][slot])
            xs.append(float(np.atleast_1d(base.coords[e + 1])[0]))
            ys.append(bundle.fibers[e + 1, slot])
        if closed:
            slot = int(bundle.edge_perms[S - 1][slot])
            xs.append(2.0 * np.pi)
            ys.append(bundle.fibers[0, slot])
        chains.append((xs, np.array(ys)))
    return chains


def _with_negative_zeros(bundle):
    """The bundle with -0.0 in both parts of one root and in one real part."""
    fibers = bundle.fibers.copy()
    fibers[1, 0] = complex(-0.0, -0.0)
    fibers[2, -1] = complex(-0.0, fibers[2, -1].imag)
    return dataclasses.replace(bundle, fibers=fibers)


def _interval_bundle():
    return build_bundle(interval_square_pair(make_interval(201)))


def _circle_quintic_bundle():
    bundle = build_bundle(poly_from_roots(make_circle(400), quintic_root_texts()))
    assert bundle.degree == 5 and bundle.branch_flags.any()
    return bundle


def _circle_turning_pair_bundle():
    # roots +-i e^{i(theta + pi/S)} change canonical order between the last
    # sample and sample 0, so the closing edge's permutation is a swap
    S = 40
    bundle = build_bundle(poly_from_exprs(
        make_circle(S), [f"exp(2i*theta + 1i*{2 * np.pi / S!r})", "0"]))
    assert bundle.edge_perms[S - 1].tolist() == [1, 0]
    return bundle


def _torus_bundle():
    return build_bundle(poly_from_exprs(make_torus2(6, 8), ["-exp(1i*theta1)", "0"]))


BUNDLES = {"interval": _interval_bundle, "circle5": _circle_quintic_bundle,
           "circle2": _circle_turning_pair_bundle, "torus2": _torus_bundle}


@pytest.mark.parametrize("negative_zeros", [False, True])
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_bundle_csv_bytes_match_the_per_line_writer(tmp_path, name, negative_zeros):
    bundle = BUNDLES[name]()
    if negative_zeros:
        bundle = _with_negative_zeros(bundle)
    write_bundle_csv(bundle, tmp_path / "new.csv")
    _ref_write_bundle_csv(bundle, tmp_path / "ref.csv")
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert (b",-0.0," in got) == negative_zeros


def test_lift_csv_bytes_match_the_per_line_writer(tmp_path):
    base = make_interval(201)
    witness = decide_lift(lift_problem(interval_square_pair(base), flip_map(base))).witness
    values = witness.values.copy()
    values[0, 0] = complex(-0.0, -0.0)
    for w in (witness, SimpleNamespace(values=values, assignments=witness.assignments)):
        write_lift_csv(w, tmp_path / "new.csv")
        _ref_write_lift_csv(w, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"0,0,0,-0.0,-0.0\n" in (tmp_path / "new.csv").read_bytes()


@pytest.mark.parametrize("name", ["interval", "circle5", "circle2"])
def test_sheet_chains_match_the_per_sample_walk(name):
    bundle = BUNDLES[name]()
    got, want = figures._sheet_chains(bundle), _ref_sheet_chains(bundle)
    assert len(got) == len(want) == bundle.degree
    for (gx, gy), (wx, wy) in zip(got, want):
        assert gx == wx
        assert gy.tobytes() == wy.tobytes()
