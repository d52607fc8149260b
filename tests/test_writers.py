"""The CSV and SVG writers and the SVG sheet chains against the per-line and
per-sample loops they replaced, which are kept here as the reference: the
files must be byte-identical."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from rootlift import (build_bundle, make_circle, make_interval, make_torus2,
                      poly_from_exprs, poly_from_roots, sample_selfmap)
from rootlift import cli, figures
from rootlift.cli import _BLOCK, _coord_columns, write_bundle_csv, write_lift_csv
from rootlift.extend import decide_lift, lift_problem
from rootlift.figures import HEIGHT, MARGIN, PALETTE, PANEL_GAP, WIDTH, _fmt
from rootlift.scenarios import (crossing_quintic, flip_map, half_turn_text,
                                interval_square_pair, quintic_root_texts, time_warp_text)


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


def _ref_emit_bundle_svg(bundle, path, title=""):
    chains = figures._sheet_chains(bundle)
    xmin = min(min(xs) for xs, _ in chains)
    xmax = max(max(xs) for xs, _ in chains)
    panel_h = (HEIGHT - 2 * MARGIN - PANEL_GAP) / 2
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="26" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
    ]
    for panel, part in enumerate(("re", "im")):
        values = [ys.real if part == "re" else ys.imag for _, ys in chains]
        vmin = min(float(np.min(v)) for v in values)
        vmax = max(float(np.max(v)) for v in values)
        if vmax - vmin < 1e-9:
            vmin, vmax = vmin - 1.0, vmax + 1.0
        pad = 0.05 * (vmax - vmin)
        vmin, vmax = vmin - pad, vmax + pad
        top = MARGIN + panel * (panel_h + PANEL_GAP)

        def sx(x):
            return MARGIN + (x - xmin) / (xmax - xmin) * (WIDTH - 2 * MARGIN)

        def sy(v):
            return top + (vmax - v) / (vmax - vmin) * panel_h

        parts.append(
            f'<rect x="{MARGIN}" y="{_fmt(top)}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{_fmt(panel_h)}" fill="none" stroke="#999"/>')
        parts.append(
            f'<text x="{MARGIN}" y="{_fmt(top - 8)}" font-family="monospace" '
            f'font-size="12">{part} part</text>')
        if vmin < 0 < vmax:
            y0 = sy(0.0)
            parts.append(
                f'<line x1="{MARGIN}" y1="{_fmt(y0)}" x2="{WIDTH - MARGIN}" '
                f'y2="{_fmt(y0)}" stroke="#ddd"/>')
        for k, ((xs, _), vals) in enumerate(zip(chains, values)):
            pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(v))}"
                           for x, v in zip(xs, vals.tolist()))
            color = PALETTE[k % len(PALETTE)]
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.2"/>')
            parts.append(
                f'<text x="{_fmt(sx(xs[0]) + 4)}" y="{_fmt(sy(vals[0]) - 4)}" '
                f'font-family="monospace" font-size="11" fill="{color}">'
                f's{k + 1}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


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


def _torus_bundle(shape=(6, 8)):
    return build_bundle(poly_from_exprs(make_torus2(*shape), ["-exp(1i*theta1)", "0"]))


def _flat_real_part_bundle():
    # roots +-2i: the real-part panel is flat
    bundle = build_bundle(poly_from_exprs(make_circle(24), ["4", "0"]))
    assert np.ptp(bundle.fibers.real) < 1e-9
    return bundle


BUNDLES = {"interval": _interval_bundle, "circle5": _circle_quintic_bundle,
           "circle2": _circle_turning_pair_bundle, "torus2": _torus_bundle,
           "flat": _flat_real_part_bundle,
           # sample counts one below, at and one above the writers' block size
           "interval-block-1": lambda: build_bundle(interval_square_pair(make_interval(_BLOCK - 1))),
           "interval-block": lambda: build_bundle(interval_square_pair(make_interval(_BLOCK))),
           "interval-block+1": lambda: build_bundle(interval_square_pair(make_interval(_BLOCK + 1))),
           "torus2-block+16": lambda: _torus_bundle((16, _BLOCK // 16 + 1))}


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


def _check_lift_csv(tmp_path, witness, target=None):
    """lift_f.csv alone, and, given the witness's target, in one pass with
    bundle_pT.csv, against the per-line writers; returns the lift bytes."""
    _ref_write_lift_csv(witness, tmp_path / "ref.csv")
    want = (tmp_path / "ref.csv").read_bytes()
    write_lift_csv(witness, tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == want
    if target is not None:
        write_bundle_csv(target, tmp_path / "pT.csv", witness, tmp_path / "pass.csv")
        assert (tmp_path / "pass.csv").read_bytes() == want
        _ref_write_bundle_csv(target, tmp_path / "ref_pT.csv")
        assert (tmp_path / "pT.csv").read_bytes() == (tmp_path / "ref_pT.csv").read_bytes()
    return want


def test_lift_csv_bytes_match_the_per_line_writer(tmp_path):
    # the default interval, and one below, at and one above the block size
    for n in (201, _BLOCK - 1, _BLOCK, _BLOCK + 1):
        base = make_interval(n)
        witness = decide_lift(lift_problem(interval_square_pair(base), flip_map(base))).witness
        target = witness.problem.target
        _check_lift_csv(tmp_path, witness, target)

        values = witness.values.copy()
        values[0, 0] = complex(-0.0, -0.0)
        got = _check_lift_csv(
            tmp_path, SimpleNamespace(values=values, assignments=witness.assignments))
        assert b"0,0,0,-0.0,-0.0\n" in got

        # a target with -0.0 roots: the lift takes their text from the pass
        zeros = _with_negative_zeros(target)
        G = witness.assignments
        zero_witness = SimpleNamespace(problem=SimpleNamespace(target=zeros), assignments=G,
                                       values=zeros.fibers[np.arange(n)[:, None], G])
        got = _check_lift_csv(tmp_path, zero_witness, zeros)
        assert b",-0.0,-0.0\n" in got


def _quintic_problem(n, text):
    base = make_circle(n)
    smap = sample_selfmap(base, text)
    return lift_problem(crossing_quintic(base), smap), smap


def _flip_problem(n):
    base = make_interval(n)
    return lift_problem(interval_square_pair(base), flip_map(base)), flip_map(base)


# which rows of bundle_pT.csv equal bundle_p.csv's at the image sample as
# bytes, and whether a lift is written with it
@pytest.mark.parametrize("case, reused, lifts", [
    pytest.param(lambda: _quintic_problem(400, half_turn_text()), "all", False, id="half-turn"),
    pytest.param(lambda: _flip_problem(401), "all", True, id="flip"),
    pytest.param(lambda: _quintic_problem(400, time_warp_text()), "some", True, id="warp"),
    pytest.param(lambda: _quintic_problem(400, "theta+3.141593"), "none", False,
                 id="theta+3.141593"),
])
def test_pullback_csv_reuses_the_source_texts_byte_for_byte(tmp_path, monkeypatch, case,
                                                            reused, lifts):
    # bundle_pT.csv takes bundle_p.csv's texts at the image sample wherever
    # the two fiber rows are equal as bytes, and formats only the other rows;
    # lift_f.csv takes bundle_pT.csv's texts
    problem, smap = case()
    A, B = problem.source, problem.target
    phi = smap.image_samples
    same = (B.fibers.view(np.uint64) == A.fibers[phi].view(np.uint64)).all(axis=1)
    assert {"all": same.all(), "some": same.any() and not same.all(),
            "none": not same.any()}[reused]
    witness = decide_lift(problem).witness
    assert (witness is not None) == lifts
    texts = []
    write_bundle_csv(A, tmp_path / "p.csv", keep=texts)
    assert len(texts) == -(-A.base.n_samples // _BLOCK)
    formatted = []
    parts = cli._parts
    monkeypatch.setattr(cli, "_parts", lambda z: formatted.append(len(z)) or parts(z))
    write_bundle_csv(B, tmp_path / "pT.csv", witness, tmp_path / "lift.csv",
                     source=(A.fibers, texts, phi))
    assert sum(formatted) == np.count_nonzero(~same)
    for bundle, name in ((A, "p"), (B, "pT")):
        _ref_write_bundle_csv(bundle, tmp_path / "ref.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    if witness is not None:
        _ref_write_lift_csv(witness, tmp_path / "ref_lift.csv")
        assert (tmp_path / "lift.csv").read_bytes() == (tmp_path / "ref_lift.csv").read_bytes()


def test_lift_pass_refuses_a_witness_into_another_bundle(tmp_path):
    base = make_interval(201)
    witness = decide_lift(lift_problem(interval_square_pair(base), flip_map(base))).witness
    with pytest.raises(ValueError, match="another bundle"):
        write_bundle_csv(witness.problem.source, tmp_path / "p.csv", witness,
                         tmp_path / "lift.csv")


@pytest.mark.parametrize("negative_zeros", [False, True])
@pytest.mark.parametrize("name", ["interval", "circle5", "circle2", "flat"])
def test_svg_bytes_match_the_per_point_writer(tmp_path, name, negative_zeros):
    bundle = BUNDLES[name]()
    if negative_zeros:
        bundle = _with_negative_zeros(bundle)
    figures.emit_bundle_svg(bundle, tmp_path / "new.svg", "a<b & c")
    _ref_emit_bundle_svg(bundle, tmp_path / "ref.svg", "a<b & c")
    got = (tmp_path / "new.svg").read_bytes()
    assert got == (tmp_path / "ref.svg").read_bytes()
    assert got.count(b"<polyline") == 2 * bundle.degree


@pytest.mark.parametrize("name", ["interval", "circle5", "circle2"])
def test_sheet_chains_match_the_per_sample_walk(name):
    bundle = BUNDLES[name]()
    got, want = figures._sheet_chains(bundle), _ref_sheet_chains(bundle)
    assert len(got) == len(want) == bundle.degree
    for (gx, gy), (wx, wy) in zip(got, want):
        assert gx == wx
        assert gy.tobytes() == wy.tobytes()
