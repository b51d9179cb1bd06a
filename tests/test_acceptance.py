"""Acceptance gate: one test (or test pair) per release criterion.

Each criterion prints a single PASS/FAIL line (visible with -s or in
captured output). Criterion 4's published-total comparison is expected
to fail and is marked xfail(strict=True): the prescribed architecture's
exact parameter count sits far outside the +/-20% window around the
published 1.22e6 figure, and the test prints the itemized reconciliation.
"""

import os
import time

import numpy as np
import pytest

import stemsep.autodiff as ad
from closed_forms import lstm_block_param_count
from gradcheck import grad_check
from stemsep import arch, dsp, evaluation
from stemsep.arch import (
    BandPlan,
    ScaleSlot,
    default_arch,
    receptive_field,
    reduce_spec,
    toy_arch,
)
from stemsep.model import (
    build_model,
    count_params,
    load_checkpoint,
    save_checkpoint,
)
from stemsep.separation import ideal_binary_mask, multichannel_wiener, soft_mask
from stemsep.train import (
    AdamState,
    TrainConfig,
    load_track,
    make_excerpt,
    make_toy_dataset,
    mse_loss,
    train,
    train_step,
)
from structure import slot_wiring

PUBLISHED_PARAM_TOTAL = 1.22e6
PUBLISHED_CONTEXT_FRAMES = 356


def report(criterion, passed, detail=""):
    line = "ACCEPTANCE %-2s %s" % (criterion, "PASS" if passed else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept-data")
    make_toy_dataset(out, seed=11, n_tracks=3)
    return str(out)


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradients():
    start = time.time()
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        x = ad.parameter(rng.standard_normal((2, 4, 6)))
        w = ad.parameter(rng.standard_normal((2, 2, 3, 3)))
        b = ad.parameter(rng.standard_normal(2))
        gamma = ad.parameter(1.0 + 0.1 * rng.standard_normal(2))
        beta = ad.parameter(rng.standard_normal(2))
        up_w = ad.parameter(rng.standard_normal((2, 2, 2, 2)))
        up_b = ad.parameter(rng.standard_normal(2))
        lw = ad.parameter(0.3 * rng.standard_normal((4, 8)))
        lb = ad.parameter(rng.standard_normal(4))

        def build():
            y = ad.conv2d(x, w, b)
            y, _, _ = ad.batch_norm_train(y, gamma, beta)
            y = ad.relu(y)
            y = ad.avg_pool2(y)
            y = ad.conv_transpose2(y, up_w, up_b)
            flat = ad.reshape(y, (6, 8))
            z = ad.sigmoid(ad.affine(flat, lw, lb))
            return ad.tmean(ad.mul(z, ad.tanh(z)))

        params = [("x", x), ("w", w), ("b", b), ("gamma", gamma),
                  ("beta", beta), ("up_w", up_w), ("up_b", up_b),
                  ("lw", lw), ("lb", lb)]
        rep = grad_check(build, params, tol=1e-4, rng=rng, max_entries=3)
        ok = ok and rep["passed"]

    # reduced end-to-end model, one probed coordinate per parameter
    model = build_model(toy_arch(), seed=5)
    model.set_training(True)
    rng = np.random.default_rng(2024)
    mag = np.abs(rng.standard_normal((2, 129, 16)))
    target = ad.constant(np.abs(rng.standard_normal(mag.shape)))

    def build_e2e():
        return mse_loss(model.forward(mag), target)

    # small probe step keeps the central difference inside one piecewise
    # linear region of the rectifier network
    rep = grad_check(build_e2e, list(model.named_params()), step=1e-6,
                     tol=1e-3, rng=rng, max_entries=1, shrink_retries=2)
    elapsed = time.time() - start
    ok = ok and rep["passed"] and elapsed < 300
    report(1, ok, "end-to-end max rel err %.2g, %.0fs" %
           (rep["max_rel_err"], elapsed))
    assert rep["passed"], rep
    assert ok
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 2. oracle equivalence


def _conv_oracle(x, w, b):
    c_out, c_in, kh, kw = w.shape
    f, t = x.shape[1:]
    xp = np.zeros((c_in, f + kh - 1, t + kw - 1))
    xp[:, kh // 2:kh // 2 + f, kw // 2:kw // 2 + t] = x
    out = np.zeros((c_out, f, t))
    for o in range(c_out):
        for i in range(f):
            for j in range(t):
                acc = b[o]
                for c in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += w[o, c, di, dj] * xp[c, i + di, j + dj]
                out[o, i, j] = acc
    return out


def test_criterion_2_oracles():
    rng = np.random.default_rng(2)
    ok = True

    x = rng.standard_normal((2, 6, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    got = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b)).data
    ok &= np.allclose(got, _conv_oracle(x, w, b), rtol=1e-6, atol=1e-12)

    pooled = ad.avg_pool2(ad.constant(x[:, :6, :8])).data
    pool_oracle = np.zeros((2, 3, 4))
    for c in range(2):
        for i in range(3):
            for j in range(4):
                pool_oracle[c, i, j] = x[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
    ok &= np.allclose(pooled, pool_oracle, rtol=1e-6)

    uw = rng.standard_normal((2, 3, 2, 2))
    up = ad.conv_transpose2(ad.constant(x[:, :3, :4]), ad.constant(uw),
                            ad.constant(np.zeros(3))).data
    up_oracle = np.zeros((3, 6, 8))
    for o in range(3):
        for c in range(2):
            for i in range(3):
                for j in range(4):
                    for di in range(2):
                        for dj in range(2):
                            up_oracle[o, 2 * i + di, 2 * j + dj] += \
                                uw[c, o, di, dj] * x[c, i, j]
    ok &= np.allclose(up, up_oracle, rtol=1e-6)

    lin_x = rng.standard_normal((5, 4))
    lin_w = rng.standard_normal((3, 4))
    lin_b = rng.standard_normal(3)
    got_lin = ad.affine(ad.constant(lin_x), ad.constant(lin_w),
                        ad.constant(lin_b)).data
    lin_oracle = np.array([
        [sum(lin_w[o, i] * lin_x[r, i] for i in range(4)) + lin_b[o]
         for o in range(3)]
        for r in range(5)
    ])
    ok &= np.allclose(got_lin, lin_oracle, rtol=1e-6)

    mags = {n: rng.random((2, 5, 5)) for n in ("p", "q", "r")}
    masks = ideal_binary_mask(mags)
    for c in range(2):
        for i in range(5):
            for j in range(5):
                vals = [mags[n][c, i, j] for n in mags]
                winner = list(mags)[int(np.argmax(vals))]
                for n in mags:
                    ok &= masks[n][c, i, j] == (1.0 if n == winner else 0.0)

    mix = rng.standard_normal((2, 6, 7)) + 1j * rng.standard_normal((2, 6, 7))
    est = {n: np.abs(rng.standard_normal((2, 6, 7))) for n in ("a", "b")}
    wiener = multichannel_wiener(mix, est, force_identity_covariance=True)
    ratio = soft_mask({n: (est[n] ** 2).mean(axis=0) for n in est})
    for n in est:
        ok &= np.allclose(wiener[n], ratio[n][None] * mix, rtol=1e-6, atol=1e-9)

    report(2, bool(ok))
    assert ok


# ---------------------------------------------------------------------------
# 3. analysis/synthesis round trip


def test_criterion_3_stft_round_trip():
    rng = np.random.default_rng(3)
    clip = dsp.AudioClip(0.3 * rng.standard_normal((2, 44100)))
    rec = dsp.istft(dsp.stft(clip.samples), dsp.DEFAULT_FFT_SIZE, clip.num_samples)
    interior = slice(4096, 44100 - 4096)
    err = np.abs(rec[:, interior] - clip.samples[:, interior]).max()
    scale = np.abs(clip.samples[:, interior]).max()
    round_trip_ok = err / scale < 1e-6

    profile = dsp.cola_profile()
    interior = profile[4096:-4096]
    cola_dev = np.abs(interior / interior[0] - 1.0).max()
    cola_ok = cola_dev < 1e-10

    report(3, round_trip_ok and cola_ok,
           "round trip %.2g, overlap-add deviation %.2g" % (err / scale, cola_dev))
    assert round_trip_ok
    assert cola_ok


# ---------------------------------------------------------------------------
# 4. parameter audit


@pytest.fixture(scope="module")
def default_model():
    return build_model(default_arch(), seed=0)


@pytest.mark.xfail(
    strict=True,
    reason="the prescribed architecture's exact count (itemized below) is "
    "~2.7x the published 1.22e6 total; the recurrent in-projections at the "
    "prescribed widths alone exceed the published figure",
)
def test_criterion_4_total_vs_published(default_model):
    total, itemized = count_params(default_model)
    gap = total / PUBLISHED_PARAM_TOTAL
    lines = sorted(itemized.items(), key=lambda kv: -kv[1])
    detail = "; ".join("%s=%d" % kv for kv in lines[:6])
    report("4a", abs(gap - 1.0) <= 0.20,
           "total=%d, %.2fx published; largest: %s" % (total, gap, detail))
    assert abs(gap - 1.0) <= 0.20, (
        "exact total %d is %.2fx the published %g; itemization: %r"
        % (total, gap, PUBLISHED_PARAM_TOTAL, itemized)
    )


def test_criterion_4_lstm_totals_are_closed_form(default_model):
    by_lstm = {}
    for name, p in default_model.named_params():
        if ".lstm." in name:
            key = name.split(".lstm.")[0]
            by_lstm[key] = by_lstm.get(key, 0) + p.data.size
    ok = len(by_lstm) > 0
    named = dict(default_model.named_params())
    for key, actual in by_lstm.items():
        conv_w = named[key + ".lstm.reduce.weight"]
        lin_w = named[key + ".lstm.expand.weight"]
        wx = named[key + ".lstm.lstm.fw_wx"]
        c_in = conv_w.data.shape[1]
        f_s = lin_w.data.shape[0]
        m = wx.data.shape[0] // 4
        expected = lstm_block_param_count(c_in, f_s, m)
        ok = ok and actual == expected
    report("4b", ok, "%d recurrent blocks, all match closed form" % len(by_lstm))
    assert ok


# ---------------------------------------------------------------------------
# 5. receptive field audit


def test_criterion_5_receptive_field():
    single = BandPlan("x", 3, (ScaleSlot("d1", 1),))
    two_scale = BandPlan("x", 3, (ScaleSlot("d1", 3), ScaleSlot("d2", 3), ScaleSlot("u1", 3)))
    with_stem = BandPlan("x", 3, (ScaleSlot("d1", 2), ScaleSlot("d2", 2), ScaleSlot("u1", 2)))
    hand_ok = (
        arch._plan_receptive_field(single, stem=False) == 3
        and arch._plan_receptive_field(two_scale, stem=False) == 26
        and arch._plan_receptive_field(with_stem, stem=True) == 20
    )
    rf = receptive_field(default_arch())
    full = rf["overall_conv_frames"]
    report(5, hand_ok,
           "conv context %d frames vs published %d (gap documented; "
           "recurrent bands additionally see the whole input)"
           % (full, PUBLISHED_CONTEXT_FRAMES))
    assert hand_ok
    assert full == 444  # exact value implied by the prescribed block layout


# ---------------------------------------------------------------------------
# 6. Wiener conservation


def test_criterion_6_wiener_conservation():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        x = rng.standard_normal((2, 12, 9)) + 1j * rng.standard_normal((2, 12, 9))
        est = {n: np.abs(rng.standard_normal((2, 12, 9)))
               for n in ("bass", "drums", "other", "vocals")}
        out = multichannel_wiener(x, est)
        err = np.abs(sum(out.values()) - x).max() / np.abs(x).max()
        worst = max(worst, err)
    report(6, worst < 1e-6, "worst conservation error %.2g" % worst)
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# 7. SDR properties


def test_criterion_7_sdr_properties():
    rng = np.random.default_rng(7)
    refs = rng.standard_normal((2, 4000))

    perfect = evaluation.sdr_from_decomposition(
        *evaluation.bss_project(refs[0], refs, 0, filter_len=8)
    )
    clamp_ok = perfect["sdr"] == evaluation.SDR_CLAMP_DB

    est = refs[0] + 0.1 * rng.standard_normal(4000)
    a = evaluation.sdr_from_decomposition(
        *evaluation.bss_project(est, refs, 0, filter_len=8))["sdr"]
    b = evaluation.sdr_from_decomposition(
        *evaluation.bss_project(2.5 * est, refs, 0, filter_len=8))["sdr"]
    scale_ok = abs(a - b) < 1e-6

    flen = 8
    ref = rng.standard_normal(3000)
    basis = np.stack([np.concatenate([np.zeros(d), ref[:3000 - d]])
                      for d in range(flen)])
    noise = rng.standard_normal(3000)
    coef, *_ = np.linalg.lstsq(basis.T, noise, rcond=None)
    noise -= basis.T @ coef
    noise *= np.linalg.norm(ref) / (10.0 * np.linalg.norm(noise))
    twenty = evaluation.sdr_from_decomposition(
        *evaluation.bss_project(ref + noise, ref[None], 0, filter_len=flen)
    )["sdr"]
    twenty_ok = abs(twenty - 20.0) <= 0.1

    def song(sdr):
        return {"vocals": {"windows": [{"sdr": sdr}], "excluded_windows": 0,
                           "mean": {"sdr": sdr}}}

    agg = evaluation.aggregate({"a": song(1.0), "b": song(4.0), "c": song(50.0)})
    agg_ok = agg["medians"]["vocals"] == 4.0

    ok = clamp_ok and scale_ok and twenty_ok and agg_ok
    report(7, ok, "constructed case %.3f dB" % twenty)
    assert ok


# ---------------------------------------------------------------------------
# 8. toy end-to-end


def _ibm_estimates(clips):
    names = ("bass", "drums", "other", "vocals")
    x = dsp.stft(clips["mixture"].samples)
    masks = ideal_binary_mask({n: np.abs(dsp.stft(clips[n].samples)) for n in names})
    return {
        n: dsp.istft(masks[n] * x, dsp.DEFAULT_FFT_SIZE, clips["mixture"].num_samples)
        for n in names
    }


@pytest.mark.slow
def test_criterion_8a_oracle_separation(toy_data):
    start = time.time()
    per_song = {}
    for i in range(3):
        track = os.path.join(toy_data, "track%02d" % i)
        clips = load_track(track)
        ests = _ibm_estimates(clips)
        refs = {n: clips[n].samples for n in ests}
        per_song[os.path.basename(track)] = evaluation.evaluate_track(refs, ests)
    medians = evaluation.aggregate(per_song)["medians"]
    ok = all(v is not None and v > 10.0 for v in medians.values())
    report("8a", ok, "median SDR " + ", ".join(
        "%s=%.1f" % (k, v) for k, v in sorted(medians.items())))
    assert ok, medians
    assert time.time() - start < 900


@pytest.mark.slow
def test_criterion_8b_reduced_model_overfit(toy_data):
    start = time.time()
    clips = load_track(os.path.join(toy_data, "track00"))
    excerpts = [
        make_excerpt(clips["mixture"], clips["vocals"], s, 16)
        for s in (0, 80, 160, 240)
    ]
    excerpts = [(m.astype(np.float32), t.astype(np.float32)) for m, t in excerpts]
    spec = reduce_spec(reduce_spec(default_arch()))
    model = build_model(spec, seed=0)
    model.astype(np.float32)
    state = AdamState(alpha=2e-3)
    steps = 0
    full_mse = np.inf
    while steps < 2000:
        train_step(model, [excerpts[steps % 4]], state)
        steps += 1
        if steps % 25 == 0:
            with ad.no_grad():
                full_mse = float(np.mean([
                    np.mean((model.forward(m).data - t) ** 2) for m, t in excerpts
                ]))
            if full_mse < 1e-3:
                break

    overfit_ok = full_mse < 1e-3 and steps <= 2000

    # separation of the training track vs the estimate-=-mixture baseline
    from stemsep.separation import separate_track

    outputs = separate_track({"vocals": model}, clips["mixture"])
    refs = {"vocals": clips["vocals"].samples}
    span = {n: clips[n].samples for n in ("bass", "drums", "other", "vocals")}
    span["mixture"] = clips["mixture"].samples

    def score(est):
        res = evaluation.evaluate_track(
            {k: v for k, v in span.items() if k != "mixture"},
            {"vocals": est},
        )
        return res["vocals"]["mean"]["sdr"]

    model_sdr = score(outputs["vocals"].samples)
    baseline_sdr = score(clips["mixture"].samples)
    margin = model_sdr - baseline_sdr
    elapsed = time.time() - start
    ok = overfit_ok and margin >= 3.0 and elapsed < 1800
    report("8b", ok,
           "MSE %.2g in %d steps; vocal SDR %.1f vs mixture baseline %.1f "
           "(+%.1f dB); %.0fs" % (full_mse, steps, model_sdr, baseline_sdr,
                                  margin, elapsed))
    assert overfit_ok, (full_mse, steps)
    assert margin >= 3.0, (model_sdr, baseline_sdr)
    assert elapsed < 1800


# ---------------------------------------------------------------------------
# 9. structural audits


@pytest.mark.slow
def test_criterion_9_structure(default_model):
    from stemsep.model import Slot

    rng = np.random.default_rng(9)
    slot_spec = ScaleSlot("d1", 2, 4)
    wirings = {
        mode: slot_wiring(Slot(slot_spec, mode, 5, 16, 3, rng)) for mode in ("Sa", "Sb", "P")
    }
    sa_ok = wirings["Sa"].index("dense") < wirings["Sa"].index("lstm")
    sb_ok = wirings["Sb"].index("lstm") < wirings["Sb"].index("dense")
    p_ok = "|" in wirings["P"]
    distinct = len(set(wirings.values())) == 3

    shapes_ok = True
    model = default_model
    model.set_training(False)
    model.astype(np.float32)
    lengths = (1, 7, 64, 100, 356)
    for t in lengths:
        mag = np.abs(rng.standard_normal((2, 2049, t))).astype(np.float32)
        with ad.no_grad():
            out = model.forward(mag)
        shapes_ok = shapes_ok and out.data.shape == (2, 2049, t)
    model.astype(np.float64)

    ok = sa_ok and sb_ok and p_ok and distinct and shapes_ok
    report(9, ok, "combination wiring %r; lengths %r shape-preserving"
           % (sorted(wirings), lengths))
    assert ok, wirings


# ---------------------------------------------------------------------------
# 10. checkpoints and reproducibility


def test_criterion_10_checkpoints_and_reproducibility(toy_data, tmp_path):
    model = build_model(toy_arch(), seed=10)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, model)
    clone = build_model(toy_arch(), seed=99)
    load_checkpoint(p1, clone)
    save_checkpoint(p2, clone)
    bit_exact = p1.read_bytes() == p2.read_bytes()

    traces = []
    finals = []
    for _ in range(2):
        m = build_model(toy_arch(), seed=3)
        cfg = TrainConfig(source="vocals", frames_per_excerpt=16,
                          steps_per_epoch=3, epochs=1, seed=4)
        traces.append(train(m, toy_data, cfg))
        finals.append({k: v.data.copy() for k, v in m.named_params()})
    repro = traces[0] == traces[1] and all(
        np.array_equal(finals[0][k], finals[1][k]) for k in finals[0]
    )
    report(10, bit_exact and repro)
    assert bit_exact
    assert repro


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
