import json

import numpy as np
import pytest
from scipy.fft import next_fast_len, rfftn
from scipy.linalg import cho_solve, solve, toeplitz
from scipy.signal import fftconvolve

from stemsep import evaluation
from stemsep.evaluation import (
    RIDGE_REL,
    SDR_CLAMP_DB,
    SILENCE_RMS,
    EvalError,
    aggregate,
    bss_project,
    evaluate_track,
    format_report,
    sdr_from_decomposition,
    write_report,
)


def make_references(rng, nsrc=2, n=4000):
    return rng.standard_normal((nsrc, n))


# ---------------------------------------------------------------------------
# oracle: the per-source path that rebuilds the reference FFTs, the Gram and
# its solve for every projection (classic bss_eval structure)


def _correlations(references, estimate, flen):
    nsrc = references.shape[0]
    nsampl = references.shape[1]
    n_fft = int(2 ** np.ceil(np.log2(nsampl + flen - 1)))
    sf = np.fft.rfft(references, n=n_fft, axis=1)
    sef = np.fft.rfft(estimate, n=n_fft)
    g = np.zeros((nsrc * flen, nsrc * flen))
    for i in range(nsrc):
        for j in range(i, nsrc):
            ssf = np.fft.irfft(sf[i] * np.conj(sf[j]), n=n_fft)
            block = toeplitz(
                np.hstack((ssf[0], ssf[-1:-flen:-1])), ssf[:flen]
            )
            g[i * flen:(i + 1) * flen, j * flen:(j + 1) * flen] = block
            g[j * flen:(j + 1) * flen, i * flen:(i + 1) * flen] = block.T
    d = np.zeros(nsrc * flen)
    for i in range(nsrc):
        ssef = np.fft.irfft(sf[i] * np.conj(sef), n=n_fft)
        d[i * flen:(i + 1) * flen] = np.hstack((ssef[0], ssef[-1:-flen:-1]))
    return g, d


def _project(references, estimate, flen):
    references = np.atleast_2d(references)
    nsrc, nsampl = references.shape
    g, d = _correlations(references, estimate, flen)
    try:
        coef = solve(g, d, assume_a="pos")
    except np.linalg.LinAlgError:
        ridge = RIDGE_REL * max(np.trace(g) / g.shape[0], 1e-30)
        coef = solve(g + ridge * np.eye(g.shape[0]), d, assume_a="pos")
    if not np.all(np.isfinite(coef)):
        ridge = RIDGE_REL * max(np.trace(g) / g.shape[0], 1e-30)
        coef = solve(g + ridge * np.eye(g.shape[0]), d, assume_a="pos")
    proj = np.zeros(nsampl)
    for i in range(nsrc):
        h = coef[i * flen:(i + 1) * flen]
        proj += fftconvolve(references[i], h)[:nsampl]
    return proj


def _pad(x, extra):
    return np.concatenate([x, np.zeros(x.shape[:-1] + (extra,))], axis=-1)


def oracle_bss_project(estimate, references, true_index, filter_len):
    references = _pad(np.atleast_2d(np.asarray(references, dtype=np.float64)),
                      filter_len - 1)
    estimate = _pad(np.asarray(estimate, dtype=np.float64), filter_len - 1)
    target = _project(references[true_index:true_index + 1], estimate, filter_len)
    full = _project(references, estimate, filter_len)
    return target, full - target, estimate - full


def evaluate_estimate(estimate, references, true_index, filter_len):
    """Metrics for one stereo (or mono) estimate through the shared-basis
    path: channels scored independently, dB values averaged."""
    estimate = np.atleast_2d(np.asarray(estimate))
    refs = np.asarray(references)
    if refs.ndim == 2:
        refs = refs[:, None, :]
    return evaluation._score(refs, 0, [(true_index, estimate)], filter_len)[0]


def oracle_evaluate_estimate(estimate, references, true_index, filter_len):
    estimate = np.atleast_2d(np.asarray(estimate))
    refs = np.asarray(references)
    if refs.ndim == 2:
        refs = refs[:, None, :]
    vals = [
        sdr_from_decomposition(*oracle_bss_project(
            estimate[ch], refs[:, min(ch, refs.shape[1] - 1), :], true_index,
            filter_len))
        for ch in range(estimate.shape[0])
    ]
    return {k: float(np.mean([v[k] for v in vals])) for k in vals[0]}


def oracle_evaluate_track(reference_clips, estimate_clips, filter_len, window_s,
                          hop_s, sample_rate):
    names = [n for n in estimate_clips if n in reference_clips]
    length = min(
        min(np.atleast_2d(reference_clips[n]).shape[1] for n in names),
        min(np.atleast_2d(estimate_clips[n]).shape[1] for n in names),
    )
    win = int(round(window_s * sample_rate))
    hop = int(round(hop_s * sample_rate))
    if length <= win:
        starts = [0]
        win = length
    else:
        starts = list(range(0, length - win + 1, hop))
    span_names = [n for n in reference_clips if n != "accompaniment"]
    results = {n: {"windows": [], "excluded_windows": 0} for n in names}
    for start in starts:
        sl = slice(start, start + win)
        span_refs = np.stack(
            [np.atleast_2d(reference_clips[n])[:, sl] for n in span_names])
        for name in names:
            ref = np.atleast_2d(reference_clips[name])[:, sl]
            if np.sqrt(np.mean(ref ** 2)) < SILENCE_RMS:
                results[name]["excluded_windows"] += 1
                continue
            if name in span_names:
                refs, idx = span_refs, span_names.index(name)
            else:
                refs, idx = np.concatenate([ref[None], span_refs], axis=0), 0
            est = np.atleast_2d(estimate_clips[name])[:, sl]
            results[name]["windows"].append(
                oracle_evaluate_estimate(est, refs, idx, filter_len))
    for name in names:
        wins = results[name]["windows"]
        results[name]["mean"] = (
            {k: float(np.mean([w[k] for w in wins])) for k in wins[0]} if wins else None
        )
    return results


def toy_stems(rng, n, channels=2):
    """Four stems plus accompaniment = the sum of three of them, so that
    accompaniment's bordered Gram is singular."""
    stems = {name: rng.standard_normal((channels, n))
             for name in ("bass", "drums", "other", "vocals")}
    stems["accompaniment"] = stems["bass"] + stems["drums"] + stems["other"]
    return stems


def noisy_estimates(rng, refs):
    names = list(refs)
    return {name: refs[name] + 0.2 * refs[names[(k + 1) % len(names)]]
            + 0.05 * rng.standard_normal(refs[name].shape)
            for k, name in enumerate(names)}


class SolveCounter:
    """Counts the module's ridge-fallback solves."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = evaluation.solve

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, "solve", counting)


# ---------------------------------------------------------------------------
# decomposition properties


def test_perfect_estimate_hits_clamp():
    rng = np.random.default_rng(0)
    refs = make_references(rng)
    t, ei, ea = bss_project(refs[0], refs, 0, filter_len=8)
    m = sdr_from_decomposition(t, ei, ea)
    assert m["sdr"] == SDR_CLAMP_DB


def test_sdr_scale_invariance():
    rng = np.random.default_rng(1)
    refs = make_references(rng)
    est = refs[0] + 0.1 * rng.standard_normal(refs.shape[1])
    a = sdr_from_decomposition(*bss_project(est, refs, 0, filter_len=8))
    b = sdr_from_decomposition(*bss_project(3.7 * est, refs, 0, filter_len=8))
    assert a["sdr"] == pytest.approx(b["sdr"], abs=1e-6)


def test_small_delay_absorbed_by_filter_span():
    rng = np.random.default_rng(2)
    refs = make_references(rng)
    refs[0, -3:] = 0.0  # so the roll below is an exact 3-sample delay
    est = np.roll(refs[0], 3)
    est[:3] = 0.0
    good = sdr_from_decomposition(*bss_project(est, refs, 0, filter_len=8))
    bad = sdr_from_decomposition(*bss_project(est, refs, 0, filter_len=1))
    assert good["sdr"] > 250.0
    assert bad["sdr"] < 10.0


def test_decomposition_is_additive_and_orthogonal():
    rng = np.random.default_rng(3)
    refs = make_references(rng, nsrc=3)
    est = refs[0] + 0.5 * refs[1] + 0.2 * rng.standard_normal(refs.shape[1])
    t, ei, ea = bss_project(est, refs, 0, filter_len=16)
    padded = np.concatenate([est, np.zeros(15)])
    np.testing.assert_allclose(t + ei + ea, padded, atol=1e-8)
    # target is a projection of the estimate, so the remainder is orthogonal
    err = ei + ea
    cos = abs(t @ err) / (np.linalg.norm(t) * np.linalg.norm(err))
    assert cos < 1e-6


def test_constructed_twenty_db_case():
    """Noise orthogonal to the delayed-reference span at amplitude
    sqrt(1/100) of the target gives SDR = 20 dB."""
    rng = np.random.default_rng(4)
    n, flen = 3000, 8
    ref = rng.standard_normal(n)
    # explicit delayed-reference basis (flen x n)
    basis = np.stack([np.concatenate([np.zeros(d), ref[: n - d]]) for d in range(flen)])
    noise = rng.standard_normal(n)
    coef, *_ = np.linalg.lstsq(basis.T, noise, rcond=None)
    noise -= basis.T @ coef  # orthogonal to the span now
    noise *= np.linalg.norm(ref) / (10.0 * np.linalg.norm(noise))
    est = ref + noise
    m = sdr_from_decomposition(*bss_project(est, ref[None], 0, filter_len=flen))
    assert m["sdr"] == pytest.approx(20.0, abs=0.1)


def test_longer_filter_never_increases_artifact_energy():
    rng = np.random.default_rng(5)
    refs = make_references(rng)
    est = np.convolve(refs[0], [0.7, -0.2, 0.1])[: refs.shape[1]]
    est += 0.3 * rng.standard_normal(refs.shape[1])
    artifact_power = []
    for flen in (1, 2, 4, 8, 16):
        _, _, ea = bss_project(est, refs, 0, filter_len=flen)
        artifact_power.append(ea @ ea)
    for smaller, larger in zip(artifact_power[1:], artifact_power[:-1]):
        assert smaller <= larger + 1e-6


def test_bss_project_rejects_bad_input():
    refs = np.zeros((2, 100))
    with pytest.raises(EvalError):
        bss_project(np.zeros(99), refs, 0)
    with pytest.raises(EvalError):
        bss_project(np.zeros(100), refs, 5)
    with pytest.raises(EvalError):
        bss_project(np.zeros(100), refs, 0, filter_len=0)


def test_stereo_average_of_channel_scores():
    rng = np.random.default_rng(6)
    refs = rng.standard_normal((2, 2, 2000))  # (src, ch, t)
    est = refs[0] + 0.05 * rng.standard_normal((2, 2000))
    stereo = evaluate_estimate(est, refs, 0, filter_len=4)
    per_ch = [
        sdr_from_decomposition(*bss_project(est[c], refs[:, c], 0, filter_len=4))["sdr"]
        for c in range(2)
    ]
    assert stereo["sdr"] == pytest.approx(np.mean(per_ch), abs=1e-9)


# ---------------------------------------------------------------------------
# windowed evaluation and aggregation


def test_track_windows_and_silence_exclusion():
    rng = np.random.default_rng(7)
    sr = 1000
    n = 10 * sr  # 10 s at window 2 s hop 1 s -> 9 windows
    refs = {
        "a": rng.standard_normal((1, n)),
        "b": rng.standard_normal((1, n)),
    }
    refs["b"][:, : 4 * sr] = 0.0  # b silent in first 4 s
    ests = {k: v + 0.1 * rng.standard_normal((1, n)) for k, v in refs.items()}
    res = evaluate_track(refs, ests, filter_len=4, window_s=2.0, hop_s=1.0,
                         sample_rate=sr)
    assert len(res["a"]["windows"]) == 9
    assert res["a"]["excluded_windows"] == 0
    # b's windows starting at 0,1,2 s are fully silent; 3 s overlaps sound
    assert res["b"]["excluded_windows"] == 3
    assert len(res["b"]["windows"]) == 6
    assert res["a"]["mean"]["sdr"] == pytest.approx(
        np.mean([w["sdr"] for w in res["a"]["windows"]])
    )


def test_short_track_is_one_window():
    rng = np.random.default_rng(8)
    refs = {"a": rng.standard_normal((1, 500)), "b": rng.standard_normal((1, 500))}
    res = evaluate_track(refs, refs, filter_len=4, window_s=2.0, hop_s=1.0,
                         sample_rate=1000)
    assert len(res["a"]["windows"]) == 1
    assert res["a"]["mean"]["sdr"] == SDR_CLAMP_DB


def test_evaluate_track_requires_overlap():
    with pytest.raises(EvalError):
        evaluate_track({"a": np.zeros((1, 10))}, {"b": np.zeros((1, 10))})


def test_aggregate_median_of_song_means():
    def song(sdr):
        return {"vocals": {"windows": [{"sdr": sdr}], "excluded_windows": 0,
                           "mean": {"sdr": sdr}}}

    report = aggregate({"s1": song(3.0), "s2": song(5.0), "s3": song(100.0)})
    assert report["medians"]["vocals"] == 5.0


def test_aggregate_skips_fully_silent_sources():
    songs = {
        "s1": {"vocals": {"windows": [], "excluded_windows": 4, "mean": None}},
        "s2": {"vocals": {"windows": [{"sdr": 7.0}], "excluded_windows": 0,
                          "mean": {"sdr": 7.0}}},
    }
    report = aggregate(songs)
    assert report["medians"]["vocals"] == 7.0


def test_report_round_trip_and_format(tmp_path):
    report = aggregate({
        "song": {"vocals": {"windows": [{"sdr": 4.5, "sir": 9.0, "sar": 5.0}],
                            "excluded_windows": 1,
                            "mean": {"sdr": 4.5, "sir": 9.0, "sar": 5.0}}}
    })
    path = tmp_path / "scores.json"
    write_report(path, report)
    assert json.loads(path.read_text()) == report
    text = format_report(report)
    assert "vocals" in text and "4.50 dB" in text and "excluded=1" in text


# ---------------------------------------------------------------------------
# shared reference basis against the per-source oracle: bitwise equal scores


def test_silent_estimate_scores_negative_clamp():
    rng = np.random.default_rng(9)
    refs = make_references(rng)
    m = sdr_from_decomposition(*bss_project(np.zeros(4000), refs, 0, filter_len=8))
    assert m == {"sdr": -SDR_CLAMP_DB, "sir": -SDR_CLAMP_DB, "sar": -SDR_CLAMP_DB}


@pytest.mark.parametrize("true_index", [0, 1, 2])
def test_bss_project_matches_oracle(true_index):
    # long enough that numpy reuses temporaries in the spectral products
    # (arrays of 256 KiB and up), which fixes their operand order
    n = 40000
    rng = np.random.default_rng(10)
    refs = make_references(rng, nsrc=3, n=n)
    est = refs[true_index] + 0.3 * refs[(true_index + 1) % 3] \
        + 0.1 * rng.standard_normal(n)
    got = bss_project(est, refs, true_index, filter_len=16)
    want = oracle_bss_project(est, refs, true_index, 16)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class _PerReferenceBasis(evaluation._Basis):
    """Oracle: the shared basis, projecting with one
    scipy.signal.fftconvolve of each reference."""

    def _project(self, lo, hi, d):
        factor = self._factor(lo, hi)
        coef = None if factor is None else cho_solve(factor, d, check_finite=False)
        if coef is None or not np.all(np.isfinite(coef)):
            coef = evaluation._ridge_solve(self._sub_gram(lo, hi), d)
        flen, nsampl = self.flen, self.refs.shape[1]
        proj = np.zeros(nsampl)
        for k, i in enumerate(range(lo, hi)):
            proj += fftconvolve(self.refs[i], coef[k * flen:(k + 1) * flen])[:nsampl]
        return proj


@pytest.mark.parametrize("n,filter_len", [(40000, 1), (40001, 16), (40000, 512)])
@pytest.mark.parametrize("span", [0, 1])
def test_projection_from_cached_spectra_is_bitwise_per_reference(n, filter_len, span):
    # scores are checked at 1e-9 dB and rounding alone moves them by
    # 5e-10 dB, so the components must be bitwise equal; with span 1 the
    # first reference is the sum of the others, as accompaniment is
    rng = np.random.default_rng(13)
    refs = make_references(rng, nsrc=3, n=n)
    if span:
        refs = np.vstack([refs[1:].sum(axis=0), refs[1:]])
    for true_index in range(3):
        est = refs[true_index] + 0.3 * refs[(true_index + 1) % 3] \
            + 0.1 * rng.standard_normal(n)
        got = (bss_project(est, refs, true_index, filter_len) if span == 0 else
               evaluation._Basis(refs, span, filter_len).decompose(est, true_index))
        want = _PerReferenceBasis(refs, span, filter_len).decompose(est, true_index)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("nx", [40000, 40001])
@pytest.mark.parametrize("nh", [2, 512])
def test_fftconvolve_from_a_spectrum_is_scipys(nx, nh):
    # a 1-sample kernel is a plain product in scipy, and in _project
    # (test_projection_from_cached_spectra_is_bitwise_per_reference)
    rng = np.random.default_rng(12)
    x, h = rng.standard_normal(nx), rng.standard_normal(nh)
    n = next_fast_len(nx + nh - 1, True)
    got = evaluation.fftconvolve(rfftn(x, [n]), h, n)
    assert np.array_equal(got[:nx + nh - 1], fftconvolve(x, h))


def test_windowed_track_with_exclusions_matches_oracle():
    rng = np.random.default_rng(11)
    sr = 1000
    refs = toy_stems(rng, 6 * sr)
    refs["vocals"][:, : 3 * sr] = 0.0  # excluded from the windows at 0 and 1 s
    ests = noisy_estimates(rng, refs)
    kwargs = dict(filter_len=8, window_s=2.0, hop_s=1.0, sample_rate=sr)
    got = evaluate_track(refs, ests, **kwargs)
    assert got == oracle_evaluate_track(refs, ests, **kwargs)
    assert got["vocals"]["excluded_windows"] == 2
    assert len(got["accompaniment"]["windows"]) == 5


def test_ridge_fallback_on_dependent_references_matches_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    refs = toy_stems(rng, 3000)
    refs["other"] = refs["bass"] - 0.5 * refs["drums"]  # a dependent span source
    ests = noisy_estimates(rng, refs)
    ests = {n: ests[n] for n in ("other", "accompaniment")}
    counter = SolveCounter(monkeypatch)
    got = evaluate_track(refs, ests, filter_len=8, sample_rate=1000)
    # per channel: accompaniment's bordered Gram and the span Gram
    assert counter.calls == 4
    assert got == oracle_evaluate_track(refs, ests, 8, evaluation.DEFAULT_WINDOW_S,
                                        evaluation.DEFAULT_HOP_S, 1000)


def _mixture_and_vocals_only(rng):
    # a reference dir with only mixture.wav and vocals.wav: the CLI scores
    # accompaniment as mixture - vocals, with vocals alone in the span
    stems = toy_stems(rng, 3000)
    mixture = sum(stems[n] for n in ("bass", "drums", "other", "vocals"))
    return {"vocals": stems["vocals"], "accompaniment": mixture - stems["vocals"]}


def _accompaniment_rounded_on_its_own(rng):
    # stems and accompaniment each rounded to a 16-bit grid, as separately
    # written WAVs are: accompaniment is near the span, not in it
    stems = toy_stems(rng, 3000)
    return {n: np.round(v * 4096) / 4096 for n, v in stems.items()}


@pytest.mark.parametrize("make_refs", [_mixture_and_vocals_only,
                                       _accompaniment_rounded_on_its_own])
def test_accompaniment_outside_the_span_is_solved_by_cholesky(monkeypatch, make_refs):
    # accompaniment's bordered Gram is positive definite here, so its
    # projection is the exact Cholesky solve, with no ridge fallback
    rng = np.random.default_rng(14)
    refs = make_refs(rng)
    ests = noisy_estimates(rng, refs)
    counter = SolveCounter(monkeypatch)
    got = evaluate_track(refs, ests, filter_len=8, sample_rate=1000)
    assert counter.calls == 0
    assert got == oracle_evaluate_track(refs, ests, 8, evaluation.DEFAULT_WINDOW_S,
                                        evaluation.DEFAULT_HOP_S, 1000)


def test_independent_references_need_no_fallback(monkeypatch):
    rng = np.random.default_rng(13)
    refs = toy_stems(rng, 3000)
    del refs["accompaniment"]
    ests = noisy_estimates(rng, refs)
    counter = SolveCounter(monkeypatch)
    got = evaluate_track(refs, ests, filter_len=8, sample_rate=1000)
    assert counter.calls == 0
    assert got == oracle_evaluate_track(refs, ests, 8, evaluation.DEFAULT_WINDOW_S,
                                        evaluation.DEFAULT_HOP_S, 1000)


@pytest.mark.parametrize("est_channels,ref_channels", [(1, 2), (2, 1)])
def test_channel_mapping_matches_oracle(est_channels, ref_channels):
    rng = np.random.default_rng(14)
    refs = toy_stems(rng, 2500, channels=ref_channels)
    ests = {n: rng.standard_normal((est_channels, 2500)) + refs[n][:1]
            for n in refs}
    kwargs = dict(filter_len=8, window_s=1.0, hop_s=0.5, sample_rate=1000)
    assert evaluate_track(refs, ests, **kwargs) == oracle_evaluate_track(
        refs, ests, **kwargs)
    stacked = np.stack([refs[n] for n in ("bass", "drums", "other", "vocals")])
    assert evaluate_estimate(ests["drums"], stacked, 1, filter_len=8) \
        == oracle_evaluate_estimate(ests["drums"], stacked, 1, 8)


@pytest.mark.parametrize("window_s,hop_s,match", [
    (0.0001, 1.0, "window of 0.0001 s"),
    (1.0, 0.0, "hop of 0 s"),
])
def test_window_or_hop_under_one_sample_rejected(window_s, hop_s, match):
    refs = {"a": np.ones((1, 8000))}
    with pytest.raises(EvalError, match=match):
        evaluate_track(refs, refs, filter_len=4, window_s=window_s, hop_s=hop_s,
                       sample_rate=4000)
