"""BSSEval-style source separation metrics.

An estimate is decomposed against the true sources by least-squares
projection onto the span of all references delayed by 0..L-1 samples
(distortions by short time-invariant filters are allowed and not
penalized):

    target   = projection onto the true source's delayed span
    interf   = projection onto the span of all references - target
    artifact = estimate - projection onto the span of all references

SDR = 10 log10(|target|^2 / |interf + artifact|^2). Stereo is scored
per channel and the dB values averaged. Aggregation follows the
median-of-per-song-means protocol.

The reference side of the projections is shared, as in BSSEval v4
(museval; Stoeter, Liutkus & Ito 2018). For each scoring window and
reference channel one ``_Basis`` computes the rFFT of every reference
once, the Gram matrix of all delayed references once, and one
``cho_factor`` of the Gram of the span references. It also keeps every
reference's rFFT at ``scipy.signal.fftconvolve``'s own length, so each
projection transforms only its filter. Each estimate then costs one
rFFT, one set of cross-correlations with the references, a
``cho_solve``, and the ``fftconvolve`` projections. The target-only
projection's Gram is a diagonal block of the shared matrix. A source
outside the span (``accompaniment``) comes first in its basis, so that
its own full projection uses the whole Gram, with the span Gram bordered
by its blocks. Dependent or silent references make the Gram singular.
Those projections fall back to a ridge-regularized solve.

A ratio whose numerator power is exactly 0 (a silent estimate, or a
target with no energy) scores -SDR_CLAMP_DB. A nonzero numerator whose
error power is below NOISE_FLOOR_REL of it scores +SDR_CLAMP_DB.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.linalg import cho_factor, cho_solve, solve, toeplitz

from .dsp import DEFAULT_FILTER_LEN, DEFAULT_HOP_S, DEFAULT_WINDOW_S

SDR_CLAMP_DB = 300.0
# error power below this fraction of the target power is float64 solver
# noise, not signal: report the clamp instead of a meaningless huge ratio
NOISE_FLOOR_REL = 1e-24
RIDGE_REL = 1e-10
SILENCE_RMS = 1e-8


class EvalError(ValueError):
    pass


def _pad_tail(x, extra):
    return np.concatenate([x, np.zeros(x.shape[:-1] + (extra,))], axis=-1)


def _lags(xcorr, flen):
    """Lags 0..flen-1 of a circular cross-correlation."""
    return np.hstack((xcorr[0], xcorr[-1:-flen:-1]))


def fftconvolve(spectrum, kernel, n):
    """First n samples of the linear convolution of a signal, given as
    its length-n rFFT, with a kernel of 2 or more samples. This is
    scipy.signal.fftconvolve's arithmetic at n = next_fast_len(
    len(signal) + len(kernel) - 1, True), so the samples are bitwise
    equal to fftconvolve's. The kernel spectrum is bound to a name: as an
    unnamed temporary, numpy may reuse it for the product and swap the
    operands."""
    kernel_spectrum = rfftn(kernel, [n])
    return irfftn(spectrum * kernel_spectrum, [n])


def _ridge_solve(g, d):
    """Solve (g + ridge I) x = d for dependent or silent references
    (a minimum-norm-ish filtered sum). The ridge goes into the diagonal
    of one Fortran-ordered copy of g, which the solve then overwrites."""
    n = g.shape[0]
    ridge = RIDGE_REL * max(np.trace(g) / n, 1e-30)
    a = np.array(g, order="F")
    a[np.diag_indices(n)] += ridge
    return solve(a, d, assume_a="pos", overwrite_a=True)


class _Basis:
    """Delayed-reference basis of one window and channel.

    references is (nsrc, n) and references[span:] are the span references.
    span is 0, or 1 when references[0] is a source outside the span
    (accompaniment), whose full projection is onto itself plus the span.
    """

    def __init__(self, references, span, filter_len):
        if filter_len < 1:
            raise EvalError("filter length must be >= 1")
        self.flen = flen = filter_len
        self.span = span
        references = np.asarray(references, dtype=np.float64)
        self.shape = references.shape
        # trailing zero padding keeps delayed reference copies fully inside
        # the analysis window, so a pure delay is absorbed exactly
        self.refs = _pad_tail(references, filter_len - 1)
        nsrc, nsampl = self.refs.shape
        self.n_fft = int(2 ** np.ceil(np.log2(nsampl + filter_len - 1)))
        self.spectra = np.fft.rfft(self.refs, n=self.n_fft, axis=1)
        self.gram = np.zeros((nsrc * flen, nsrc * flen))
        for i in range(nsrc):
            for j in range(i, nsrc):
                ssf = np.fft.irfft(self.spectra[i] * np.conj(self.spectra[j]),
                                   n=self.n_fft)
                block = toeplitz(_lags(ssf, flen), ssf[:flen])
                # a diagonal block holds block.T: the second write wins
                self.gram[i * flen:(i + 1) * flen, j * flen:(j + 1) * flen] = block
                self.gram[j * flen:(j + 1) * flen, i * flen:(i + 1) * flen] = block.T
        self._factors = {}  # (lo, hi) -> factor; only the span's is kept
        self.n_conv = next_fast_len(nsampl + flen - 1, True)
        self.conv_spectra = [rfftn(r, [self.n_conv]) for r in self.refs]

    def _sub_gram(self, lo, hi):
        """Gram of references[lo:hi], a view of the shared matrix."""
        return self.gram[lo * self.flen:hi * self.flen, lo * self.flen:hi * self.flen]

    def _factor(self, lo, hi):
        """cho_factor of the Gram of references[lo:hi], or None when it is
        not numerically positive definite."""
        if (lo, hi) in self._factors:
            return self._factors[lo, hi]
        try:
            factor = cho_factor(self._sub_gram(lo, hi), lower=False)
        except np.linalg.LinAlgError:
            factor = None
        if (lo, hi) == (self.span, self.shape[0]):
            self._factors[lo, hi] = factor
        return factor

    def _project(self, lo, hi, d):
        """Least-squares filtered sum of references[lo:hi] closest to the
        estimate whose cross-correlations with them are d."""
        factor = self._factor(lo, hi)
        # a non-finite d gives non-finite coefficients, and the ridge solve
        # below rejects it, so cho_solve need not scan its inputs
        coef = None if factor is None else cho_solve(factor, d, check_finite=False)
        if coef is None or not np.all(np.isfinite(coef)):
            coef = _ridge_solve(self._sub_gram(lo, hi), d)
        flen, nsampl = self.flen, self.refs.shape[1]
        proj = np.zeros(nsampl)
        for k, i in enumerate(range(lo, hi)):
            h = coef[k * flen:(k + 1) * flen]
            # scipy.signal.fftconvolve multiplies by a 1-sample kernel directly
            proj += (self.refs[i] * h if flen == 1 else
                     fftconvolve(self.conv_spectra[i], h, self.n_conv)[:nsampl])
        return proj

    def decompose(self, estimate, true_index):
        """(target, e_interf, e_artif) of one mono estimate of the source
        references[true_index], each of length n + filter_len - 1."""
        nsrc = self.shape[0]
        estimate = np.asarray(estimate, dtype=np.float64)
        if self.shape[1] != estimate.shape[0]:
            raise EvalError(
                "length mismatch: references %r vs estimate %r"
                % (self.shape, estimate.shape)
            )
        if not 0 <= true_index < nsrc:
            raise EvalError("true_index out of range")
        estimate = _pad_tail(estimate, self.flen - 1)
        lo = min(true_index, self.span)
        flen = self.flen
        sef = np.fft.rfft(estimate, n=self.n_fft)
        d = np.zeros((nsrc - lo) * flen)
        for k, i in enumerate(range(lo, nsrc)):
            # np.conj inside the product, as in the Gram loop: numpy writes a
            # large product into the conj temporary, which fixes the operand
            # order and so the rounding of the complex multiply
            ssef = np.fft.irfft(self.spectra[i] * np.conj(sef), n=self.n_fft)
            d[k * flen:(k + 1) * flen] = _lags(ssef, flen)
        t = true_index - lo
        target = self._project(true_index, true_index + 1, d[t * flen:(t + 1) * flen])
        full = self._project(lo, nsrc, d)
        return target, full - target, estimate - full


def bss_project(estimate, references, true_index, filter_len=DEFAULT_FILTER_LEN):
    """Decompose a mono estimate into (target, e_interf, e_artif), with
    every reference in the span.

    The returned components have length n + filter_len - 1 (the filtered
    references overhang the original window).
    """
    references = np.atleast_2d(np.asarray(references, dtype=np.float64))
    return _Basis(references, 0, filter_len).decompose(estimate, true_index)


def _ratio_db(num_power, den_power):
    if num_power == 0.0:
        return -SDR_CLAMP_DB
    if den_power <= num_power * NOISE_FLOOR_REL:
        return SDR_CLAMP_DB
    return float(min(10.0 * np.log10(num_power / den_power), SDR_CLAMP_DB))


def sdr_from_decomposition(target, e_interf, e_artif):
    """SDR/SIR/SAR (dB) from a bss_project decomposition."""
    pt = float(target @ target)
    err = e_interf + e_artif
    metrics = {
        "sdr": _ratio_db(pt, float(err @ err)),
        "sir": _ratio_db(pt, float(e_interf @ e_interf)),
    }
    ta = target + e_interf
    metrics["sar"] = _ratio_db(float(ta @ ta), float(e_artif @ e_artif))
    return metrics


def _score(references, span, estimates, filter_len):
    """Channel-averaged metrics of several estimates against one set of
    (src, ch, t) references. estimates is a list of (true_index, (ch, t)
    estimate); put the sources before span first, so that their bordered
    Gram is solved before the span's factor is held. Estimate channel c is
    scored against reference channel min(c, ch_ref - 1)."""
    n_ref_ch = references.shape[1]
    per_channel = [[] for _ in estimates]
    for ref_ch in range(n_ref_ch):
        jobs = [(k, c) for k, (_, est) in enumerate(estimates)
                for c in range(est.shape[0]) if min(c, n_ref_ch - 1) == ref_ch]
        if not jobs:
            continue
        basis = _Basis(references[:, ref_ch], span, filter_len)
        for k, c in jobs:
            true_index, est = estimates[k]
            per_channel[k].append(
                sdr_from_decomposition(*basis.decompose(est[c], true_index)))
        del basis  # before the next channel's basis is built
    return [{m: float(np.mean([v[m] for v in vals])) for m in vals[0]}
            for vals in per_channel]


# ---------------------------------------------------------------------------
# windowed track evaluation and aggregation


def evaluate_track(reference_clips: dict, estimate_clips: dict,
                   filter_len=DEFAULT_FILTER_LEN,
                   window_s=DEFAULT_WINDOW_S, hop_s=DEFAULT_HOP_S,
                   sample_rate=44100):
    """Windowed metrics for one song.

    reference_clips/estimate_clips map source name -> (ch, t) arrays.
    Sources whose reference window is silent are excluded from that
    window (and counted). A track shorter than the window is scored as
    one whole-track window.
    """
    names = [n for n in estimate_clips if n in reference_clips]
    if not names:
        raise EvalError("no overlapping source names between estimates and references")
    length = min(
        min(np.atleast_2d(reference_clips[n]).shape[1] for n in names),
        min(np.atleast_2d(estimate_clips[n]).shape[1] for n in names),
    )
    win = int(round(window_s * sample_rate))
    hop = int(round(hop_s * sample_rate))
    if win < 1:
        raise EvalError("scoring window of %g s is under one sample at %d Hz"
                        % (window_s, sample_rate))
    if hop < 1:
        raise EvalError("scoring hop of %g s is under one sample at %d Hz"
                        % (hop_s, sample_rate))
    if length <= win:
        starts = [0]
        win = length
    else:
        starts = list(range(0, length - win + 1, hop))

    # projection subspace: all independent references (accompaniment is a
    # sum of other stems, so it only serves as its own target span)
    span_names = [n for n in reference_clips if n != "accompaniment"]
    results = {n: {"windows": [], "excluded_windows": 0} for n in names}
    for start in starts:
        sl = slice(start, start + win)
        scored = []
        for name in names:
            ref = np.atleast_2d(reference_clips[name])[:, sl]
            if np.sqrt(np.mean(ref ** 2)) < SILENCE_RMS:
                results[name]["excluded_windows"] += 1
            else:
                scored.append(name)
        if not scored:
            continue
        # a scored source outside the span goes first, ahead of the span
        order = [n for n in scored if n not in span_names] + span_names
        refs = np.stack(
            [np.atleast_2d(reference_clips[n])[:, sl] for n in order]
        )  # (src, ch, t)
        span = len(order) - len(span_names)
        scored.sort(key=order.index)
        estimates = [(order.index(n), np.atleast_2d(estimate_clips[n])[:, sl])
                     for n in scored]
        for name, metrics in zip(scored, _score(refs, span, estimates, filter_len)):
            results[name]["windows"].append(metrics)
    for name in names:
        wins = results[name]["windows"]
        results[name]["mean"] = (
            {k: float(np.mean([w[k] for w in wins])) for k in wins[0]} if wins else None
        )
    return results


def aggregate(per_song: dict) -> dict:
    """Median across songs of the per-song mean SDR, per source."""
    report = {"songs": per_song, "medians": {}}
    sources = sorted({s for song in per_song.values() for s in song})
    for src in sources:
        means = [
            song[src]["mean"]["sdr"]
            for song in per_song.values()
            if src in song and song[src]["mean"] is not None
        ]
        report["medians"][src] = float(np.median(means)) if means else None
    return report


def write_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


def format_report(report) -> str:
    lines = ["%-16s %10s" % ("source", "median SDR")]
    for src, med in sorted(report["medians"].items()):
        lines.append("%-16s %10s" % (src, "n/a" if med is None else "%.2f dB" % med))
    lines.append("")
    for song, sources in sorted(report["songs"].items()):
        for src, res in sorted(sources.items()):
            mean = res.get("mean")
            lines.append(
                "%s / %-14s windows=%d excluded=%d mean SDR=%s"
                % (
                    song,
                    src,
                    len(res["windows"]),
                    res["excluded_windows"],
                    "n/a" if mean is None else "%.2f dB" % mean["sdr"],
                )
            )
    return "\n".join(lines)
