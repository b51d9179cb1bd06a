"""Run one ``stemsep`` command in this fresh process and time it.

    python3 benchmarks/child.py REQUEST.json T_SPAWN

T_SPAWN is the parent's CLOCK_MONOTONIC reading taken just before it
started this process; the clock is shared by all processes, so set-up
time includes interpreter start-up. REQUEST.json holds ``argv`` (the CLI
arguments), ``src`` (the stemsep sources to import), ``mode`` and
``result`` (where the JSON result goes). Modes:

* ``setup``: stop at the first unit of work, so only set-up is timed;
* ``run``: run the command to the end;
* ``trace``: as ``run``, with every layer wrapped by the tracer.

Set-up ends and work begins at the first ``read_wav`` call. Every
workload reads its audio only after imports, argument and arch parsing,
model build and checkpoint load.
"""

import json
import os
import resource
import sys
import time


class SetupDone(BaseException):
    """Raised at the first unit of work in ``setup`` mode; a BaseException
    so that the CLI's error mapping does not catch it."""


def main():
    with open(sys.argv[1]) as fh:
        request = json.load(fh)
    t_spawn = float(sys.argv[2])
    mode = request["mode"]

    import stemsep
    if not os.path.abspath(stemsep.__file__).startswith(request["src"] + os.sep):
        raise ImportError("stemsep imported from %s, not %s"
                          % (stemsep.__file__, request["src"]))
    from stemsep import cli, dsp, train
    from tracer import Tracer, rebind

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    marks = {}
    read_wav = dsp.read_wav

    def first_read_marks_work(*args, **kwargs):
        if "work" not in marks:
            marks["work"] = time.monotonic()
            if mode == "setup":
                raise SetupDone
        return read_wav(*args, **kwargs)

    rebind(read_wav, first_read_marks_work)

    losses = []
    train_step = train.train_step

    def record_loss(*args, **kwargs):
        loss = train_step(*args, **kwargs)
        losses.append(loss)
        return loss

    rebind(train_step, record_loss)

    try:
        rc = cli.main(request["argv"])
    except SetupDone:
        rc = 0
    end = time.monotonic()
    if "work" not in marks:
        raise RuntimeError("the command never read a WAV file")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "setup_s": marks["work"] - t_spawn,
        "work_s": end - marks["work"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "losses": losses,
        "trace": tracer.metrics() if tracer else None,
    }
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
