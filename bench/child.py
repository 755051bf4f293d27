"""Run the dwnls CLI once in this fresh interpreter and write what was
measured inside it to a JSON sidecar file.

    python3 bench/child.py --mode MODE --src SRC --sidecar FILE
                           [--setup-fn NAME] -- CLI ARGS...

Modes:
  run      time the import of dwnls.cli and the set-up call, run the CLI
  setup    the same, but stop once the set-up call has returned
  trace    also wrap the layers' entry points (see tracer.py) and write
           the spans to spans.json beside the sidecar
  profile  run the CLI under cProfile and keep the top 10 by self time

The process exits with the CLI's own exit code (0 after a set-up probe).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


class SetupDone(BaseException):
    """Raised by a set-up probe once the set-up call has returned; the CLI
    handles only Exception subclasses, so this passes through it."""


class SetupTimer:
    """Time the first outermost call of a linear_spectrum function."""

    def __init__(self, module, name: str, stop: bool):
        self.seconds = None
        self._depth = 0
        self._stop = stop
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0 and self.seconds is None:
                    self.seconds = time.perf_counter() - t0
                    if self._stop:
                        raise SetupDone

        setattr(module, name, timed)


def _profile_top(prof, src: Path, count: int = 10) -> list[dict]:
    import pstats

    stats = pstats.Stats(prof)
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    out = []
    for (fname, line, func), (cc, nc, tt, ct, _) in rows[:count]:
        path = fname
        if fname.startswith(str(src)):
            path = "src/" + Path(fname).relative_to(src).as_posix()
        elif "site-packages/" in fname:
            path = fname.split("site-packages/", 1)[1]
        out.append({"function": f"{path}:{line}({func})", "ncalls": nc,
                    "tottime_s": tt, "cumtime_s": ct})
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("run", "setup", "trace", "profile"),
                        required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--setup-fn", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import dwnls.cli as cli
    import_s = time.perf_counter() - t0
    import dwnls.linear_spectrum as ls
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"dwnls imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timer = (SetupTimer(ls, args.setup_fn, stop=args.mode == "setup")
             if args.setup_fn else None)

    main_fn = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main", "cli")
    record = {"import_s": import_s}
    if args.mode == "setup" and timer is None:
        rc = 0
    elif args.mode == "profile":
        import cProfile

        prof = cProfile.Profile()
        rc = prof.runcall(main_fn, cli_args)
        record["profile_top10"] = _profile_top(prof, src)
    else:
        try:
            rc = main_fn(cli_args)
        except SetupDone:
            rc = 0
    record["setup_call_s"] = timer.seconds if timer else 0.0
    record["setup_s"] = import_s + record["setup_call_s"]
    record["rc"] = rc
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary()
        tracer.write_spans(Path(args.sidecar).with_name("spans.json"))
    import numpy
    import scipy

    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(args.sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
