"""The golden cases: a fixed set of solves and the bits of their results,
one JSON line per case in ``tests/golden_cases.jsonl``.

The cases, all with the default surrogate table:
- MA_OB, FPA_OB and MA_MRT on the six presets;
- RAP_OB at seeds 0 and 5 with 1, 4 and 100 restarts on the six presets;
- MA_OB, FPA_OB and MA_MRT on ``base_config`` at pa = 1.5, just above the
  power below which no level is feasible, and at pa = 1e-3, below it;
- FPA_ZF and MA_ZF on the six presets, and RAP_ZF at seeds 0 and 5 with 1,
  20 and 150 restarts on each.

A case's line holds eps and p_out as ``float.hex``; the Monte Carlo outage
of the returned (w, x), 20000 trials at seed 0, as ``float.hex``; the
iterations (summed over the lanes for RAP_OB), rounds and screened probes
of the reported bisection; and SHA-256 digests of the w and x bytes, of the
probes and of the trace.  A field the scheme does not report, such as the
bisection's of a zero-forcing scheme, reads ``-``.  A case that raises (the
zero-forcing schemes on m-sweep and cdf-demo) holds its exception class
and message instead.  The first line names the numpy version that wrote
the file.
``test_golden_cases.py`` recomputes every line.  Run this file as a script,
``python tests/golden_cases.py``, to rewrite it with the code of this
checkout.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":      # solve with this checkout's masec
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from masec.bench import base_config, preset, run_scheme
from masec.outage import monte_carlo_outage
from masec.zf import SingularSteeringError

PATH = Path(__file__).with_name("golden_cases.jsonl")
PRESETS = ("ob-demo", "zf-demo-far", "zf-demo-near", "k-sweep", "m-sweep",
           "cdf-demo")
ONE_LANE = ("MA_OB", "FPA_OB", "MA_MRT")


def cases():
    """(name, scheme, scenario, run_scheme's seed and restarts) of every
    case, in file order."""
    for name in PRESETS:
        for scheme in ONE_LANE:
            yield f"{scheme} {name}", scheme, preset(name), {}
    for name in PRESETS:
        for seed in (0, 5):
            for restarts in (1, 4, 100):
                yield (f"RAP_OB {name} seed={seed} restarts={restarts}",
                       "RAP_OB", preset(name),
                       {"seed": seed, "restarts": restarts})
    for pa in (1.5, 1e-3):
        for scheme in ONE_LANE:
            yield f"{scheme} pa={pa!r}", scheme, base_config(pa=pa), {}
    for name in PRESETS:
        for scheme in ("FPA_ZF", "MA_ZF"):
            yield f"{scheme} {name}", scheme, preset(name), {}
        for seed in (0, 5):
            for restarts in (1, 20, 150):
                yield (f"RAP_ZF {name} seed={seed} restarts={restarts}",
                       "RAP_ZF", preset(name),
                       {"seed": seed, "restarts": restarts})


def _digest(text: str | bytes) -> str:
    return hashlib.sha256(
        text.encode() if isinstance(text, str) else text).hexdigest()


def _hex(value) -> str:
    """A float as ``float.hex``, a bool or an int as text, None as ``-``."""
    if value is None:
        return "-"
    return str(value) if isinstance(value, (bool, int)) else float(value).hex()


def solve(name: str, scheme: str, cfg, kwargs) -> dict:
    """The line of one case."""
    try:
        res = run_scheme(scheme, cfg, **kwargs)
    except (ValueError, SingularSteeringError) as exc:
        return {"case": name, "raises": f"{type(exc).__name__}: {exc}"}
    detail = res.detail
    return {
        "case": name,
        "eps": _hex(res.eps),
        "p_out": _hex(res.p_out),
        "mc": _hex(monte_carlo_outage(res.w, res.x, cfg, 20_000, seed=0)),
        "iterations": res.iterations,
        "rounds": "-" if detail is None else detail.rounds,
        "screened": "-" if detail is None else detail.screened,
        "wx": _digest(res.w.tobytes() + res.x.tobytes()),
        "probes": "-" if detail is None else _digest("\n".join(
            " ".join(map(_hex, probe)) for probe in detail.probes)),
        "trace": "-" if res.trace is None else _digest("\n".join(
            " ".join(_hex(getattr(rec, f.name))
                     for f in dataclasses.fields(rec))
            for rec in res.trace)),
    }


def compute() -> list[dict]:
    """The header and every case's line, as the code solves them now."""
    return [{"numpy": np.__version__}] + [solve(*case) for case in cases()]


if __name__ == "__main__":
    lines = compute()
    PATH.write_text("".join(json.dumps(line) + "\n" for line in lines))
    print(f"wrote {PATH} ({len(lines) - 1} cases)")
