"""The golden cases: a fixed set of solves and the bits of their results,
one JSON line per case in ``tests/golden_cases.jsonl``.

The 141 cases, all with the default surrogate table:
- MA_OB, FPA_OB and MA_MRT on the six presets;
- RAP_OB at seeds 0 and 5 with 1, 4 and 100 restarts on the six presets;
- MA_OB, FPA_OB and MA_MRT on ``base_config`` at pa = 1.5, just above the
  power below which no level is feasible, and at pa = 1e-3, below it;
- FPA_ZF and MA_ZF on the six presets, and RAP_ZF at seeds 0 and 5 with 1,
  20 and 150 restarts on each;
- FPA_ZF and MA_ZF on m-sweep cut to 3 and to 6 eavesdroppers
  (``apply_variable(preset("m-sweep"), "n_eves", m)``), and RAP_ZF at seeds
  0 and 5 with 20 and 150 restarts on each, where the Gram condition
  numbers run from hundreds to past the limit;
- MA_OB, FPA_OB, MA_MRT, RAP_OB (seed 0, 20 restarts), FPA_ZF, MA_ZF and
  RAP_ZF (seed 0, 20 restarts) on three scenarios whose eavesdroppers fall
  in several groups of equal scatter variance (``MULTI_GROUP``).

A case's line holds eps and p_out as ``float.hex``; the Monte Carlo outage
of the returned (w, x), 20000 trials at seed 0, as ``float.hex``; the
iterations (summed over the lanes for RAP_OB), rounds and screened probes
of the reported bisection; and SHA-256 digests of the w and x bytes, of the
probes and of the trace.  A field the scheme does not report, such as the
bisection's of a zero-forcing scheme, reads ``-``.  A case that raises (the
zero-forcing schemes on m-sweep, cdf-demo, mixed and the cdf-demo variant,
FPA_ZF on m-sweep cut to 6) holds its exception class and message instead.
The first line names the numpy version that wrote the file.
``test_golden_cases.py`` recomputes every line.  Run this file as a script,
``python tests/golden_cases.py``, to rewrite it with the code of this
checkout; it prints the cases whose lines changed and their changed
fields, or "no line changed".
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

from masec.bench import apply_variable, base_config, preset, run_scheme
from masec.outage import monte_carlo_outage
from masec.zf import SingularSteeringError

PATH = Path(__file__).with_name("golden_cases.jsonl")
PRESETS = ("ob-demo", "zf-demo-far", "zf-demo-near", "k-sweep", "m-sweep",
           "cdf-demo")
ONE_LANE = ("MA_OB", "FPA_OB", "MA_MRT")
# scenarios whose eavesdroppers fall in several variance groups
MULTI_GROUP = {
    # test_outage.py's MIXED: three groups
    "mixed": base_config(n_eves=4, thetas=(np.pi / 6, np.pi / 4, np.pi / 10,
                                           1.3 * np.pi / 4),
                         betas=(1.0, 1.0, 2.0, 1.0), ks=(4.0, 4.0, 4.0, 1.0)),
    "cdf-demo betas=(1,0.3,0.1) ks=(1,4,10) pa=1e4": dataclasses.replace(
        preset("cdf-demo"), betas=(1.0, 0.3, 0.1), ks=(1.0, 4.0, 10.0),
        pa=1e4),
    "zf-demo-far betas=(1,0.3) ks=(4,1)": dataclasses.replace(
        preset("zf-demo-far"), betas=(1.0, 0.3), ks=(4.0, 1.0)),
}


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
    for m in (3, 6):
        name = f"m-sweep n_eves={m}"
        cfg = apply_variable(preset("m-sweep"), "n_eves", m)
        for scheme in ("FPA_ZF", "MA_ZF"):
            yield f"{scheme} {name}", scheme, cfg, {}
        for seed in (0, 5):
            for restarts in (20, 150):
                yield (f"RAP_ZF {name} seed={seed} restarts={restarts}",
                       "RAP_ZF", cfg, {"seed": seed, "restarts": restarts})
    for name, cfg in MULTI_GROUP.items():
        for scheme in ("MA_OB", "FPA_OB", "MA_MRT", "RAP_OB", "FPA_ZF",
                       "MA_ZF", "RAP_ZF"):
            if scheme.startswith("RAP"):
                yield (f"{scheme} {name} seed=0 restarts=20", scheme, cfg,
                       {"seed": 0, "restarts": 20})
            else:
                yield f"{scheme} {name}", scheme, cfg, {}


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


def changes(old: list[dict], new: list[dict]) -> list[str]:
    """One text per line of ``new`` that differs from ``old``'s line of the
    same case (or header): its name and the fields that changed, or that
    it is new; and one per case of ``old`` that ``new`` lacks."""
    def keyed(lines):
        return {line.get("case", "header"): line for line in lines}
    old, new = keyed(old), keyed(new)
    out = []
    for name, line in new.items():
        if name not in old:
            out.append(f"{name}: new")
        elif line != old[name]:
            moved = [key for key in {**old[name], **line}
                     if old[name].get(key) != line.get(key)]
            out.append(f"{name}: {', '.join(moved)}")
    return out + [f"{name}: gone" for name in old if name not in new]


if __name__ == "__main__":
    lines = compute()
    committed = ([json.loads(line) for line in PATH.read_text().splitlines()]
                 if PATH.exists() else [])
    PATH.write_text("".join(json.dumps(line) + "\n" for line in lines))
    print(f"wrote {PATH} ({len(lines) - 1} cases)")
    print("\n".join(changes(committed, lines)) or "no line changed")
