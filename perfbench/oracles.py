"""Answer checks for each subcommand, against the expectations that
workloads.py computed without qautk."""

from __future__ import annotations

from fractions import Fraction


def _exact(value) -> Fraction | None:
    """An exact JSON number (int or "p/q" string); None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return None
    try:
        return Fraction(value)
    except ValueError:
        return None


def check(command: str, expect: dict, code: int, payload: dict) -> str | None:
    """None when the op's exit code and report agree with the oracle,
    otherwise a one-line reason."""
    results = payload.get("results", {})
    if command == "verify":
        computed = results.get("computed", {})
        if code != 0 or computed.get("K0") != expect["K0"] or computed.get("K1") != expect["K1"]:
            return f"exit {code}, computed {computed}, expected K0={expect['K0']} K1={expect['K1']}"
    elif command == "resolution-check":
        exact = {t: results.get(t, {}).get("exact") for t in ("C", "A")}
        if code != 0 or exact != {"C": True, "A": True}:
            return f"exit {code}, exact {exact}"
    elif command == "magic-rank":
        if code != 0 or results.get("full_rank") != expect["rank"] or results.get("saturated") is not True:
            return f"exit {code}, rank {results.get('full_rank')} saturated {results.get('saturated')}, expected rank {expect['rank']}"
    elif command in ("twisted-group", "extract-torsion"):
        blocks = sorted(results.get("blocks", []))
        if code != 0 or blocks != expect["blocks"]:
            return f"exit {code}, blocks {blocks}, expected {expect['blocks']}"
    elif command == "delta-form":
        if expect["accept"]:
            if code != 0 or results.get("is_delta_form") is not True:
                return f"exit {code}, expected acceptance"
            got = _exact(results.get("delta_squared"))
            if got != Fraction(expect["delta_squared"]):
                return f"delta_squared {results.get('delta_squared')}, expected {expect['delta_squared']}"
        elif code != 1 or results.get("is_delta_form") is not False or "witness" not in results:
            return f"exit {code}, expected rejection with a witness"
    else:
        return f"no oracle for {command}"
    return None
