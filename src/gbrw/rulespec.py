"""Parsing of rule specifications: builtin names and rule document files.

Builtin names use colon-separated parameters, e.g. ``window-max:3`` or
``extended-brw:prefix:0.5``.

A rule document is a small key-value text format::

    psi0: -1
    generator: builtin levy

or, with explicit steps and a fallback for the rest::

    psi0: +1
    generator: beta {
      2: [{1}]
      3: [{1,2}, {}]
      fallback: identity
    }

    psi0: -1
    generator: truth {
      3: +--+
      fallback: brw
    }

Index sets are written as comma-separated integers in braces, the empty
set as ``{}``.  Truth rows list 2**(n-1) signs indexed by the bitmask of
coordinates equal to -1 (bit k-1 set means u_k = -1).
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

import numpy as np

from .algebra import BetaFamily, TruthTable
from .rules import (
    ExplicitRule,
    ExtendedBrwRule,
    LevyRule,
    ModifiedLevyMaxRule,
    ModifiedLevyRule,
    ProductRule,
    RecyclingRule,
    SignFlipRule,
    StepFunction,
    SymmetricRule,
    WindowMaxRule,
    identity_rule,
    negation_rule,
)
from . import setseq


class RuleSpecError(ValueError):
    """A rule specification could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


#: extended-brw set-sequence kinds: factory, parameter type or None, error text
_SET_SEQUENCES = {
    "prefix": (setseq.prefix_fraction, float, "one fraction parameter"),
    "prefix-log": (setseq.prefix_log, None, "no parameter"),
    "prefix-pow": (setseq.prefix_power, float, "one exponent parameter"),
    "capped": (setseq.capped_prefix, int, "one length parameter"),
    "window": (setseq.sliding_window, int, "one length parameter"),
}


def _parse_set_sequence(parts: list[str]) -> setseq.SetSequence:
    if not parts:
        raise RuleSpecError("extended-brw needs a set-sequence kind")
    kind, args = parts[0], parts[1:]
    if kind not in _SET_SEQUENCES:
        raise RuleSpecError(f"unknown set-sequence kind {kind!r}")
    factory, parse, takes = _SET_SEQUENCES[kind]
    if len(args) != (parse is not None):
        raise RuleSpecError(f"{kind} takes {takes}")
    return factory(*(parse(arg) for arg in args))


def _parse_symmetric(parts: list[str]) -> SymmetricRule:
    # alternating value, break, value, break, ..., value
    if len(parts) % 2 == 0 or not parts:
        raise RuleSpecError("symmetric takes values alternating with breakpoints")
    f = StepFunction(tuple(float(b) for b in parts[1::2]),
                     tuple(int(v) for v in parts[0::2]), jump_side="right")
    return SymmetricRule(f, name="symmetric:" + ":".join(parts))


def _window_max(args: list[str]) -> WindowMaxRule:
    if len(args) != 1:
        raise RuleSpecError("window-max takes one length parameter")
    return WindowMaxRule(int(args[0]))


def _sign_flips(args: list[str]) -> SignFlipRule:
    if len(args) != 1:
        raise RuleSpecError("sign-flips takes one density parameter")
    return SignFlipRule(Fraction(args[0]))


#: Builtin rules: name -> (parameter spelling, description, factory).  A name
#: without a spelling takes no parameter and its factory takes sgn0, which
#: only the sign rules read; the others' factories take the parameters.
BUILTINS = {
    "identity": ("", "eta = xi (psi identically +1)", lambda sgn0: identity_rule()),
    "negation": ("", "eta = -xi (psi identically -1)", lambda sgn0: negation_rule()),
    "brw": ("", "running product: eta_k = xi_1 ... xi_k", lambda sgn0: ProductRule()),
    "product": ("", "the same rule as brw", lambda sgn0: ProductRule()),
    "max": ("", "prefix maximum multiplier, psi0 = -1", lambda sgn0: WindowMaxRule(None)),
    "window-max": (":M", "maximum of the last M increments", _window_max),
    "levy": ("", "eta_k = sgn(X_{k-1}) xi_k, sgn(0) configurable", LevyRule),
    "modified-levy": ("", "levy with a prefix-max factor except at power-of-two arities",
                      ModifiedLevyRule),
    "modified-levy-max": ("", "prefix max times sgn of the sum excluding the last entry",
                          ModifiedLevyMaxRule),
    "extended-brw": (":KIND[:PARAM]", "eta_k = xi_k prod_{j in M_k} xi_j over a set sequence",
                     lambda args: ExtendedBrwRule(_parse_set_sequence(args))),
    "sign-flips": (":P", "eta_k = eps_k xi_k with flip density P", _sign_flips),
    "symmetric": (":V0[:Z1:V1...]", "eta_k = f(X_{k-1}/sqrt(k)) xi_k for a step function f",
                  _parse_symmetric),
}


def make_builtin(spec: str, sgn0: int = -1) -> RecyclingRule:
    """Instantiate a builtin rule from its colon-separated name."""
    parts = spec.split(":")
    name, args = parts[0], parts[1:]
    if name not in BUILTINS:
        raise RuleSpecError(f"unknown builtin rule {name!r}")
    spelling, _, factory = BUILTINS[name]
    if not spelling and args:
        raise RuleSpecError(f"{name} takes no parameter")
    try:
        return factory(args if spelling else sgn0)
    except RuleSpecError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise RuleSpecError(f"bad parameters for builtin {spec!r}: {exc}") from exc


_SET_RE = re.compile(r"\{([0-9,\s]*)\}")


def parse_index_set(text: str) -> int:
    """The mask (bit k-1 for index k) of an index set written as "{i,j,...}"."""
    text = text.strip()
    m = _SET_RE.fullmatch(text)
    if not m:
        raise RuleSpecError(f"malformed index set {text!r}")
    body = m.group(1).strip()
    indices = [int(tok) for tok in body.split(",")] if body else []
    if indices and min(indices) < 1:
        raise RuleSpecError(f"indices must be positive, got {min(indices)}")
    return sum({1 << (k - 1) for k in indices})


def _parse_set_list(text: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise RuleSpecError("expected a [...] list of index sets")
    body = text[1:-1].strip()
    if not body:
        return []
    sets = []
    for m in _SET_RE.finditer(body):
        sets.append(parse_index_set(m.group(0)))
    leftovers = _SET_RE.sub("", body).replace(",", "").strip()
    if leftovers:
        raise RuleSpecError(f"unexpected tokens {leftovers!r} in set list")
    return sets


def _parse_signs(text: str) -> np.ndarray:
    text = text.strip().replace(" ", "")
    if not text or set(text) - {"+", "-"}:
        raise RuleSpecError("truth rows must be strings of + and - signs")
    return np.array([1 if c == "+" else -1 for c in text], dtype=np.int8)


def parse_rule_document(text: str, sgn0: int = -1) -> RecyclingRule:
    """Parse the rule document format; raises RuleSpecError with line numbers."""
    psi0: int | None = None
    generator_kind: str | None = None
    builtin_spec: str | None = None
    block_entries: dict[int, object] = {}
    fallback: RecyclingRule | None = None
    in_block = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_block:
            if line == "}":
                in_block = False
                continue
            # every error in a block line, the set and fallback checks of
            # BetaFamily and make_builtin among them, names the line
            try:
                if ":" not in line:
                    raise RuleSpecError("expected 'n: ...' or 'fallback: ...'")
                key, value = (part.strip() for part in line.split(":", 1))
                if key == "fallback":
                    fallback = make_builtin(value, sgn0=sgn0)
                    continue
                try:
                    step = int(key)
                except ValueError:
                    raise RuleSpecError(f"bad step number {key!r}") from None
                if step < 2:
                    raise RuleSpecError("explicit steps must be >= 2")
                if step in block_entries:
                    raise RuleSpecError(f"step {step} defined twice")
                if generator_kind == "beta":
                    block_entries[step] = BetaFamily(step, _parse_set_list(value))
                else:
                    signs = _parse_signs(value)
                    if signs.size != 1 << (step - 1):
                        raise RuleSpecError(
                            f"step {step} needs {1 << (step - 1)} signs, got {signs.size}"
                        )
                    block_entries[step] = TruthTable(step - 1, signs)
            except ValueError as exc:
                raise RuleSpecError(str(exc), lineno) from None
            continue
        if ":" not in line:
            raise RuleSpecError(f"expected 'key: value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "psi0":
            if value in ("+1", "1"):
                psi0 = 1
            elif value == "-1":
                psi0 = -1
            else:
                raise RuleSpecError(f"psi0 must be +1 or -1, got {value!r}", lineno)
        elif key == "generator":
            if value.startswith("builtin"):
                generator_kind = "builtin"
                builtin_spec = value[len("builtin"):].strip()
                if not builtin_spec:
                    raise RuleSpecError("builtin generator needs a name", lineno)
            elif value.startswith("beta") or value.startswith("truth"):
                generator_kind = "beta" if value.startswith("beta") else "truth"
                rest = value[len(generator_kind):].strip()
                if rest != "{":
                    raise RuleSpecError(
                        f"expected '{generator_kind} {{' opening a block", lineno
                    )
                in_block = True
            else:
                raise RuleSpecError(f"unknown generator {value!r}", lineno)
        else:
            raise RuleSpecError(f"unknown key {key!r}", lineno)

    if in_block:
        raise RuleSpecError("unterminated generator block (missing '}')")
    if psi0 is None:
        raise RuleSpecError("missing psi0 field")
    if generator_kind is None:
        raise RuleSpecError("missing generator field")

    if generator_kind == "builtin":
        rule = make_builtin(builtin_spec, sgn0=sgn0)
        if rule.psi0 != psi0:
            raise RuleSpecError(
                f"psi0 {psi0:+d} conflicts with builtin {builtin_spec!r} "
                f"(psi0 {rule.psi0:+d})"
            )
        return rule
    if generator_kind == "beta":
        return ExplicitRule(psi0, families=block_entries, fallback=fallback,
                            name="document:beta")
    return ExplicitRule(psi0, tables=block_entries, fallback=fallback,
                        name="document:truth")


def load_rule(spec: str, sgn0: int = -1) -> RecyclingRule:
    """Resolve a --rule argument: ``builtin:NAME[:...]`` or a document path."""
    if spec.startswith("builtin:"):
        return make_builtin(spec[len("builtin:"):], sgn0=sgn0)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            return parse_rule_document(handle.read(), sgn0=sgn0)
    raise RuleSpecError(
        f"{spec!r} is neither a builtin:NAME specification nor an existing file"
    )
