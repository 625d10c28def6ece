"""Deliberate fault injection for exercising the property suite.

Each mutation patches one module-level binding, runs the suite body, then
restores the original.  The suite runner installs it in whichever process
checks the instances, so mutation runs may use worker processes.  The point
is evidence that the suite has teeth: a silent pass under any of these bugs
would mean the corresponding property is vacuous.  Callers outside tests
should never enable them.
"""

from contextlib import contextmanager
from dataclasses import replace

from .. import contmap
from .. import funclat


def _install_inverted_wo_iii():
    original = contmap.PROCEDURES["wo-iii"]

    def flipped(m):
        return not original.evaluate(m)

    contmap.PROCEDURES["wo-iii"] = replace(original, evaluate=flipped)

    def undo():
        contmap.PROCEDURES["wo-iii"] = original

    return undo


def _install_saturation_drop():
    original = contmap.saturation

    def buggy(m, a):
        s = original(m, a)
        # lose the top point whenever the saturation actually grew
        if s != a and s.bit_count() >= 2:
            return s & ~(1 << (s.bit_length() - 1))
        return s

    contmap.saturation = buggy

    def undo():
        contmap.saturation = original

    return undo


def _install_ratio_flip():
    original = funclat._tie_ratio

    def flipped(num, den):
        # reciprocal of the correct tie ratio
        return original(den, num)

    funclat._tie_ratio = flipped

    def undo():
        funclat._tie_ratio = original

    return undo


MUTATIONS = {
    "invert-wo-iii": (
        "negate the registered wo-iii decision routine",
        _install_inverted_wo_iii,
    ),
    "saturation-drop": (
        "drop the highest point from any saturation that grew",
        _install_saturation_drop,
    ),
    "ratio-flip": (
        "build every tie ratio upside down",
        _install_ratio_flip,
    ),
}


@contextmanager
def apply_mutation(name):
    if name is None:
        yield None
        return
    try:
        _, install = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            "unknown mutation %r; known: %s" % (name, ", ".join(sorted(MUTATIONS)))
        ) from None
    undo = install()
    try:
        yield name
    finally:
        undo()
