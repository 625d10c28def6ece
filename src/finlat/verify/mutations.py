"""Deliberate fault injection for exercising the property suite.

Each mutation patches one module-level binding, runs the suite body, then
restores the original.  The suite runner installs it in whichever process
checks the instances, so mutation runs may use worker processes.  A
mutation installed around the runner is recorded as the active one, and the
runner hands its name to every pool worker, whatever the start method.
Where it is active already (a run given the same mutation, or a worker
forked from the installing process) it is not installed a second time, so
two wraps never cancel out; a second, different mutation is refused.
Installing or restoring a mutation clears comphom's per-dimension
coordinate-ideal tables, and with them the (TG)^dd sets image-dd closed,
so no closed set outlives the code that built it.  The point
is evidence that the suite has teeth: a silent pass under any of these bugs
would mean the corresponding property is vacuous.  Callers outside tests
should never enable them.
"""

from contextlib import contextmanager
from dataclasses import replace

from .. import comphom
from .. import contmap
from .. import funclat


def _inverted(procedure):
    return replace(procedure, evaluate=lambda m: not procedure.evaluate(m))


def _dropping_top(saturation):
    def buggy(m, a):
        s = saturation(m, a)
        # lose the top point whenever the saturation actually grew
        if s != a and s.bit_count() >= 2:
            return s & ~(1 << (s.bit_length() - 1))
        return s

    return buggy


def _flipped(tie_ratio):
    # reciprocal of the correct tie ratio
    return lambda num, den: tie_ratio(den, num)


# name -> (description, owner, key, wrap): the mutation replaces the binding
# owner[key] (a dict entry) or owner.key (a module attribute) by wrap(original)
MUTATIONS = {
    "invert-wo-iii": (
        "negate the registered wo-iii decision routine",
        contmap.PROCEDURES, "wo-iii", _inverted,
    ),
    "saturation-drop": (
        "drop the highest point from any saturation that grew",
        contmap, "saturation", _dropping_top,
    ),
    "ratio-flip": (
        "build every tie ratio upside down",
        funclat, "_tie_ratio", _flipped,
    ),
}


_active = None


def active_mutation():
    """The name of the mutation installed in this process, or None."""
    return _active


@contextmanager
def apply_mutation(name):
    global _active
    if name is None or name == _active:
        yield name
        return
    try:
        _, owner, key, wrap = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            "unknown mutation %r; known: %s" % (name, ", ".join(sorted(MUTATIONS)))
        ) from None
    if _active is not None:
        raise ValueError("mutation %r is installed already; %r cannot join it"
                         % (_active, name))
    binding = owner if isinstance(owner, dict) else vars(owner)
    original = binding[key]
    binding[key] = wrap(original)
    _active = name
    comphom._coordinate_ideals.cache_clear()
    try:
        yield name
    finally:
        binding[key] = original
        _active = None
        comphom._coordinate_ideals.cache_clear()
