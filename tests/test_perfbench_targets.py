"""The repo benchmark's traced layer boundaries exist in the program.

``perfbench/run.py --trace 1`` wraps every target of
``perfbench.tracing.layer_targets()`` in a span.  ``install`` reads a
class target from the class's *own* ``__dict__``, so a method that moves
to a base class, a renamed function or a moved result record breaks every
traced run with a ``KeyError``.  This pins the whole target list: each
target installs, and the undo puts back the identical object.
"""

from __future__ import annotations

from perfbench import tracing


def _attribute(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_layer_target_installs_and_restores():
    targets = tracing.layer_targets()
    assert len(targets) == 32
    originals = [_attribute(owner, attr) for owner, attr, _, _ in targets]
    uninstall = tracing.install(tracing.Tracer(), targets)
    try:
        for (owner, attr, _, _), original in zip(targets, originals):
            assert _attribute(owner, attr) is not original, (owner, attr)
    finally:
        uninstall()
    for (owner, attr, _, _), original in zip(targets, originals):
        assert _attribute(owner, attr) is original, (owner, attr)
