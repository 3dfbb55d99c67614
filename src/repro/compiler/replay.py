"""Run replay: a per-master history tree of frozen post-states.

What a run rebinds on its program — HOP DAGs, ``requires_recompile``,
``known_iterations``, plans — is a pure function of the master it is a
handout of and of the events that wrote it (DESIGN.md §15).  A
``ProgramCache`` gives a master with unknown sizes a tree of those
events, ``CompiledProgram.replay`` is a run's cursor into it, and an
event whose edge exists is *installed* instead of derived again.
"""

from __future__ import annotations

import threading

from repro.compiler import statement_blocks as SB
from repro.obs import get_tracer

#: nodes per master (~45 KB each): a full tree stops recording, never
#: replaying
MAX_NODES = 64
#: what an event may rebind on a block or predicate holder
_STATE = {"hop_roots", "hop_root", "dag_shared", "requires_recompile",
          "known_iterations", "plan"}


class ReplayNode:
    """One program state, keyed by its path from the root: ``children``
    maps a label (a tuple, compared by ``==``) to the next state,
    ``post`` is (what the event leading here returned, the state it
    left), ``tree`` the lock and counters all nodes of a tree share."""

    __slots__ = ("tree", "post", "children", "__weakref__")

    def __init__(self, tree=None, post=None):
        self.tree = tree if tree is not None else {
            "lock": threading.Lock(), "hits": 0, "misses": 0, "nodes": 1,
        }
        self.post = post
        self.children = {}

    def __reduce__(self):
        # process-local: a pickled or deep-copied program is off the tree
        return type(None), ()

    def attach(self, label, post=None):
        """The node ``label`` leads to, recording ``post`` unless a
        concurrent run of the master was first; None once the tree is
        full: the run is then off the tree, like a program compiled
        outside a program cache."""
        tree = self.tree
        with tree["lock"]:
            node = self.children.get(label)
            if node is None and tree["nodes"] < MAX_NODES:
                node = self.children[label] = ReplayNode(tree, post)
                tree["nodes"] += 1
        if node is None:
            get_tracer().event("replay.bound_reached", nodes=tree["nodes"])
        return node


def frame_key(states):
    """Exact-equality key of ``Interpreter._var_states``: a scalar goes
    with its type and a float by its ``hex()``, because ``True``, ``1``
    and ``1.0`` fold differently, as do ``0.0`` and ``-0.0``."""
    return tuple(
        (name, mc.rows, mc.cols, mc.nnz, type(const),
         const.hex() if isinstance(const, float) else const)
        for name, (_, mc, const) in states.items()
    )


def holders(compiled, block=None):
    """Every object an event may rebind, in program order: a dynamic
    recompilation writes ``block`` and, through inter-procedural size
    propagation, the function bodies; a re-optimization anything."""
    blocks = [block] if block is not None else []
    contexts = [compiled] if block is None else compiled.functions.values()
    for context in contexts:
        blocks.extend(context.all_blocks())
    return [h for b in blocks for h in (b, *SB.predicate_holders(b))]


def event(compiled, kind, label, found, derive):
    """One state-writing event of a run: ``derive()``, recorded with the
    state it leaves on ``found`` when the program is on its master's
    tree — unless a run recorded the edge ``label()`` before: then that
    state is installed.  Returns (what ``derive`` returned, then or now;
    whether it was looked up)."""
    cursor = compiled.replay
    if cursor is None:
        return derive(), False
    label = (kind, *label())
    node = cursor.children.get(label)
    outcome = "misses" if node is None else "hits"
    with cursor.tree["lock"]:
        cursor.tree[outcome] += 1
    get_tracer().incr(f"replay.{outcome}.{kind}")
    if node is None:
        value = derive()
        states = [
            {n: v for n, v in vars(h).items() if n in _STATE} for h in found
        ]
        for holder, state in zip(found, states):
            if "dag_shared" in state:
                # frozen: this run, too, copies before its next write
                state["dag_shared"] = holder.dag_shared = True
        node = cursor.attach(label, (value, states))
    else:
        value, states = node.post
        for holder, state in zip(found, states):
            vars(holder).update(state)
        compiled.planned = False
    compiled.replay = node
    return value, outcome == "hits"
