"""The exhaustive walk (modes ``count`` and ``all``), compiled per engine.

An exhaustive search visits the whole canonical tree, so its cost is
the cost per node.  Here an engine's close schedule is turned into the
source of one function of nested loops, one loop per depth, and run.
The walk is the one ``search`` describes, node for node and in the same
order; only the bookkeeping changes:

* the free labels are one int, bit l set while label l is free, and a
  depth tries them from the highest set bit down;
* the partial sum of a weight is a local name, one per depth that adds
  to it, so stepping back undoes nothing;
* the final weights of each set are one int, bit w set once a weight w
  is final, so a collision and a dead label are each one ``&``.

The last depth has one free label left, so it has no loop: it tests
that label in place, against the chain predecessor, the budget and the
weights it closes, and counts or records it without placing it.
With pruning off a collision does not cut; a local flag carries it to
the last depth, which then counts nothing.  The source holds only
integers and fixed names, never a vertex name.  Generating and
compiling it costs about a millisecond at the default vertex cap, and
more as the order grows (about 20 ms at 200 vertices, 0.3 s at 2,000),
which the interpreted ``first`` walk in ``search`` does not pay.

CPython rejects more than 20 statically nested loops, so the walk of a
deep order is split into functions of at most ``DEPTHS_PER_FUNCTION``
loops, each calling the next with the names still in use, the labels
placed so far as one tuple ``L``.  So the source grows linearly with
the order.
"""

from __future__ import annotations

#: Loops per generated function, below CPython's 20 nested blocks.
DEPTHS_PER_FUNCTION = 16


class BudgetExhausted(Exception):
    """Raised inside the generated walk when the node budget runs out."""


def run(engine, mode: str, budget: int | None) -> tuple:
    """Walk ``engine``'s tree in mode ``count`` or ``all``; returns
    ``(aborted, nodes, first, count, rows)`` as ``_Engine.run`` does.

    No row is verified here: ``search_joint_labeling`` passes ``first``
    through the verifier under every set before it returns it.
    """
    limit = -1 if budget is None else budget
    namespace = {"BudgetExhausted": BudgetExhausted}
    exec(compile(_source(engine, mode), "<exhaustive walk>", "exec"), namespace)
    rows: list[tuple[int, ...]] = []
    try:
        nodes, count, first = namespace["walk0"](limit, rows.append)
    except BudgetExhausted:
        return True, limit, None, None, None
    if mode == "all":
        return False, nodes, rows[0] if rows else None, len(rows), rows
    return False, nodes, first, count, None


def _source(engine, mode: str) -> str:
    """Source of ``walk0(limit, append)``, which returns ``(nodes, count,
    first row)``, or calls ``append(row)`` per labeling in mode ``all``."""
    pos, room, sweep, adds, closes = engine._schedule()
    n, order, prune = engine.n, engine.order, engine.prune
    partial: dict[int, str] = {}  # slot -> name of its partial sum
    final: dict[int, str] = {}    # id of a set's final-weight table -> name
    # With pruning off, x is nonzero once two final weights collide.
    x = "" if prune else "x"
    lines = ["def walk0(limit, append):", " nodes = count = 0", " first = None",
             f" a0 = {(2 << n) - 2}"] + ([] if prune else [" x = 0"])
    ind = " "
    label = [f"l{k}" for k in range(n)]  # how the walk reads each depth's label
    if n == 1:
        # The last depth cuts with ``continue``, so it needs a loop.
        lines.append(ind + "for _ in (0,):")
        ind += " "
    for depth in range(n):
        v, last = order[depth], depth == n - 1
        if depth and depth % DEPTHS_PER_FUNCTION == 0 and not last:
            # Chain into a new function; it takes every name still live,
            # and the labels placed so far as one tuple L.
            start = depth - DEPTHS_PER_FUNCTION
            placed = "".join(f"{name}, " for name in label[start:depth])
            label[start:depth] = [f"L[{k}]" for k in range(start, depth)]
            live = ", ".join([*partial.values(), *final.values(), f"a{depth}",
                              *filter(None, [x])])
            head = f"walk{depth}(limit, append, nodes, count, first, "
            call = f"{head}{'L + ' if start else ''}({placed}), {live})"
            lines += [ind + f"nodes, count, first = {call}",
                      " return nodes, count, first", f"def {head}L, {live}):"]
            ind = " "
        prev = engine.orbit_prev[v]
        if last:
            # One free label is left: test it in place.
            lines.append(ind + f"l{depth} = a{depth}.bit_length() - 1")
            if prev >= 0:
                lines.append(ind + f"if l{depth} > {label[pos[prev]]}: continue")
            body = ind
        else:
            below = f" & ((1 << {label[pos[prev]]}) - 1)" if prev >= 0 else ""
            lines.append(ind + f"m{depth} = a{depth}{below}")
            if room[v]:
                # Keep only labels above the room[v]-th smallest free one.
                lines.append(ind + f"y = a{depth}")
                if room[v] > 1:
                    lines.append(ind + f"for _ in range({room[v] - 1}): y &= y - 1")
                lines.append(ind + f"m{depth} &= -((y & -y) << 1)")
            body = ind + " "
            lines += [ind + f"while m{depth}:",
                      body + f"l{depth} = m{depth}.bit_length() - 1",
                      body + f"b = 1 << l{depth}",
                      body + f"m{depth} ^= b"]
        lines += [body + "if nodes == limit: raise BudgetExhausted",
                  body + "nodes += 1"]
        if not last:
            lines.append(body + f"a{depth + 1} = a{depth} ^ b")
        elif x:
            lines.append(body + f"if {x}: continue")
        for i, (s, fin, checked) in enumerate(closes[v]):
            f = final.get(id(fin))
            # c: the bit of the weight closed.  A weight that is the label
            # alone takes the label's own bit (b, or the last free bit),
            # which no free label can equal.
            if s in partial:
                lines.append(body + f"c = 1 << ({partial.pop(s)} + l{depth})")
                c = "c"
            else:
                c = f"a{depth}" if last else "b"
            if checked and c == "c" and not last:
                # The new weight may collide or be a label still free.
                taken = f"({f} | a{depth + 1})" if f else f"a{depth + 1}"
                lines.append(body + f"if {taken} & c: continue")
            elif f and x and not last:
                name = f"x{len(lines)}"
                lines.append(body + f"{name} = {x} | {f} & {c}")
                x = name
            elif f:
                lines.append(body + f"if {f} & {c}: continue")
            if not last or any(other is fin for _, other, _ in closes[v][i + 1:]):
                final[id(fin)] = name = f"f{len(lines)}"
                lines.append(body + f"{name} = " + (f"{f} | {c}" if f else c))
        if last:
            row = "".join(f"{label[pos[v]]}, " for v in range(n))
            if mode == "all":
                lines.append(body + f"append(({row}))")
            else:
                lines += [body + "count += 1", body + f"if count == 1: first = ({row})"]
            break
        for fin in sweep[depth] if prune else ():
            if id(fin) in final:
                lines.append(body + f"if a{depth + 1} & {final[id(fin)]}: continue")
        for s in adds[v]:
            total = f"{partial[s]} + l{depth}" if s in partial else f"l{depth}"
            partial[s] = f"p{s}_{depth}"
            lines.append(body + f"{partial[s]} = {total}")
        ind = body
    lines.append(" return nodes, count, first")
    return "\n".join(lines) + "\n"
