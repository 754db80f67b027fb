"""Exhaustive minimality searches and empirical structure checks.

The searches here are oracles: they find the true minimum state count for a
promise problem over a bounded instance set, smallest size first, over
machines in a documented normal form. Unary DFAs are enumerated as lasso
families; general DFAs and unary NFAs are found by backtracking that
chooses a transition or a row of targets only when an instance first needs
it and numbers new states in order of first need. Each choice is one level
of recursion, so a search nests at most one call per table entry, and the
walk over instances between choices is a loop.
Minimality is always relative to the (max_length, machine-kind cap) pair in
the search spec; every witness is re-validated by promise_check on the
instances the search read before being returned.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

from .constructions import _lasso_dfa
from .errors import ResourceCapError
from .machines import (
    DEFAULT_STATE_CAP,
    FAILS,
    SOLVES,
    OneWayDfa,
    OneWayNfa,
    PromiseProblem,
    VerificationReport,
    _bits,
    _orbit,
    _orbit_at,
    _stepper,
    _words,
    promise_check,
)

KIND_UNARY_DFA = "unary-dfa"
KIND_DFA = "dfa"
KIND_UNARY_NFA = "unary-nfa"

# unary-dfa is bounded by its work cap, dfa by its recursion depth, and
# unary-nfa by the subset tables below.
_KIND_CAPS = {KIND_UNARY_DFA: DEFAULT_STATE_CAP, KIND_DFA: 8, KIND_UNARY_NFA: 4}

DEFAULT_WORK_CAP = 10**8  # search nodes and trace steps, or unary-dfa instance checks
DEFAULT_WORD_CAP = 10**7  # words walked by disjointness_check
_SHOWN_WORDS = 10**100  # the largest word count a cap message prints in full

# Transition sentinels and instance label bits of the general DFA search.
_UNSET = -2
_DEAD = -1
_YES = 1
_NO = 2

# Per subset of the states at the unary-nfa cap: its members, and, as a
# bitmask over subsets, every subset that lies inside it.
_SUBSETS = range(1 << _KIND_CAPS[KIND_UNARY_NFA])
_MEMBERS = [tuple(q for q in range(s.bit_length()) if s >> q & 1) for s in _SUBSETS]
_INSIDE = [sum(1 << s for s in _SUBSETS if not s & ~outer) for outer in _SUBSETS]


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one exhaustive search: what kind of machine, how many
    states at most, which problem, and how long the probed instances are."""

    machine_kind: str
    max_states: int
    problem: PromiseProblem
    max_length: int

    def __post_init__(self) -> None:
        cap = _KIND_CAPS.get(self.machine_kind)
        if cap is None:
            raise ValueError(f"unknown machine kind {self.machine_kind!r}")
        if not 1 <= self.max_states <= cap:
            raise ValueError(f"max_states for {self.machine_kind} must be in 1..{cap}")
        if self.machine_kind != KIND_DFA and len(self.problem.alphabet) != 1:
            raise ValueError(f"{self.machine_kind} search needs a one-symbol alphabet")
        if self.machine_kind == KIND_DFA and len(self.problem.alphabet) > 3:
            raise ValueError("general dfa search is capped at 3 alphabet symbols")
        if self.max_length < 0:
            raise ValueError("max_length must be nonnegative")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive search. size None means the whole space up
    to max_states was enumerated and no machine solves the problem.
    fooling_set holds the prefixes that certify the general DFA search's
    lower bound (see _fooling_set); the unary searches leave it empty."""

    size: int | None
    witness: object
    candidates_checked: int
    fooling_set: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.size is not None


def _revalidated(
    spec: SearchSpec,
    coded: list[tuple[int, str, str]],
    witness,
    checked: int,
    fooling_set: tuple[str, ...] = (),
) -> SearchResult:
    """The search's result, once promise_check passes the witness on the
    instances the search read, coded, replayed rather than enumerated again."""
    replay = replace(spec.problem, enumerator=lambda max_length: coded)
    report = promise_check(witness, replay, spec.max_length)
    if report.verdict != SOLVES:
        raise AssertionError("search invariant broken: witness failed revalidation")
    return SearchResult(
        size=witness.state_count,
        witness=witness,
        candidates_checked=checked,
        fooling_set=fooling_set,
    )


def min_unary_dfa_size(spec: SearchSpec, work_cap: int = DEFAULT_WORK_CAP) -> SearchResult:
    """Smallest deterministic one-way machine solving a unary promise problem.

    Normal form: renaming states by first visit turns any all-reachable
    partial unary machine into a chain 0 -> 1 -> ... -> s-1 whose last state
    either has no outgoing transition or loops back to some earlier state, so
    enumerating (chain length, loop target) families in ascending size covers
    every candidate. Within one family the accepting set is not looped over:
    each instance pins the bit of its final state (set for yes, clear for
    no), which decides all 2^s accepting sets at once and is equivalent to
    enumerating them. candidates_checked counts the families examined. Each
    family's scan charges every instance against work_cap before it starts,
    and the search raises ResourceCapError once the charge exceeds it.
    """
    if spec.machine_kind != KIND_UNARY_DFA:
        raise ValueError("spec.machine_kind must be 'unary-dfa'")
    sym = spec.problem.alphabet[0]
    coded = spec.problem._coded(spec.max_length)
    # Each length is read off the stream as keep + len(suffix): no word is built.
    lengths = [(keep + len(suffix), cls) for keep, suffix, cls in coded]
    checked = 0
    for size in range(1, spec.max_states + 1):
        for loop_target in (None, *range(size)):
            checked += 1
            if checked * len(lengths) > work_cap:
                raise ResourceCapError(
                    f"lasso search at {size} states exceeded the work cap "
                    f"of {work_cap} instance checks"
                )
            need_one = 0
            need_zero = 0
            dead = False
            for length, cls in lengths:
                if length < size:
                    state = length
                elif loop_target is None:
                    if cls == "yes":
                        dead = True
                        break
                    continue
                else:
                    state = loop_target + (length - size) % (size - loop_target)
                if cls == "yes":
                    need_one |= 1 << state
                else:
                    need_zero |= 1 << state
            if dead or need_one & need_zero:
                continue
            witness = _lasso_dfa(size, loop_target, _bits(need_one), sym)
            return _revalidated(spec, coded, witness, checked)
    return SearchResult(size=None, witness=None, candidates_checked=checked)


def _instance_trie(
    alphabet: tuple[str, ...], coded: list[tuple[int, str, str]]
) -> tuple[list[int], list[int], list[int], list[bool]]:
    """Prefix trie of a checked front-coded instance list over alphabet,
    numbered in BFS order from the root 0.

    Returns per node its parent, the symbol index on the edge from the
    parent (both -1 at the root), its label bits (_YES, _NO, or both when
    one word was enumerated in both classes), and whether a yes instance
    ends at or below it. Children follow alphabet order, so the numbering is
    fixed by the instance set alone. The trie grows along the front-coded
    stream: each instance resumes on the previous one's path after its keep
    symbols, so building costs one step per symbol the stream adds. Edges
    are keyed by the symbol itself while the trie grows.
    """
    children: list[dict[str, int]] = [{}]
    bits = [0]
    path = [0]  # path[i]: the node after i symbols of the previous instance
    for keep, suffix, cls in coded:
        del path[keep + 1 :]
        node = path[keep]
        for ch in suffix:
            child = children[node].get(ch)
            if child is None:
                child = len(children)
                children[node][ch] = child
                children.append({})
                bits.append(0)
            node = child
            path.append(node)
        bits[node] |= _YES if cls == "yes" else _NO
    order = [0]
    parent = [-1]
    symbol = [-1]
    for pos, node in enumerate(order):
        kids = children[node]
        for ix, ch in enumerate(alphabet):
            if ch in kids:
                order.append(kids[ch])
                parent.append(pos)
                symbol.append(ix)
    label = [bits[node] for node in order]
    yes_below = [bool(b & _YES) for b in label]
    for pos in range(len(order) - 1, 0, -1):
        if yes_below[pos]:
            yes_below[parent[pos]] = True
    return parent, symbol, label, yes_below


def _fooling_set(
    parent: list[int], symbol: list[int], label: list[int], yes_below: list[bool],
    nsym: int, limit: int,
) -> list[int]:
    """Trie nodes that every machine solving the instances puts in
    pairwise different states, so it needs at least as many states.

    Two nodes clash when some suffix leads from one to a yes instance and
    from the other to a no instance: one state cannot hold both. Only nodes
    with a yes instance at or below them join, since a node with none may
    be stuck, and a stuck run holds no state. Depth by depth, in BFS order,
    a greedy clique takes each node that clashes with every member so far;
    the largest clique of two or more wins, and the greedy stops at limit
    members. Each pair of nodes a clash walk visits is one step, reading
    both nodes' rows of the child table; all depths together take at most
    as many steps as the trie has nodes, about one pass over the child
    table. A walk the budget cuts short counts as no clash, so the clique
    stays certified. Over one symbol the trie is a path, with no two nodes
    at one depth.
    """
    nodes = len(parent)
    if nsym == 1:
        return []
    child = [-1] * (nodes * nsym)
    for pos in range(1, nodes):
        child[parent[pos] * nsym + symbol[pos]] = pos
    budget = nodes
    offsets = range(nsym)

    def clash(first: int, second: int) -> bool:
        """Whether a walk of the pairs below first and second, within the
        budget left, reaches a yes instance on one side and a no on the other."""
        nonlocal budget
        left = budget
        pending = [first, second]
        pop, push = pending.pop, pending.extend
        found = False
        while pending and left > 0:
            b = pop()
            a = pop()
            left -= 1
            la, lb = label[a], label[b]
            if la & _YES and lb & _NO or la & _NO and lb & _YES:
                found = True
                break
            a *= nsym
            b *= nsym
            for ix in offsets:
                ca = child[a + ix]
                if ca >= 0:
                    cb = child[b + ix]
                    if cb >= 0:
                        push((ca, cb))
        budget = left
        return found

    best: list[int] = []
    lo, hi = 0, 1  # one depth's nodes, consecutive in BFS order
    while lo < nodes and budget > 0:
        clique: list[int] = []
        for pos in range(lo, hi):
            if yes_below[pos] and all(clash(pos, member) for member in clique):
                clique.append(pos)
                if len(clique) == limit:
                    return clique
        if len(clique) > max(len(best), 1):
            best = clique
        lo, hi = hi, bisect_left(parent, hi, hi)
    return best


def _prefix(parent: list[int], symbol: list[int], symbols: tuple[str, ...], pos: int) -> str:
    """The word that leads from the trie's root to node pos."""
    letters = []
    while pos:
        letters.append(symbols[symbol[pos]])
        pos = parent[pos]
    return "".join(reversed(letters))


def min_dfa_size(spec: SearchSpec, work_cap: int = DEFAULT_WORK_CAP) -> SearchResult:
    """Smallest deterministic one-way machine over an arbitrary alphabet.

    Exact identification from the labelled instances (the minimal
    consistent DFA problem). For each size in ascending order, a
    backtracking search walks the instance trie in BFS order with state 0 at
    the root and assigns a transition only when a trie node first needs it:
    to an existing state, to the next unused state number, or to nothing,
    the last only when no yes instance lies below that node (a partial
    machine rejects by getting stuck). Numbering new states in first-need
    order removes relabelings and unreachable duplicates, and transitions
    no instance reads stay undefined. A branch dies as soon as one state
    must both accept and reject, or a yes instance gets stuck. Ascending
    sizes make the first machine found minimal; exhaustion means no machine
    up to max_states solves the problem on instances up to max_length.

    A fooling set (see _fooling_set) of k trie nodes, computed once, proves
    that no machine with fewer than k states solves the instances, so the
    sizes start at k, and none start when k exceeds max_states. It also
    prunes: a branch dies as soon as it puts two of its nodes in one state.
    A cut branch holds no solving machine, so the first machine found is
    the one the unpruned search would find. The result carries the
    set's prefixes as fooling_set.

    Each assigned transition is one level of recursion and a branch assigns
    each at most once, so the nesting is at most size * |alphabet| <= 24
    deep however large the trie; the walk between assignments is a loop.
    candidates_checked counts search nodes, one per trie node placed on one
    branch, and the search raises ResourceCapError once it exceeds work_cap.
    """
    if spec.machine_kind != KIND_DFA:
        raise ValueError("spec.machine_kind must be 'dfa'")
    symbols = tuple(spec.problem.alphabet)
    nsym = len(symbols)
    coded = spec.problem._coded(spec.max_length)
    parent, symbol, label, yes_below = _instance_trie(symbols, coded)
    nodes = len(parent)
    fooling = _fooling_set(parent, symbol, label, yes_below, nsym, spec.max_states + 1)
    prefixes = tuple(_prefix(parent, symbol, symbols, pos) for pos in fooling)
    member = [False] * nodes
    for pos in fooling:
        member[pos] = True
    node_state = [0] * nodes  # a re-walk from pos overwrites only entries >= pos
    checked = 0

    def place(
        pos: int, size: int, trans: list[int], accept: list[int], used: int, held: int
    ):
        """Place trie nodes from pos on; at the first one that reads an unset
        transition, try each choice for it. held marks the states that
        fooling-set nodes already occupy. Returns the label bits each state
        is committed to once every node is placed, else None with trans as
        it was."""
        nonlocal checked
        parent_, symbol_, label_, yes_below_, member_, node_state_ = (
            parent, symbol, label, yes_below, member, node_state
        )
        while pos < nodes:
            source = node_state_[parent_[pos]]
            target = _DEAD
            if source != _DEAD:
                key = source * nsym + symbol_[pos]
                target = trans[key]
                if target == _UNSET:
                    break  # each try below places this node and counts it
            checked += 1
            if checked > work_cap:
                raise ResourceCapError(
                    f"transition search at {size} states exceeded the work cap "
                    f"of {work_cap} search nodes"
                )
            if target == _DEAD:
                if yes_below_[pos]:
                    return None
            else:
                if label_[pos]:
                    bits = accept[target] | label_[pos]
                    if bits == _YES | _NO:
                        return None
                    accept[target] = bits
                if member_[pos]:
                    if held >> target & 1:
                        return None
                    held |= 1 << target
            node_state_[pos] = target
            pos += 1
        else:
            return accept
        # Choices in order: states 0..used-1, the new state `used` while the
        # size allows it, then undefined.
        choices = [*range(min(used + 1, size))]
        if not yes_below_[pos]:
            choices.append(_DEAD)
        for choice in choices:
            trans[key] = choice
            found = place(pos, size, trans, accept[:], used + (choice == used), held)
            if found is not None:
                return found
        trans[key] = _UNSET
        return None

    if label[0] != _YES | _NO:
        for size in range(max(1, len(fooling)), spec.max_states + 1):
            trans = [_UNSET] * (size * nsym)
            # The root is alone at its depth, so it holds no fooling-set node.
            accept = place(1, size, trans, [label[0]] + [0] * (size - 1), 1, 0)
            if accept is not None:
                transitions = {
                    (q, symbols[ix]): trans[q * nsym + ix]
                    for q in range(size)
                    for ix in range(nsym)
                    if trans[q * nsym + ix] >= 0
                }
                witness = OneWayDfa(
                    state_count=size,
                    alphabet=symbols,
                    initial=0,
                    transitions=transitions,
                    accepting=frozenset(q for q in range(size) if accept[q] == _YES),
                )
                return _revalidated(spec, coded, witness, checked, prefixes)
    return SearchResult(
        size=None, witness=None, candidates_checked=checked, fooling_set=prefixes
    )


def min_unary_nfa_size(spec: SearchSpec, work_cap: int = DEFAULT_WORK_CAP) -> SearchResult:
    """Smallest nondeterministic one-way machine for a unary promise problem.

    Searches relations without silent transitions: removing silent
    transitions never changes the state count, so the minimum over plain
    relations is the overall minimum. For each size in ascending order, a
    backtracking search walks the subset trace S_0 = {0},
    S_(t+1) = union of row[q] over q in S_t, and assigns row[q] only when q
    first appears in a subset that must be stepped. A new row targets any
    subset of the states already used plus the next j unused state numbers,
    for j from 0 up to the states left; numbering states in first-need
    order removes relabelings, and rows no instance reads stay empty. Each
    instance is checked as soon as its subset is known: a no instance
    forbids its whole subset from accepting, and every yes subset must keep
    a state outside the forbidden set, when it is reached and after each
    later no instance. A branch dies at the first violation; a trace that
    reaches the longest instance gives a machine whose accepting set is
    everything not forbidden. Ascending sizes make the first machine found
    minimal; exhaustion means no machine up to max_states solves the
    problem on instances up to max_length.

    Each assigned row is one level of recursion, so the nesting is at most
    size <= 4 deep however long the trace; the steps between assignments
    are a loop. candidates_checked counts search nodes, one per row choice
    tried. Search nodes and trace steps walked both count against work_cap,
    and the search raises ResourceCapError once their sum exceeds it.
    """
    if spec.machine_kind != KIND_UNARY_NFA:
        raise ValueError("spec.machine_kind must be 'unary-nfa'")
    sym = spec.problem.alphabet[0]
    coded = spec.problem._coded(spec.max_length)
    horizon = max((keep + len(suffix) for keep, suffix, _ in coded), default=0)
    label = [0] * (horizon + 1)
    for keep, suffix, cls in coded:
        label[keep + len(suffix)] |= _YES if cls == "yes" else _NO
    checked = 0
    walked = 0  # trace steps

    def grow(t: int, current: int, unset: int, used: int, forbidden: int, yes: int):
        """Step the trace on from S_t = current, the subsets reached as yes
        instances so far marked as bits of yes; at the first subset that
        holds a state with an unset row, try each row for it. Returns the
        forbidden set once the trace reaches the horizon, else None with
        row as it was."""
        nonlocal checked, walked
        first = t
        while t < horizon:
            pending = current & unset
            if pending:
                break
            subset = 0
            for q in _MEMBERS[current]:
                subset |= row[q]
            t += 1
            current = subset
            bits = label[t]
            if bits & _NO and subset & ~forbidden:
                forbidden |= subset
                if yes & _INSIDE[forbidden]:
                    break  # a yes subset lies wholly inside the forbidden set
            if bits & _YES:
                if not subset & ~forbidden:
                    break  # this yes subset is wholly forbidden
                yes |= 1 << subset
        else:
            return forbidden
        walked += t - first
        if not pending:  # the walk broke at a violation
            return None
        low = pending & -pending
        q = low.bit_length() - 1
        for new in range(size - used + 1):
            for old in range(1 << used):
                checked += 1
                if checked + walked > work_cap:
                    raise ResourceCapError(
                        f"relation search at {size} states exceeded the work cap "
                        f"of {work_cap} search nodes and trace steps"
                    )
                row[q] = old | (((1 << new) - 1) << used)
                found = grow(t, current, unset ^ low, used + new, forbidden, yes)
                if found is not None:
                    return found
        row[q] = 0
        return None

    # S_0 = {0} is subset 1: the forbidden set and yes subsets it starts.
    start = (1 if label[0] & _NO else 0, 1 << 1 if label[0] & _YES else 0)
    if label[0] != _YES | _NO:
        for size in range(1, spec.max_states + 1):
            row = [0] * size
            forbidden = grow(0, 1, (1 << size) - 1, 1, *start)
            if forbidden is not None:
                witness = OneWayNfa(
                    state_count=size,
                    alphabet=(sym,),
                    initial=0,
                    transitions=frozenset(
                        (q, sym, p) for q in range(size) for p in _MEMBERS[row[q]]
                    ),
                    accepting=frozenset(q for q in range(size) if not forbidden >> q & 1),
                )
                return _revalidated(spec, coded, witness, checked)
    return SearchResult(size=None, witness=None, candidates_checked=checked)


def pumping_check(
    machine: OneWayDfa | OneWayNfa,
    m: int,
    h_values: tuple[int, ...] = (1, 2),
) -> VerificationReport:
    """Check that reading a^m and a^(m + h * m!) leaves the machine in the
    same place, for every h requested.

    Requires a unary machine and m at least the state count; m is capped at
    12 as a factorial overflow guard. Both lengths are read off one orbit
    of the machine's Stepper from its start value: the state reached (None
    once stuck) for a deterministic machine, the reachable subset for a
    nondeterministic one. A deterministic run enters its cycle within
    state_count <= m steps and the cycle length divides m!, so this always
    holds. The pumped nondeterministic word can only gain runs, so a strict
    subset on the shorter word makes this fail, and the report says so
    rather than papering over it.
    """
    if len(machine.alphabet) != 1:
        raise ValueError("pumping_check needs a unary machine")
    if m < machine.state_count:
        raise ValueError("m must be at least the machine's state count")
    if m > 12:
        raise ResourceCapError("m is capped at 12 (factorial overflow guard)")
    if not h_values:
        raise ValueError("pumping_check needs at least one h value")
    if any(h < 1 for h in h_values):
        raise ValueError("h values must be positive")
    if not isinstance(machine, (OneWayDfa, OneWayNfa)):
        raise TypeError(
            "pumping_check handles one-way deterministic and nondeterministic machines"
        )
    sym = machine.alphabet[0]
    pump = math.factorial(m)
    measured = {"m": m, "pump": pump, "h_values": tuple(h_values)}
    stepper = _stepper(machine)
    path, entry = _orbit(stepper.step, sym, stepper.start)
    base = _orbit_at(path, entry, m)
    for h in h_values:
        pumped = _orbit_at(path, entry, m + h * pump)
        if pumped != base:  # only a nondeterministic machine gets here
            return VerificationReport(
                FAILS,
                counterexample=(
                    f"{sym}^{m + h * pump}",
                    f"same reachable set as {sym}^{m}",
                    f"{base:b} vs {pumped:b}",
                ),
                measured=measured,
            )
    return VerificationReport(SOLVES, measured=measured)


def disjointness_check(
    problem: PromiseProblem, max_length: int, work_cap: int = DEFAULT_WORD_CAP
) -> VerificationReport:
    """Walk every word up to max_length and confirm no word is classified
    both yes and no. Independent of any enumerator the problem carries.

    Both the words and the symbols in them count against work_cap, since
    classifying a word takes time linear in its length."""
    if max_length < 0:
        raise ValueError("max_length must be non-negative")
    base = len(problem.alphabet)
    # Words up to length n: n + 1 over one symbol, else (base^(n+1) - 1)/(base - 1),
    # which passes the cap and 10^100 before n reaches their bit length.
    cut = min(max_length, max(work_cap, _SHOWN_WORDS).bit_length())
    total = max_length + 1 if base == 1 else (base ** (cut + 1) - 1) // (base - 1)
    if total > work_cap:
        count = total if total <= _SHOWN_WORDS else "more than 10^100"
        raise ResourceCapError(f"{count} words above the {work_cap} cap")
    # Symbols, the sum of n * base^n for n <= max_length, in closed form;
    # here base^max_length <= total <= work_cap.
    n = max_length
    if base == 1:
        symbols = n * (n + 1) // 2
    else:
        symbols = base * (1 - (n + 1) * base**n + n * base ** (n + 1)) // (base - 1) ** 2
    if symbols > work_cap:
        raise ResourceCapError(f"{symbols} symbols in {total} words above the {work_cap} cap")
    yes_count = 0
    no_count = 0
    for word in _words(problem.alphabet, max_length):
        in_yes = problem.yes_member(word)
        in_no = problem.no_member(word)
        if in_yes and in_no:
            return VerificationReport(
                FAILS,
                counterexample=(word, "at most one class", "yes and no overlap"),
                measured={"words": total},
            )
        yes_count += in_yes
        no_count += in_no
    return VerificationReport(
        SOLVES, measured={"words": total, "yes": yes_count, "no": no_count}
    )

