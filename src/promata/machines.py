"""Finite acceptor types and their execution semantics.

States are integers 0..state_count-1 with an optional label table for
readability. Transition structures are partial: a configuration with no
applicable transition halts on the spot, which for one-way machines mid-word
amounts to premature rejection. All machine values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import AlphabetMismatchError, InputDomainError, ResourceCapError

EPSILON = None  # transition label for moves that consume no input

LEFT_MARKER = "⊢"
RIGHT_MARKER = "⊣"
LEFT, STAY, RIGHT = -1, 0, 1

ACCEPT = "accept"
REJECT = "reject"
STUCK = "stuck"

ROLE_ACCEPTING = "accepting"
ROLE_REJECTING = "rejecting"
ROLE_NEUTRAL = "neutral"
_ROLES = (ROLE_ACCEPTING, ROLE_REJECTING, ROLE_NEUTRAL)

SOLVES = "solves"
FAILS = "fails"

# The most states a construction builds or a machine file may declare.
DEFAULT_STATE_CAP = 1 << 20
# The most bits an NFA's EPSILON closure masks may hold together (64 MiB):
# a chain of n silent states needs about n^2, so about 23,000 states fit.
CLOSURE_BIT_CAP = 1 << 29


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    for sym in alphabet:
        if not isinstance(sym, str) or not sym:
            raise ValueError(f"alphabet symbol {sym!r} must be a non-empty string")
        if len(sym) > 1:  # words are strings, read one character at a time
            raise ValueError(f"alphabet symbol {sym!r} must be a single character")
        if sym in (LEFT_MARKER, RIGHT_MARKER):
            raise ValueError(f"alphabet may not contain the endmarker {sym!r}")


def _check_state(state: int, count: int, what: str) -> None:
    # Exactly int: bool is an int to Python, but JSON's true and false are not states.
    if type(state) is not int or not 0 <= state < count:
        raise ValueError(f"{what} {state!r} outside 0..{count - 1}")


@dataclass(frozen=True)
class _Machine:
    """The fields and checks every machine type shares.

    Each type declares ``transitions`` and ``labels`` itself, after its own
    fields, so its field order and positional construction stay as it
    documents them. Construction freezes the fields and checks, in order,
    the state count, the alphabet, the initial state, each state set named
    in ``_state_sets``, the type's own rules (``_check_rules``) and the
    labels.
    """

    state_count: int
    alphabet: tuple[str, ...]
    initial: int

    # Not fields: how a type freezes its transitions, and its state sets.
    _freeze = frozenset
    _state_sets = ("accepting",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "transitions", self._freeze(self.transitions))
        object.__setattr__(self, "labels", dict(self.labels))
        count = self.state_count
        if type(count) is not int:
            raise ValueError(f"state_count {count!r} must be an integer")
        if count < 1:
            raise ValueError("state_count must be at least 1")
        _check_alphabet(self.alphabet)
        symbols = frozenset(self.alphabet)
        _check_state(self.initial, count, "initial state")
        for name in self._state_sets:
            states = frozenset(getattr(self, name))
            object.__setattr__(self, name, states)
            for state in states:
                if type(state) is not int or not 0 <= state < count:
                    _check_state(state, count, f"{name} state")
        self._check_rules(symbols)
        for state, label in self.labels.items():
            if type(state) is not int or not 0 <= state < count:
                _check_state(state, count, "labeled state")
            if not isinstance(label, str):
                raise ValueError(f"label for state {state} must be a string")
        object.__setattr__(self, "_symbols", symbols)

    def _check_rules(self, symbols: frozenset[str]) -> None:
        """The type's own checks; symbols is the alphabet as a set."""
        raise NotImplementedError

    @property
    def symbols(self) -> frozenset[str]:
        return self._symbols  # type: ignore[attr-defined]


@dataclass(frozen=True)
class OneWayDfa(_Machine):
    """Deterministic one-way acceptor with a partial transition function.

    ``transitions`` maps (state, symbol) to the successor state; a missing
    entry makes the run halt where it stands.
    """

    transitions: Mapping[tuple[int, str], int]
    accepting: frozenset[int]
    labels: Mapping[int, str] = field(default_factory=dict)

    _freeze = dict

    def _check_rules(self, symbols: frozenset[str]) -> None:
        for (src, sym), dst in self.transitions.items():
            _check_state(src, self.state_count, "transition source")
            _check_state(dst, self.state_count, "transition target")
            if sym not in symbols:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")


@dataclass(frozen=True)
class OneWayNfa(_Machine):
    """Nondeterministic one-way acceptor; EPSILON labels consume no input."""

    transitions: frozenset[tuple[int, str | None, int]]
    accepting: frozenset[int]
    labels: Mapping[int, str] = field(default_factory=dict)

    def _check_rules(self, symbols: frozenset[str]) -> None:
        # Bitmask tables: each silent state's EPSILON closure (any other
        # state closes to itself), and per symbol each moving state's closed
        # successors.
        succ: dict[str | None, dict[int, int]] = {sym: {} for sym in (*self.alphabet, EPSILON)}
        for src, sym, dst in self.transitions:
            _check_state(src, self.state_count, "transition source")
            _check_state(dst, self.state_count, "transition target")
            if sym is not EPSILON and sym not in symbols:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            row = succ[sym]
            row[src] = row.get(src, 0) | 1 << dst
        eps = succ.pop(EPSILON)
        closure = _eps_closures(eps) if eps else {}
        if closure:
            for rows in succ.values():
                for src, targets in rows.items():
                    rows[src] = targets | _image(targets, closure)
        object.__setattr__(self, "_closure", closure)
        object.__setattr__(self, "_succ", succ)


def _eps_closures(eps: Mapping[int, int]) -> dict[int, int]:
    """The EPSILON closure, as a bitmask, of each state with an EPSILON move,
    given as the mask of its EPSILON targets.

    A closure is its strongly connected component's states, their targets
    and the closures of those targets. Tarjan's algorithm finishes each
    component after every component it reaches, so one pass fills the
    closures sinks first; it keeps its own stack, so chain length is bounded
    by memory rather than by the interpreter's recursion limit. A
    component's members share one mask, and the masks' bit lengths are
    summed as they are made: ResourceCapError above CLOSURE_BIT_CAP."""
    closure: dict[int, int] = {}
    spent = 0
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    open_states: list[int] = []
    for root in eps:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        open_states.append(root)
        path = [(root, iter(_bits(eps[root])))]
        while path:
            state, targets = path[-1]
            for dst in targets:
                if dst not in eps:  # closes to itself
                    continue
                if dst not in order:
                    order[dst] = low[dst] = len(order)
                    open_states.append(dst)
                    path.append((dst, iter(_bits(eps[dst]))))
                    break
                if dst not in closure:  # dst's component is still open
                    low[state] = min(low[state], order[dst])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[state])
                if low[state] == order[state]:
                    members = []
                    while not members or members[-1] != state:
                        members.append(open_states.pop())
                    out = 0
                    for member in members:
                        out |= 1 << member | eps[member]
                    out |= _image(out, closure)
                    spent += out.bit_length()
                    if spent > CLOSURE_BIT_CAP:
                        raise ResourceCapError(
                            f"EPSILON closures exceed {CLOSURE_BIT_CAP} bits of masks"
                        )
                    closure.update(dict.fromkeys(members, out))
    return closure


@dataclass(frozen=True)
class TwoWayMachine(_Machine):
    """Two-way acceptor over an input taped between two endmarkers.

    The tape for word w is LEFT_MARKER + w + RIGHT_MARKER, the head starts on
    the left endmarker, and each transition (state, tape symbol, state, move)
    moves the head by LEFT, STAY, or RIGHT. The machine accepts by halting in
    an accepting state at any head position. Transitions that would walk off
    an endmarker are rejected at construction time.
    """

    transitions: frozenset[tuple[int, str, int, int]]
    accepting: frozenset[int]
    deterministic: bool = False
    labels: Mapping[int, str] = field(default_factory=dict)

    def _check_rules(self, symbols: frozenset[str]) -> None:
        if not isinstance(self.deterministic, bool):
            raise ValueError(f"deterministic must be a bool, not {self.deterministic!r}")
        # Per tape symbol, the row of (target, move) pairs of each state that
        # has a move on it; a state missing from a symbol's table halts there.
        rows: dict[str, dict[int, list[tuple[int, int]]]] = {
            sym: {} for sym in (LEFT_MARKER, *self.alphabet, RIGHT_MARKER)
        }
        for src, sym, dst, move in self.transitions:
            _check_state(src, self.state_count, "transition source")
            _check_state(dst, self.state_count, "transition target")
            if sym not in rows:
                raise ValueError(f"tape symbol {sym!r} not in alphabet or endmarkers")
            if move not in (LEFT, STAY, RIGHT):
                raise ValueError(f"move {move!r} must be LEFT, STAY, or RIGHT")
            if sym == LEFT_MARKER and move == LEFT:
                raise ValueError("transition moves left off the left endmarker")
            if sym == RIGHT_MARKER and move == RIGHT:
                raise ValueError("transition moves right off the right endmarker")
            row = rows[sym].setdefault(src, [])
            if row and self.deterministic:
                raise ValueError(
                    f"deterministic machine has two transitions on {(src, sym)!r}"
                )
            row.append((dst, move))
        object.__setattr__(self, "_rows", rows)


@dataclass(frozen=True)
class OneWayAfa(_Machine):
    """Alternating one-way acceptor with existential and universal states.

    Every state is existential or universal: ``existential`` lists the
    existential ones, the rest are universal. A state's outgoing transitions
    are either all EPSILON-labeled or all symbol-labeled, never mixed. The
    EPSILON subgraph must be acyclic and its longest path may not exceed
    ``max_eps_chain``, so evaluation always terminates.
    """

    transitions: frozenset[tuple[int, str | None, int]]
    accepting: frozenset[int]
    existential: frozenset[int]
    max_eps_chain: int = 3
    labels: Mapping[int, str] = field(default_factory=dict)

    _state_sets = ("accepting", "existential")

    def _check_rules(self, symbols: frozenset[str]) -> None:
        count = self.state_count
        # Per label, each symbol and EPSILON: state -> mask of its targets.
        rows: dict[str | None, defaultdict[int, int]] = {
            sym: defaultdict(int) for sym in (*self.alphabet, EPSILON)
        }
        for src, sym, dst in self.transitions:
            if type(src) is not int or type(dst) is not int or not (
                0 <= src < count and 0 <= dst < count
            ):
                _check_state(src, count, "transition source")
                _check_state(dst, count, "transition target")
            row = rows.get(sym)
            if row is None:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            row[src] |= 1 << dst
        eps = rows.pop(EPSILON)
        mixed = eps.keys() & set().union(*rows.values())
        if mixed:
            raise ValueError(
                f"states {sorted(mixed)} mix EPSILON and symbol transitions"
            )
        if isinstance(self.max_eps_chain, bool) or not isinstance(self.max_eps_chain, int):
            raise ValueError(f"max_eps_chain must be an integer, not {self.max_eps_chain!r}")
        if self.max_eps_chain < 0:
            raise ValueError("max_eps_chain must be non-negative")
        depth = _eps_chain_depths(eps)
        longest = max(depth.values(), default=0)
        if longest > self.max_eps_chain:
            raise ValueError(
                f"longest EPSILON chain has {longest} edges, above the declared "
                f"bound {self.max_eps_chain}"
            )
        # Per symbol, and at the end of the input under EPSILON, the program
        # _afa_stepper evaluates, in three parts: (bit, target mask) for each
        # existential and for each universal state that reads the symbol,
        # both reading the previous value; then (bit, target mask,
        # existential) for each silent state in EPSILON-depth order, reading
        # the value being built.
        existential = self.existential
        silent = [
            (1 << src, eps[src], src in existential)
            for src in sorted(depth, key=lambda state: (depth[state], state))
        ]
        programs: dict[str | None, tuple[list, list, list]] = {EPSILON: ([], [], silent)}
        for sym, row in rows.items():
            exists: list[tuple[int, int]] = []
            forall: list[tuple[int, int]] = []
            for src, mask in row.items():
                (exists if src in existential else forall).append((1 << src, mask))
            programs[sym] = (exists, forall, silent)
        object.__setattr__(self, "_programs", programs)
        object.__setattr__(self, "_halted", _mask(self.accepting - eps.keys()))


def _eps_chain_depths(eps: Mapping[int, int]) -> dict[int, int]:
    """Longest EPSILON path (in edges) from each state with an EPSILON move,
    given as the mask of its EPSILON targets; every other state has depth 0.
    Raises on a cycle.

    A state's depth is one more than the deepest of its silent targets that
    have EPSILON moves themselves, or 1 when it has none, so only the moves
    between such states are walked. Iterative topological pass from the
    sinks backwards, so chain length is bounded by memory rather than by
    the interpreter's recursion limit."""
    silent = _mask(eps)
    sources: dict[int, list[int]] = {}
    pending: dict[int, int] = {}
    ready = []
    for src, mask in eps.items():
        targets = _bits(mask & silent)
        for dst in targets:
            sources.setdefault(dst, []).append(src)
        if targets:
            pending[src] = len(targets)
        else:
            ready.append(src)
    depth = dict.fromkeys(eps, 1)
    while ready:
        state = ready.pop()
        reach = depth[state] + 1
        for src in sources.get(state, ()):
            if depth[src] < reach:
                depth[src] = reach
            pending[src] -= 1
            if not pending[src]:
                ready.append(src)
    if any(pending.values()):
        raise ValueError("EPSILON transitions form a cycle")
    return depth


def _sorted_rows(
    transitions: Mapping[tuple[int, str], Iterable[tuple[int, Fraction]]]
) -> dict[tuple[int, str], tuple[tuple[int, Fraction], ...]]:
    """Rows sorted by target state, so that equality is semantic: two
    machines with the same distributions compare equal regardless of the
    order their rows were written in."""
    return {
        key: tuple(sorted(row, key=lambda item: item[0]))
        for key, row in dict(transitions).items()
    }


@dataclass(frozen=True)
class OneWayPfa(_Machine):
    """Probabilistic one-way acceptor with exact rational transitions.

    ``transitions`` maps (state, symbol) to a row of (target, probability)
    pairs summing to exactly 1; a missing row halts that probability mass
    before the end of the input. ``roles`` assigns every state one of
    ROLE_ACCEPTING, ROLE_REJECTING, ROLE_NEUTRAL. No EPSILON moves exist.
    """

    transitions: Mapping[tuple[int, str], tuple[tuple[int, Fraction], ...]]
    roles: Mapping[int, str]
    labels: Mapping[int, str] = field(default_factory=dict)

    _freeze = staticmethod(_sorted_rows)
    _state_sets = ()

    def _check_rules(self, symbols: frozenset[str]) -> None:
        object.__setattr__(self, "roles", dict(self.roles))
        if set(self.roles) != set(range(self.state_count)):
            raise ValueError("roles must cover every state exactly")
        for state, role in self.roles.items():
            if role not in _ROLES:
                raise ValueError(f"state {state} has unknown role {role!r}")
        for key, row in self.transitions.items():
            src, sym = key
            _check_state(src, self.state_count, "transition source")
            if sym not in symbols:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            for dst, prob in row:
                _check_state(dst, self.state_count, "transition target")
                if not isinstance(prob, Fraction):
                    raise ValueError(f"probability {prob!r} on {key!r} must be a Fraction")
                if not 0 <= prob.numerator <= prob.denominator:
                    raise ValueError(f"probability {prob} on {key!r} outside [0, 1]")
        # D, the lcm of every denominator, and each row as (target, weight)
        # pairs with integer weights over D, zero entries dropped. A row sums
        # to 1 iff its weights sum to D, and steps on weights skip the gcd of
        # every Fraction operation.
        unit = math.lcm(*(prob.denominator for row in self.transitions.values() for _, prob in row))
        weights = {}
        for key, row in self.transitions.items():
            weights[key] = scaled = tuple(
                (dst, prob.numerator * (unit // prob.denominator)) for dst, prob in row if prob
            )
            if sum(weight for _, weight in scaled) != unit:
                total = sum((prob for _, prob in row), Fraction(0))
                raise ValueError(f"probabilities on {key!r} sum to {total}, not 1")
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_weights", weights)

    def states_with_role(self, role: str) -> frozenset[int]:
        return frozenset(s for s, r in self.roles.items() if r == role)


class LasVegasPfa(OneWayPfa):
    """Probabilistic acceptor meant to run with zero error.

    Structurally identical to OneWayPfa; the class marks machines whose
    correctness contract is "never announce the wrong answer": on instances it
    solves, all non-neutral mass agrees with the classification.
    """


@dataclass(frozen=True)
class RunResult:
    """Outcome of one deterministic run: accept, reject, or stuck(position)."""

    outcome: str
    position: int | None = None

    def __post_init__(self) -> None:
        if self.outcome not in (ACCEPT, REJECT, STUCK):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if (self.outcome == STUCK) != (self.position is not None):
            raise ValueError("position is set exactly when the run got stuck")

    @property
    def accepted(self) -> bool:
        return self.outcome == ACCEPT


@dataclass(frozen=True)
class PromiseProblem:
    """A pair of disjoint predicates over words of a shared alphabet.

    ``yes_member`` and ``no_member`` decide the two promise classes. The
    optional ``enumerator`` maps a maximum length to the classified instances
    up to that length, for problems whose instance set is too structured to
    find by scanning all words; without it, enumeration brute-forces every
    word up to the requested length.

    An enumerator yields the instances front-coded, as triples (keep,
    suffix, class): the instance is the previous instance's first keep
    symbols followed by suffix, the first instance has keep 0, and class is
    "yes" or "no". Verification resumes each run after the keep symbols it
    shares with the previous run, so a keep below the longest common prefix
    costs steps but never changes an answer.
    """

    alphabet: tuple[str, ...]
    yes_member: Callable[[str], bool]
    no_member: Callable[[str], bool]
    enumerator: Callable[[int], Iterable[tuple[int, str, str]]] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        _check_alphabet(self.alphabet)

    def enumerate_instances(self, max_length: int) -> list[tuple[str, str]]:
        """All (word, "yes" | "no") instances of length at most max_length."""
        return list(_decode(self._coded(max_length)))

    def _coded(self, max_length: int) -> list[tuple[int, str, str]]:
        """The instances up to max_length as a checked front-coded list, read
        from the enumerator or, without one, from _brute_force's whole words.
        Every search and verifier reads its instances from here, so this is
        where each instance's keep, symbols, length and class are checked.
        Only the suffix's symbols are: the kept ones passed with an earlier
        instance, so the error names the word's first foreign symbol."""
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        symbols = frozenset(self.alphabet)
        out = []
        length = 0
        for keep, suffix, cls in (self.enumerator or self._brute_force)(max_length):
            if not 0 <= keep <= length:
                raise ValueError(
                    f"enumerator kept {keep} symbols of a word of length {length}"
                )
            if not symbols.issuperset(suffix):
                _require_symbols(suffix, symbols)
            length = keep + len(suffix)
            out.append((keep, suffix, cls))
            if length > max_length:
                word = _word_at(out, len(out) - 1)
                raise ValueError(f"enumerator produced {word!r} beyond length {max_length}")
            if cls not in ("yes", "no"):
                raise ValueError(f"enumerator produced class {cls!r}")
        return out

    def _brute_force(self, max_length: int) -> Iterator[tuple[int, str, str]]:
        """Every word up to max_length that the predicates classify, whole, as
        (0, word, class): front-coding words this short costs more than it saves."""
        for word in _words(self.alphabet, max_length):
            yes = self.yes_member(word)
            no = self.no_member(word)
            if yes and no:
                raise ValueError(f"promise classes overlap on {word!r}")
            if yes or no:
                yield 0, word, "yes" if yes else "no"


def front_coded(instances: Iterable[tuple[str, str]]) -> Iterator[tuple[int, str, str]]:
    """(word, class) instances as an enumerator's front-coded triples, each
    keeping the longest prefix it shares with the previous word."""
    previous = ""
    for word, cls in instances:
        keep = _shared_prefix(previous, word)
        yield keep, word[keep:], cls
        previous = word


def _decode(coded: Iterable[tuple[int, str, str]]) -> Iterator[tuple[str, str]]:
    """The (word, class) instances of a front-coded stream, in order."""
    word = ""
    for keep, suffix, cls in coded:
        word = word[:keep] + suffix
        yield word, cls


def _word_at(coded: Sequence[tuple[int, str, str]], index: int) -> str:
    """The word of instance index of a front-coded list, rebuilt walking
    back: each earlier suffix gives only the symbols the word still holds
    of it, so the cost is O(index + len(word)) time and O(len(word)) space."""
    keep, suffix, _ = coded[index]
    parts = [suffix]
    while keep:
        index -= 1
        earlier, suffix, _ = coded[index]
        if earlier < keep:
            parts.append(suffix[: keep - earlier])
            keep = earlier
    return "".join(reversed(parts))


def _words(alphabet: tuple[str, ...], max_length: int) -> Iterator[str]:
    """Every word over alphabet up to max_length, shortest first; words of
    one length come in the lexicographic order that alphabet's sequence
    gives its symbols. One word is held at a time."""
    if len(alphabet) == 1:
        yield from map(alphabet[0].__mul__, range(max_length + 1))
        return
    for length in range(max_length + 1):
        yield from map("".join, itertools.product(alphabet, repeat=length))


@dataclass(frozen=True)
class VerificationReport:
    """Result of checking a machine or property against a problem."""

    verdict: str
    counterexample: tuple[str, str, str] | None = None
    measured: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "measured", dict(self.measured))
        if self.verdict not in (SOLVES, FAILS):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == FAILS) != (self.counterexample is not None):
            raise ValueError("counterexample is present exactly when verdict is fails")


def _unary(word: str) -> bool:
    """Whether word is one symbol repeated at least once."""
    return bool(word) and word.count(word[0]) == len(word)


def _require_symbols(word: str, symbols: frozenset[str]) -> None:
    if word[:1] in symbols and _unary(word):
        return  # one lookup instead of one per symbol
    if symbols.issuperset(word):
        return
    for sym in word:
        if sym not in symbols:
            raise InputDomainError(f"symbol {sym!r} not in alphabet")


class Stepper(NamedTuple):
    """A machine's semantics as a fold over the symbols of a word.

    ``step`` is folded over the word from ``start`` (over the reversed word
    when ``reverse`` is set), and ``outcome`` maps the final value to the
    run's result. Built once per call. ``step`` never changes the value it
    is given, so a run can be resumed from any value it passed through. A
    two-way machine's value is its crossing table (see _twoway_stepper).
    """

    start: object
    step: Callable[[object, str], object]
    outcome: Callable[[object], object]
    reverse: bool = False


def _fold(stepper: Stepper, word: str) -> object:
    step = stepper.step
    value = stepper.start
    for sym in reversed(word) if stepper.reverse else word:
        value = step(value, sym)
    return stepper.outcome(value)


def _orbit(
    step: Callable[[object, str], object], sym: str, start: object
) -> tuple[list, int]:
    """The values start, step(start, sym), ... up to the first repeat, and
    the index where the cycle they then run around begins."""
    path = [start]
    seen = {start: 0}
    while True:
        nxt = step(path[-1], sym)
        if nxt in seen:
            return path, seen[nxt]
        seen[nxt] = len(path)
        path.append(nxt)


def _orbit_at(path: list, entry: int | None, length: int) -> object:
    """The value after length steps, read off an orbit by index arithmetic;
    entry is None only for a path walked at least length steps."""
    if length < len(path):
        return path[length]
    return path[entry + (length - entry) % (len(path) - entry)]


def _unary_at(
    step: Callable[[object, str], object], sym: str, path: list, seen: dict, length: int
) -> tuple[list, int | None]:
    """The orbit of sym walked on from path[-1] up to its first repeat or
    until it is length steps long, whichever comes first: path, extended in
    place (path[i] is the value after i symbols, seen maps each value on it
    to its index), and the index where the cycle it then runs around begins,
    None when nothing repeats within length steps. _orbit_at reads the value
    after any number of steps off the result. Costs min(length, distinct
    values) steps in all, however many calls extend one path."""
    value = path[-1]
    for i in range(len(path), length + 1):
        value = step(value, sym)
        entry = seen.setdefault(value, i)
        if entry != i:
            return path, entry
        path.append(value)
    return path, None


def _run(stepper: Stepper, word: str) -> object:
    """The stepper's outcome on word, each distinct step computed once.

    A unary word, which reads the same reversed, is read off its symbol's
    orbit (see _unary_at). Any other word folds through a per-call memo of
    (value, symbol) -> value: the DFA of the stepper's values, built on
    demand for this one word. A PFA's values do not repeat, so outcome_dist
    keeps the plain _fold.
    """
    if _unary(word):
        start = stepper.start
        path, entry = _unary_at(stepper.step, word[0], [start], {start: 0}, len(word))
        return stepper.outcome(_orbit_at(path, entry, len(word)))
    step = stepper.step
    memo: dict[tuple[object, str], object] = {}
    value = stepper.start
    for sym in reversed(word) if stepper.reverse else word:
        key = (value, sym)
        try:  # a miss happens once per distinct step, so it may cost more
            value = memo[key]
        except KeyError:
            value = memo[key] = step(value, sym)
    return stepper.outcome(value)


def _dfa_stepper(dfa: OneWayDfa) -> Stepper:
    """The value is the current state, None once the run is stuck."""
    move = dfa.transitions.get
    return Stepper(
        dfa.initial, lambda state, sym: move((state, sym)), dfa.accepting.__contains__
    )


def _dfa_block(
    dfa: OneWayDfa, start: int, sym: str, length: int
) -> tuple[int | None, int | None]:
    """Run sym^length from start: (state, None) at the end, or (None, i)
    when the symbol at index i has no move. Reads the run off sym's orbit,
    where the stuck value None is a fixed point."""
    path, entry = _unary_at(_dfa_stepper(dfa).step, sym, [start], {start: 0}, length)
    state = _orbit_at(path, entry, length)
    return (None, path.index(None) - 1) if state is None else (state, None)


def dfa_run(dfa: OneWayDfa, word: str) -> RunResult:
    """Run the deterministic machine over the whole word.

    Returns accept or reject for completed runs, or stuck(i) when no
    transition applies at position i (0-based index of the unread symbol).
    A unary word is read off its symbol's orbit (see _dfa_block). Any other
    word is folded with the table lookup in line: a step's one lookup costs
    less than a memo's, and a call per symbol would make the run about a
    quarter slower.
    """
    _require_symbols(word, dfa.symbols)
    if _unary(word):
        state, stuck = _dfa_block(dfa, dfa.initial, word[0], len(word))
        if state is None:
            return RunResult(STUCK, stuck)
    else:
        move = dfa.transitions.get
        state = dfa.initial
        for i, sym in enumerate(word):
            state = move((state, sym))
            if state is None:
                return RunResult(STUCK, i)
    return RunResult(ACCEPT if state in dfa.accepting else REJECT)


def _mask(states: Iterable[int]) -> int:
    """The bitmask of a set of states: bit q is set iff q is in the set.
    Set byte by byte, as OR-ing each bit into an int would copy the int
    once per state."""
    states = tuple(states)
    out = bytearray(max(states, default=0) // 8 + 1)
    for state in states:
        out[state >> 3] |= 1 << (state & 7)
    return int.from_bytes(out, "little")


def _image(mask: int, rows: Mapping[int, int]) -> int:
    """The union of rows[q] over the states q of a bitmask state set; a
    state missing from rows adds nothing."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows.get(low.bit_length() - 1, 0)
        mask ^= low
    return out


def _bits(mask: int) -> list[int]:
    """The states of a bitmask state set, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _nfa_stepper(nfa: OneWayNfa) -> Stepper:
    """The value is the EPSILON-closed set of current states, as a bitmask."""
    succ = nfa._succ  # type: ignore[attr-defined]
    accepting = _mask(nfa.accepting)
    return Stepper(
        nfa._closure.get(nfa.initial, 1 << nfa.initial),  # type: ignore[attr-defined]
        lambda current, sym: _image(current, succ[sym]),
        lambda current: bool(current & accepting),
    )


def nfa_accepts(nfa: OneWayNfa, word: str) -> bool:
    """Subset simulation: does any run consume the word into acceptance."""
    _require_symbols(word, nfa.symbols)
    return _run(_nfa_stepper(nfa), word)


def twoway_accepts(machine: TwoWayMachine, word: str) -> bool:
    """Whether some run of the two-way machine halts in an accepting state.

    Configurations are (state, head position) on the endmarked tape, s·(|w|+2)
    of them for s states. A deterministic machine has one run, which is
    walked: a run that halts does so within s·(|w|+2) − 1 steps, since its
    configurations up to the halt are distinct, so a run that has not halted
    after s·(|w|+2) steps repeats a configuration and loops forever. The walk
    also rejects when it comes back to the configuration it saved at the last
    power-of-two step count (Brent's cycle detection), so a looping run stops
    within about twice its distance to the loop plus the loop's length, well
    before the s·(|w|+2) cap when the loop is short. Any other machine
    searches its configuration graph depth-first: it accepts iff a halting
    configuration with an accepting state is reachable from (initial,
    leftmost position). Neither path reads the crossing table, so this stays
    the oracle that _twoway_stepper is tested against.
    """
    _require_symbols(word, machine.symbols)
    tape = LEFT_MARKER + word + RIGHT_MARKER
    rows = machine._rows  # type: ignore[attr-defined]
    state, pos = machine.initial, 0
    if machine.deterministic:
        budget = machine.state_count * len(tape)
        span = 1
        try:  # a state with no move on its cell raises KeyError: the run halts
            while budget > 0:
                mark_state, mark_pos = state, pos
                for _ in range(min(span, budget)):
                    state, move = rows[tape[pos]][state][0]
                    pos += move
                    if pos == mark_pos and state == mark_state:
                        return False
                budget -= span
                span *= 2
        except KeyError:
            return state in machine.accepting
        return False
    seen = {(state, pos)}
    stack = [(state, pos)]
    while stack:
        state, pos = stack.pop()
        moves = rows[tape[pos]].get(state)
        if not moves:
            if state in machine.accepting:
                return True
            continue
        for dst, move in moves:
            nxt = (dst, pos + move)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _twoway_stepper(machine: TwoWayMachine) -> Stepper:
    """Shepherdson's crossing table as a one-way step, memoized.

    After a prefix u of the tape ⊢w, the table says in which states a run
    from the start first leaves u to the right and whether it can halt
    accepting inside u; and the same for a run entering u's last cell from
    the right in each re-entry state p, a target of some LEFT move (the
    crossing construction of Shepherdson, 1959, in the 2NFA form of
    Kapoutsis, 2005). One step closes the states at the new cell: RIGHT
    leaves the prefix, STAY stays on the cell, LEFT goes back through the
    old table, and a state with no move halts, accepting iff the state is
    accepting. Sets are state bitmasks; bit state_count stands for "can
    accept", a state at the cell with no moves and an exit of its own.

    The value is a number. Each distinct table is numbered when first met,
    and each (number, symbol) step is computed once per stepper, so the
    memo grows into a DFA as words are read. Number 0 is dead (the run from
    the start can no longer leave or accept) and 1 has accepted; both step
    to themselves, since their rows are never read. ``outcome`` steps over
    the right endmarker.
    """
    count = machine.state_count
    accept = 1 << count
    # Per tape symbol: each state's STAY targets; its exits, which are its
    # RIGHT targets, or accept for an accepting state that halts; and the
    # table slots of its LEFT targets. A re-entry state gets its slot when
    # first seen.
    halted = [0] * count
    for state in machine.accepting:
        halted[state] = accept
    tables = {}
    slot: dict[int, int] = {}
    for sym, rows in machine._rows.items():  # type: ignore[attr-defined]
        stay, exits, left = tables[sym] = ([0] * (count + 1), [*halted, accept], {})
        for src, row in rows.items():
            exits[src] = 0
            for dst, move in row:
                if move == RIGHT:
                    exits[src] |= 1 << dst
                elif move == STAY:
                    stay[src] |= 1 << dst
                else:
                    left.setdefault(src, []).append(slot.setdefault(dst, len(slot) + 1))
    # A re-entry state that only moves right or halts on a symbol has a
    # fixed row there; the others are closed at each cold step.
    steps = {
        sym: (
            stay, exits, left, [0, *[exits[state] for state in slot]],
            [(i, 1 << state) for i, state in enumerate(slot, 1) if stay[state] or state in left],
        )
        for sym, (stay, exits, left) in tables.items()
    }

    def cold(value: tuple[int, ...], sym: str) -> tuple[int, ...]:
        """The table one cell further: value[0] holds the exits of the run
        from the start, value[slot[p]] those of the run entering in p."""
        succ, exits, left, fixed, closed = steps[sym]
        if left:
            succ = succ.copy()
            for state, slots in left.items():
                for i in slots:
                    succ[state] |= value[i]
        first = _exits(value[0], succ, exits)
        if first >= accept:
            return accepted
        if not first:
            return dead
        out = fixed.copy()
        out[0] = first
        for i, bit in closed:
            out[i] = _exits(bit, succ, exits)
        return tuple(out)

    filler = (0,) * len(slot)
    dead, accepted = (0, *filler), (accept, *filler)
    values = [dead, accepted]
    numbers = {dead: 0, accepted: 1}
    memo: dict[tuple[int, str], int] = {}

    def number(value: tuple[int, ...]) -> int:
        out = numbers.setdefault(value, len(values))
        if out == len(values):
            values.append(value)
        return out

    def step(current: int, sym: str) -> int:
        nxt = memo.get((current, sym))
        if nxt is None:
            nxt = memo[(current, sym)] = number(cold(values[current], sym))
        return nxt

    # Before the tape, the run from the start is about to enter ⊢; nothing
    # re-enters, since no move goes left off ⊢.
    empty = (1 << machine.initial, *filler)
    return Stepper(
        number(cold(empty, LEFT_MARKER)), step, lambda current: step(current, RIGHT_MARKER) == 1
    )


def _exits(mask: int, succ: list[int], exits: list[int]) -> int:
    """The union of exits[q] over the states q reachable from mask along succ."""
    reach = todo = mask
    out = 0
    while todo:
        low = todo & -todo
        state = low.bit_length() - 1
        out |= exits[state]
        new = succ[state] & ~reach
        reach |= new
        todo ^= low | new
    return out


def _afa_stepper(afa: OneWayAfa) -> Stepper:
    """Backward valuation over the reversed word.

    After reading a suffix s of the word backwards, bit q of the value says
    whether the machine accepts s when started in q. A state's bit is the OR
    (existential) or AND (universal) of its applicable moves' targets; with
    no applicable move it halts, accepting only at the end of the input.
    States are evaluated in EPSILON-depth order, so silent targets are set
    before their sources read them.
    """
    programs = afa._programs  # type: ignore[attr-defined]

    def step(value: int, sym: str) -> int:
        return _evaluate(programs[sym], value, 0)

    initial = afa.initial
    return Stepper(
        _evaluate(programs[EPSILON], 0, afa._halted),  # type: ignore[attr-defined]
        step,
        lambda value: bool(value >> initial & 1),
        reverse=True,
    )


def _evaluate(
    program: tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int, bool]]],
    prev: int,
    out: int,
) -> int:
    """One backward step of an AFA program (see OneWayAfa._check_rules):
    prev is the value after the step's symbol, out the bits set so far."""
    exists, forall, silent = program
    for bit, mask in exists:
        if prev & mask:
            out |= bit
    for bit, mask in forall:
        if prev & mask == mask:
            out |= bit
    for bit, mask, existential in silent:
        hit = out & mask
        if hit if existential else hit == mask:
            out |= bit
    return out


def afa_accepts(afa: OneWayAfa, word: str) -> bool:
    """Evaluate the alternating machine's run tree over the word.

    The value of (state, position) is the OR (existential) or AND (universal)
    of the applicable moves' values; a configuration with no applicable move
    halts and is accepting iff the input is exhausted and the state accepts.
    Values are filled position by position from the end of the word.
    """
    _require_symbols(word, afa.symbols)
    return _run(_afa_stepper(afa), word)


Acceptor = OneWayDfa | OneWayNfa | TwoWayMachine | OneWayAfa


def machine_accepts(machine: Acceptor, word: str) -> bool:
    """Uniform acceptance test across the four nonprobabilistic types."""
    if isinstance(machine, TwoWayMachine):
        return twoway_accepts(machine, word)
    stepper = _stepper(machine)
    _require_symbols(word, machine.symbols)
    return _run(stepper, word)


def _stepper(machine: Acceptor) -> Stepper:
    if isinstance(machine, OneWayDfa):
        return _dfa_stepper(machine)
    if isinstance(machine, OneWayNfa):
        return _nfa_stepper(machine)
    if isinstance(machine, OneWayAfa):
        return _afa_stepper(machine)
    if isinstance(machine, TwoWayMachine):
        return _twoway_stepper(machine)
    raise TypeError(f"unsupported machine type {type(machine).__name__}")


def _shared_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, found by halving with slice
    comparisons rather than a loop over characters."""
    lo, hi = 0, min(len(a), len(b))
    if a[:hi] == b[:hi]:
        return hi
    # a[:lo] == b[:lo] and a[:hi] != b[:hi] throughout.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _resumed_outcomes(
    stepper: Stepper, coded: Iterable[tuple[int, str, str]]
) -> Iterator[tuple[int, str, object]]:
    """(index, class, outcome) for each instance of a front-coded stream
    whose words lie over the stepper's alphabet, as PromiseProblem._coded
    checks.

    Each run resumes from the value the previous run reached after the
    instance's first keep symbols and steps only its suffix, so a sweep of
    words that extend one another costs one step per new symbol. A reverse
    stepper reads the stream re-coded over the reversed words, so it
    resumes from the longest suffix a word shares with the previous one.
    It serves streams over two or more symbols, and PFAs, whose values
    never repeat; promise_check reads any other unary stream off its
    symbol's orbit (see _unary_outcomes).
    """
    if stepper.reverse:
        coded = front_coded((word[::-1], cls) for word, cls in _decode(coded))
    step, outcome = stepper.step, stepper.outcome
    path = [stepper.start]  # path[i]: the value after i symbols of previous
    append = path.append
    for index, (keep, suffix, cls) in enumerate(coded):
        del path[keep + 1 :]
        value = path[keep]
        for sym in suffix:
            value = step(value, sym)
            append(value)
        yield index, cls, outcome(value)


def _unary_outcomes(
    stepper: Stepper, sym: str, coded: Iterable[tuple[int, str, str]]
) -> Iterator[tuple[int, str, object]]:
    """(index, class, outcome) for each instance of a front-coded stream
    over the one symbol sym, as _resumed_outcomes yields them, read off
    sym's orbit from the stepper's start (see _unary_at) by the instance's
    length alone. The orbit is walked only as the lengths grow, and stops
    at its first repeat, so the stream costs min(longest word, distinct
    values) steps. Over one symbol every word is its own reversal, so a
    reverse stepper reads the same orbit. The values must be hashable.
    """
    step, outcome = stepper.step, stepper.outcome
    path, seen, entry = [stepper.start], {stepper.start: 0}, None
    for index, (keep, suffix, cls) in enumerate(coded):
        length = keep + len(suffix)
        if entry is None and length >= len(path):
            path, entry = _unary_at(step, sym, path, seen, length)
        yield index, cls, outcome(_orbit_at(path, entry, length))


def _instances_for(
    machine: _Machine, problem: PromiseProblem, max_length: int
) -> list[tuple[int, str, str]]:
    """The problem's checked instances up to max_length, for a machine over
    the same alphabet."""
    if machine.symbols != frozenset(problem.alphabet):
        raise AlphabetMismatchError(
            f"machine alphabet {sorted(machine.symbols)} differs from problem "
            f"alphabet {sorted(problem.alphabet)}"
        )
    return problem._coded(max_length)


def promise_check(
    machine: Acceptor, problem: PromiseProblem, max_length: int
) -> VerificationReport:
    """Check the machine against every instance up to max_length.

    The machine solves the problem on the checked range iff it accepts every
    yes instance and rejects (or gets stuck on) every no instance; behavior
    outside the promise is not examined. An empty instance range solves
    vacuously. Over one symbol each instance is read off the symbol's orbit
    by its length (see _unary_outcomes), so a sweep a^0, a^1, ..., a^n costs
    min(n, distinct values) steps. Over two or more symbols each instance
    resumes after the symbols the problem's front-coded enumeration keeps
    from the previous one (see _resumed_outcomes). A two-way machine steps
    through its memoized crossing table (see _twoway_stepper): a cold step
    costs about as much as a short word run afresh, and a repeated one a
    dictionary lookup.
    """
    stepper = _stepper(machine)
    coded = _instances_for(machine, problem, max_length)
    measured = {"instances": len(coded), "max_length": max_length}
    if len(machine.alphabet) == 1:
        runs = _unary_outcomes(stepper, machine.alphabet[0], coded)
    else:
        runs = _resumed_outcomes(stepper, coded)
    for index, cls, accepted in runs:
        if accepted != (cls == "yes"):
            word = _word_at(coded, index)
            return VerificationReport(
                FAILS,
                counterexample=(word, cls, ACCEPT if accepted else REJECT),
                measured=measured,
            )
    return VerificationReport(SOLVES, measured=measured)
