"""The tracer behind the package's generated code.

_Trace and _Traced record the float operations of one evaluation as a
generated function; the controller traces its whole control step with them
(see drcbf.controller), and the simulator one RK4 step of a system and each
run's whole loop (see drcbf.simulate).
"""

from __future__ import annotations

import functools
import math
import re
import threading
from array import array
from bisect import bisect_left
from math import copysign
from operator import add, eq, ge, gt, le, lt, mul, ne, neg, sub, truediv


class _Deopt(Exception):
    """A comparison recorded by a trace comes out differently here."""


_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": truediv}
_UNARY = {"neg": neg, "abs": abs}
_COMPARISONS = {"<": lt, "<=": le, ">": gt, ">=": ge, "==": eq, "!=": ne}
# The operations whose result is non-finite wherever an operand is; a
# division's is wherever its numerator is, or it raises.
_PROPAGATING = frozenset(("+", "-", "*", "neg", "abs"))
# The names of the recorded operations' results in source.
_RESULT_NAME = re.compile(r"\bt\d+\b|\b_finite\d+\b")
_NO_NAMES = frozenset()
# The deepest nesting of operations written into one another.
_INLINE_DEPTH = 40
# The compiled code of the last traces, by their keys (see _Trace.generate),
# at most _MEMO_SIZE of them, a new entry evicting the oldest; a run's loop
# keeps about 140 KB.
_MEMO_SIZE = 32
_memo = {}
_memo_lock = threading.Lock()


def _negative_zero(c):
    return c.__class__ is float and c == 0.0 and copysign(1.0, c) < 0.0


def _positive_zero(c):
    # An int 0 subtracts as 0.0 does.
    return c.__class__ is not str and c == 0.0 and copysign(1.0, c) > 0.0


class _Trace:
    """The float operations of one evaluation, as Python source.

    inputs(), input() and local() hand out traced floats; the evaluation runs
    on them, and each operation it does is recorded (see _Traced). A caller
    writes its own lines, which read the results by operand() and make their
    finiteness checks by check(), after the recorded operations or between
    them by line(), and simplify() rewrites the recorded operations before
    render() and resolve() give the source; generate() does all three and
    compiles it, once for each distinct trace, and function() goes through
    it.

    Between block() and end_block(), the operations form a block: a run of
    straight-line code under a loop header that a recorded comparison leaves
    by `break`, in place of raising _Deopt, so that the code after it (the
    next block, say) takes another path. Inside a block a comparison is the
    condition to leave it, and it takes the path that stays in the block
    whatever the traced values, so that the trace records every operation of
    the block; an operation that raises there is recorded with a NaN result.

    simplify() keeps every result bit for bit (any NaN standing for any
    other). The rules:

    - exact always: an operation on constants only is folded; x - 0.0,
      x + -0.0, -0.0 + x, x * 1.0, 1.0 * x and x / 1.0 are x, for a float x;
      a repeated right-hand side, with the operands of + and * in a canonical
      order, is the name first assigned it;
    - exact where x is never -0.0: x + 0.0 and 0.0 + x are x. A result is
      never -0.0 if it is a sum with a term that is never -0.0 (0.0 + y,
      x + c with c not -0.0), a difference a - b with a never -0.0 or b a
      constant other than 0.0, a square, or non-negative: abs, a constant
      above or at 0.0, a local declared so, and sums, products and
      quotients of non-negative values;
    - exact where x is finite: x * ±0.0 is a zero (of either sign), and so
      are products of zeros with finite constants or names, and sums,
      differences and negations of zeros; a + z and a - z are a where a is
      never -0.0 or has the sign bit of z (of -z, for a - z). Sign bits are
      known as the parity of those of a set of names, through products,
      quotients, negations and x + x.

    The last rules hold only where every name they take as finite is: such
    a rule is applied only where a non-finite value of that name would still
    reach a check through the operations left, by +, -, *, unary minus, abs
    or as a numerator, each of which keeps a value non-finite or raises. So
    where the name is not finite, the simplified function declines as the
    evaluation's own would have. Where the name reaches no check, it is
    added to the first check after it, or, in its place, an operand it
    cannot be non-finite without: the operand y of an operation whose
    result is at most |y| in magnitude (see _implied), and so on down such
    a chain, each step of which keeps a finite value finite. With no check
    after it, the rule is not applied and the operation is kept. The
    simplified function may thus decline where the evaluation's own would
    not, never the other way round. Then every operation whose result is no
    longer read, and which cannot raise, is dropped. A recorded comparison
    is never moved, and dropped only where its operands are constants.

    A break is no decline: a folded result may steer a comparison in a
    block, and the code then goes on down another path. So a check counts
    for a name only where no comparison in a block and no block's end lie
    between the name and the check. Each comparison and end of a block with
    a decline line is a check of its own, which runs that line where it
    fails; a rule taking a name formed in the block as finite adds the name
    there. Common right-hand sides are not shared out of a block, whose
    names are unbound or stale after it. A block comparison of constants
    passes, and is dropped, or leaves the block, which then ends there.
    """

    def __init__(self):
        # (index, result name or None for a comparison, kind, source template
        # with one {} per operand, operands): kind is an operator symbol,
        # "neg", "abs", "call" or "guard", a comparison symbol for a block's
        # comparison, or "block", "line" and "end", whose templates are a
        # block's header and tuples of a caller's lines, those of a block's
        # end included; an operand is a name or a constant.
        self.ops = []
        # Non-finite constants, which have no literal, by the global names
        # they are bound to.
        self.constants = {}
        self.n_inputs = 0
        # One entry per argument of function(): its name, and the target it is
        # unpacked into (None for a single input).
        self.arguments = []
        # Set when an operation raised: the evaluation may have caught it and
        # branched on it, which the recorded operations would not show.
        self.raised = False
        # The names that hold floats, are never -0.0 or are non-negative.
        self.floats = set()
        self.never_negative_zero = set()
        self.non_negative = set()
        # Set by simplify(): each rewritten result's replacement, the
        # operations kept and the results written into their reader.
        self.replaced = {}
        self.kept = None
        self.inline = {}
        # The number of operations recorded before each input and local and
        # before each check (with the values it checks and, for a block's
        # check, its decline line), and the names simplify() adds to each.
        self.positions = {}
        self.checks = []
        self.extra = []
        # The open block's start and decline line.
        self.open = None

    def _traced(self, name, value):
        if value.__class__ is float:
            self.floats.add(name)
        return _Traced(self, name, value)

    def _leaf(self, name, value, non_negative=False):
        self.positions[name] = len(self.ops)
        if non_negative:
            self.non_negative.add(name)
        return self._traced(name, value)

    def input(self, value):
        """A traced float holding value: the next argument of function()."""
        name = f"x{self.n_inputs}"
        self.n_inputs += 1
        self.arguments.append((name, None))
        return self._leaf(name, value)

    def inputs(self, values):
        """Traced floats holding values: the next argument of function(), a
        sequence of exactly that many floats."""
        names = [f"x{self.n_inputs + i}" for i in range(len(values))]
        self.n_inputs += len(names)
        self.arguments.append((f"a{len(self.arguments)}", "".join(f"{name}, " for name in names)))
        return tuple(map(self._leaf, names, values))

    def local(self, name, value, non_negative=False):
        """A traced float holding value, read from the local name of the
        generated code, which the caller assigns (never -0.0 nor negative, if
        non_negative)."""
        return self._leaf(name, value, non_negative)

    def operand(self, x):
        """Source for a traced float, a constant or a nested tuple of them.

        A finite constant is written as its repr, which reads back as the
        same float or int, -0.0 included; inf and nan are bound to names.
        """
        if x.__class__ is _Traced:
            return x.name
        if x.__class__ is int or (x.__class__ is float and math.isfinite(x)):
            return repr(x)
        if x.__class__ is float:
            name = f"K{len(self.constants)}"
            self.constants[name] = x
            return name
        if x.__class__ is tuple:
            return "(" + "".join(f"{self.operand(v)}, " for v in x) + ")"
        raise TypeError(f"cannot trace an operand of type {type(x).__name__}")

    def mark(self):
        """The position of the next operation, for render()."""
        return len(self.ops)

    def record(self, kind, template, operands, value):
        """A traced float holding value, the result of an operation."""
        name = f"t{len(self.ops)}"
        self.ops.append((len(self.ops), name, kind, template, operands))
        return self._traced(name, value)

    def call(self, template, function, operands, never_negative_zero=False):
        """function(*operands), a pure function of traced floats and
        constants, written as template with {} for each operand."""
        values = [v.value if v.__class__ is _Traced else v for v in operands]
        if not any(v.__class__ is _Traced for v in operands):
            return function(*values)
        keys = tuple(v.name if v.__class__ is _Traced else v for v in operands)
        result = self.record("call", template, keys, function(*values))
        if never_negative_zero:
            self.never_negative_zero.add(result.name)
        return result

    def guard(self, template, operands):
        """Record the comparison template, which raises _Deopt."""
        self.ops.append((len(self.ops), None, "guard", template, operands))

    def compare(self, symbol, operands, outcome):
        """Record the comparison of operands by symbol, which came out as
        outcome here: a guard, or in a block the condition to leave it.
        Returns the outcome the evaluation goes on with."""
        if self.open is None:
            self.guard(f"if {'not ' if outcome else ''}({{}} {symbol} {{}}): raise _Deopt", operands)
            return outcome
        self._block_check()
        self.ops.append((len(self.ops), None, symbol, f"if {{}} {symbol} {{}}: break", operands))
        return False

    def check(self, values):
        """Source that is true where the traced floats and constants values
        are all finite: a check the caller's code makes at this point of the
        evaluation, on every path that does not decline. simplify() may add
        names to it."""
        self.checks.append((len(self.ops), list(values), None))
        return f"_finite{len(self.checks) - 1}"

    def line(self, text):
        """Record text, a caller's line, to run at this point."""
        self.ops.append((len(self.ops), None, "line", (text,), ()))

    def block(self, header, decline=None):
        """Open a block (see above) under the line header, e.g. "while
        True:". decline, a line that makes the generated function decline,
        lets simplify() add checks in the block."""
        self.open = len(self.ops), decline
        self.ops.append((len(self.ops), None, "block", header, ()))

    def end_block(self, lines):
        """Close the open block with lines, which run where it was not left
        and must leave it, by a return or by making its header's condition
        false. With lines None, a comparison of constants left the block
        here, so it always is: the block is dropped, or, if an operation in
        it may raise, it breaks here."""
        start, _ = self.open
        if lines is None and all(_safe(op) for op in self.ops[start:] if op[1] is not None):
            for op in self.ops[start:]:
                self.floats.discard(op[1])
                self.never_negative_zero.discard(op[1])
            del self.ops[start:]
            self.checks = [c for c in self.checks if c[0] <= start]
        else:
            if lines is None:
                self.ops.append((len(self.ops), None, "break", "break", ()))
            self._block_check()
            self.ops.append((len(self.ops), None, "end", tuple(lines or ()), ()))
        self.open = None

    def _block_check(self):
        decline = self.open[1]
        if decline is not None:
            self.checks.append((len(self.ops), [], decline))

    def simplify(self, lines):
        """Rewrite the recorded operations by the rules above, for a function
        whose caller's lines read the results that occur in them."""
        own = [text for op in self.ops if op[2] in ("line", "end") for text in op[3]]
        reads = set(_RESULT_NAME.findall("\n".join([*lines, *own])))
        # The comparisons in blocks and the blocks' ends, past which a folded
        # result may steer the code, and the blocks' spans.
        barriers = [op[0] for op in self.ops if op[2] in _COMPARISONS or op[2] == "end"]
        starts = [op[0] for op in self.ops if op[2] == "block"]
        ends = [op[0] for op in self.ops if op[2] == "end"]

        def block_of(at):
            # The block holding position at, or -1.
            i = bisect_left(starts, at) - 1
            return i if i >= 0 and at <= ends[i] else -1

        def sites(folds):
            # The checks that run on every path to each fold (a position),
            # before its result can steer anything past a barrier: before
            # the fold, outside blocks or in its block, or after it, with no
            # barrier in between.
            valid = set(range(len(placed)))
            for p in set(folds):
                i = bisect_left(barriers, p)
                own, bound = block_of(p), barriers[i] if i < len(barriers) else math.inf
                valid &= {j for j, (at, block) in enumerate(placed)
                          if (block == -1 or block == own if at <= p else at <= bound)}
            return sorted(valid)

        placed = [(at, block_of(at)) for at, _, _ in self.checks]
        blocked = set()
        while True:
            replaced, kept, assumed = self._rewrite(blocked)

            def names(found):
                return {n for n in (replaced.get(v, v) for v in found) if n.__class__ is str}

            checked = [names(v.name for v in values if v.__class__ is _Traced)
                       for _, values, _ in self.checks]
            live = names(reads).union(*checked)
            pruned = _prune(kept, set(live))
            indices = [op[0] for op in pruned]
            # The names that reach each check.
            reach = []
            for (at, _, _), found in zip(self.checks, checked):
                found = set(found)
                for _, name, kind, _, args in reversed(pruned[:bisect_left(indices, at)] if found else ()):
                    if name in found:
                        if kind in _PROPAGATING:
                            found.update(a for a in args if a.__class__ is str)
                        elif kind == "/" and args[0].__class__ is str:
                            found.add(args[0])
                reach.append(found)
            # A name that reaches no check is checked itself where it is
            # formed, or through the operand it cannot be finite without.
            defined = {op[1]: op for op in kept if op[1] is not None}
            extra = [[] for _ in self.checks]
            missing = set()
            for name, folds in sorted(assumed.items()):
                valid = sites(folds)
                if any(name in reach[i] for i in valid):
                    continue
                # The operands that name cannot be non-finite without: one
                # that reaches a check, or else the farthest with a check
                # after it.
                roots = [name]
                while (y := _implied(defined.get(roots[-1]))) is not None:
                    roots.append(y)
                if any(y in reach[i] for i in valid for y in roots):
                    continue
                site = next(((i, y) for y in reversed(roots) for i in valid
                             if self.checks[i][0] >= (defined[y][0] + 1 if y in defined
                                                      else self.positions[y] + 1)), None)
                if site is None:
                    missing.add(name)
                elif site[1] not in extra[site[0]]:
                    extra[site[0]].append(site[1])
            if not missing:
                self.replaced, self.extra = replaced, extra
                pinned = live | {n for added in extra for n in added}
                self.kept = _prune(kept, set(pinned))
                # An operation that cannot raise, whose result one later
                # operation alone reads, in the same block or outside blocks
                # alike, is written into it by render(), up to a depth the
                # parser takes: the position of its reader, by its name.
                readers, owners, block = {}, {}, -1
                for op in self.kept:
                    index, name, kind, _, args = op
                    block = index if kind == "block" else -1 if kind == "end" else block
                    for a in args:
                        if a.__class__ is str:
                            readers.setdefault(a, []).append((index, block))
                    if name is not None and name not in pinned and _safe(op):
                        owners[name] = block
                self.inline = {name: readers[name][0][0] for name, block in owners.items()
                               if len(readers.get(name, ())) == 1 and readers[name][0][1] == block}
                return
            blocked |= missing

    def _rewrite(self, blocked):
        """One pass of the rules over the recorded operations, taking no name
        in blocked as finite: (replaced, kept, assumed), the replacement of
        each rewritten result, the operations left and the positions of the
        operations that take each name as finite."""
        replaced, seen, zeros, signs, kept, assumed = {}, {}, {}, {}, [], {}
        floats = self.floats
        non_negative = set(self.non_negative)
        never_negative_zero = self.never_negative_zero | non_negative

        def is_float(a):
            return a in floats if a.__class__ is str else a.__class__ is float

        def zero(a):
            # The names a is a zero under, or None.
            if a.__class__ is str:
                return zeros.get(a)
            return _NO_NAMES if a.__class__ is float and a == 0.0 else None

        def nonnegative(a):
            if a.__class__ is str:
                return a in non_negative
            return a > 0.0 or (a == 0.0 and copysign(1.0, a) > 0.0)

        def never_minus_zero(a):
            if a.__class__ is str:
                return a in never_negative_zero
            return not _negative_zero(a)

        def sign(a):
            # The sign bit of a (unless a NaN), as the parity of the sign
            # bits of a set of names and a flip.
            if a.__class__ is str:
                return signs.get(a) or (frozenset((a,)), False)
            return _NO_NAMES, copysign(1.0, a) < 0.0

        def rewrite(kind, args):
            # The replacement of the result and the names it takes as finite,
            # or None.
            if kind == "call":
                return None
            if kind in _UNARY:
                (a,) = args
                if a.__class__ is not str:
                    return _UNARY[kind](a), _NO_NAMES
                return None
            a, b = args
            if a.__class__ is not str and b.__class__ is not str:
                try:
                    return _ARITHMETIC[kind](a, b), _NO_NAMES
                except ArithmeticError:
                    return None
            if kind == "+":
                for p, q in ((a, b), (b, a)):
                    if is_float(p):
                        if _negative_zero(q):
                            return p, _NO_NAMES
                        if zero(q) is not None and (never_minus_zero(p) or sign(p) == sign(q)):
                            return p, zero(q)
            elif kind == "-":
                if is_float(a):
                    if _positive_zero(b):
                        return a, _NO_NAMES
                    if zero(b) is not None:
                        names, flip = sign(b)
                        if never_minus_zero(a) or sign(a) == (names, not flip):
                            return a, zero(b)
            elif kind == "*":
                for p, q in ((a, b), (b, a)):
                    if is_float(p) and q.__class__ is float and q == 1.0:
                        return p, _NO_NAMES
            elif is_float(a) and b.__class__ is float and b == 1.0:
                return a, _NO_NAMES
            return None

        def zero_under(kind, args):
            # The names the result is a zero under, or None.
            if kind == "neg":
                return zero(args[0])
            if kind in ("+", "-"):
                za, zb = map(zero, args)
                return None if za is None or zb is None else za | zb
            if kind != "*":
                return None
            for p, q in (args, args[::-1]):
                zq = zero(q)
                if zq is None:
                    continue
                if p.__class__ is str:
                    if p in floats and p not in blocked:
                        return zq | {p}
                elif p.__class__ is float and math.isfinite(p):
                    return zq
            return None

        get = replaced.get
        outer = []
        for index, name, kind, template, args in self.ops:
            # Constants are no keys of replaced: they come back as they are.
            args = tuple([get(a, a) for a in args])
            if name is None:
                if kind == "block":
                    outer.append(seen)
                    seen = dict(seen)
                elif kind == "end":
                    seen = outer.pop()
                elif kind in _COMPARISONS and not any(a.__class__ is str for a in args):
                    if not _COMPARISONS[kind](*args):
                        continue
                    kind, template, args = "break", "break", ()
                kept.append((index, name, kind, template, args))
                continue
            rule = rewrite(kind, args)
            if rule is not None:
                replaced[name], needs = rule
                for y in needs:
                    assumed.setdefault(y, []).append(index)
                continue
            codes = [a if a.__class__ is str else f"~{a!r}" for a in args]
            if kind in ("+", "*"):
                codes.sort()
            key = (template, *codes)
            if key in seen:
                replaced[name] = seen[key]
                continue
            seen[key] = name
            kept.append((index, name, kind, template, args))
            under = zero_under(kind, args)
            if under is not None:
                zeros[name] = under
            if kind == "neg":
                names, flip = sign(args[0])
                signs[name] = names, not flip
            elif kind in ("*", "/"):
                (na, fa), (nb, fb) = map(sign, args)
                signs[name] = na ^ nb, fa != fb
            elif kind == "abs":
                signs[name] = _NO_NAMES, False
            elif kind == "+" and args[0] == args[1]:
                signs[name] = sign(args[0])
            if kind == "abs" or (kind == "*" and args[0] == args[1]) or (
                kind in ("+", "*", "/") and all(map(nonnegative, args))
            ):
                non_negative.add(name)
                never_negative_zero.add(name)
            elif kind == "+" and any(map(never_minus_zero, args)):
                never_negative_zero.add(name)
            elif kind == "-" and (never_minus_zero(args[0]) or (
                args[1].__class__ is not str and not _positive_zero(args[1])
            )):
                never_negative_zero.add(name)
        return replaced, kept, assumed

    def _source(self, a):
        return a if a.__class__ is str else self.operand(a)

    def render(self, start=0, stop=None):
        """The source lines of the kept operations recorded from position
        start (see mark()) to stop, in order, with the checks simplify()
        added in blocks; a block's lines are indented under its header, up
        to a comparison that always leaves it."""
        stop = len(self.ops) if stop is None else stop
        checks = [(at, i) for i, (at, _, decline) in enumerate(self.checks)
                  if decline is not None and self.extra[i]]
        texts, depths = {}, {}

        def source(a):
            return f"({texts.pop(a)})" if a in texts else self._source(a)

        lines, indent, left = [], "", False
        for index, name, kind, template, args in self.kept:
            if not start <= index < stop:
                continue
            while checks and checks[0][0] <= index:
                at, i = checks.pop(0)
                if at >= start and not left:
                    lines.append(f"{indent}if not (_finite{i}): {self.checks[i][2]}")
            if kind == "block":
                lines.append(template)
                indent = "    "
            elif kind == "end" or kind == "line":
                lines += [] if left else [indent + line for line in template]
                if kind == "end":
                    indent, left = "", False
            elif not left:
                depth = 0
                if start <= self.inline.get(name, -1) < stop:
                    depth = 1 + max([depths[a] for a in args if a in texts], default=0)
                text = template.format(*map(source, args))
                if 0 < depth < _INLINE_DEPTH:
                    texts[name], depths[name] = text, depth
                else:
                    lines.append(indent + (text if name is None else f"{name} = {text}"))
                    left = kind == "break"
        return lines

    def resolve(self, text):
        """text, a caller's source, with each rewritten result replaced and
        each check() written out."""

        @functools.lru_cache(maxsize=None)
        def source(found):
            if found.startswith("_finite"):
                i = int(found[7:])
                values = [self.replaced.get(v.name, v.name) if v.__class__ is _Traced else v
                          for v in self.checks[i][1]] + self.extra[i]
                tested = [f"isfinite({self._source(v)})" for v in values
                          if v.__class__ is str or not math.isfinite(v)]
                return " and ".join(dict.fromkeys(tested)) or "True"
            written = self._source(self.replaced.get(found, found))
            return f"({written})" if written.startswith("-") else written

        return _RESULT_NAME.sub(lambda match: source(match.group()), text)

    def function(self, tail, namespace=(), declines=False):
        """Compile the recorded operations, then the lines tail, into one
        function (see generate()).

        Its arguments are those of inputs() and input(), in order; a sequence
        argument of the wrong length raises. tail reads the evaluation's
        values by operand() and ends the function, e.g. with a return, and
        makes its checks by check(); namespace holds the globals it needs
        besides _Deopt and isfinite. Where the evaluation raises (a _Deopt
        included), the function raises too, or returns None if it declines.
        """

        def write():
            body = [f"{target}= {arg}" for arg, target in self.arguments if target]
            body += self.render()
            body += tail
            if declines:
                body = ["try:", *(f"    {line}" for line in body), "except Exception:", "    return None"]
            return "\n    ".join(
                [f"def traced({', '.join(arg for arg, _ in self.arguments)}):", *body]
            )

        globals_ = {"_Deopt": _Deopt, "isfinite": math.isfinite, **dict(namespace)}
        return self.generate("traced", tail, (declines,), write, globals_)

    def generate(self, name, lines, frame, write, namespace):
        """The function name that the source write() returns defines, with
        namespace as its globals, the trace's non-finite constants added.

        write() runs after simplify(lines), and its source is resolve()d and
        compiled. It may read only the trace, lines and frame, a hashable of
        everything else it reads: the code is kept by the key of all three
        (see _key), and a later trace of the same key runs that code in its
        own namespace without simplify(), write() or resolve(), and is left
        unsimplified. The kept entry, (source, code, non-finite constants),
        holds nothing of namespace.
        """
        key = self._key(lines, frame)
        entry = _memo.get(key)
        if entry is None:
            self.simplify(lines)
            source = self.resolve(write())
            # render() and resolve() may bind constants of their own.
            entry = source, compile(source, "<string>", "exec"), dict(self.constants)
            with _memo_lock:
                if len(_memo) >= _MEMO_SIZE:
                    del _memo[next(iter(_memo))]
                _memo[key] = entry
        namespace.update(entry[2])
        exec(entry[1], namespace)
        # Popped, so that the function and its globals form no reference
        # cycle: it goes with its spec, system or run, not at the next
        # collection.
        return namespace.pop(name)

    def _key(self, lines, frame):
        """Everything of the trace that simplify(), render() and resolve()
        read, with lines and frame. A tuple compares its constants by ==,
        under which 1 == 1.0 and -0.0 == 0.0, so the key holds the classes of
        the constants and the bits of the floats among them too, a NaN's
        payload included. (A NaN operand hashes by its identity, so a trace
        that records one is compiled afresh each time.)"""
        checks = tuple([(at, tuple([v.name if v.__class__ is _Traced else v for v in values]), decline)
                        for at, values, decline in self.checks])
        constants = [a for op in self.ops for a in op[4] if a.__class__ is not str]
        constants += [v for _, values, _ in checks for v in values if v.__class__ is not str]
        constants += self.constants.values()
        return (
            tuple(self.ops), checks, frozenset(self.floats), frozenset(self.never_negative_zero),
            frozenset(self.non_negative), tuple(self.positions.items()), tuple(self.arguments),
            tuple(self.constants), tuple(lines), frame,
            tuple([c.__class__ for c in constants]),
            array("d", [c for c in constants if c.__class__ is float]).tobytes(),
            tuple([repr(c) for c in constants if c.__class__ is not float]),
        )


def _safe(op):
    """Whether op is an operation that cannot raise."""
    _, _, kind, _, args = op
    return kind in _PROPAGATING or kind == "/" and args[1].__class__ is not str and args[1] != 0.0


def _prune(kept, live):
    """kept without the operations whose results nothing in live or after
    them reads, except comparisons and operations that can raise."""
    out = []
    for op in reversed(kept):
        name = op[1]
        if name is None or name in live or not _safe(op):
            live.update(a for a in op[4] if a.__class__ is str)
            out.append(op)
    out.reverse()
    return out


def _implied(op):
    """The one name y that op reads, if its result is at most |y| in
    magnitude: op is -y, abs(y), y ± 0.0 or 0.0 ± y (a zero of either
    sign), y * c with |c| <= 1 or y / c with |c| >= 1, for a constant c. It
    is then finite wherever y is. None otherwise."""
    if op is None:
        return None
    _, _, kind, _, args = op
    named = [a for a in args if a.__class__ is str]
    if len(named) != 1 or not (kind in _PROPAGATING or kind == "/"):
        return None
    (y,) = named
    if kind in _UNARY:
        return y
    a, b = args
    c = b if a == y else a
    if kind == "*":
        return y if abs(c) <= 1.0 else None
    if kind == "/":
        return y if a == y and abs(c) >= 1.0 else None
    return y if c == 0.0 else None


class _Traced:
    """A float of an evaluation being traced: its value at the traced inputs
    and the local of the generated function that holds it.

    Arithmetic with floats, ints and other traced floats is recorded in the
    order the evaluation performs it, so the generated function repeats the
    evaluation's float operations exactly, up to the trace's simplification.
    A comparison is recorded as a guard: the generated function raises
    _Deopt where it comes out differently, or in a block leaves it where it
    comes out true (see _Trace). Any other use fails the trace.
    """

    __slots__ = ("trace", "name", "value")
    __hash__ = None

    def __init__(self, trace, name, value):
        self.trace = trace
        self.name = name
        self.value = value

    def _arithmetic(self, other, symbol, swapped):
        if other.__class__ is _Traced:
            value, key = other.value, other.name
        elif other.__class__ is float or other.__class__ is int:
            value = key = other
        else:
            return NotImplemented
        left, right = (value, self.value) if swapped else (self.value, value)
        try:
            result = _ARITHMETIC[symbol](left, right)
        except ArithmeticError:
            if self.trace.open is None:
                self.trace.raised = True
                raise
            result = math.nan
        args = (key, self.name) if swapped else (self.name, key)
        return self.trace.record(symbol, f"{{}} {symbol} {{}}", args, result)

    def _compare(self, other, symbol):
        if other.__class__ is _Traced:
            right, key = other.value, other.name
        elif other.__class__ in (float, int):
            right = key = other
        else:
            return NotImplemented
        return self.trace.compare(symbol, (self.name, key), _COMPARISONS[symbol](self.value, right))

    def __add__(self, other):
        return self._arithmetic(other, "+", False)

    def __radd__(self, other):
        return self._arithmetic(other, "+", True)

    def __sub__(self, other):
        return self._arithmetic(other, "-", False)

    def __rsub__(self, other):
        return self._arithmetic(other, "-", True)

    def __mul__(self, other):
        return self._arithmetic(other, "*", False)

    def __rmul__(self, other):
        return self._arithmetic(other, "*", True)

    def __truediv__(self, other):
        return self._arithmetic(other, "/", False)

    def __rtruediv__(self, other):
        return self._arithmetic(other, "/", True)

    def __neg__(self):
        return self.trace.record("neg", "-{}", (self.name,), -self.value)

    def __abs__(self):
        return self.trace.record("abs", "abs({})", (self.name,), abs(self.value))

    def __lt__(self, other):
        return self._compare(other, "<")

    def __le__(self, other):
        return self._compare(other, "<=")

    def __gt__(self, other):
        return self._compare(other, ">")

    def __ge__(self, other):
        return self._compare(other, ">=")

    def __eq__(self, other):
        return self._compare(other, "==")

    def __ne__(self, other):
        return self._compare(other, "!=")

    def __bool__(self):
        outcome = bool(self.value)
        self.trace.guard(f"if {'not ' if outcome else ''}{{}}: raise _Deopt", (self.name,))
        return outcome
