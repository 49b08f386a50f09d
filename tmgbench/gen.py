"""Seeded mini-C generators for the tmg benchmark workloads.

Each generator draws from two random streams. `shape` fixes the logical
program: statements, guards, constants, loop bounds and input domains.
`surface` varies what does not change the analysis work: identifier
names and which extern call an arm makes. A
workload whose shape stream is fixed therefore costs the same for every
`--seed`, while the bytes the program sees still differ per seed. (Even
the if/else orientation is shape: swapping arms under a complemented
guard moved solver propagations on `loops` by -17% to +39% for the same
logical program.)

All inputs are `__input(lo, hi)` globals with small domains and every
local is initialised, so the reference interpreter can brute-force each
function exactly.
"""

import random

OP_COSTS = (3, 5, 11)  # distinct primes: different call mixes price apart
CMPS = ("==", "!=", "<", "<=", ">", ">=")


def _externs():
    return "".join(f"extern void op{i}(void) __cost({c});\n"
                   for i, c in enumerate(OP_COSTS))


def _name(surface: random.Random) -> str:
    return "".join(surface.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def _if_else(ind, guard, then_text, else_text=None):
    out = f"{ind}if ({guard}) {{\n{then_text}"
    if else_text is not None:
        out += f"{ind}}} else {{\n{else_text}"
    return out + f"{ind}}}\n"


# ------------------------------------------------------------------ loops
def loops_program(shape: random.Random, surface: random.Random,
                  functions: int, bound: int, branches: int, lo: int,
                  hi: int) -> str:
    """The m-shape: per function one `__loopbound(bound)` while-loop holding
    `branches` input-dependent if/else, then one post-loop if. Each
    function reads three inputs of its own (two in [lo, hi], the trip
    count in [0, bound])."""
    decls, bodies = [_externs()], []
    for k in range(functions):
        p = _name(surface) + str(k)  # the index keeps names distinct
        a, b, n = p + "_a", p + "_b", p + "_n"
        decls.append(f"__input({lo}, {hi}) int {a};\n"
                     f"__input({lo}, {hi}) int {b};\n"
                     f"__input(0, {bound}) int {n};\n")
        body = [f"void {p}_m(void)\n{{\n  int i = 0;\n"
                f"  int acc = 0;\n  __loopbound({bound}) while (i < {n}) {{\n"]
        for _ in range(branches):
            x = shape.choice((a, b))
            y = shape.choice(("acc", "i", a if x == b else b))
            guard = (f"{x} {shape.choice(('+', '-'))} {y} "
                     f"{shape.choice(CMPS[2:])} {shape.randint(lo // 2, hi // 2)}")
            then_op, else_op = surface.sample(range(len(OP_COSTS)), 2)
            body.append(_if_else(
                "    ", guard,
                f"      acc += {shape.randint(1, 3)};\n      op{then_op}();\n",
                f"      acc -= {shape.randint(1, 2)};\n      op{else_op}();\n"))
        body.append("    i += 1;\n  }\n")
        body.append(_if_else("  ", f"acc > {shape.randint(-2, 4)}",
                             "    op2();\n", "    op0();\n"))
        bodies.append("".join(body) + "}\n")
    return "\n".join(decls) + "\n" + "\n".join(bodies)


# ----------------------------------------------------------------- corpus
class _Small:
    """One small fuzz-style program: switch with fallthrough, do-while,
    bounded for loops, nested ifs, &&/|| guards, tiny input domains. The
    structural path estimate stays under `max_paths` (drafts over budget
    are redrawn), which keeps enumeration complete downstream; nesting
    stays at `max_depth` because cost rises super-linearly with it."""

    def __init__(self, shape, surface, max_depth, max_paths,
                 max_input_product=64):
        self.r, self.surface = shape, surface
        self.max_depth, self.max_paths = max_depth, max_paths
        self.max_input_product = max_input_product

    def build(self) -> str:
        while True:
            src = self._draft()
            if src is not None:
                return src

    def _draft(self):
        r, prefix = self.r, _name(self.surface)
        self.paths, self.dowhiles, self.counters = 1, [], []
        header, product, self.inputs = [], 1, []
        for i in range(1 + r.randrange(3)):
            lo, width = r.randint(-2, 1), r.randint(1, 3)
            if product * (width + 1) > self.max_input_product:
                break
            product *= width + 1
            header.append(f"__input({lo}, {lo + width}) int {prefix}{i};\n")
            self.inputs.append(f"{prefix}{i}")
        self.locals = [f"x{i}" for i in range(1 + r.randrange(3))]
        decls = "".join(f"  int {v} = {r.randint(-2, 3)};\n" for v in self.locals)
        body = "".join(self._stmt(1, False) for _ in range(2 + r.randrange(4)))
        if self.paths > self.max_paths:
            return None
        counters = "".join(f"  int {d} = 0;\n" for d in self.dowhiles)
        return ("".join(header) + _externs() +
                f"\nvoid {_name(self.surface)}(void)\n{{\n" +
                decls + counters + body + "}\n")

    def _var(self, in_loop):
        return self.r.choice(self.inputs + self.locals +
                             (self.counters if in_loop else []))

    def _expr(self, depth, in_loop):
        r = self.r
        if depth >= 2 or r.random() < 0.45:
            return str(r.randint(-4, 7)) if r.random() < 0.3 else self._var(in_loop)
        if r.random() < 0.12:
            return (f"({self._expr(depth + 1, in_loop)} "
                    f"{r.choice(('<<', '>>'))} {r.randint(0, 3)})")
        # No `*`, `/` or `%`: a bit-blasted multiplier or divider makes one
        # program cost more than the rest of the batch together.
        return (f"({self._expr(depth + 1, in_loop)} "
                f"{r.choice(('+', '-', '&', '|', '^'))} "
                f"{self._expr(depth + 1, in_loop)})")

    def _cmp(self, in_loop):
        return (f"{self._expr(1, in_loop)} {self.r.choice(CMPS)} "
                f"{self._expr(1, in_loop)}")

    def _guard(self, in_loop):
        if self.r.random() < 0.25:
            return (f"({self._cmp(in_loop)}) {self.r.choice(('&&', '||'))} "
                    f"({self._cmp(in_loop)})")
        return self._cmp(in_loop)

    def _block(self, depth, in_loop):
        """Returns (text, structural paths) of a 1..2 statement block."""
        saved, self.paths = self.paths, 1
        text = "".join(self._stmt(depth, in_loop)
                       for _ in range(1 + self.r.randrange(2)))
        block_paths, self.paths = self.paths, saved
        return text, block_paths

    def _stmt(self, depth, in_loop) -> str:
        r, ind, roll = self.r, "  " * depth, self.r.random()
        if depth < self.max_depth and roll < 0.22:
            guard = self._guard(in_loop)
            then_text, then_p = self._block(depth + 1, in_loop)
            else_text, else_p = None, 1
            if r.random() < 0.5:
                else_text, else_p = self._block(depth + 1, in_loop)
            self.paths *= then_p + else_p
            return _if_else(ind, guard, then_text, else_text)
        if depth < self.max_depth and roll < 0.30:
            return self._switch(depth, in_loop)
        if not in_loop and depth < 2 and roll < 0.42:
            return self._loop(depth, do_while=False)
        if not in_loop and depth < 2 and roll < 0.50:
            return self._loop(depth, do_while=True)
        if roll < 0.64:
            return f"{ind}op{self.surface.randrange(len(OP_COSTS))}();\n"
        target = r.choice(self.locals + (self.inputs if r.random() < 0.2 else []))
        op = "+=" if r.random() < 0.3 else "="
        return f"{ind}{target} {op} {self._expr(0, in_loop)};\n"

    def _switch(self, depth, in_loop) -> str:
        r, ind = self.r, "  " * depth
        out = [f"{ind}switch ({self._var(in_loop)}) {{\n"]
        cases, label = 2 + r.randrange(2), r.randint(-2, 0)
        arm_paths, breaks = [], []
        for c in range(cases + 1):
            default = c == cases
            out.append(f"{ind}  " +
                       ("default: {\n" if default else f"case {label}: {{\n"))
            label += 1 + r.randint(0, 1)
            text, paths = self._block(depth + 2, in_loop)
            out.append(text)
            arm_paths.append(paths)
            brk = default or r.random() >= 0.2  # occasional fallthrough
            breaks.append(brk)
            out.append(f"{ind}    break;\n{ind}  }}\n" if brk else f"{ind}  }}\n")
        total = 0
        for k in range(len(arm_paths)):
            chain = 1
            for j in range(k, len(arm_paths)):
                chain *= arm_paths[j]
                if breaks[j]:
                    break
            total += chain
        self.paths *= total
        return "".join(out) + f"{ind}}}\n"

    def _loop(self, depth, do_while) -> str:
        # Loops never nest, so sequential for loops can all use i0.
        ind, bound = "  " * depth, 1 + self.r.randrange(3)
        if do_while:
            v = f"d{len(self.dowhiles)}"
            self.dowhiles.append(v)
            head = f"{ind}__loopbound({bound}) do {{\n"
        else:
            v = "i0"
            head = (f"{ind}__loopbound({bound}) for (int {v} = 0; "
                    f"{v} < {bound}; {v} += 1) {{\n")
        self.counters.append(v)
        text, body_paths = self._block(depth + 1, True)
        self.counters.pop()
        tail = (f"{ind}  {v} += 1;\n{ind}}} while ({v} < {bound});\n"
                if do_while else f"{ind}}}\n")
        total, power = (0 if do_while else 1), 1
        for _ in range(bound):
            power *= body_paths
            total += power
        self.paths *= total
        return head + text + tail


def small_program(shape: random.Random, surface: random.Random,
                  max_depth: int, max_paths: int) -> str:
    return _Small(shape, surface, max_depth, max_paths).build()
