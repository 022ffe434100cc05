"""Seeded synthetic corpus for the robustness-scale workload.

Each parent is a C program of loops, conditions and ``a[i][j]`` accesses. Its
mutant comes from ``specforge.mutation.mutate`` and is written with a mutant
``origin`` in ``meta.json``. Every program gets three baseline replies: the
program with ACSL blocks inserted between its lines. The generator records
what it inserted, so the benchmark can check the pipeline's census,
preservation verdicts, lint findings and spec similarity against these
records instead of against the code under test.

Per parent, exactly one of its six replies (three for the parent, three for
the mutant) edits one code token, and exactly one puts ``loop variant``
before ``loop assigns``. The seed chooses which.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Bound at import, so generating inputs in a traced run records no spans.
from specforge.model import SourceProgram
from specforge.mutation import mutate

SAMPLES = 3
MIN_LINES = 50
MAX_LINES = 800
# Clauses in the first function's contract per program line: ~2k at 800 lines.
CONTRACT_CLAUSES_PER_LINE = 2.5

Clause = tuple[str, str]  # (keyword, clause text without the closing ';')


@dataclass
class _Loop:
    var: str
    bound: str
    assigned: str
    indent: str


@dataclass
class _Function:
    name: str
    inner_loop: bool
    while_loop: bool
    writes_global: bool
    behaviors: bool
    extra_requires: int
    loops: list[tuple[int, _Loop]] = field(default_factory=list)  # (line index, loop)
    header_line: int = 0
    return_line: int = 0
    init_line: int = 0  # "int s = 0;", the token a non-preserving reply edits


@dataclass
class Expected:
    """What one reply carries, as inserted by the generator."""

    census: dict[str, int]
    preserved: bool
    lint_rules: list[str]
    clauses: list[str]  # normalized "keyword text" strings, for spec similarity


@dataclass
class Parent:
    name: str
    lines: int
    mutation_seed: int
    mutant_name: str
    mutant_source: str
    replies: dict[str, list[Expected]]  # program name -> per-sample expectations
    similarity: float  # expected mean spec similarity over the sample pairs


def sizes(count: int) -> list[int]:
    """Program lengths spread geometrically from MIN_LINES to MAX_LINES."""
    ratio = MAX_LINES / MIN_LINES
    return [round(MIN_LINES * ratio ** (k / (count - 1))) for k in range(count)]


def _function_lines(rng: random.Random, fn: _Function, out: list[str]) -> None:
    c1, c2 = rng.randrange(3, 40), rng.randrange(5, 60)
    fn.header_line = len(out)
    out.append(f"int {fn.name}(int n, int a[N][N], int b[N]) {{")
    fn.init_line = len(out)
    out.append("    int s = 0;")
    out.append(f"    int t = {c1};")
    fn.loops.append((len(out), _Loop("i", "n", "i, s, t", "    ")))
    out.append("    for (int i = 0; i < n; i++) {")
    out.append(f"        if (b[i] > t && i < {c2}) {{")
    out.append("            s = s + b[i];")
    out.append("        } else {")
    out.append("            t = t - 1;")
    out.append("        }")
    if fn.inner_loop:
        fn.loops.append((len(out), _Loop("j", "n", "j, s, t", "        ")))
        out.append("        for (int j = 0; j < n; j++) {")
        out.append("            if (a[i][j] <= s || j >= i) {")
        out.append("                s = s - a[i][j];")
        out.append("            } else {")
        out.append("                t = t + a[j][i];")
        out.append("            }")
        out.append("        }")
    out.append("    }")
    if fn.while_loop:
        fn.loops.append((len(out), _Loop("t", "LIMIT", "t, s", "    ")))
        out.append("    while (t > 0 && s < LIMIT) {")
        out.append("        t = t - 2;")
        out.append("        s = s + t;")
        out.append("    }")
    if fn.writes_global:
        out.append("    g_total = g_total + s;")
    fn.return_line = len(out)
    out.append("    return s + t;")
    out.append("}")
    out.append("")


def _program(rng: random.Random, name: str, target: int) -> tuple[list[str], list[_Function]]:
    lines = [
        f"/* synthetic program {name} */",
        "#define N 64",
        "#define LIMIT 1000",
        "",
        "int g_total;",
        "",
    ]
    functions: list[_Function] = []
    extra = max(0, round(target * CONTRACT_CLAUSES_PER_LINE) - 4)
    while len(lines) < target:
        # Function shapes cycle rather than being drawn, so programs of one
        # length cost the same whatever the seed; the seed sets the constants,
        # the mutation and which replies are edited or reordered.
        k = len(functions)
        fn = _Function(
            name=f"f{k}",
            inner_loop=k % 4 != 3,
            while_loop=k % 2 == 0,
            writes_global=k % 2 == 1,
            behaviors=k % 5 in (0, 2),
            extra_requires=extra if not functions else 0,
        )
        _function_lines(rng, fn, lines)
        functions.append(fn)
    return lines, functions


def _contract(fn: _Function, drift: bool) -> list[Clause]:
    clauses: list[Clause] = [("requires", "0 <= n <= N")]
    clauses += [
        ("requires", f"b[{m % 64}] <= LIMIT + {m}") for m in range(fn.extra_requires)
    ]
    clauses.append(("assigns", "g_total" if fn.writes_global else "\\nothing"))
    clauses.append(("ensures", "\\result >= -LIMIT - 1" if drift else "\\result >= -LIMIT"))
    if fn.behaviors:
        clauses += [
            ("behavior", "empty"),
            ("assumes", "n == 0"),
            ("ensures", "\\result >= 0"),
            ("behavior", "full"),
            ("assumes", "n > 0"),
            ("ensures", "\\result <= N * LIMIT"),
        ]
    return clauses


def _loop_clauses(loop: _Loop, sample: int, drift: bool, swapped: bool) -> list[Clause]:
    slack = f" + {sample}" if sample else ""
    invariant = f"0 <= {loop.var} <= {loop.bound}{slack}" + (" + 1" if drift else "")
    assigns = ("loop assigns", loop.assigned)
    variant = ("loop variant", f"{loop.bound} - {loop.var}")
    tail = [variant, assigns] if swapped else [assigns, variant]
    return [("loop invariant", invariant), *tail]


def _render_block(indent: str, clauses: list[Clause]) -> list[str]:
    out = []
    in_behavior = False
    for i, (keyword, text) in enumerate(clauses):
        lead = f"{indent}/*@ " if i == 0 else f"{indent}  @ "
        if keyword == "behavior":
            in_behavior = True
            out.append(f"{lead}behavior {text}:")
        else:
            nest = "  " if in_behavior else ""
            out.append(f"{lead}{nest}{keyword} {text};")
    out.append(f"{indent}*/")
    return out


def _reply(
    lines: list[str],
    functions: list[_Function],
    sample: int,
    drift_until: int,
    edit: bool,
    swap_loop: tuple[int, int] | None,
) -> tuple[str, Expected]:
    """Annotated program text for one sample plus what it carries."""
    inserts: dict[int, list[str]] = {}
    clauses: list[Clause] = []
    loop_number = 0
    for f_index, fn in enumerate(functions):
        contract = _contract(fn, drift=f_index < drift_until)
        clauses += contract
        inserts.setdefault(fn.header_line, []).extend(_render_block("", contract))
        for l_index, (line_no, loop) in enumerate(fn.loops):
            block = _loop_clauses(
                loop,
                sample,
                drift=loop_number < drift_until,
                swapped=swap_loop == (f_index, l_index),
            )
            loop_number += 1
            clauses += block
            inserts.setdefault(line_no, []).extend(_render_block(loop.indent, block))
        asserted = ("assert", "s + t <= 2 * N * LIMIT")
        clauses.append(asserted)
        inserts.setdefault(fn.return_line, []).append(f"    //@ {asserted[0]} {asserted[1]};")

    body = list(lines)
    if edit:
        target = functions[-1].init_line
        body[target] = body[target].replace("int s = 0;", "int s = 2;")
    out: list[str] = []
    for index, line in enumerate(body):
        out.extend(inserts.get(index, ()))
        out.append(line)
    expected = Expected(
        census=dict(Counter(keyword for keyword, _ in clauses)),
        preserved=not edit,
        lint_rules=["variant_before_assigns"] if swap_loop is not None else [],
        clauses=[" ".join(f"{k} {t}".split()) for k, t in clauses],
    )
    return "\n".join(out), expected


def _jaccard(a: list[str], b: list[str]) -> float:
    ca, cb = Counter(a), Counter(b)
    return sum((ca & cb).values()) / sum((ca | cb).values())


def _reply_text(program: str, code: str) -> str:
    return (
        f"Contracts for every function of {program}, with an invariant, an assigns "
        "clause and a variant for each loop.\n\n```c\n" + code + "\n```\n"
    )


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def generate(root: Path, seed: int, parents: int) -> list[Parent]:
    """Write ``root/corpus`` and ``root/fixtures``; return what was inserted."""
    rng = random.Random(seed)
    made: list[Parent] = []
    for index, target in enumerate(sizes(parents)):
        name = f"p{index:02d}"
        lines, functions = _program(rng, name, target)
        source = "\n".join(lines)
        mutation_seed = rng.randrange(1 << 30)
        mutant, _ = mutate(SourceProgram(name=name, source=source), mutation_seed)
        mutant_lines = mutant.source.split("\n")
        if len(mutant_lines) != len(lines):
            raise RuntimeError(f"mutant of {name} changed the line count")

        cells = [(program, s) for program in (name, mutant.name) for s in range(SAMPLES)]
        edited = rng.choice(cells)
        swapped = rng.choice(cells)
        f_swap = rng.randrange(len(functions))
        swap_loop = (f_swap, rng.randrange(len(functions[f_swap].loops)))

        replies: dict[str, list[Expected]] = {}
        for program, program_lines in ((name, lines), (mutant.name, mutant_lines)):
            replies[program] = []
            for sample in range(SAMPLES):
                code, expected = _reply(
                    program_lines,
                    functions,
                    sample,
                    drift_until=sample + 1 if program == mutant.name else 0,
                    edit=(program, sample) == edited,
                    swap_loop=swap_loop if (program, sample) == swapped else None,
                )
                replies[program].append(expected)
                _write(
                    root / "fixtures" / program / "baseline" / f"{sample}.txt",
                    _reply_text(program, code),
                )
        pairs = zip(replies[name], replies[mutant.name])
        similarity = sum(_jaccard(a.clauses, b.clauses) for a, b in pairs) / SAMPLES

        _write(root / "corpus" / name / "program.c", source)
        _write(
            root / "corpus" / name / "meta.json",
            json.dumps({"entry_function": "f0", "provenance": "synthetic"}),
        )
        _write(root / "corpus" / mutant.name / "program.c", mutant.source)
        _write(
            root / "corpus" / mutant.name / "meta.json",
            json.dumps(
                {
                    "entry_function": "f0",
                    "provenance": "synthetic",
                    "origin": mutant.origin.to_dict(),
                }
            ),
        )
        made.append(
            Parent(
                name=name,
                lines=len(lines),
                mutation_seed=mutation_seed,
                mutant_name=mutant.name,
                mutant_source=mutant.source,
                replies=replies,
                similarity=similarity,
            )
        )
    return made
