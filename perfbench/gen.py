"""Seeded input generator for the pipeline benchmark.

Writes a corpus in the Java subset that esdp reads, and beside it a record
of what every method must abstract to. The record is built while the text
is written, from the documented normalization rules, so it is a reference
made apart from the program:

* an imported type ``lib.net.Conn`` resolves to ``net.Conn``;
* a call on a variable of that type is ``MI conn.m(argtypes)``;
* a static call on the type is ``MI net.Conn.m(argtypes)``;
* literal arguments type as ``int``/``String``/``boolean``/``double``/
  ``null``, a variable argument as its resolved type, a call argument as
  ``unknown``;
* items of one statement line come in column order, and each statement
  sits on a line of its own;
* try/catch, switch and throw statements are skipped whole.

The vocabulary (types, idioms, method names) is fixed; the seed picks which
idioms each method uses, how they are nested and what noise surrounds them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# simple name -> package; every type is imported, so it resolves to the last
# two segments of its qualified name
PACKAGES = {
    "Conn": "lib.net", "Socket": "lib.net", "Buffer": "lib.io",
    "Reader": "lib.io", "Writer": "lib.io", "Session": "lib.db",
    "Cursor": "lib.db", "Db": "lib.db", "Log": "lib.util", "Config": "lib.util",
    "Timer": "lib.util", "Util": "lib.util", "Parser": "lib.text", "Node": "lib.text",
}


def resolved(simple: str) -> str:
    if simple in PACKAGES:
        return f"{PACKAGES[simple].rsplit('.', 1)[-1]}.{simple}"
    return simple


def receiver(type_name: str) -> str:
    """Receiver rendering of a variable of a (resolved) type."""
    simple = type_name.rsplit(".", 1)[-1]
    return simple[:1].lower() + simple[1:]


_LITERALS = {
    "int": lambda rng: str(rng.randint(0, 99)),
    "String": lambda rng: f'"s{rng.randint(0, 9)}"',
    "boolean": lambda rng: rng.choice(("true", "false")),
    "double": lambda rng: f"{rng.randint(0, 9)}.5",
    "null": lambda rng: "null",
    "char": lambda rng: "'a'",
}

# Idioms: steps over symbolic variables. A step is
#   ("new", var, Type, args)            Type v = new Type(args);
#   ("factory", var, Type, Static, m, args)   Type v = Static.m(args);
#   ("vcall", var, Type, recvvar, m, args)    Type v = recv.m(args);
#   ("call", var, m, args)              v.m(args);
#   ("set", var, field)                 v.field = 1;
#   ("static", Static, m, args)         Static.m(args);
#   ("while"|"if", var, pred, steps)    while (v.pred()) { steps }
#   ("for", steps)                      for (int i = 0; i < 3; i++) { steps }
#   ("array", var)                      int[] v = new int[4];
#   ("aset", var)                       v[i] = 1;
# A step wrapped as ("opt", p, step) is kept with probability p. An argument
# "@var" passes an idiom variable.
IDIOMS = [
    [("new", "c", "Conn", ["String"]), ("call", "c", "connect", ["int"]),
     ("call", "c", "send", ["String"]), ("opt", 0.6, ("call", "c", "flush", [])),
     ("call", "c", "close", [])],
    [("factory", "b", "Buffer", "Buffer", "allocate", ["int"]),
     ("for", [("call", "b", "put", ["int"])]), ("call", "b", "flip", []),
     ("opt", 0.5, ("call", "b", "remaining", [])), ("call", "b", "clear", [])],
    [("new", "r", "Reader", ["String"]),
     ("while", "r", "ready", [("call", "r", "readLine", []),
                              ("opt", 0.4, ("static", "Log", "debug", ["String"]))]),
     ("call", "r", "close", [])],
    [("factory", "s", "Session", "Db", "open", ["String"]),
     ("vcall", "k", "Cursor", "s", "query", ["String"]),
     ("while", "k", "next", [("call", "k", "getString", ["int"]),
                             ("opt", 0.5, ("call", "k", "getInt", ["int"]))]),
     ("call", "k", "close", []), ("opt", 0.7, ("call", "s", "commit", [])),
     ("call", "s", "close", [])],
    [("new", "w", "Writer", ["String"]), ("call", "w", "write", ["String"]),
     ("opt", 0.5, ("call", "w", "newLine", [])), ("call", "w", "flush", []),
     ("call", "w", "close", [])],
    [("new", "g", "Config", []), ("call", "g", "load", ["String"]),
     ("set", "g", "timeout"),
     ("if", "g", "has", [("call", "g", "get", ["String"])])],
    [("factory", "p", "Parser", "Parser", "create", []),
     ("call", "p", "setSource", ["String"]), ("call", "p", "setStrict", ["boolean"]),
     ("vcall", "n", "Node", "p", "parse", []), ("call", "n", "accept", ["null"])],
    [("new", "t", "Timer", []), ("call", "t", "start", []),
     ("opt", 0.5, ("static", "Log", "info", ["String"])), ("call", "t", "stop", []),
     ("call", "t", "elapsed", [])],
    [("new", "so", "Socket", ["String", "int"]), ("call", "so", "setTimeout", ["int"]),
     ("opt", 0.5, ("call", "so", "setLinger", ["boolean", "int"])),
     ("call", "so", "write", ["double"]), ("call", "so", "close", [])],
    [("array", "a"), ("for", [("aset", "a")]), ("static", "Util", "sum", ["@a"])],
]

IDIOM_WEIGHTS = [10, 8, 7, 6, 6, 5, 5, 4, 4, 3]

# variable types idioms declare, for the field/parameter promotion
_DECLARED = {"Conn", "Buffer", "Reader", "Session", "Writer", "Config", "Parser",
             "Timer", "Socket"}

NOISE_CALLS = 24       # Util.check0 .. Util.check23
METHOD_NAMES = ("run", "handle", "process", "load", "flush", "serve")


class _Method:
    """Writes one method. ``shape`` makes every choice that changes the
    method's items; ``rng`` picks literal values only."""

    def __init__(self, src: list[str], rng: random.Random, shape: random.Random,
                 fields: dict[str, str]):
        self.src = src
        self.rng = rng
        self.shape = shape
        self.fields = fields
        self.env = dict(fields)       # variable -> resolved type
        self.items: list[list] = []   # [line, kind, name]
        self.controls: list[list] = []  # [line, "IF" | "LOOP"]
        self.depth = 2
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def line(self, text: str, items: list[tuple[str, str]] = ()) -> int:
        """Append a statement line; returns its 1-based line number."""
        self.src.append("    " * self.depth + text)
        n = len(self.src)
        for kind, name in items:
            self.items.append([n, kind, name])
        return n

    def args(self, kinds: list[str], names: dict[str, str]) -> tuple[str, str]:
        texts, types = [], []
        for kind in kinds:
            if kind.startswith("@"):
                var = names[kind[1:]]
                texts.append(var)
                types.append(self.env[var])
            else:
                texts.append(_LITERALS[kind](self.rng))
                types.append(kind)
        return ", ".join(texts), ",".join(types)

    def noise(self) -> None:
        shape = self.shape
        r = shape.random()
        local = sorted(v for v, t in self.env.items() if "." in t and v not in self.fields)
        if r < 0.45:
            m = shape.randrange(NOISE_CALLS)
            text, types = self.args(["int"] if m % 2 else [], {})
            self.line(f"Util.check{m}({text});", [("MI", f"util.Util.check{m}({types})")])
        elif r < 0.6:
            text, types = self.args(["String"], {})
            self.line(f"Log.info({text});", [("MI", f"util.Log.info({types})")])
        elif r < 0.72:
            self.line('try { Util.check0(); } catch (Exception e) { Log.warn("x"); }')
        elif r < 0.82:
            self.line("switch (3) { case 1: Util.check1(1); break; default: break; }")
        elif r < 0.88:
            self.line('throw new IllegalStateException("never");')
        elif local:
            # nested call: the outer call's argument types as unknown
            var = shape.choice(local)
            rec = receiver(self.env[var])
            self.line(f"Log.trace({var}.toString());",
                      [("MI", "util.Log.trace(unknown)"), ("MI", f"{rec}.toString()")])
        else:
            self.line("Util.check2();", [("MI", "util.Util.check2()")])

    def steps(self, steps: list, names: dict[str, str]) -> None:
        rng, shape = self.rng, self.shape
        for step in steps:
            if step[0] == "opt":
                if shape.random() >= step[1]:
                    continue
                step = step[2]
            op = step[0]
            if op in ("new", "factory", "vcall", "array") and step[1] in names:
                continue  # promoted to a field or parameter: already bound
            if op == "new":
                _, var, tname, kinds = step
                v = names[var] = self.fresh(var)
                text, types = self.args(kinds, names)
                self.line(f"{tname} {v} = new {tname}({text});",
                          [("VD", resolved(tname)), ("CI", f"{resolved(tname)}({types})")])
                self.env[v] = resolved(tname)
            elif op == "factory":
                _, var, tname, static, m, kinds = step
                v = names[var] = self.fresh(var)
                text, types = self.args(kinds, names)
                self.line(f"{tname} {v} = {static}.{m}({text});",
                          [("VD", resolved(tname)), ("MI", f"{resolved(static)}.{m}({types})")])
                self.env[v] = resolved(tname)
            elif op == "vcall":
                _, var, tname, recv, m, kinds = step
                text, types = self.args(kinds, names)
                r = names[recv]
                v = names[var] = self.fresh(var)
                self.line(f"{tname} {v} = {r}.{m}({text});",
                          [("VD", resolved(tname)), ("MI", f"{receiver(self.env[r])}.{m}({types})")])
                self.env[v] = resolved(tname)
            elif op == "call":
                _, var, m, kinds = step
                r = names[var]
                text, types = self.args(kinds, names)
                self.line(f"{r}.{m}({text});", [("MI", f"{receiver(self.env[r])}.{m}({types})")])
            elif op == "set":
                _, var, fname = step
                r = names[var]
                self.line(f"{r}.{fname} = {rng.randint(1, 9)};",
                          [("FA", f"{receiver(self.env[r])}.{fname}")])
            elif op == "static":
                _, static, m, kinds = step
                text, types = self.args(kinds, names)
                self.line(f"{static}.{m}({text});", [("MI", f"{resolved(static)}.{m}({types})")])
            elif op in ("while", "if"):
                _, var, pred, body = step
                r = names[var]
                n = self.line(f"{op} ({r}.{pred}()) {{",
                              [("MI", f"{receiver(self.env[r])}.{pred}()")])
                self.controls.append([n, "LOOP" if op == "while" else "IF"])
                self.block(body, names)
            elif op == "for":
                i = self.fresh("i")
                n = self.line(f"for (int {i} = 0; {i} < 3; {i}++) {{", [("VD", "int")])
                self.controls.append([n, "LOOP"])
                self.env[i] = "int"
                self.block(step[1], names)
                del self.env[i]
            elif op == "array":
                v = names[step[1]] = self.fresh(step[1])
                self.line(f"int[] {v} = new int[4];", [("VD", "int[]"), ("AC", "int[]")])
                self.env[v] = "int[]"
            elif op == "aset":
                self.line(f"{names[step[1]]}[0] = 1;", [("AA", "int[]")])
            else:
                raise ValueError(f"unknown idiom step {op!r}")
            if shape.random() < 0.25:
                self.noise()

    def block(self, body: list, names: dict[str, str]) -> None:
        outer = dict(self.env)  # variables declared in the block end with it
        self.depth += 1
        self.steps(body, names)
        self.depth -= 1
        self.line("}")
        self.env = outer


def _plan_method(shape: random.Random, mix: list[int]) -> dict:
    """Structural choices of one method: where each idiom's object comes
    from, a guard parameter, a return type, leading noise."""
    idioms = []
    for idiom_index in mix:
        head = IDIOMS[idiom_index][0]
        source = "local"
        if head[0] in ("new", "factory") and head[2] in _DECLARED:
            r = shape.random()
            source = "field" if r < 0.15 else "param" if r < 0.4 else "local"
        idioms.append((IDIOMS[idiom_index], source))
    return {"idioms": idioms, "guard": shape.random() < 0.3,
            "ret": shape.choice(("int", "String", "Conn", "Buffer")) if shape.random() < 0.3
            else None, "lead_noise": shape.random() < 0.3}


def _write_file(rng: random.Random, index: int, plans: list[tuple[random.Random, dict]],
                out: Path, record: list[dict]) -> None:
    src: list[str] = []
    package = f"app.m{index % 10}"
    cls = f"C{index}"
    src.append(f"package {package};")
    for simple in sorted(PACKAGES):
        src.append(f"import {PACKAGES[simple]}.{simple};")
    src.append("")
    src.append(f"public class {cls} {{")
    fields: dict[str, str] = {}
    for _, plan in plans:
        for idiom, source in plan["idioms"]:
            if source == "field":
                fields[receiver(idiom[0][2]) + "Field"] = resolved(idiom[0][2])
    for fname in sorted(fields):
        src.append(f"    private {fields[fname].rsplit('.', 1)[-1]} {fname};")
    src.append("")
    names_used = rng.sample(METHOD_NAMES, len(plans)) if len(plans) <= len(METHOD_NAMES) \
        else [f"{METHOD_NAMES[j % len(METHOD_NAMES)]}{j}" for j in range(len(plans))]
    for mname, (shape, plan) in zip(names_used, plans):
        method = _Method(src, rng, shape, fields)
        params: list[tuple[str, str]] = []
        bound = []
        for idiom, source in plan["idioms"]:
            names: dict[str, str] = {}
            head = idiom[0]
            if source == "field":
                names[head[1]] = receiver(head[2]) + "Field"
            elif source == "param":
                pname = method.fresh(head[1] + "p")
                params.append((head[2], pname))
                names[head[1]] = pname
                method.env[pname] = resolved(head[2])
            bound.append((idiom, names))
        if plan["guard"]:
            params.append(("int", "n"))
        ret = plan["ret"]
        rtype_text = ret or "void"
        param_text = ", ".join(f"{t} {n}" for t, n in params)
        md_name = f"{mname}({','.join(resolved(t) for t, _ in params)}):{resolved(rtype_text)}"
        src.append(f"    {rtype_text} {mname}({param_text}) {{")
        if plan["lead_noise"]:
            method.noise()
        for idiom, names in bound:
            if plan["guard"] and shape.random() < 0.5:
                n = method.line("if (n > 0) {")
                method.controls.append([n, "IF"])
                method.block(idiom, names)
            else:
                method.steps(idiom, names)
        if ret:
            method.line("return null;", [("RT", resolved(ret))])
        src.append("    }")
        record.append({
            "sid": f"{package}.{cls}.{mname}()",
            "md": md_name,
            "items": method.items,
            "controls": method.controls,
        })
    src.append("}")
    (out / f"{cls}.java").write_text("\n".join(src) + "\n", encoding="utf-8")


def generate_corpus(out: Path, seed: int, files: int, methods: int,
                    without_idiom: int | None = None) -> list[dict]:
    """Write ``files`` source files of ``methods`` methods each under ``out``;
    return the per-method record. ``without_idiom`` leaves one idiom out.

    Every choice that changes a method's items comes from a draw fixed by
    the corpus size; the seed deals these methods out to files in its own
    order and picks method names and literal values. So every seed mines the
    same mix of idioms, and the amount of work varies little between seeds.
    """
    weights = [0 if i == without_idiom else w for i, w in enumerate(IDIOM_WEIGHTS)]
    base = f"{files}x{methods}-{without_idiom}"
    deal = random.Random(base)
    plans = []
    for k in range(files * methods):
        mix = deal.choices(range(len(IDIOMS)), weights=weights, k=deal.choice((1, 1, 2, 2, 3)))
        shape = random.Random(f"{base}-{k}")
        plans.append((shape, _plan_method(shape, mix)))
    rng = random.Random(seed)
    rng.shuffle(plans)
    out.mkdir(parents=True, exist_ok=True)
    record: list[dict] = []
    for index in range(files):
        _write_file(rng, index, plans[index * methods:(index + 1) * methods], out, record)
    return record


# --- query statements ------------------------------------------------------------

def generate_queries(seed: int, count: int) -> list[dict]:
    """Statements with their context and the item each must abstract to.

    The mix aims at every search tier: idiom heads and calls (tier 1), idiom
    tails asked for a longer list (tier 2), known calls with argument types
    the corpus never uses (tier 3, substring on the name), and names that
    match nothing.
    """
    rng = random.Random(seed)
    calls = []  # (simple type, method, arg kinds)
    for idiom in IDIOMS:
        kinds_of = {}
        for step in idiom:
            step = step[2] if step[0] == "opt" else step
            if step[0] in ("new", "factory", "vcall"):
                kinds_of[step[1]] = step[2]
            if step[0] == "call" and step[1] in kinds_of:
                calls.append((kinds_of[step[1]], step[2], step[3]))
            if step[0] in ("while", "if") and step[1] in kinds_of:
                calls.append((kinds_of[step[1]], step[2], []))
    heads = [step for step in (idiom[0] for idiom in IDIOMS) if step[0] in ("new", "factory")]
    queries = []
    for q in range(count):
        shape = q % 5
        if shape == 0:
            step = rng.choice(heads)
            tname = step[2]
            if step[0] == "new":
                args = ", ".join(_LITERALS[k](rng) for k in step[3])
                statement = f"{tname} x = new {tname}({args});"
            else:
                args = ", ".join(_LITERALS[k](rng) for k in step[5])
                statement = f"{tname} x = {step[3]}.{step[4]}({args});"
            imported = {tname, step[3]} if step[0] == "factory" else {tname}
            queries.append({"statement": statement, "vars": {},
                            "imports": sorted(f"{PACKAGES[t]}.{t}" for t in imported),
                            "item": ["VD", resolved(tname)], "top": 5})
            continue
        tname, m, kinds = rng.choice(calls)
        top = 5
        if shape == 3:
            kinds = ["double", "double"] if kinds != ["double", "double"] else ["char"]
        if shape == 2:
            top = 12
        if shape == 4:
            tname, m, kinds = "Zqx", rng.choice(("wobble", "frizz", "quux")), ["int"]
        types = ",".join(kinds)
        args = ", ".join(_LITERALS[k](rng) for k in kinds)
        queries.append({"statement": f"v.{m}({args});", "vars": {"v": tname},
                        "imports": [f"{PACKAGES[tname]}.{tname}"] if tname in PACKAGES else [],
                        "item": ["MI", f"{receiver(tname)}.{m}({types})"], "top": top})
    return queries


def write_inputs(out: Path, seed: int, files: int, methods: int, queries: int = 0,
                 without_idiom: int | None = None) -> dict:
    """Corpus under ``out/corpus`` plus ``out/record.json``; returns the record."""
    record = {
        "seed": seed,
        "methods": generate_corpus(out / "corpus", seed, files, methods, without_idiom),
        "queries": generate_queries(seed, queries) if queries else [],
    }
    (out / "record.json").write_text(json.dumps(record), encoding="utf-8")
    return record
