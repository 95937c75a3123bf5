"""A generative oracle for the extractor: a hypothesis strategy that writes a
compilation unit of the Java subset together with the items and control
markers ``extract_items`` must return for it, by rules of its own, as
``perfbench/gen.py`` does:

* A type imported once (``import a.b.C;``) renders as ``b.C``, any other as
  written; generic arguments are dropped, and each ``[]`` or ``...`` adds a
  dimension.
* A variable is known from its declaration on, in its block; a ``var``
  local has its initializer's type, and a ``var`` loop variable unknown. The
  receiver name of a type is its simple name in lower camel case and one
  ``Array`` per dimension. A receiver renders as its variable's type's
  receiver name, or as its type, resolved; an unqualified call and one
  through ``this.`` as the class in lower camel case, ``super.`` as
  ``super``, ``this.f`` as field ``f``'s type, a creation or a string
  literal as its type's receiver name, and any other, or a call or a
  class literal, as ``unknown``.
* An argument types as its first operand with what follows it: a literal,
  variable, creation or ``this`` as its type, an index as the element type,
  a class literal as Class, an upper-case constant as int and anything
  else, a call or a lambda among them, as unknown. A numeric literal is
  int, or long with 'L' (``10L``); a hex one (``0xFF``) too; a decimal one
  with a point or an exponent (``1e5``, ``.5``, ``1e+5``) is double, and
  float with 'f' (``2.5f``, ``1.f``, ``1.5e-3f``); so is a hex one with a
  'p' exponent (``0x1p3`` double, ``0x1.8p-2f`` float).
* A lambda's block body, written as an argument, records its items in the
  method around it; a ``return`` in it names the type unknown. Its
  parameters, which may take a field's name, are of unknown type unless
  declared with one, up to the end of the lambda. An array initializer,
  bare in a declarator or after ``new T[]``, records the items of its
  elements.
* ``final`` and annotations on a local, a loop variable or a local class
  give no item.
* Items come in the order of the token each starts at, with its line: a type
  declaration at its name, a member or a local at its type, a call or a field
  write at its receiver, a creation at ``new``, and a call, a field write or
  an index after a call or a creation at its '.' or '['. A local class's TD
  sits in the class of its method; its members run under it.
* ``try``/``catch``/``finally``, ``switch``, ``throw`` and ``synchronized``
  statements, and anonymous class bodies, give no item and no marker.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

from hypothesis import strategies as st

LABEL = "Gen.java"
SKIPPED = frozenset("try catch finally switch throw synchronized".split())
# the forms beside items, markers and skipped statements that a unit records
# writing: the primaries selectors follow, and the locals and lambda
# parameters bound by what they read
FORMS = frozenset(("call on creation", "call on string", "field after call", "index after call",
                   "class literal", "var local", "var loop variable", "shadowing lambda",
                   "signed exponent", "hex exponent", "point at an end"))

# simple name -> the two packages it may be imported from
_PACKAGES = {
    "Conn": ("lib.net", "alt.db"), "Buffer": ("lib.io", "java.nio"),
    "Reader": ("java.io", "lib.text"), "List": ("java.util", "java.awt"),
    "Map": ("java.util", "lib.col"), "Log": ("org.slf4j", "lib.util"),
}
_IMPORTABLE = sorted(_PACKAGES)
_PLAIN = ("Widget", "Item", "String", "T")  # never imported
_QUALIFIED = ("a.b.Qual", "java.util.Collections")
_PRIMITIVES = ("int", "boolean", "double", "long", "char", "float")
_METHODS = ("run", "get", "open", "close", "put", "size")
_UNBOUND = ("ctx", "mystery")  # lower-case names no declaration binds
_CONSTANTS = ("MAX", "Lim.MAX_SIZE", "K_2")
_OPERATORS = (" + ", " < ", " == ", " && ", " - ", " != ", " ? ")
_LITERALS = (("0", "int"), ("42", "int"), ("0xFF", "int"), ("10L", "long"), ("1.5", "double"),
             ("1e5", "double"), ("2.5f", "float"), ("1.5e-3f", "float"), ("1e+5", "double"),
             ("0x1p3", "double"), ("0x1.8p-2f", "float"), (".5", "double"), ("1.", "double"),
             ("1.f", "float"), ('"s"', "String"),
             ('"a;{b}\\"c"', "String"), ("'c'", "char"), ("'{'", "char"),
             ("true", "boolean"), ("false", "boolean"), ("null", "null"))  # null last
_LITERAL_FORMS = {"1.5e-3f": "signed exponent", "1e+5": "signed exponent",
                  "0x1p3": "hex exponent", "0x1.8p-2f": "hex exponent",
                  ".5": "point at an end", "1.": "point at an end", "1.f": "point at an end"}
# the kinds of members, statements (at the innermost depth, those that nest
# no statement), expression statements and receivers, each dealt from a deck
_MEMBERS = ("method", "method", "field", "constructor", "constructor this",
            "constructor super", "class")
_LEAF_STATEMENTS = ("simple", "simple", "declaration", "return")
_STATEMENTS = _LEAF_STATEMENTS + ("if", "while", "do", "for", "foreach", "block", "class",
                                  "try", "switch", "throw", "synchronized")
_SIMPLE = ("call", "call", "field", "array", "new")
_RECEIVERS = ("variable", "static", "unbound", "this", "this field", "super")
_WRITE_RECEIVERS = _RECEIVERS + ("call",)
_CALL_RECEIVERS = _RECEIVERS + ("unqualified", "creation", "string")
_CLASS_NESTING = 3  # classes nested in one another, local and anonymous ones included
_LOCAL_MODIFIERS = ("final ", "@Ann ", '@SuppressWarnings("u") ')
# what may stand between two tokens; a comment may hold braces and keywords
_GAPS = (" ", " ", " ", "\n", "\n    ", " /* { class */ ", " // } if;\n")
# statement templates: 'E' an expression, 'H' one without '{', 'B' a block or a
# simple statement, 'K' a block, 'C' a simple statement, 'S' a statement, and
# any other part its text; a skipped statement takes one of its forms
_CONTROL = {"if": ("if (", "E", ") ", "B"), "while": ("while (", "E", ") ", "B"),
            "do": ("do ", "B", " while (", "E", ");"), "block": ("K",)}
_SKIPPED_FORMS = {
    "try": (("try ", "K", " catch (IOException x) ", "K", " finally ", "K"),
            ("try ", "K", " finally ", "K"),
            ("try ", "K", " catch (IOException | Oops x) ", "K", " catch (Oops y) ", "K")),
    "switch": (("switch (", "H", ") {\n      default: ", "S", "\n    }"),
               ("switch (", "H", ") {\n      case 1: ", "C", ' break;\n      case "a": ', "C",
                " break;\n      default: ", "S", "\n    }")),
    "throw": (("throw new Oops(", "H", ");"),),
    "synchronized": (("synchronized (", "H", ") ", "K"),),
}


class Unit(NamedTuple):
    source: str
    items: list[tuple[str, str, str, int]]  # (kind, name, enclosing, line)
    markers: list[tuple[str, str, int]]  # (label, enclosing, line)
    # skipped statement keywords and FORMS written outside skipped text
    written: frozenset[str]


class _Class(NamedTuple):
    name: str
    fields: dict[str, str]  # field name -> type, as declared so far


def _receiver_name(ty: str) -> str:
    simple = ty.replace("[]", "").rsplit(".", 1)[-1]
    return simple[:1].lower() + simple[1:] + "Array" * ty.count("[]")


class _Writer:
    """Writes one unit, each choice read from a byte string; once it runs out
    every choice is the first, which writes nothing optional, so a shorter
    string writes a smaller unit. Items and markers are recorded under ``enc``
    at the offset of their token, and not while ``silent`` (in skipped text)."""

    def __init__(self, choices: bytes):
        self.choices, self.read = choices, 0
        self.scale = 1 + self.upto(2)  # see java_units
        self.parts: list[str] = []
        self.at = self.count = self.silent = 0  # at: the offset of the next character
        self.no_braces = 0  # in a skipped statement's head, which holds no '{'
        self.lambdas = 0  # block lambdas being written; one holds no other
        self.enc = LABEL
        # (at, kind, name, enc) of each item, (at, label, enc) of each marker
        self.rows, self.marks, self.written = [], [], set()
        self.imports: dict[str, str] = {}  # simple name -> its rendering
        self.scopes: list[dict[str, str]] = []  # variable -> type
        self.classes: list[_Class] = []
        self.returns: list[str] = []
        self.decks: dict[tuple, list] = {}

    # --- drawing and writing -------------------------------------------------

    def upto(self, n: int) -> int:
        if self.read >= len(self.choices):
            return 0
        self.read += 1
        return self.choices[self.read - 1] % (n + 1)

    def pick(self, options):
        return options[self.upto(len(options) - 1)]

    def chance(self, tenths: int) -> bool:
        """True with about tenths/10 probability; shrinks to False."""
        return self.upto(9) >= 10 - tenths

    def deal(self, options: tuple):
        """One of options, dealt from a deck refilled when empty, so n deals of n
        options give each; in skipped text, which records nothing, any one."""
        if self.silent:
            return self.pick(options)
        deck = self.decks.get(options)
        if not deck:
            deck = self.decks[options] = list(options)
        return deck.pop(self.upto(len(deck) - 1))

    def fresh(self, base: str) -> str:
        self.count += 1
        return f"{base}{self.count}"

    def put(self, *texts: str) -> None:
        for text in texts:
            self.parts.append(text)
            self.at += len(text)

    def item(self, kind: str, name: str, enc: str = "", at: int = -1) -> None:
        if not self.silent:
            self.rows.append((self.at if at < 0 else at, kind, name, enc or self.enc))

    def mark(self, label: str) -> None:
        if not self.silent:
            self.marks.append((self.at, label, self.enc))

    def wrote(self, *forms: str) -> None:
        if not self.silent:
            self.written.update(forms)

    @contextmanager
    def scope(self, cls: str = "", enc: str = ""):
        """What the block binds, and the path its items are recorded under; a
        class's block binds its fields."""
        outer = self.enc
        self.scopes.append({})
        self.enc = enc or outer
        if cls:
            self.classes.append(_Class(cls, self.scopes[-1]))
        yield
        if cls:
            self.classes.pop()
        self.scopes.pop()
        self.enc = outer

    # --- names and types -----------------------------------------------------

    def render(self, written: str) -> str:
        base = written.split("<", 1)[0].replace("[]", "")
        return self.imports.get(base, base) + "[]" * written.count("[]")

    def variables(self, want: str = "") -> list[tuple[str, str]]:
        """The variables in scope, (name, type) by name: all, or of an array
        type, or of any type but a primitive one."""
        seen = {name: ty for scope in self.scopes for name, ty in scope.items()}
        return [(name, ty) for name, ty in sorted(seen.items())
                if want != "array" or ty.endswith("[]")
                if want != "object" or ty not in _PRIMITIVES]

    def class_type(self) -> str:
        return self.pick(_IMPORTABLE + list(_PLAIN + _QUALIFIED)
                         + ["List<String>", "Map<String, List<Integer>>"])

    def local_type(self) -> str:
        return self.pick(list(_PRIMITIVES) + [self.class_type()]) + "[]" * self.pick((0, 0, 1, 2))

    def modifiers(self, options) -> None:
        for _ in range(self.upto(2)):
            self.put(self.pick(options), self.pick(_GAPS))

    # --- declarations --------------------------------------------------------

    def unit(self) -> Unit:
        self.put("/* header { */\n" if self.chance(2) else "")
        package = self.pick(("p", "com.acme", "org.x.y")) if self.chance(7) else ""
        if package:
            self.item("PD", package)
            self.put("package ", package, ";\n")
        self.enc = package or LABEL
        lines = []
        for simple in _IMPORTABLE:
            how, (first, second) = self.pick((0, 1, 1, 2, "*")), _PACKAGES[simple]
            if how == "*":
                lines.append(f"{first}.*")
            else:
                lines += [f"{first}.{simple}", f"{second}.{simple}"][:how]
                if how == 1:
                    self.imports[simple] = f"{first.rsplit('.', 1)[-1]}.{simple}"
        for qualified in sorted(lines, key=lambda _: self.upto(7)):  # shuffled
            self.item("ID", qualified)
            self.put("import ", qualified, ";\n")
        for _ in range(1 + self.upto(1)):
            self.put("\n")
            self.type_decl(self.enc, depth=1)
        source = "".join(self.parts) + "\n"

        def line(at: int) -> int:
            return source.count("\n", 0, at) + 1

        rows = sorted(self.rows, key=lambda row: row[0])
        return Unit(source, [(kind, name, enc, line(at)) for at, kind, name, enc in rows],
                    [(label, enc, line(at)) for at, label, enc in self.marks],
                    frozenset(self.written))

    def type_decl(self, declared_in: str, depth: int, local: bool = False) -> None:
        """A class or interface, its TD under declared_in."""
        interface = self.chance(2)
        self.modifiers(("abstract ", "@Deprecated ") + _LOCAL_MODIFIERS if local else (
            "public ", "abstract ", "final ", "static ", "@Deprecated ", '@SuppressWarnings("x") '))
        name = self.fresh("Cls")
        path = f"{self.enc}.{name}"
        self.put("interface" if interface else "class", self.pick(_GAPS))
        self.item("TD", name, declared_in)
        self.put(name, self.pick(("", "", "<T>", "<K, V>", "<T extends Comparable<T>>")))
        supers = [("extends", "II", 2)] if interface else [("extends", "SC", 1),
                                                           ("implements", "II", 2)]
        for keyword, kind, most in supers:
            if self.chance(4):
                self.put(" ", keyword, " ")
                for k in range(1 + self.upto(most - 1)):
                    written = self.pick(_IMPORTABLE + ["Base<String>", "a.b.Qual", "Item"])
                    self.item(kind, self.render(written), path, self.at + 2 * (k > 0))
                    self.put(", " * (k > 0), written)
        self.put(" {")
        with self.scope(name, path):
            for _ in range(self.scale - 1 + self.upto(3)):
                self.put("\n  ")
                self.member(interface, depth)
        self.put("\n}")

    def member(self, interface: bool, depth: int) -> None:
        kind = self.deal(_MEMBERS)
        if kind == "class" and depth > 0 and not self.silent:
            self.type_decl(self.enc, depth - 1)
        elif kind == "field":
            self.modifiers(("private ", "static ", "final ", "public ", "transient ", "@Inject "))
            self.declarators(self.local_type(), "FD")
        else:
            self.method(kind if kind.startswith("constructor") and not interface else "method",
                        interface)

    def declarators(self, written: str, kind: str) -> None:
        """'written name[dims] [= init], ...;', its item naming the first declarator's type."""
        rendered = self.render(written)
        names = [(self.fresh("f" if kind == "FD" else "v"), self.pick((0, 0, 0, 1)))
                 for _ in range(1 + self.upto(1))]
        self.item(kind, rendered + "[]" * names[0][1])
        self.put(written, " ")
        for k, (name, dims) in enumerate(names):
            self.put(", " * (k > 0), name, "[]" * dims)
            self.scopes[-1][name] = rendered + "[]" * dims
            array_dims = written.count("[]") + dims
            if array_dims and self.chance(3):
                self.put(" = ")
                self.initializer(array_dims, 1)
            else:
                self.template((" = ", "E") if self.chance(5) else (), 0)
        self.put(";")

    def params(self) -> tuple[str, list[str]]:
        """A parameter list's text and each parameter's type, each bound."""
        texts, types = [], []
        for _ in range(self.upto(2)):
            written, name = self.local_type(), self.fresh("p")
            shape = self.pick(("{} {}", "{} {}", "{}... {}", "{} {}[]"))
            texts.append(self.pick(("", "", "final ", '@Named ')) + shape.format(written, name))
            types.append(self.render(written) + "[]" * (shape != "{} {}"))
            self.scopes[-1][name] = types[-1]
        return ", ".join(texts), types

    def method(self, kind: str, interface: bool) -> None:
        """A method, or a constructor, whose body may start with this() or super()."""
        ctor = kind != "method"
        self.modifiers(("public ", "protected ", "@Inject ") if ctor else (
            "public ", "static ", "final ", "synchronized ", "@Override "))
        self.put("<T> " if self.chance(1 if ctor else 2) else "")
        at = self.at
        if ctor:
            name, returns, suffix = self.classes[-1].name, "void", ""
            self.put(name, "(")
        else:
            written = self.pick(("void", "void", self.local_type()))
            name, returns = self.pick(_METHODS), self.render(written)
            suffix = f":{returns}"
            self.put(written, " ", name, "(")
        with self.scope():
            text, types = self.params()
            self.item("MD", f"{name}({','.join(types)}){suffix}", at=at)
            self.put(text, ")")
            if not ctor and self.chance(2):
                self.put(self.pick((" throws IOException", " throws IOException, Oops")))
            if not ctor and (interface or self.chance(1)):
                self.put(";")
            else:
                self.body(f"{self.enc}.{name}()", returns, kind.partition(" ")[2])

    def body(self, enc: str, returns: str, keyword: str) -> None:
        self.returns.append(returns)
        self.put(" {")
        with self.scope(enc=enc):
            if keyword:
                at = self.at + 5  # after the line break
                self.put("\n    ", keyword)
                kind, types = "CTI" if keyword == "this" else "SCI", self.args(1)
                self.item(kind, f"{keyword}({','.join(types)})", at=at)
                self.put(";")
            self.statements(3, self.scale - 1)
        self.put("\n  }")
        self.returns.pop()

    # --- statements ----------------------------------------------------------

    def statements(self, depth: int, least: int = 0) -> None:
        for _ in range(least + self.upto(3)):
            self.put(self.pick(("\n    ", "\n    ", " ")))
            self.statement(depth)

    def block(self, depth: int) -> None:
        self.put("{")
        with self.scope():
            self.statements(depth - 1)
        self.put("\n    }")

    def template(self, parts: tuple, depth: int) -> None:
        for part in parts:
            if part in ("E", "H"):
                self.no_braces += part == "H"
                self.expr(2)
                self.no_braces -= part == "H"
            elif part == "B" and not self.chance(7):
                self.put("\n      ")
                self.simple_statement()
            elif part in ("B", "K"):
                self.block(depth)
            elif part == "C":
                self.simple_statement()
            elif part == "S":
                self.statement(depth - 1)
            else:
                self.put(part)

    def statement(self, depth: int) -> None:
        kind = self.deal(_STATEMENTS if depth > 0 else _LEAF_STATEMENTS)
        if kind == "simple":
            self.simple_statement()
        elif kind == "declaration":
            self.modifiers(_LOCAL_MODIFIERS)
            if self.chance(2):  # 'var name = value;', of the value's type
                self.wrote("var local")
                at, name = self.at, self.fresh("v")
                self.put("var ", name, " = ")
                ty = self.scopes[-1][name] = self.operand(1, True)
                self.item("VD", ty, at=at)
                self.put(";")
            else:
                self.declarators(self.local_type(), "VD")
        elif kind == "return":
            self.item("RT", self.returns[-1])
            self.template(("return ", "E", ";") if self.chance(6) else ("return;",), 0)
        elif kind in _CONTROL:
            if kind != "block":
                self.mark("IF" if kind == "if" else "LOOP")
            self.template(_CONTROL[kind], depth)
            for _ in range(self.upto(2) if kind == "if" else 0):  # else if, else
                if not self.chance(5):
                    self.template((" else ", "B"), depth)
                    break
                self.put(" else ")
                self.mark("IF")
                self.template(_CONTROL["if"], depth)
        elif kind in ("for", "foreach"):
            self.mark("LOOP")
            self.put("for (")
            with self.scope():  # its variables end with the loop
                if kind == "foreach":
                    written, name = self.pick(("int", "var", self.class_type())), self.fresh("e")
                    rendered = "unknown" if written == "var" else self.render(written)
                    if written == "var":
                        self.wrote("var loop variable")
                    self.modifiers(_LOCAL_MODIFIERS)
                    self.item("VD", rendered)
                    self.template((f"{written} {name} : ", "E"), 0)
                    self.scopes[-1][name] = rendered
                elif self.chance(7):
                    self.modifiers(_LOCAL_MODIFIERS)
                    self.declarators(self.pick(("int", "long", self.class_type())), "VD")
                else:
                    self.put(";")
                if kind == "for":
                    self.template(self.pick(((" ", "E", "; ", "E"), (";",))), 0)
                self.template((") ", "B"), depth)
        elif kind == "class" and len(self.classes) < _CLASS_NESTING:
            self.type_decl(self.enc.rpartition(".")[0], depth=0, local=True)
        elif kind == "class":
            self.put(";")
        else:  # skipped whole: what it declares binds nothing
            form = self.pick(_SKIPPED_FORMS[kind])
            if not self.silent:
                self.written |= SKIPPED.intersection(" ".join(form).split())
            self.silent += 1
            with self.scope():
                self.template(form, depth)
            self.silent -= 1

    def simple_statement(self) -> None:
        """An expression statement: a call, a write or a creation."""
        kind = self.deal(_SIMPLE)
        if kind == "call":
            self.call(2)
        elif kind == "field":
            # a write 'receiver.field = value': its FA names the receiver
            rendered, at = self.receiver(_WRITE_RECEIVERS, 1)
            field = self.pick(("count", "next", "value"))
            self.item("FA", f"{rendered}.{field}", at=at)
            self.template((f"{field} = ", "E"), 0)
        elif kind == "array":
            self.index(1)
            self.template(self.pick(((" = ", "E"), ("[", "E", "] = ", "E"))), 0)
        else:
            self.creation(2)
        self.put(";")

    # --- expressions ---------------------------------------------------------

    def expr(self, depth: int) -> str:
        """Operands joined by operators; the type of the first operand."""
        ty = self.operand(depth)
        for _ in range(self.upto(2) if depth > 0 else 0):
            self.put(self.pick(_OPERATORS))
            self.operand(depth - 1)
        return ty

    def args(self, depth: int) -> list[str]:
        """'(' arguments ')' and each argument's type."""
        self.put("(")
        types = []
        for k in range(self.upto(3) if depth > 0 else 0):
            self.put(self.pick((", ", ",\n        ")) if k else "")
            if self.no_braces or self.lambdas or not self.chance(1):
                types.append(self.expr(depth - 1))
            else:
                types.append(self.block_lambda())
        self.put(")")
        return types

    def block_lambda(self) -> str:
        """A lambda whose block body holds statements that nest none; its
        type. A parameter may take the name of a field, which it hides."""
        fields = sorted(self.classes[-1].fields)
        with self.scope():
            names = [self.pick(fields) if fields and self.chance(3) else self.fresh("x")
                     for _ in range(self.upto(2))]
            if set(names) & set(fields):
                self.wrote("shadowing lambda")
            typed = len(names) == 1 and self.chance(3)
            written = self.class_type() if typed else ""
            for name in names:
                self.scopes[-1][name] = self.render(written) if typed else "unknown"
            if typed:
                self.put(f"({written} {names[0]}) -> ")
            else:
                self.put(names[0] if len(names) == 1 and self.chance(5)
                         else f"({', '.join(names)})", " -> ")
            self.lambdas += 1
            self.returns.append("unknown")
            self.block(1)
            self.returns.pop()
            self.lambdas -= 1
        return "unknown"

    def operand(self, depth: int, initial: bool = False) -> str:
        """An operand, and its type; a var local's initial value is neither
        null nor a class literal."""
        kinds = ["literal", "literal", "variable", "variable", "constant", "unbound", "this",
                 "class"][:7 if initial else 8]
        kind = self.pick(kinds + ["call", "call", "new", "index"] * (depth > 0))
        if kind == "class":
            self.wrote("class literal")
            self.put(self.pick(_IMPORTABLE + list(_PLAIN + _QUALIFIED)), ".class")
            return "Class"
        if kind == "call":
            self.call(depth)
            return "unknown"
        if kind == "new":
            return self.creation(depth)
        if kind == "index":
            return self.index(depth)
        text, ty = (self.pick(self.variables()) if kind == "variable" and self.variables()
                    else (self.pick(_CONSTANTS), "int") if kind == "constant"
                    else (self.pick(_UNBOUND), "unknown") if kind == "unbound"
                    else ("this", self.classes[-1].name) if kind == "this"
                    else self.pick(_LITERALS[:-1] if initial else _LITERALS))
        if text in _LITERAL_FORMS:
            self.wrote(_LITERAL_FORMS[text])
        self.put(text)
        return ty

    def index(self, depth: int) -> str:
        """An index into an array, its AA naming the array's type (after a
        call, at its '[', an unknown array's); the element type."""
        if depth > 0 and self.chance(2):
            self.wrote("index after call")
            self.call(depth - 1)
            self.item("AA", "unknown[]")
            self.template(("[", "E", "]"), 0)
            return "unknown"
        arrays = self.variables("array")
        name, ty = self.pick(arrays) if arrays and self.chance(7) else (
            self.pick(_UNBOUND), "unknown[]")
        self.item("AA", ty)
        self.template((f"{name}[", "E", "]"), 0)
        return ty[:-2]

    def receiver(self, kinds: tuple, depth: int, call: bool = False) -> tuple[str, int]:
        """Write a receiver chain and its '.' (for a call, maybe type
        arguments after it); its rendering, and the offset of the item of
        the member after it: the chain's, or after a call or a creation its
        '.''s. An unqualified call's receiver writes nothing."""
        at, kind, objects = self.at, self.deal(kinds), self.variables("object")
        written, chained = "", False
        if kind == "creation":
            self.wrote("call on creation")
            rendered, chained = _receiver_name(self.creation(depth, "class")), True
        elif kind == "call":
            self.wrote("field after call")
            self.call(depth)
            rendered, chained = "unknown", True
        elif kind == "string":
            self.wrote("call on string")
            written, rendered = self.pick(('"s"', '"a;{b}\\"c"')), "string"
        elif kind == "variable" and objects:
            written, ty = self.pick(objects)
            rendered = _receiver_name(ty)
        elif kind == "static":
            written = self.pick(_IMPORTABLE + list(_PLAIN[:2] + _QUALIFIED)
                                + [c.name for c in self.classes])
            rendered = self.imports.get(written, written)
        elif kind == "unqualified":
            return _receiver_name(self.classes[-1].name), at
        elif kind in ("this", "super"):
            written = kind
            rendered = "super" if kind == "super" else _receiver_name(self.classes[-1].name)
        elif kind == "this field":
            # the class's own fields, which no local or parameter hides
            fields = [(name, ty) for name, ty in sorted(self.classes[-1].fields.items())
                      if ty not in _PRIMITIVES]
            if fields and self.chance(7):
                name, ty = self.pick(fields)
                written, rendered = f"this.{name}", _receiver_name(ty)
            else:
                written, rendered = f"this.{self.pick(_UNBOUND)}", "unknown"
        else:
            written, rendered = self.pick(_UNBOUND), "unknown"
        self.put(written, "\n        " if self.chance(1) else "")  # the chain may break
        at = self.at if chained else at
        self.put(".", self.pick(("<T>", "<K, V>")) if call and self.chance(1) else "")
        return rendered, at

    def call(self, depth: int) -> None:
        rendered, at = self.receiver(_CALL_RECEIVERS, depth, call=True)
        name = self.pick(_METHODS)
        self.put(name)
        types = self.args(depth)
        self.item("MI", f"{rendered}.{name}({','.join(types)})", at=at)
        while self.chance(2):  # a call on the value before it, its receiver unknown
            self.put(self.pick(_GAPS) if self.chance(3) else "")
            at, name = self.at, self.pick(_METHODS)
            self.put(".", "<T>" if self.chance(1) else "", name)
            types = self.args(depth - 1)
            self.item("MI", f"unknown.{name}({','.join(types)})", at=at)

    def creation(self, depth: int, kind: str = "") -> str:
        """A creation, of a class or an array, or of the kind given; its type."""
        at = self.at
        if not kind and self.no_braces:
            kind = self.pick(("class", "sized array"))
        elif not kind:
            kind = self.deal(("class", "class", "sized array", "anonymous", "initialized array"))
            if kind == "anonymous" and len(self.classes) >= _CLASS_NESTING:
                kind = "class"
        self.put("new ")
        if kind in ("class", "anonymous"):
            written = self.pick(_IMPORTABLE + ["Widget", "a.b.Qual", "Item<String>", "List<>"])
            rendered = self.render(written)
            self.put(written)
            types = self.args(depth)
            if kind == "class":
                self.item("CI", f"{rendered}({','.join(types)})", at=at)
                return rendered
            self.item("ACD", rendered, at=at)
            self.put(" {\n  ")
            self.silent += 1  # an anonymous class body gives no item
            with self.scope(self.fresh("Anon")):
                self.member(False, 0)
            self.silent -= 1
            self.put(" }")
            return rendered
        written = self.pick(("int", "Widget", "Conn", "double"))
        dims = 1 + self.upto(2)
        self.put(written)
        if kind == "sized array":
            sized = 1 + self.upto(dims - 1)
            self.template(("[", "E", "]") * sized + ("[]" * (dims - sized),), 0)
        else:
            self.put("[]" * dims, " ")
            self.initializer(dims, depth)
        self.item("AC", self.render(written) + "[]" * dims, at=at)
        return self.render(written) + "[]" * dims

    def initializer(self, dims: int, depth: int) -> None:
        """An array initializer: '{' elements '}', nested once per dimension."""
        self.put("{" * dims)
        for k in range(self.upto(2)):
            self.put(", " * (k > 0))
            self.expr(depth - 1)
        self.put("}" * dims)


def java_units(min_choices: int = 256) -> st.SearchStrategy[Unit]:
    """Compilation units of the Java subset, each with the items and markers
    it abstracts to, in order, written from min_choices to 4096 more choices.
    A class holds scale - 1 members and a method body scale - 1 statements,
    and up to 3 more, for a scale drawn from 1 to 3."""
    return st.binary(min_size=min_choices, max_size=min_choices + 4096).map(
        lambda choices: _Writer(choices).unit())
