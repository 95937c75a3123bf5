"""Lex and parse a Java-syntax subset into the abstracted item stream.

The grammar subset covers declarations, statements and expressions enough
to produce all 17 item kinds plus if/loop control markers. Anything else
(try/switch/throw/...) is skipped without error. Name resolution is an
import-table lookup only: a simple type name imported as ``a.b.c.D`` is
rendered ``c.D``; unknown names are kept as written.

Each primary of an expression is read with the selectors after it, in one
loop. A primary's value renders as a receiver and has a type:

* a variable: its type's receiver name (``items.receiver_name``: the simple
  name in lower camel case and one ``Array`` per dimension), and its type;
* a name called, ``m(...)``: the enclosing class in lower camel case;
* any other name, with the dotted names after it that no call or '='
  follows: a path, rendered as written (one imported name resolved) once a
  segment is capitalized or when it is one name of an enclosing class, and
  else ``unknown``; it has type int if it ends in a CONSTANT;
* ``this``: the enclosing class, and a field of it read first the field's
  declared type; ``super``: ``super``;
* a creation or a literal: its type; a parenthesized expression: its
  content's type, rendered ``unknown``.

Each selector then does one thing: ``.m(args)`` emits an MI, ``.f =`` an FA
(the '=' left to the expression), ``.f`` reads a field, ``.class`` has type
Class, and ``[...]`` with the groups right after it emits one AA of the
value's type if that is an array type, else of ``unknown[]``, and has the
element type. After a selector the value renders as ``unknown`` and, but for
those two, has type ``unknown``. So an argument is typed by its whole chain.
A ``var`` local has its initializer's value type, and a ``var`` loop
variable ``unknown``.

A '{' inside an expression opens a group read to its '}'. After '->' it is
a lambda's block body, read as a block: its items join the enclosing
method's, as an expression lambda's do, and a ``return`` in it has type
``unknown``. Anywhere else (an array initializer, bare or after
``new T[]``, or a switch expression's cases) it is read as an expression.
An anonymous class body after ``new T(...)`` is skipped whole. A lambda's
parameters are bound from its '->' to the end of the expression around it,
each to its declared type or to ``unknown``, and a lambda has type
``unknown``.

The lexer is one regex ``findall`` over the source; its tokens are flat
parallel lists (texts, kinds, start offsets), which the parser reads
through one index. A token's line and column are computed from its start
offset only where something needs them: an emitted item, a control marker
or an ``UnparsableSource``.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .items import ControlMarker, SourceItem, lower_camel, receiver_name


class UnparsableSource(ValueError):
    """Lexical failure, unbalanced braces, nesting beyond MAX_NESTING or a
    corpus file that is not UTF-8; never raised for merely unrecognized
    statement forms."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} at {line}:{column}")
        self.message = message
        self.line = line
        self.column = column


KEYWORDS = frozenset(
    """package import class interface enum extends implements
    public private protected static final abstract native transient
    volatile strictfp synchronized if else for while do return new this
    super try catch finally switch case default break continue throw
    throws void int long short byte char boolean float double null true
    false instanceof assert goto const""".split()
)

MODIFIERS = frozenset(
    """public private protected static final abstract native transient
    volatile strictfp synchronized""".split()
)

PRIMITIVE_TYPES = frozenset(
    "void int long short byte char boolean float double".split()
)

# statement-leading keywords outside the supported subset; skipped whole
_SKIP_STMT_KEYWORDS = frozenset(
    "try catch finally switch case default throw break continue assert synchronized".split()
)

_MULTI_PUNCT = (
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->", "::",
)
_SINGLE_PUNCT = "{}()[];,.<>=+-*%!&|^?:@~"  # and '/' when no '*' follows

# Bound on the parse methods active at once (statements, expressions,
# argument lists, type declarations). Each takes at most four Python
# frames, so deeper input ends in UnparsableSource well before the
# interpreter's default recursion limit of 1000.
MAX_NESTING = 200

_CONST_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

# scan_expression's stops: its terminators and the closers at its level
_CLOSERS = frozenset((")", "]", "}", ""))
_TO_SEMICOLON = _CLOSERS | {";"}
_TO_COMMA = _CLOSERS | {","}
_TO_EITHER = _TO_SEMICOLON | _TO_COMMA

# the type a literal reads as, keyed by token kind, or by text for a keyword
_LITERAL_TYPES = {"str": "String", "char": "char", "true": "boolean", "false": "boolean",
                  "null": "null"}

# a decimal literal's type by its last character, lower-cased
_NUMBER_SUFFIXES = {"l": "long", "f": "float", "d": "double"}


def _number_type(text: str) -> str:
    """The type of a numeric literal: a hex or binary integer is int, or
    long with 'L'; any other is long, float or double by its suffix, else
    double with a point or an exponent (a hex one's 'p'), else int."""
    text = text.lower()
    if text.startswith(("0x", "0b")) and "p" not in text:
        return "long" if text[-1] == "l" else "int"
    return _NUMBER_SUFFIXES.get(text[-1]) or (
        "double" if "." in text or "e" in text or "p" in text else "int")


_LEX_ERRORS = {
    "/*": "unterminated comment",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}

# --- lexer ---------------------------------------------------------------------

_SKIP = r"(?:[ \t\f\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)*"
_skip = re.compile(_SKIP).match

# a token's kind by its first character, an ident when absent; then by its
# whole text, a kw for a keyword and punct for '.' (a number may start '.5')
_FIRST_KINDS = {**dict.fromkeys(_SINGLE_PUNCT + "/", "punct"),
                **dict.fromkeys("0123456789.", "num"), '"': "str", "'": "char"}
_TEXT_KINDS = {**dict.fromkeys(KEYWORDS, "kw"), ".": "punct"}
_BRACE_DELTAS = {"{": 1, "}": -1}


@functools.lru_cache(maxsize=64)
def _lexer(digits: str, non_digits: str) -> tuple:
    r"""The scan (``findall``) of the source into rows, and the kind of a
    token by its first character. A row is a token with the blanks and
    comments after it, and the token's text.

    Regex ``\w`` is exactly ``str.isalnum`` or '_', and ``\d`` exactly
    ``str.isdecimal``. A number starts on any ``str.isdigit`` character and
    an identifier on any ``str.isalpha`` one, so the non-ASCII digits ('²')
    and the other numeric non-letters ('½') present in the source are named
    explicitly. A bad token (an unterminated comment or literal, any other
    character) matches outside the text's group, which then reads ''.
    """
    digit = rf"[\d{digits}]"
    pattern = re.compile("((?:(" + "|".join((
        rf"(?:[^\W\d{digits}{non_digits}]|\$)[\w$]*",
        # punctuation; a '.' before a digit starts a number
        "|".join(map(re.escape, _MULTI_PUNCT))
        + f"|[{re.escape(_SINGLE_PUNCT.replace('.', ''))}]|/(?!\\*)|\\.(?!{digit})",
        # a number (JLS 3.10.1-2): a hex one may have a signed 'p' exponent,
        # a decimal one a '.' before, inside or after its digits and a
        # signed 'e' exponent
        rf"0[xX][\w.]*(?:(?<=[pP])[+-]{digit}\w*)?",
        rf"(?:{digit}\w*(?:\.\w*)?|\.{digit}\w*)(?:(?<=[eE])[+-]{digit}\w*)?",
        r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"',
        r"'[^'\\]*(?:\\[\s\S][^'\\]*)*'",
    )) + rf")|/\*|[\s\S]){_SKIP})")
    return pattern.findall, {**_FIRST_KINDS, **dict.fromkeys(digits, "num")}


def _lexer_for(source: str) -> tuple:
    if source.isascii():
        return _lexer("", "")
    numeric = sorted(c for c in set(source)
                     if c.isnumeric() and not c.isascii() and not c.isalpha())
    return _lexer("".join(c for c in numeric if c.isdigit()),
                  "".join(c for c in numeric if not c.isdigit()))


class Tokens:
    """The tokens of one source as parallel lists: ``texts``, ``kinds``
    (ident | kw | num | str | char | punct | eof) and ``starts``, offsets
    into the source. The last token is eof, at the end of the source; its
    text '' is the only empty one. Lines and columns are 1-based, columns
    counting characters."""

    __slots__ = ("texts", "kinds", "starts", "_source", "_line_starts")

    def __init__(self, source: str, texts: list[str], kinds: list[str], starts: list[int]):
        self.texts, self.kinds, self.starts = texts, kinds, starts
        self._source = source
        self._line_starts: list[int] | None = None

    def __len__(self) -> int:
        return len(self.texts)

    def line_starts(self) -> list[int]:
        """The offset of each line's start, in order; computed once."""
        if self._line_starts is None:
            self._line_starts = list(accumulate(
                map((1).__add__, map(len, self._source.split("\n"))), initial=0))
        return self._line_starts

    def lines(self, indexes: Iterable[int]) -> Iterator[int]:
        """The line of each token in indexes."""
        return map(bisect_right, repeat(self.line_starts()), map(self.starts.__getitem__, indexes))

    def position(self, i: int) -> tuple[int, int]:
        line_starts = self.line_starts()
        line = bisect_right(line_starts, self.starts[i])
        return line, self.starts[i] - line_starts[line - 1] + 1


def tokenize(source: str) -> Tokens:
    """The tokens of source, ending in one eof token; UnparsableSource at
    the first bad token."""
    scan, first_kinds = _lexer_for(source)
    first = _skip(source).end()
    rows = scan(source, first)
    texts = list(map(itemgetter(1), rows))
    # a row runs to the next token, the last one to the end: eof's start
    starts = list(accumulate(map(len, map(itemgetter(0), rows)), initial=first))
    del rows
    if "" in texts:  # a bad token; the first raises
        bad = texts.index("")
        at = starts[bad]
        text = "/*" if source.startswith("/*", at) else source[at]
        raise UnparsableSource(_LEX_ERRORS.get(text, f"illegal character {text!r}"),
                               *Tokens(source, texts, [], starts).position(bad))
    kinds = list(map(_TEXT_KINDS.get, texts,
                     map(first_kinds.get, map(itemgetter(0), texts), repeat("ident"))))
    texts.append("")
    kinds.append("eof")
    return Tokens(source, texts, kinds, starts)


def _check_braces(tokens: Tokens) -> None:
    depths = list(accumulate(map(_BRACE_DELTAS.get, tokens.texts, repeat(0))))
    if min(depths) < 0:
        raise UnparsableSource("unbalanced '}'", *tokens.position(depths.index(-1)))
    if depths[-1]:
        # the innermost brace left open: the last '{' to reach the final depth
        last = max(i for i, text in enumerate(tokens.texts)
                   if text == "{" and depths[i] == depths[-1])
        raise UnparsableSource("unbalanced '{'", *tokens.position(last))


class _Extractor:
    """Recursive-descent reader with one method per construct.

    The cursor ``i`` indexes the token lists, read directly. Punctuation and
    keywords are recognised by their text alone: an ident is never a
    keyword, literals start with a quote or a digit, and only eof has the
    text ''. Token kinds are tested only to tell idents and literals apart.

    An item or a control marker is recorded as a row that leads with the
    index of the token its construct starts at; extract_items turns the
    rows into records, the lines of all their tokens found in one pass.
    Each parse method that nests (statements, expressions, argument lists,
    type declarations) counts itself in ``depth`` on entry, raising
    ``nesting_error()`` past MAX_NESTING, and uncounts itself on leaving; a
    raise abandons the whole parse.
    """

    def __init__(self, tokens: Tokens, file_label: str,
                 context_vars: dict[str, str] | None = None):
        self.texts, self.kinds = tokens.texts, tokens.kinds
        self.position = tokens.position
        self.i = 0
        self.file_label = file_label or "<memory>"
        self.package = ""
        self.imports: dict[str, str] = {}       # simple name -> "seg.Class"
        self._import_seen: set[str] = set()     # simple names, incl. ambiguous
        self.scopes: list[dict[str, str]] = [dict(context_vars or {})]
        self.class_stack: list[str] = []
        self.class_fields: list[dict[str, str]] = []  # the field scope of each class
        self.return_types: list[str] = []
        self.receivers: dict[str, str] = {}  # declared type -> its variable as receiver
        self.out: list[tuple[int, str, str, str]] = []  # (at, kind, name, enclosing)
        self.markers: list[tuple[int, str, str]] = []       # (at, label, enclosing)
        self.depth = 0  # parse methods active; see MAX_NESTING

    # --- token cursor -----------------------------------------------------

    def accept(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def advance(self) -> str:
        """Step over the current token unless it is eof; its text."""
        text = self.texts[self.i]
        if text:
            self.i += 1
        return text

    def nesting_error(self) -> UnparsableSource:
        return UnparsableSource(f"nesting deeper than {MAX_NESTING}", *self.position(self.i))

    # --- emit helpers -----------------------------------------------------

    def emit(self, kind: str, name: str, enclosing: str, at: int) -> None:
        self.out.append((at, kind, name, enclosing))

    def emit_call(self, recv: str, method: str, start: int, enclosing: str) -> None:
        """Read the argument list of recv.method(...) and emit the call."""
        args = self.parse_args(enclosing)
        self.emit("MI", f"{recv}.{method}({','.join(args)})", enclosing, start)

    # --- scope / resolution -----------------------------------------------

    def bind(self, name: str, type_text: str) -> None:
        self.scopes[-1][name] = type_text

    def lookup(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def resolve_type(self, written: str) -> str:
        """Import-table lookup for simple names; qualified names kept as written."""
        base, suffix = written, ""
        while base.endswith("[]"):
            base, suffix = base[:-2], suffix + "[]"
        if "." not in base and base in self.imports:
            return self.imports[base] + suffix
        return written

    def current_class(self) -> str:
        return self.class_stack[-1] if self.class_stack else "unknown"

    # --- compilation unit ---------------------------------------------------

    def parse_unit(self) -> None:
        texts = self.texts
        if texts[self.i] == "package":
            start = self.i
            self.i += 1
            self.package = self.parse_qualified_name()
            self.accept(";")
            self.emit("PD", self.package, self.file_label, start)
        while texts[self.i] == "import":
            start = self.i
            self.i += 1
            self.accept("static")
            qname = self.parse_qualified_name()
            wildcard = self.accept(".") and self.accept("*")
            self.accept(";")
            display = qname + (".*" if wildcard else "")
            self.emit("ID", display, self.package or self.file_label, start)
            if not wildcard:
                parts = qname.split(".")
                simple = parts[-1]
                if simple in self._import_seen:
                    self.imports.pop(simple, None)  # ambiguous: keep as written
                else:
                    self._import_seen.add(simple)
                    self.imports[simple] = ".".join(parts[-2:])
        while texts[self.i]:
            self.skip_modifiers()
            if texts[self.i] in ("class", "interface", "enum"):
                self.parse_type_decl(self.package or self.file_label)
            else:
                self.advance()  # stray top-level token: skip

    def parse_qualified_name(self) -> str:
        texts, kinds = self.texts, self.kinds
        parts = []
        i = self.i
        while kinds[i] == "ident" or texts[i] in PRIMITIVE_TYPES:
            parts.append(texts[i])
            i += 1
            if not (texts[i] == "." and kinds[i + 1] in ("ident", "kw")):
                break
            i += 1
        self.i = i
        return ".".join(parts)

    def skip_modifiers(self) -> None:
        texts = self.texts
        while True:
            text = texts[self.i]
            if text in MODIFIERS:
                self.i += 1
            elif text == "@":
                self.i += 1
                if self.kinds[self.i] in ("ident", "kw"):
                    self.i += 1
                    while self.accept(".") and self.kinds[self.i] == "ident":
                        self.i += 1
                self.skip_balanced("(", ")")
            else:
                return

    # --- type declarations --------------------------------------------------

    def parse_type_decl(self, outer_path: str, declared_in: str | None = None) -> None:
        """A class, interface or enum within outer_path; its TD is emitted
        under declared_in, by default outer_path."""
        is_interface = self.advance() == "interface"  # class | interface | enum
        name_at = self.i
        if self.kinds[name_at] != "ident":
            self.skip_to_statement_end()
            return
        name = self.texts[name_at]
        self.i += 1
        self.emit("TD", name, outer_path if declared_in is None else declared_in, name_at)
        class_path = f"{outer_path}.{name}" if outer_path else name
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.nesting_error()
        self.i = self.generics_end(self.i)
        for keyword, kind in (("extends", "II" if is_interface else "SC"),
                              ("implements", "II")):
            listed = self.accept(keyword)
            while listed:
                start = self.i
                sup = self.parse_type_text()
                if sup:
                    self.emit(kind, self.resolve_type(sup), class_path, start)
                listed = self.accept(",")
        self.class_stack.append(name)
        self.scopes.append({})
        self.class_fields.append(self.scopes[-1])
        if self.accept("{"):
            while self.texts[self.i] not in ("}", ""):
                self.parse_member(class_path)
            self.accept("}")
        self.class_fields.pop()
        self.scopes.pop()
        self.class_stack.pop()
        self.depth -= 1

    def parse_member(self, class_path: str) -> None:
        self.skip_modifiers()
        start = self.i = self.generics_end(self.i)  # a generic method's type parameters
        texts = self.texts
        text = texts[start]
        if text in ("class", "interface", "enum"):
            self.parse_type_decl(class_path)
            return
        if text == self.current_class() and texts[start + 1] == "(":  # constructor
            self.i += 1
            self.parse_method_rest(class_path, text, "", start)
            return
        type_text = self.parse_type_text()
        if not type_text or self.kinds[self.i] != "ident":
            self.skip_to_statement_end()  # an initializer block, ';' or no type
            return
        name = texts[self.i]
        if texts[self.i + 1] == "(":
            self.i += 1
            self.parse_method_rest(class_path, name, type_text, start)
            return
        # field declaration: one item per statement, all declarators registered
        self.parse_declarators("FD", start, self.resolve_type(type_text), class_path)
        self.accept(";")

    def declarator_dims(self, i: int) -> int:
        """The number of C-style '[]' pairs at i, just after a declarator's
        name: each adds a dimension to the declared type."""
        texts = self.texts
        dims = 0
        while texts[i] == "[" and texts[i + 1] == "]":
            dims += 1
            i += 2
        return dims

    def parse_declarators(self, kind: str, start: int, rtype: str, enclosing: str) -> None:
        """Emit the item of kind at start for a declaration of type rtype,
        the cursor at its first declarator's name, naming that declarator's
        type. Bind each declarator to rtype with its own C-style dimensions,
        and read its initializer. A local declared ``var`` has its
        initializer's value type, and unknown without one (in a for-each)."""
        texts = self.texts
        item = None
        while self.kinds[self.i] == "ident":
            name = texts[self.i]
            dims = self.declarator_dims(self.i + 1)
            self.i += 1 + 2 * dims
            ty = "unknown" if rtype == "var" else rtype + "[]" * dims
            self.bind(name, ty)
            if self.accept("="):
                value = self.scan_expression(enclosing, _TO_EITHER)
                if rtype == "var":
                    ty = value
                    self.bind(name, ty)
            if item is None:
                item = ty
            if not self.accept(","):
                break
        self.emit(kind, rtype if item is None else item, enclosing, start)

    def parse_method_rest(self, class_path: str, name: str, return_type: str,
                          start: int) -> None:
        """The rest of a method after its name; a constructor has no return type."""
        method_path = f"{class_path}.{name}()"
        self.scopes.append({})
        param_types = self.parse_params()
        rtype = self.resolve_type(return_type) if return_type else ""
        md_name = f"{name}({','.join(param_types)})" + (f":{rtype}" if rtype else "")
        self.emit("MD", md_name, class_path, start)
        while self.accept("throws"):
            self.parse_qualified_name()
            while self.accept(","):
                self.parse_qualified_name()
        self.return_types.append(rtype or "void")
        if self.texts[self.i] == "{":
            self.parse_block(method_path)
        else:
            self.accept(";")  # abstract/interface method
        self.return_types.pop()
        self.scopes.pop()

    def parse_params(self) -> list[str]:
        """The parameter types, the cursor at the list's '('."""
        types: list[str] = []
        self.i += 1
        texts = self.texts
        while texts[self.i] not in (")", ""):
            self.skip_modifiers()
            type_text = self.parse_type_text()
            if not type_text:
                self.advance()
                continue
            rtype = self.resolve_type(type_text)
            if texts[self.i] in (",", ")"):  # a lambda's parameter, named without a type
                self.bind(type_text, "unknown")
            if texts[self.i] == ".":  # varargs '...': the parameter is an array
                rtype += "[]"
                while self.accept(".") and texts[self.i] == ".":
                    self.i += 1
            if self.kinds[self.i] == "ident":
                pname = texts[self.i]
                self.i += 1
                while self.accept("["):
                    self.accept("]")
                    rtype += "[]"
                self.bind(pname, rtype)
            types.append(rtype)
            if not self.accept(","):
                break
        self.accept(")")
        return types

    # --- statements -----------------------------------------------------------

    def parse_block(self, enclosing: str) -> None:
        """A block, the cursor at its '{'."""
        texts = self.texts
        self.i += 1
        self.scopes.append({})
        while texts[self.i] not in ("}", ""):
            self.parse_statement(enclosing)
        if texts[self.i] == "}":
            self.i += 1
        self.scopes.pop()

    def parse_statement(self, enclosing: str) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.nesting_error()
        texts = self.texts
        start = self.i
        text = texts[start]
        if self.kinds[start] == "ident":  # never a keyword nor punctuation
            if texts[start + 1] == ":":  # a label
                self.i += 2
                self.parse_statement(enclosing)
            else:
                self.parse_local_statement(enclosing)
        elif text == "{":
            self.parse_block(enclosing)
        elif text == ";":
            self.i += 1
        elif text == "if":
            # an else-if chain is read in this loop, not by recursion
            while True:
                self.markers.append((self.i, "IF", enclosing))
                self.i += 1
                self.parse_parens(enclosing)
                self.parse_statement(enclosing)
                if not self.accept("else"):
                    break
                if texts[self.i] != "if":
                    self.parse_statement(enclosing)
                    break
        elif text in ("while", "do", "for"):
            self.markers.append((start, "LOOP", enclosing))
            self.i += 1
            if text == "while":
                self.parse_parens(enclosing)
            elif text == "for" and self.accept("("):
                self.parse_for_control(enclosing)
            self.parse_statement(enclosing)
            if text == "do":
                if self.accept("while"):
                    self.parse_parens(enclosing)
                self.accept(";")
        elif text == "return":
            self.emit("RT", self.return_types[-1], enclosing, start)
            self.i += 1
            if texts[self.i] != ";":
                self.scan_expression(enclosing, _TO_SEMICOLON)
            self.accept(";")
        elif text in ("this", "super") and texts[start + 1] == "(":
            self.i += 1
            args = self.parse_args(enclosing)
            kind = "CTI" if text == "this" else "SCI"
            self.emit(kind, f"{text}({','.join(args)})", enclosing, start)
            self.accept(";")
        elif text in _SKIP_STMT_KEYWORDS:
            self.skip_to_statement_end()
        elif text in ("class", "interface", "enum"):
            # a local class: its TD stands beside the method's class, not in
            # the method's sequence; its members are paths under the method
            self.parse_type_decl(enclosing, enclosing.rpartition(".")[0])
        elif text in MODIFIERS or text == "@":  # e.g. "final X x = ..." or "@A X x"
            self.skip_modifiers()
            self.parse_statement(enclosing)
        else:
            self.parse_local_statement(enclosing)
        self.depth -= 1

    def parse_local_statement(self, enclosing: str) -> None:
        """A local declaration or an expression statement."""
        texts = self.texts
        start = self.i
        rtype = self.parse_local_type()
        if rtype is None:
            self.scan_expression(enclosing, _TO_SEMICOLON)
            # past ';', or past any other token to ensure progress on
            # malformed input
            if texts[self.i] not in ("}", ""):
                self.i += 1
        elif self.kinds[self.i] == "ident":
            self.parse_declarators("VD", start, rtype, enclosing)
            self.accept(";")
        else:  # a primitive type and no declarator
            self.emit("VD", rtype, enclosing, start)
            self.skip_to_statement_end()

    def parse_for_control(self, enclosing: str) -> None:
        # classic "init; cond; update" or enhanced "Type v : iterable"
        self.skip_modifiers()
        start = self.i
        rtype = self.parse_local_type()
        if rtype is not None:
            self.parse_declarators("VD", start, rtype, enclosing)
            self.accept(":")  # for-each: its iterable is read as a condition
        self.scan_expression(enclosing, _TO_SEMICOLON)
        while self.accept(";"):
            self.scan_expression(enclosing, _TO_SEMICOLON)
        self.accept(")")

    def parse_local_type(self) -> str | None:
        """Read the type of a local declaration; the type, resolved, or
        None, the cursor unmoved, when the statement is not a declaration."""
        texts, kinds = self.texts, self.kinds
        start = i = self.i
        text = texts[start]
        if kinds[start] == "ident":
            # A declaration's type name ident(.ident)* is followed by its
            # first declarator, a '<' or a '['; calls and assignments stop here.
            i += 1
            while texts[i] == "." and kinds[i + 1] == "ident":
                i += 2
            if kinds[i] != "ident" and texts[i] not in ("<", "["):
                return None
            type_text = self.parse_type_text()
            if not (type_text and kinds[self.i] == "ident"
                    and texts[self.i + 1] in (";", "=", ",", ":", "[")):
                self.i = start
                return None
        elif text in PRIMITIVE_TYPES and text != "void":
            type_text = self.parse_type_text()
        else:
            return None
        return self.resolve_type(type_text)

    def parse_type_text(self) -> str:
        """Parse a type reference; returns '' (cursor unmoved) when absent."""
        texts, kinds = self.texts, self.kinds
        i = self.i
        base = texts[i]
        if base in PRIMITIVE_TYPES:
            i += 1
        elif kinds[i] == "ident":
            i += 1
            while texts[i] == "." and kinds[i + 1] == "ident":
                base += "." + texts[i + 1]
                i += 2
        else:
            return ""
        i = self.generics_end(i)
        while texts[i] == "[" and texts[i + 1] == "]":
            i += 2
            base += "[]"
        if not base[0].isascii():  # an identifier that starts with a non-ASCII letter
            return ""
        self.i = i
        return base

    def generics_end(self, i: int) -> int:
        """The index after the '<...>' group, type parameters or arguments,
        that opens at i; i when none opens there or it does not close ('<'
        as a comparison)."""
        texts, kinds = self.texts, self.kinds
        if texts[i] != "<":
            return i
        depth = 0
        j = i
        while texts[j]:
            text = texts[j]
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif kinds[j] not in ("ident", "kw") and text not in (",", ".", "?", "[", "]"):
                break
            j += 1
        return i

    # --- expressions --------------------------------------------------------

    def scan_expression(self, enclosing: str, stops: frozenset[str]) -> str:
        """Emit items from an expression, consuming up to (not including) a
        token in stops: its terminators and the closers, _CLOSERS, at this
        nesting level. Returns the value type of its first primary with the
        selectors after it, for argument typing."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.nesting_error()
        texts, kinds = self.texts, self.kinds
        first: str | None = None
        lambdas = 0  # the scopes of the lambda parameters bound here
        while True:
            i = self.i
            text = texts[i]
            if text in stops:
                break
            kind = kinds[i]
            if kind == "ident":
                ty = self.parse_name(enclosing)
            elif text == "this" or text == "super":
                ty = self.parse_this(enclosing)
            elif text == "new":
                ty = self.parse_selectors(enclosing, -1, None, self.parse_creation(enclosing))
            elif text == "(":
                # a cast's operand is the next primary this loop reads
                ty = self.try_parse_cast() or self.parse_selectors(
                    enclosing, -1, "unknown", self.parse_parens(enclosing))
            elif text == "{":
                if texts[i - 1] == "->":  # a lambda's block body; what it returns is unknown
                    self.return_types.append("unknown")
                    self.parse_block(enclosing)
                    self.return_types.pop()
                else:  # an array initializer, its ',' glue
                    self.i = i + 1
                    self.scan_expression(enclosing, _CLOSERS)
                    self.accept("}")
                first = first or "unknown"
                continue
            elif text == "->":  # a lambda, of unknown type
                self.i = i + 1
                self.bind_lambda(i)
                lambdas += 1
                first = "unknown"
                continue
            else:
                self.i = i + 1
                if kind == "num":
                    ty = _number_type(text)
                else:
                    ty = _LITERAL_TYPES.get(text if kind == "kw" else kind)
                    if ty is None:
                        continue  # operator or other glue
                ty = self.parse_selectors(enclosing, i, None, ty)
            if first is None:
                first = ty
        if lambdas:
            del self.scopes[-lambdas:]
        self.depth -= 1
        return first or "unknown"

    def bind_lambda(self, arrow: int) -> None:
        """Open a scope binding the parameters of the lambda whose '->' is at
        arrow: each declared with a type to that type, any other to unknown."""
        texts = self.texts
        self.scopes.append({})
        i = arrow - 1
        if texts[i] != ")":
            if self.kinds[i] == "ident":
                self.bind(texts[i], "unknown")
            return
        depth = 0
        while i > 0:  # back to the '(' of the parameter list
            depth += (texts[i] == ")") - (texts[i] == "(")
            if not depth:
                break
            i -= 1
        cursor, self.i = self.i, i
        self.parse_params()
        self.i = cursor

    def parse_parens(self, enclosing: str) -> str:
        """Read '( expr )' if the cursor is at '('; the classification of expr."""
        texts = self.texts
        if texts[self.i] != "(":
            return "unknown"
        self.i += 1
        ty = self.scan_expression(enclosing, _CLOSERS)
        if texts[self.i] == ")":
            self.i += 1
        return ty

    def parse_brackets(self, enclosing: str) -> int:
        """Read any '[ expr ]' groups, array dimensions or indexes; their number."""
        groups = 0
        while self.accept("["):
            groups += 1
            if self.texts[self.i] != "]":
                self.scan_expression(enclosing, _CLOSERS)
            self.accept("]")
        return groups

    def try_parse_cast(self) -> str | None:
        # '(' Type ')' followed by a primary start
        start = self.i
        self.i += 1  # '('
        type_text = self.parse_type_text()
        if type_text and self.accept(")"):
            nxt = self.texts[self.i]
            if (self.kinds[self.i] in ("ident", "num", "str", "char")
                    or nxt in ("new", "this", "super", "null", "true", "false", "(")):
                return self.resolve_type(type_text)
        self.i = start
        return None

    def parse_creation(self, enclosing: str) -> str:
        start = self.i
        self.i += 1  # 'new'
        type_text = self.parse_type_text()
        rtype = self.resolve_type(type_text) if type_text else "unknown"
        if self.texts[self.i] == "[" or rtype.endswith("[]"):
            # one '[]' per dimension: written in the type or given a size
            base = rtype + "[]" * self.parse_brackets(enclosing)
            self.emit("AC", base, enclosing, start)
            return base
        args = self.parse_args(enclosing)
        if self.texts[self.i] == "{":
            self.emit("ACD", rtype, enclosing, start)
            self.skip_balanced("{", "}")
            return rtype
        self.emit("CI", f"{rtype}({','.join(args)})", enclosing, start)
        return rtype

    def parse_name(self, enclosing: str) -> str:
        """A name primary, as the module docstring says, and its selectors;
        their value type."""
        texts, kinds = self.texts, self.kinds
        start = i = self.i
        name = texts[i]
        if texts[i + 1] == "(":
            self.i = i + 1
            self.emit_call(lower_camel(self.current_class()), name, start, enclosing)
            return self.parse_selectors(enclosing, -1, "unknown", "unknown")
        i += 1
        while texts[i] == "." and kinds[i + 1] == "ident" and texts[i + 2] not in ("(", "="):
            i += 2
        self.i = i
        var_type = self.lookup(name)
        if i == start + 1:
            if var_type is not None:
                return self.parse_selectors(enclosing, start, None, var_type)
            recv = self.imports.get(name) or (
                name if name[0].isupper() or name in self.class_stack else "unknown")
        else:
            segments = texts[start:i:2]
            recv = ".".join(segments) if var_type is None and any(
                s[0].isupper() for s in segments) else "unknown"
        return self.parse_selectors(enclosing, start, recv,
                                    "int" if _CONST_NAME_RE.match(texts[i - 1]) else "unknown")

    def parse_this(self, enclosing: str) -> str:
        """'this' or 'super' and its selectors; their value type."""
        texts = self.texts
        i = self.i
        self.i = i + 1
        if texts[i] == "super":
            return self.parse_selectors(enclosing, i, "super", "super")
        if texts[i + 1] == "." and self.kinds[i + 2] == "ident" and texts[i + 3] not in ("(", "="):
            self.i = i + 3
            ty = self.class_fields[-1].get(texts[i + 2])
            return self.parse_selectors(enclosing, i, None if ty else "unknown", ty or "unknown")
        cls = self.current_class()
        return self.parse_selectors(enclosing, i, lower_camel(cls), cls)

    def parse_selectors(self, enclosing: str, at: int, recv: str | None, ty: str) -> str:
        """The selectors after a primary whose value renders as receiver
        recv (None: the receiver name of ty) and has type ty, read as the
        module docstring says; the value type of the whole. Items are emitted
        at at, the primary's token, until the first call or index (at -1),
        and after that at their selector's '.' or '['."""
        texts, kinds = self.texts, self.kinds
        while True:
            i = self.i
            text = texts[i]
            if text == ".":
                name = i + 1
                if texts[name] == "<":
                    name = self.generics_end(name)
                member = texts[name]
                if kinds[name] != "ident":
                    if member != "class":
                        return ty
                    self.i = name + 1
                    recv, ty = "unknown", "Class"
                    continue
                self.i = name + 1
                after = texts[name + 1]
                if recv is None:
                    recv = self.receiver_of(ty)
                if after == "(":
                    self.emit_call(recv, member, i if at < 0 else at, enclosing)
                    at = -1
                elif after == "=":
                    self.emit("FA", f"{recv}.{member}", enclosing, i if at < 0 else at)
                recv = ty = "unknown"
            elif text == "[":
                self.emit("AA", ty if ty.endswith("[]") else "unknown[]", enclosing,
                          i if at < 0 else at)
                groups = self.parse_brackets(enclosing)
                ty = ty[:-2 * groups] if ty.endswith("[]" * groups) else "unknown"
                recv, at = "unknown", -1
            else:
                return ty

    def receiver_of(self, var_type: str) -> str:
        """The receiver rendering of a value of var_type; computed once per type."""
        recv = self.receivers.get(var_type)
        if recv is None:
            recv = self.receivers[var_type] = receiver_name(var_type)
        return recv

    def parse_args(self, enclosing: str) -> list[str]:
        texts = self.texts
        types: list[str] = []
        if texts[self.i] != "(":
            return types
        self.i += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.nesting_error()
        while texts[self.i] not in (")", ""):
            types.append(self.scan_expression(enclosing, _TO_COMMA))
            if texts[self.i] != ",":
                break
            self.i += 1
        if texts[self.i] == ")":
            self.i += 1
        self.depth -= 1
        return types

    # --- recovery -----------------------------------------------------------

    def skip_balanced(self, opener: str, closer: str) -> None:
        if not self.accept(opener):
            return
        texts = self.texts
        i, depth = self.i, 1
        while depth and texts[i]:
            if texts[i] == opener:
                depth += 1
            elif texts[i] == closer:
                depth -= 1
            i += 1
        self.i = i

    def skip_to_statement_end(self) -> None:
        """Skip an unsupported construct: up to ';' or over one balanced block."""
        texts = self.texts
        while texts[self.i]:
            text = texts[self.i]
            if text == ";":
                self.i += 1
                return
            if text == "{":
                self.skip_balanced("{", "}")
                return
            if text == "}":
                return
            self.i += 1


_new = tuple.__new__


def _records(record: type, rows: list[tuple], tokens: Tokens) -> list:
    """The records of rows, each (token index, *fields): (*fields, the
    token's line), made without a Python frame per record."""
    if not rows:
        return []
    at, *fields = zip(*rows)
    return list(map(_new, repeat(record), zip(*fields, tokens.lines(at))))


def extract_items(source: str, file_label: str = "<memory>",
                  context_vars: dict[str, str] | None = None,
                  ) -> tuple[list[SourceItem], list[ControlMarker]]:
    """Abstract one source text into items plus control markers.

    Items come back in source order (of the token each construct starts
    at). ``context_vars`` injects ambient variable->type bindings (used when
    abstracting a lone statement or a rendered skeleton outside its
    original file).
    """
    tokens = tokenize(source)
    _check_braces(tokens)
    ex = _Extractor(tokens, file_label, context_vars)
    ex.parse_unit()
    ex.out.sort(key=itemgetter(0))
    return _records(SourceItem, ex.out, tokens), _records(ControlMarker, ex.markers, tokens)


# --- corpus walking ----------------------------------------------------------

def iter_source_files(corpus_dirs: Iterable[str | Path], ext: str = ".java") -> Iterator[Path]:
    """Recursively discover source files under the corpus directories,
    each directory's in sorted order; a root that is a file is taken when
    its name ends in ext, as the walk of a directory takes it. ext is a
    literal suffix, not a glob: ".ja*" takes only names ending in ".ja*".
    A file reached through more than one root (overlapping roots, or a
    link) is yielded once, where it is first found; files are told apart as
    ``os.path.samefile`` does, by device and inode."""
    seen: set[tuple[int, int]] = set()
    for root in corpus_dirs:
        root = Path(root)
        if root.is_file():
            found = [root] if root.name.endswith(ext) else []
        else:
            found = sorted(p for p in root.rglob("*") if p.name.endswith(ext) and p.is_file())
        for path in found:
            stat = path.stat()
            if (stat.st_dev, stat.st_ino) not in seen:
                seen.add((stat.st_dev, stat.st_ino))
                yield path


def extract_corpus(corpus_dirs: Iterable[str | Path], ext: str = ".java",
                   ) -> tuple[list[SourceItem], list[ControlMarker]]:
    """Extract every file in the corpus; per-file failures abort (corpus
    files must be UTF-8 and lex) with an UnparsableSource naming the file;
    item order is (file, line, column)."""
    items: list[SourceItem] = []
    markers: list[ControlMarker] = []
    for path in iter_source_files(corpus_dirs, ext):
        try:
            file_items, file_markers = extract_items(
                path.read_text(encoding="utf-8"), file_label=str(path))
        except UnicodeDecodeError as exc:
            raise UnparsableSource(f"{path}: not UTF-8 at byte offset {exc.start}") from None
        except UnparsableSource as exc:
            raise UnparsableSource(f"{path}: {exc.message}", exc.line, exc.column) from None
        items.extend(file_items)
        markers.extend(file_markers)
    return items, markers


def dump_items(items: Iterable[SourceItem]) -> str:
    """Line-oriented debug dump: KIND<TAB>name<TAB>enclosing<TAB>line."""
    return "\n".join(
        f"{it.kind}\t{it.name}\t{it.enclosing}\t{it.line}" for it in items
    )
