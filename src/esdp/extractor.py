"""Lex and parse a Java-syntax subset into the abstracted item stream.

The grammar subset covers declarations, statements and expressions enough
to produce all 17 item kinds plus if/loop control markers. Anything else
(try/switch/throw/...) is skipped without error. Name resolution is an
import-table lookup only: a simple type name imported as ``a.b.c.D`` is
rendered ``c.D``; unknown names are kept as written.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from pathlib import Path
from typing import Iterable, Iterator

from .items import (
    ControlMarker,
    ItemKind,
    MarkerKind,
    SourceItem,
    lower_camel,
    simple_name,
)


class UnparsableSource(Exception):
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
# argument lists, type declarations, array initializers). Each takes at most
# three Python frames, so deeper input ends in UnparsableSource well before
# the interpreter's default recursion limit of 1000.
MAX_NESTING = 200

_CONST_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
_TYPE_START_RE = re.compile(r"^[A-Za-z_$]")

# the type a literal reads as, keyed by token kind, or by text for a keyword
_LITERAL_TYPES = {"str": "String", "char": "char", "true": "boolean", "false": "boolean",
                  "null": "null"}

Token = namedtuple("Token", "kind text line col")  # kind: ident | kw | num | str | char | punct | eof

_LEX_ERRORS = {
    "/*": "unterminated comment",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}


@functools.lru_cache(maxsize=64)
def _scanner(digits: str, non_digits: str) -> re.Pattern:
    r"""The master regex, one named group per token class, tried in order.

    Regex ``\w`` is exactly ``str.isalnum`` or '_', and ``\d`` exactly
    ``str.isdecimal``. A number starts on any ``str.isdigit`` character and
    an identifier on any ``str.isalpha`` one, so the digits that are not
    decimal ('²') and the other numeric non-letters ('½') present in the
    source are named explicitly. ``bad`` catches every other character, so
    the matches tile the whole source.
    """
    digit = rf"[\d{digits}]"
    return re.compile("|".join((
        r"(?P<skip>(?:[ \t\f\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)+)",
        rf"(?P<ident>(?:[^\W\d{digits}{non_digits}]|\$)[\w$]*)",
        "(?P<punct>" + "|".join(map(re.escape, _MULTI_PUNCT))
        + f"|[{re.escape(_SINGLE_PUNCT)}]|/(?!\\*))",
        rf"(?P<num>{digit}(?:\w|\.(?={digit}))*)",
        r'(?P<str>"[^"\\]*(?:\\[\s\S][^"\\]*)*")',
        r"(?P<char>'[^'\\]*(?:\\[\s\S][^'\\]*)*')",
        r"(?P<bad>/\*|[\s\S])",
    )))


def _scanner_for(source: str) -> re.Pattern:
    if source.isascii():
        return _scanner("", "")
    odd = sorted(c for c in set(source)
                 if c.isnumeric() and not c.isdecimal() and not c.isalpha())
    return _scanner("".join(c for c in odd if c.isdigit()),
                    "".join(c for c in odd if not c.isdigit()))


def tokenize(source: str) -> list[Token]:
    """The tokens of source, ending in one eof token; line and col are
    1-based, col counting characters."""
    toks: list[Token] = []
    append, new = toks.append, tuple.__new__
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _scanner_for(source).finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rfind("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "ident":
            append(new(Token, ("kw" if text in KEYWORDS else "ident", text, line, col)))
        elif kind == "punct" or kind == "num":
            append(new(Token, (kind, text, line, col)))
        elif kind == "bad":
            raise UnparsableSource(_LEX_ERRORS.get(text, f"illegal character {text!r}"), line, col)
        else:  # str | char: the only tokens that may span lines
            append(new(Token, (kind, text, line, col)))
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rfind("\n") + 1
    append(new(Token, ("eof", "", line, len(source) - line_start + 1)))
    return toks


def _check_braces(toks: list[Token]) -> None:
    stack: list[Token] = []
    for t in toks:
        if t.text == "{":
            stack.append(t)
        elif t.text == "}":
            if not stack:
                raise UnparsableSource("unbalanced '}'", t.line, t.col)
            stack.pop()
    if stack:
        t = stack[-1]
        raise UnparsableSource("unbalanced '{'", t.line, t.col)


class _Extractor:
    """Recursive-descent reader with one method per construct.

    Punctuation and keywords are recognised by their text alone: an ident is
    never a keyword, and literals start with a quote or a digit. Token kinds
    are tested only to tell idents, literals and eof apart.
    """

    def __init__(self, tokens: list[Token], file_label: str,
                 context_vars: dict[str, str] | None = None):
        self.toks = tokens
        self.i = 0
        self.file_label = file_label or "<memory>"
        self.package = ""
        self.imports: dict[str, str] = {}       # simple name -> "seg.Class"
        self._import_seen: set[str] = set()     # simple names, incl. ambiguous
        self.scopes: list[dict[str, str]] = [dict(context_vars or {})]
        self.class_stack: list[str] = []
        self.class_fields: list[dict[str, str]] = []  # the field scope of each class
        self.return_types: list[str] = []
        self.out: list[tuple[int, int, SourceItem]] = []
        self.markers: list[ControlMarker] = []
        self.depth = 0  # parse methods active; see MAX_NESTING

    # --- token cursor -----------------------------------------------------

    def cur(self) -> Token:
        return self.toks[self.i]

    def la(self, k: int = 1) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def at(self, text: str) -> bool:
        return self.toks[self.i].text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    def advance(self) -> Token:
        t = self.cur()
        if t.kind != "eof":
            self.i += 1
        return t

    def prev_line(self) -> int:
        return self.toks[max(self.i - 1, 0)].line

    def descend(self) -> None:
        """Enter one nested parse method; the caller decrements depth on
        leaving it (a raise abandons the whole parse)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            t = self.cur()
            raise UnparsableSource(f"nesting deeper than {MAX_NESTING}", t.line, t.col)

    # --- emit helpers -----------------------------------------------------

    def emit(self, kind: ItemKind, name: str, enclosing: str, line: int, col: int) -> None:
        self.out.append((line, col, SourceItem(kind, name, enclosing or self.file_label, line)))

    def mark(self, kind: MarkerKind, enclosing: str, line: int) -> None:
        self.markers.append(ControlMarker(kind, enclosing, line))

    def emit_call(self, recv: str, method: str, start: Token, enclosing: str) -> None:
        """Read the argument list of recv.method(...) and emit the call."""
        args = self.parse_args(enclosing)
        self.emit(ItemKind.MI, f"{recv}.{method}({','.join(args)})", enclosing, start.line, start.col)

    def assign_field(self, recv: str, field: str, start: Token, enclosing: str) -> str:
        """Emit the write of recv.field, the cursor at its '=', and read the value."""
        self.emit(ItemKind.FA, f"{recv}.{field}", enclosing, start.line, start.col)
        self.advance()
        self.scan_expression(enclosing, (";", ",", ")"))
        return "unknown"

    # --- scope / resolution -----------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

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

    def is_type_name(self, name: str) -> bool:
        if name in self.imports or name in self.class_stack:
            return True
        return bool(name) and name[0].isupper() and self.lookup(name) is None

    def current_class(self) -> str:
        return self.class_stack[-1] if self.class_stack else "unknown"

    # --- compilation unit ---------------------------------------------------

    def parse_unit(self) -> None:
        if self.at("package"):
            t = self.advance()
            self.package = self.parse_qualified_name()
            self.accept(";")
            self.emit(ItemKind.PD, self.package, self.file_label, t.line, t.col)
        while self.at("import"):
            t = self.advance()
            self.accept("static")
            qname = self.parse_qualified_name()
            wildcard = self.accept("*")
            self.accept(";")
            display = qname + (".*" if wildcard else "")
            self.emit(ItemKind.ID, display, self.package or self.file_label, t.line, t.col)
            if not wildcard:
                parts = qname.split(".")
                simple = parts[-1]
                if simple in self._import_seen:
                    self.imports.pop(simple, None)  # ambiguous: keep as written
                else:
                    self._import_seen.add(simple)
                    self.imports[simple] = ".".join(parts[-2:])
        while self.cur().kind != "eof":
            self.skip_modifiers()
            if self.cur().text in ("class", "interface", "enum"):
                self.parse_type_decl(self.package or self.file_label)
            else:
                self.advance()  # stray top-level token: skip

    def parse_qualified_name(self) -> str:
        parts = []
        while self.cur().kind == "ident" or self.cur().text in PRIMITIVE_TYPES:
            parts.append(self.advance().text)
            if not (self.at(".") and self.la().kind in ("ident", "kw")):
                break
            self.advance()  # '.'
        return ".".join(parts)

    def skip_modifiers(self) -> None:
        while True:
            if self.cur().text in MODIFIERS:
                self.advance()
            elif self.accept("@"):
                if self.cur().kind in ("ident", "kw"):
                    self.advance()
                    while self.accept(".") and self.cur().kind == "ident":
                        self.advance()
                self.skip_balanced("(", ")")
            else:
                return

    # --- type declarations --------------------------------------------------

    def parse_type_decl(self, outer_path: str) -> None:
        is_interface = self.advance().text == "interface"  # class | interface | enum
        name_tok = self.cur()
        if name_tok.kind != "ident":
            self.skip_to_statement_end()
            return
        name = self.advance().text
        self.emit(ItemKind.TD, name, outer_path, name_tok.line, name_tok.col)
        class_path = f"{outer_path}.{name}" if outer_path else name
        self.descend()
        self.skip_generics()
        for keyword, kind in (("extends", ItemKind.II if is_interface else ItemKind.SC),
                              ("implements", ItemKind.II)):
            listed = self.accept(keyword)
            while listed:
                t = self.cur()
                sup = self.parse_type_text()
                if sup:
                    self.emit(kind, self.resolve_type(sup), class_path, t.line, t.col)
                listed = self.accept(",")
        self.class_stack.append(name)
        self.push_scope()
        self.class_fields.append(self.scopes[-1])
        if self.accept("{"):
            while not self.at("}") and self.cur().kind != "eof":
                self.parse_member(class_path)
            self.accept("}")
        self.class_fields.pop()
        self.pop_scope()
        self.class_stack.pop()
        self.depth -= 1

    def parse_member(self, class_path: str) -> None:
        self.skip_modifiers()
        t = self.cur()
        if t.text in ("class", "interface", "enum"):
            self.parse_type_decl(class_path)
            return
        if self.at("{"):  # instance/static initializer
            self.skip_balanced("{", "}")
            return
        if self.accept(";"):
            return
        if t.text == self.current_class() and self.la().text == "(":  # constructor
            self.advance()
            self.parse_method_rest(class_path, t.text, "", t)
            return
        type_text = self.parse_type_text()
        if not type_text or self.cur().kind != "ident":
            self.skip_to_statement_end()
            return
        name_tok = self.advance()
        if self.at("("):
            self.parse_method_rest(class_path, name_tok.text, type_text, t)
            return
        # field declaration: one item per statement, all declarators registered
        rtype = self.resolve_type(type_text)
        self.emit(ItemKind.FD, rtype, class_path, t.line, t.col)
        self.parse_declarators(name_tok.text, rtype, class_path)

    def parse_declarators(self, name: str, rtype: str, enclosing: str) -> None:
        while True:
            while self.accept("["):  # C-style array suffix on declarator
                self.accept("]")
                rtype = rtype + "[]" if not rtype.endswith("[]") else rtype
            self.bind(name, rtype)
            if self.accept("="):
                self.scan_expression(enclosing, (",", ";"))
            if not (self.accept(",") and self.cur().kind == "ident"):
                break
            name = self.advance().text
        self.accept(";")

    def parse_method_rest(self, class_path: str, name: str, return_type: str,
                          start: Token) -> None:
        """The rest of a method after its name; a constructor has no return type."""
        method_path = f"{class_path}.{name}()"
        self.push_scope()
        param_types = self.parse_params()
        rtype = self.resolve_type(return_type) if return_type else ""
        md_name = f"{name}({','.join(param_types)})" + (f":{rtype}" if rtype else "")
        self.emit(ItemKind.MD, md_name, class_path, start.line, start.col)
        while self.accept("throws"):
            self.parse_qualified_name()
            while self.accept(","):
                self.parse_qualified_name()
        self.return_types.append(rtype or "void")
        if self.at("{"):
            self.parse_block(method_path)
        else:
            self.accept(";")  # abstract/interface method
        self.return_types.pop()
        self.pop_scope()

    def parse_params(self) -> list[str]:
        types: list[str] = []
        if not self.accept("("):
            return types
        while not self.at(")") and self.cur().kind != "eof":
            self.skip_modifiers()
            type_text = self.parse_type_text()
            if not type_text:
                self.advance()
                continue
            rtype = self.resolve_type(type_text)
            if self.at("."):  # varargs '...': the parameter is an array
                rtype += "[]"
                while self.accept(".") and self.at("."):
                    self.advance()
            if self.cur().kind == "ident":
                pname = self.advance().text
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
        self.accept("{")
        self.push_scope()
        while not self.at("}") and self.cur().kind != "eof":
            self.parse_statement(enclosing)
        self.accept("}")
        self.pop_scope()

    def parse_statement(self, enclosing: str) -> None:
        self.descend()
        self._statement(enclosing)
        self.depth -= 1

    def _statement(self, enclosing: str) -> None:
        t = self.cur()
        if t.text == "{":
            self.parse_block(enclosing)
        elif t.text == ";":
            self.advance()
        elif t.text == "if":
            # an else-if chain is read in this loop, not by recursion;
            # its IF_END markers all close after the last branch
            opened = 0
            while True:
                self.mark(MarkerKind.IF_BEGIN, enclosing, self.cur().line)
                opened += 1
                self.advance()
                self.parse_parens(enclosing)
                self.parse_statement(enclosing)
                if not self.accept("else"):
                    break
                if not self.at("if"):
                    self.parse_statement(enclosing)
                    break
            for _ in range(opened):
                self.mark(MarkerKind.IF_END, enclosing, self.prev_line())
        elif t.text in ("while", "do", "for"):
            self.mark(MarkerKind.LOOP_BEGIN, enclosing, t.line)
            self.advance()
            if t.text == "while":
                self.parse_parens(enclosing)
            elif t.text == "for" and self.accept("("):
                self.parse_for_control(enclosing)
            self.parse_statement(enclosing)
            if t.text == "do":
                if self.accept("while"):
                    self.parse_parens(enclosing)
                self.accept(";")
            self.mark(MarkerKind.LOOP_END, enclosing, self.prev_line())
        elif t.text == "return":
            self.emit(ItemKind.RT, self.return_types[-1], enclosing, t.line, t.col)
            self.advance()
            if not self.at(";"):
                self.scan_expression(enclosing, (";",))
            self.accept(";")
        elif t.text in ("this", "super") and self.la().text == "(":
            self.advance()
            args = self.parse_args(enclosing)
            kind = ItemKind.CTI if t.text == "this" else ItemKind.SCI
            self.emit(kind, f"{t.text}({','.join(args)})", enclosing, t.line, t.col)
            self.accept(";")
        elif t.text in _SKIP_STMT_KEYWORDS:
            self.skip_to_statement_end()
        elif t.text in ("class", "interface", "enum"):
            self.parse_type_decl(enclosing)
        elif t.text in MODIFIERS:  # e.g. "final X x = ..."
            self.skip_modifiers()
            self.parse_statement(enclosing)
        else:
            rtype = self.parse_local_type(enclosing)
            if rtype is None:
                self.scan_expression(enclosing, (";",))
                if not self.accept(";") and self.cur().kind != "eof" and not self.at("}"):
                    self.advance()  # ensure progress on malformed input
            elif self.cur().kind == "ident":
                self.parse_declarators(self.advance().text, rtype, enclosing)
            else:
                self.skip_to_statement_end()

    def parse_for_control(self, enclosing: str) -> None:
        # classic "init; cond; update" or enhanced "Type v : iterable"
        rtype = self.parse_local_type(enclosing)
        if rtype is not None and self.cur().kind == "ident":
            if self.la().text == ":":  # for-each
                self.bind(self.advance().text, rtype)
                self.advance()
                self.scan_expression(enclosing, (")",))
                self.accept(")")
                return
            self.parse_declarators(self.advance().text, rtype, enclosing)
        self.scan_expression(enclosing, (";", ")"))
        while self.accept(";"):
            self.scan_expression(enclosing, (";", ")"))
        self.accept(")")

    def parse_local_type(self, enclosing: str) -> str | None:
        """Read the type of a local declaration and emit its VD; None, the
        cursor unmoved, when the statement is not a declaration."""
        start, save = self.cur(), self.i
        if start.kind == "ident":
            type_text = self.parse_type_text()
            if not (type_text and self.cur().kind == "ident"
                    and self.la().text in (";", "=", ",", ":", "[")):
                self.i = save
                return None
        elif start.text in PRIMITIVE_TYPES and start.text != "void":
            type_text = self.parse_type_text()
        else:
            return None
        rtype = self.resolve_type(type_text)
        self.emit(ItemKind.VD, rtype, enclosing, start.line, start.col)
        return rtype

    def parse_type_text(self) -> str:
        """Parse a type reference; returns '' (cursor restored) when absent."""
        save = self.i
        t = self.cur()
        if t.text in PRIMITIVE_TYPES:
            base = self.advance().text
        elif t.kind == "ident":
            base = self.advance().text
            while self.at(".") and self.la().kind == "ident":
                self.advance()
                base += "." + self.advance().text
        else:
            return ""
        self.skip_generics()
        while self.at("[") and self.la().text == "]":
            self.advance()
            self.advance()
            base += "[]"
        if not _TYPE_START_RE.match(base):
            self.i = save
            return ""
        return base

    def skip_generics(self) -> None:
        if not self.at("<"):
            return
        save = self.i
        depth = 0
        while self.cur().kind != "eof":
            t = self.cur()
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            elif t.kind not in ("ident", "kw") and t.text not in (",", ".", "?", "[", "]"):
                self.i = save  # not a generic group ('<' as comparison)
                return
            self.advance()
        self.i = save

    # --- expressions --------------------------------------------------------

    def scan_expression(self, enclosing: str, terminators: tuple[str, ...]) -> str:
        """Emit items from an expression, consuming up to (not including) a
        terminator or closer at this nesting level. Returns the classification
        of the first primary for argument typing."""
        self.descend()
        first: str | None = None
        while True:
            t = self.cur()
            if t.kind == "eof" or t.text in terminators or t.text in (")", "]", "}"):
                break
            if t.kind == "ident":
                ty = self.parse_name_chain(enclosing)
            elif t.text in ("this", "super"):
                ty = self.parse_this_chain(enclosing)
            elif t.text == "new":
                ty = self.parse_creation(enclosing)
            elif t.text == "(":
                # a cast's operand is the next primary this loop reads
                ty = self.try_parse_cast() or self.parse_postfix(enclosing, self.parse_parens(enclosing))
            else:
                self.advance()
                if t.kind == "num":
                    ty = "double" if "." in t.text or t.text[-1] in "dDfF" else "int"
                else:
                    ty = _LITERAL_TYPES.get(t.text if t.kind == "kw" else t.kind)
                    if ty is None:
                        continue  # operator or other glue
            if first is None:
                first = ty
        self.depth -= 1
        return first or "unknown"

    def parse_parens(self, enclosing: str) -> str:
        """Read '( expr )' if the cursor is at '('; the classification of expr."""
        if not self.accept("("):
            return "unknown"
        ty = self.scan_expression(enclosing, (")",))
        self.accept(")")
        return ty

    def parse_brackets(self, enclosing: str) -> None:
        """Read any '[ expr ]' groups: array dimensions or indexes."""
        while self.accept("["):
            if not self.at("]"):
                self.scan_expression(enclosing, ("]",))
            self.accept("]")

    def try_parse_cast(self) -> str | None:
        # '(' Type ')' followed by a primary start
        save = self.i
        self.advance()  # '('
        type_text = self.parse_type_text()
        if type_text and self.accept(")"):
            nxt = self.cur()
            if (nxt.kind in ("ident", "num", "str", "char")
                    or nxt.text in ("new", "this", "super", "null", "true", "false", "(")):
                return self.resolve_type(type_text)
        self.i = save
        return None

    def parse_creation(self, enclosing: str) -> str:
        start = self.advance()  # 'new'
        type_text = self.parse_type_text()
        rtype = self.resolve_type(type_text) if type_text else "unknown"
        if self.at("["):
            base = rtype if rtype.endswith("[]") else rtype + "[]"
            self.parse_brackets(enclosing)
            self.emit(ItemKind.AC, base, enclosing, start.line, start.col)
            if self.at("{"):
                self.scan_braced_init(enclosing)
            return base
        args = self.parse_args(enclosing)
        if self.at("{"):
            self.emit(ItemKind.ACD, rtype, enclosing, start.line, start.col)
            self.skip_balanced("{", "}")
            return rtype
        self.emit(ItemKind.CI, f"{rtype}({','.join(args)})", enclosing, start.line, start.col)
        return rtype

    def parse_this_chain(self, enclosing: str) -> str:
        """'this' or 'super' and its member chain. A member of this or super
        names the enclosing class (or super) as receiver; a member reached
        through a field of the enclosing class names the field's type, as
        the same chain written without 'this.' does. The value of 'this.f'
        is the declared type of field f; a longer chain, or an index into
        it, reads 'unknown'."""
        start = self.advance()
        is_super = start.text == "super"
        if not self.at("."):
            return "super" if is_super else self.current_class()
        recv = "super" if is_super else lower_camel(self.current_class())
        fields = self.class_fields[-1] if self.class_fields and not is_super else {}
        value = "unknown"
        while self.accept(".") and self.cur().kind == "ident":
            member = self.advance().text
            if self.at("("):
                self.emit_call(recv, member, start, enclosing)
                return self.parse_postfix(enclosing, "unknown")
            if self.at("="):
                return self.assign_field(recv, member, start, enclosing)
            field_type = fields.get(member)
            recv = "unknown" if field_type is None else lower_camel(simple_name(field_type))
            value = field_type or "unknown"
            fields = {}
        return "unknown" if self.at("[") else value

    def parse_name_chain(self, enclosing: str) -> str:
        start = self.cur()
        segments = [self.advance().text]
        while self.at(".") and self.la().kind == "ident" and self.la(2).text != "(":
            self.advance()
            segments.append(self.advance().text)
        if self.at(".") and self.la().kind == "ident":  # a call segment
            self.advance()
            self.emit_call(self.render_receiver(segments), self.advance().text, start, enclosing)
            return self.parse_postfix(enclosing, "unknown")
        if len(segments) == 1 and self.at("("):
            # unqualified call: instance method of the enclosing class
            self.emit_call(lower_camel(self.current_class()), segments[0], start, enclosing)
            return self.parse_postfix(enclosing, "unknown")
        if self.at("["):
            arr_type = self.lookup(segments[0]) if len(segments) == 1 else None
            self.emit(ItemKind.AA, arr_type or "unknown[]", enclosing, start.line, start.col)
            self.parse_brackets(enclosing)
            elem = arr_type[:-2] if arr_type and arr_type.endswith("[]") else "unknown"
            return self.parse_postfix(enclosing, elem)
        if len(segments) > 1 and self.at("="):
            # dotted assignment target -> field access (write)
            return self.assign_field(self.render_receiver(segments[:-1]), segments[-1],
                                     start, enclosing)
        return self.classify_name(segments)

    def parse_postfix(self, enclosing: str, current: str) -> str:
        # member accesses and calls chained on an unknown intermediate value
        while self.at(".") and self.la().kind == "ident":
            dot = self.advance()
            member = self.advance().text
            if self.at("("):
                self.emit_call("unknown", member, dot, enclosing)
            current = "unknown"
        return current

    def render_receiver(self, segments: list[str]) -> str:
        """Receiver rendering for invocations/field writes.

        A declared variable renders as its type in lower camel; a known type
        name renders as the (resolved) type for static access; anything else
        is the deterministic fallback ``unknown``.
        """
        if len(segments) == 1:
            name = segments[0]
            var_type = self.lookup(name)
            if var_type is not None:
                return lower_camel(simple_name(var_type))
            if self.is_type_name(name):
                return self.resolve_type(name)
            return "unknown"
        if self.lookup(segments[0]) is None and any(s[0].isupper() for s in segments):
            return ".".join(segments)
        return "unknown"

    def classify_name(self, segments: list[str]) -> str:
        if len(segments) == 1:
            var_type = self.lookup(segments[0])
            if var_type is not None:
                return var_type
        # CONSTANT or Type.CONSTANT convention: reads as an int-valued API constant
        return "int" if _CONST_NAME_RE.match(segments[-1]) else "unknown"

    def parse_args(self, enclosing: str) -> list[str]:
        types: list[str] = []
        if not self.accept("("):
            return types
        self.descend()
        while not self.at(")") and self.cur().kind != "eof":
            types.append(self.scan_expression(enclosing, (",", ")")))
            if not self.accept(","):
                break
        self.accept(")")
        self.depth -= 1
        return types

    def scan_braced_init(self, enclosing: str) -> None:
        self.descend()
        self.accept("{")
        while not self.at("}") and self.cur().kind != "eof":
            if self.at("{"):
                self.scan_braced_init(enclosing)
                continue
            self.scan_expression(enclosing, (",", "}"))
            if not self.accept(","):
                break
        self.accept("}")
        self.depth -= 1

    # --- recovery -----------------------------------------------------------

    def skip_balanced(self, opener: str, closer: str) -> None:
        if not self.accept(opener):
            return
        depth = 1
        while depth and self.cur().kind != "eof":
            if self.at(opener):
                depth += 1
            elif self.at(closer):
                depth -= 1
            self.advance()

    def skip_to_statement_end(self) -> None:
        """Skip an unsupported construct: up to ';' or over one balanced block."""
        while self.cur().kind != "eof":
            if self.at(";"):
                self.advance()
                return
            if self.at("{"):
                self.skip_balanced("{", "}")
                return
            if self.at("}"):
                return
            self.advance()


def extract_items(source: str, file_label: str = "<memory>",
                  context_vars: dict[str, str] | None = None,
                  ) -> tuple[list[SourceItem], list[ControlMarker]]:
    """Abstract one source text into items plus control markers.

    Items come back sorted by (line, column of occurrence). ``context_vars``
    injects ambient variable->type bindings (used when abstracting a lone
    statement or a rendered skeleton outside its original file).
    """
    if not source.strip():
        return [], []
    tokens = tokenize(source)
    _check_braces(tokens)
    ex = _Extractor(tokens, file_label, context_vars)
    ex.parse_unit()
    ex.out.sort(key=lambda rec: (rec[0], rec[1]))
    return [item for _, _, item in ex.out], list(ex.markers)


# --- corpus walking ----------------------------------------------------------

def iter_source_files(corpus_dirs: Iterable[str | Path], ext: str = ".java") -> Iterator[Path]:
    """Recursively discover source files under the corpus directories,
    in deterministic sorted order."""
    for root in corpus_dirs:
        root = Path(root)
        if root.is_file():
            if root.suffix == ext:
                yield root
            continue
        yield from sorted(p for p in root.rglob(f"*{ext}") if p.is_file())


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
        f"{it.kind.value}\t{it.name}\t{it.enclosing}\t{it.line}" for it in items
    )
