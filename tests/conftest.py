from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from esdp.extractor import extract_corpus
from esdp.transactions import SequenceDatabase, SequenceRecord, build_sequence_db

# The 12-method fixture corpus: 7 methods carry the five-call parser
# sequence (5 field-based with a return, 2 local-variable based), 5 decoys
# use a disjoint vocabulary. Mining it at min-support 2 must surface the
# 5-sequence with support 7/12 on top.

_PARSER_FIELD_CASE = """package com.fixture;
import org.eclipse.jdt.core.dom.ASTParser;
import org.eclipse.jdt.core.dom.CompilationUnit;
import org.eclipse.jdt.core.ICompilationUnit;

public class ParserCase{n} {{
    private ASTParser parser;
    private CompilationUnit cu;

    protected CompilationUnit parse{n}(ICompilationUnit unit) {{
        parser = ASTParser.newParser(AST.JLS3);
        parser.setKind(ASTParser.K_COMPILATION_UNIT);
        parser.setSource(unit);
        parser.setResolveBindings(true);
        cu = (CompilationUnit) parser.createAST(null);
        return cu;
    }}
}}
"""

_PARSER_LOCAL_CASE = """package com.fixture;
import org.eclipse.jdt.core.dom.ASTParser;
import org.eclipse.jdt.core.ICompilationUnit;

public class LocalCase{n} {{
    void run{n}(ICompilationUnit unit) {{
        ASTParser parser = ASTParser.newParser(AST.JLS3);
        parser.setKind(ASTParser.K_COMPILATION_UNIT);
        parser.setSource(unit);
        parser.setResolveBindings(true);
        parser.createAST(null);
    }}
}}
"""

_DAO_CASE = """package com.fixture;
import java.sql.Connection;
import java.sql.DriverManager;

public class Dao{n} {{
    void open{n}() {{
        Connection conn = DriverManager.getConnection("jdbc:x");
        conn.close();
    }}
}}
"""

_WIDGET_CASES = [
    """package com.fixture;

public class Widget3 {
    private List items3;

    void spin3() {
        items3.add("x");
    }
}
""",
    """package com.fixture;

public class Widget4 {
    void flush4(Buffer buf) {
        buf.flip();
        buf.clear();
    }
}
""",
    """package com.fixture;

public class Widget5 {
    int count5(String[] names) {
        return names.length;
    }
}
""",
]

PLANTED_ELEMENTS = (
    ("MI", "dom.ASTParser.newParser(int)"),
    ("MI", "aSTParser.setKind(int)"),
    ("MI", "aSTParser.setSource(core.ICompilationUnit)"),
    ("MI", "aSTParser.setResolveBindings(boolean)"),
    ("MI", "aSTParser.createAST(null)"),
)


def write_fixture_corpus(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for n in range(1, 6):
        (root / f"ParserCase{n}.java").write_text(
            _PARSER_FIELD_CASE.format(n=n), encoding="utf-8")
    for n in (6, 7):
        (root / f"LocalCase{n}.java").write_text(
            _PARSER_LOCAL_CASE.format(n=n), encoding="utf-8")
    for n in (1, 2):
        (root / f"Dao{n}.java").write_text(_DAO_CASE.format(n=n), encoding="utf-8")
    for i, text in enumerate(_WIDGET_CASES, start=3):
        (root / f"Widget{i}.java").write_text(text, encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def fixture_corpus(tmp_path_factory) -> Path:
    return write_fixture_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def fixture_db(fixture_corpus) -> SequenceDatabase:
    items, _ = extract_corpus([fixture_corpus])
    return build_sequence_db(items)


def random_sequence_db(rng: random.Random, max_records: int = 8,
                       max_items: int = 6, alphabet: int = 5) -> SequenceDatabase:
    """Small random database for oracle-equivalence checks."""
    n_records = rng.randint(1, max_records)
    symbols = [("MI", f"api.call{i}()") for i in range(alphabet)]
    records = []
    for rid in range(n_records):
        length = rng.randint(1, max_items)
        items = tuple(rng.choice(symbols) for _ in range(length))
        records.append(SequenceRecord(f"pkg.Cls.m{rid}()", items))
    return SequenceDatabase(tuple(records))
