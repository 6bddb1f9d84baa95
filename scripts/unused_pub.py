#!/usr/bin/env python3
"""Public items of the runtime, core and sim crates that nothing else names.

Lists every `pub` and `pub(crate)` fn, struct, enum and const defined
before a file's first top-level `#[cfg(test)]` (the part `loc.py`
counts) whose name appears in no other Rust file of the repository.
References are searched in every `.rs` file outside `target/`,
`vendor/` and the benchmark build directories, integration tests and
`perfbench/src` included; comments and `pub use` re-exports do not
count, since neither uses the item. Matching is by name, so an item
whose name another item shares (`new`, `len`) is never listed, while
one used only through type inference (a returned struct) is. The list
is a place to look for dead code, not proof of it, and not a gate.

Usage: scripts/unused_pub.py [crate ...]   (default: runtime core sim)
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CRATES = ["runtime", "core", "sim"]
SKIP_DIRS = {"target", "vendor", ".bench_build", ".git"}

ITEM = re.compile(
    r"^\s*pub(?:\(crate\))?\s+(?:(?:const|async|unsafe)\s+)*"
    r"(fn|struct|enum|const)\s+([A-Za-z_]\w*)"
)
REEXPORT = re.compile(r"\bpub(?:\([^)]*\))?\s+use\b[^;]*;", re.S)
LINE_COMMENT = re.compile(r"//[^\n]*")
IDENT = re.compile(r"[A-Za-z_]\w*")


def rust_files():
    for path in sorted(ROOT.rglob("*.rs")):
        if not SKIP_DIRS.intersection(path.relative_to(ROOT).parts):
            yield path


def identifiers(text):
    text = LINE_COMMENT.sub("", text)
    text = REEXPORT.sub("", text)
    return set(IDENT.findall(text))


def definitions(path):
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("#[cfg(test)]"):
            return
        m = ITEM.match(line)
        if m:
            yield lineno, m.group(1), m.group(2)


def main():
    crates = sys.argv[1:] or DEFAULT_CRATES
    files = list(rust_files())
    names = {p: identifiers(p.read_text(encoding="utf-8")) for p in files}
    listed = 0
    for crate in crates:
        src = ROOT / "crates" / crate / "src"
        if not src.is_dir():
            sys.exit(f"unused_pub.py: no crate source at {src}")
        rows = []
        for path in sorted(src.rglob("*.rs")):
            for lineno, kind, name in definitions(path):
                if not any(name in ids for p, ids in names.items() if p != path):
                    rows.append(f"  {path.relative_to(ROOT)}:{lineno}  {kind} {name}")
        print(f"{crate}: {len(rows)} unreferenced")
        for row in rows:
            print(row)
        listed += len(rows)
    print(f"{listed} unreferenced public items in all listed crates")


if __name__ == "__main__":
    main()
