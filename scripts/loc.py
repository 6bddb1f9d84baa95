#!/usr/bin/env python3
"""Non-test line counts for the runtime, core and sim crates.

A file's count is its lines before its first top-level `#[cfg(test)]`
(the whole file when it has none). Prints one row per source file, a
subtotal per module that spans a directory (`shard.rs` plus `shard/`),
and one total per crate. Informational only: nothing here is a gate.

Usage: scripts/loc.py [crate ...]   (default: runtime core sim)
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CRATES = ["runtime", "core", "sim"]


def non_test_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return i
    return len(lines)


def crate_report(crate):
    src = ROOT / "crates" / crate / "src"
    if not src.is_dir():
        sys.exit(f"loc.py: no crate source at {src}")
    counts = {p.relative_to(src): non_test_lines(p) for p in sorted(src.rglob("*.rs"))}
    print(f"{crate}:")
    for rel, n in counts.items():
        print(f"  {n:6d}  {rel}")
    # A module split into `name.rs` plus `name/`: its files summed.
    for rel in counts:
        subdir = src / rel.with_suffix("")
        if rel.suffix == ".rs" and subdir.is_dir():
            prefix = rel.with_suffix("")
            total = sum(n for r, n in counts.items() if r == rel or prefix in r.parents)
            print(f"  {total:6d}  {prefix}/ module ({rel} + {prefix}/)")
    print(f"  {sum(counts.values()):6d}  total")
    return sum(counts.values())


def main():
    crates = sys.argv[1:] or DEFAULT_CRATES
    grand = sum(crate_report(c) for c in crates)
    print(f"{grand:6d}  all listed crates")


if __name__ == "__main__":
    main()
