#!/usr/bin/env python3
"""Count the workspace's Rust lines, so the net line count can be tracked
like a bench number.

Prints one JSON line:

- `total`: every line of every `.rs` file under the repository root,
  skipping `vendor/` (stand-ins for external crates), `perfbench/` (the
  benchmark's own workspace), `target/` and hidden directories;
- `crates`: for each workspace package (keyed by its `Cargo.toml` name),
  the lines of its `src/` files above each file's first `#[cfg(test)]`,
  i.e. the library and binary code without in-file unit tests.

Usage: python3 scripts/rust_lines.py [repo-root]
(the root defaults to the parent of this script's directory).
"""

import json
import os
import re
import sys
from pathlib import Path

SKIP_DIRS = {"vendor", "perfbench", "target"}


def rust_files(root):
    """Yields every counted `.rs` file under `root`, in a stable order."""
    for dirpath, dirnames, filenames in os.walk(root):
        at_root = Path(dirpath) == root
        dirnames[:] = sorted(
            d
            for d in dirnames
            if not d.startswith(".") and not (at_root and d in SKIP_DIRS)
        )
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield Path(dirpath) / name


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def lines_above_tests(path):
    """Lines of `path` above its first `#[cfg(test)]` (all of them if none)."""
    lines = read_lines(path)
    for i, line in enumerate(lines):
        if line.strip().startswith("#[cfg(test)]"):
            return i
    return len(lines)


def package_name(manifest):
    """The `name` of a manifest's `[package]` table, or None."""
    in_package = False
    for line in read_lines(manifest):
        stripped = line.strip()
        if stripped.startswith("["):
            in_package = stripped == "[package]"
        elif in_package:
            m = re.match(r'name\s*=\s*"([^"]+)"', stripped)
            if m:
                return m.group(1)
    return None


def main(argv):
    if len(argv) > 2:
        sys.exit("usage: rust_lines.py [repo-root]")
    root = Path(argv[1] if len(argv) == 2 else Path(__file__).resolve().parent.parent)
    root = root.resolve()

    total = sum(len(read_lines(p)) for p in rust_files(root))

    package_dirs = [root] + sorted(p for p in (root / "crates").iterdir() if p.is_dir())
    crates = {}
    for pkg in package_dirs:
        manifest = pkg / "Cargo.toml"
        src = pkg / "src"
        if not manifest.is_file() or not src.is_dir():
            continue
        name = package_name(manifest) or pkg.name
        crates[name] = sum(lines_above_tests(p) for p in rust_files(src))

    print(json.dumps({"total": total, "crates": crates}))


if __name__ == "__main__":
    main(sys.argv)
