#!/usr/bin/env python3
"""Fail when a library value is exported but nothing outside test/ calls it.

Every `val` in lib/*/*.mli needs a caller in another lib/ module or in
bin/, bench/, perfbench/ or examples/, or a line in
scripts/unused_exports.allow of the form

    <mli> <name> <seam|oracle|inspect> <reason>

  seam     a test drives process, I/O or parser code through it in-process
  oracle   a test holds a flow kernel to it, or it is such a kernel, and it
           needs the module's private internals
  inspect  a constant-time read of a kept type's state

An allowlist line whose value now has a caller, or no longer exists, also
fails the check, so the list cannot go stale.

Callers come from the compiler's own reference data, not from a word
match: `ocamlcmt -annot` prints each use of another unit's value as
`int_ref <path> "lib/x/y.mli" LINE ...`, resolved through opens and
aliases.  Run `dune build @check` first, so that the executables have
.cmt files too (the scan stops if a caller's .ml has none); then

    python3 scripts/unused_exports.py

prints one line per finding and exits 1 if there is any.
"""

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

REASONS = ("seam", "oracle", "inspect")
CALLER_DIRS = ("lib", "bin", "bench", "perfbench", "examples")
VAL_RE = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))")
REF_RE = re.compile(r'int_ref \S+ "(lib/[^"]+\.mli)" (\d+) ')


def exported_values(root):
    """(mli, line) -> name for every `val` in lib/*/*.mli."""
    vals = {}
    lib = os.path.join(root, "lib")
    for sub in sorted(os.listdir(lib)):
        d = os.path.join(lib, sub)
        if not os.path.isdir(d):
            continue
        for f in sorted(os.listdir(d)):
            if not f.endswith(".mli"):
                continue
            rel = "lib/%s/%s" % (sub, f)
            with open(os.path.join(d, f)) as fh:
                for n, line in enumerate(fh, 1):
                    m = VAL_RE.match(line)
                    if m:
                        vals[(rel, n)] = m.group(1)
    return vals


def cmt_files(build):
    out = []
    for dirpath, _, files in os.walk(build):
        for f in files:
            if f.endswith(".cmt"):
                out.append(os.path.relpath(os.path.join(dirpath, f), build))
    return sorted(out)


def references(build, cmt):
    """(mli, line) pairs the unit in [cmt] uses.  ocamlcmt rebuilds the
    typing environment from the load path recorded in the .cmt, which is
    relative to the build root, so it runs there."""
    p = subprocess.run(
        ["ocamlcmt", "-annot", "-o", "-", cmt],
        cwd=build, capture_output=True, text=True)
    if p.returncode != 0 or "Exception" in p.stderr or "Error" in p.stderr:
        sys.exit("unused_exports: ocamlcmt failed on %s:\n%s" % (cmt, p.stderr.strip()))
    return {(m.group(1), int(m.group(2))) for m in REF_RE.finditer(p.stdout)}


def source_dir(cmt):
    return cmt.split("/", 1)[0]


def uncompiled(root, cmts):
    """.ml files under the caller directories that left no .cmt, so the
    scan would miss their references."""
    units = {(source_dir(c), os.path.basename(c)[:-4].split("__")[-1].lower()) for c in cmts}
    out = []
    for top in CALLER_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for f in files:
                if f.endswith(".ml") and (top, f[:-3].lower()) not in units:
                    out.append(os.path.relpath(os.path.join(dirpath, f), root))
    return sorted(out)


def read_allowlist(path):
    entries, errors = {}, []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 3)
            where = "%s:%d" % (path, n)
            if len(parts) < 4:
                errors.append("%s: want `<mli> <name> <reason-kind> <reason>`" % where)
            elif parts[2] not in REASONS:
                errors.append("%s: reason kind %r is not one of %s" % (where, parts[2], ", ".join(REASONS)))
            elif (parts[0], parts[1]) in entries:
                errors.append("%s: %s %s is listed twice" % (where, parts[0], parts[1]))
            else:
                entries[(parts[0], parts[1])] = where
    return entries, errors


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, "_build", "default")
    allow_path = os.path.join(root, "scripts", "unused_exports.allow")
    callers = [c for c in cmt_files(build) if source_dir(c) in CALLER_DIRS]
    missing = uncompiled(root, callers)
    if missing:
        sys.exit("unused_exports: no .cmt for %s; run `dune build @check` first" % ", ".join(missing))

    vals = exported_values(root)
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as ex:
        called = set().union(*ex.map(lambda c: references(build, c), callers))
    uncalled = {(mli, vals[(mli, n)]) for (mli, n) in vals if (mli, n) not in called}

    allowed, errors = read_allowlist(allow_path)
    names = {(mli, name) for (mli, _), name in vals.items()}
    for key in sorted(uncalled - set(allowed)):
        errors.append("%s %s: exported but nothing outside test/ calls it; "
                      "drop it from the .mli, delete it, or add an allowlist line" % key)
    for key, where in sorted(allowed.items(), key=lambda kv: kv[1]):
        if key not in names:
            errors.append("%s: %s %s is no longer exported; drop the line" % ((where,) + key))
        elif key not in uncalled:
            errors.append("%s: %s %s now has a caller; drop the line" % ((where,) + key))
    for e in errors:
        print(e)
    print("unused_exports: %d values, %d allowlisted, %d finding(s)"
          % (len(vals), len(allowed), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
