#!/usr/bin/env python3
"""Docs presence + link check, run by CI and usable locally.

Verifies that the entry-point docs exist (README.md, ARCHITECTURE.md, the
bench and perfbench READMEs) and that every *relative* markdown link in the
repo's tracked .md files resolves to a real file or directory. External links (http/https/mailto) and
intra-page anchors are ignored; an anchor suffix on a relative link
(FILE.md#section) is checked for the file part only.

Usage: scripts/check_docs.py [REPO_ROOT]
Exit status: non-zero on any missing doc or dangling link.
"""
import os
import re
import sys

REQUIRED = ["README.md", "ARCHITECTURE.md", "ROADMAP.md", "bench/README.md",
            "perfbench/README.md"]

# Retrieved reference material (paper scrape, related-work dump) — not ours;
# may carry links into assets that were never part of this repo.
SKIP = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

# [text](target) — excluding images' optional titles and external schemes.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:", "#")


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "build", ".claude")]
        for f in filenames:
            if f.endswith(".md") and f not in SKIP:
                yield os.path.join(dirpath, f)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                           else os.path.join(os.path.dirname(__file__), ".."))
    rc = 0
    for req in REQUIRED:
        if not os.path.isfile(os.path.join(root, req)):
            print(f"FAIL: required doc missing: {req}")
            rc = 1
        else:
            print(f"ok:   {req} present")

    checked = 0
    for md in md_files(root):
        base = os.path.dirname(md)
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(EXTERNAL):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            checked += 1
            if not os.path.exists(resolved):
                print(f"FAIL: {os.path.relpath(md, root)}: dangling link "
                      f"'{target}' -> {os.path.relpath(resolved, root)}")
                rc = 1
    print(f"ok:   {checked} relative links resolve" if rc == 0
          else f"{checked} relative links checked")
    return rc


if __name__ == "__main__":
    sys.exit(main())
