#!/usr/bin/env python3
"""List the values a library interface exports that no other code uses.

Every `val` and `external` in lib/**/*.mli is an export.  It is used
when a compilation unit other than its own (.ml and .mli) in lib, bin,
bench, examples, perfbench or test names it:

- by a qualified path (`Optimize.Search.greedy`, `Exec.Cost.decide`),
  relative to the file's own library (`Search.greedy` inside
  lib/optimize), or through a module alias (`module S = Optimize.Search`);
- by a bare or partly qualified name under an `open P`, `let open P in`,
  `P.( ... )` or `include P` of the file, relative to the same prefixes.

Comments and string literals are skipped, so a name cited in a doc
comment does not count.  Values declared in a `module type` are
specifications, not exports, and are not listed; nor are the values a
ppx derives.  Operators count as used when their symbol appears in any
other unit.  The analysis is textual: a name used only through a
functor argument or a first-class module is reported although it is
used, so read the list as candidates for deletion, not as a verdict.

Usage: python3 scripts/unused_exports.py [--root DIR]
Prints one `lib/<dir>/<file>.mli:<line>: <Path.to.value>` line per
unused export, then the count.  Exits 0 whatever it finds.
"""

import argparse
import bisect
import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "examples", "perfbench", "test"]

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
MODULE = r"[A-Z][A-Za-z0-9_']*"
# A possibly qualified value or module path: Mod.Mod.name, Mod.Mod, name.
PATH_RE = re.compile(r"(?<![A-Za-z0-9_'.])((?:%s\s*\.\s*)*%s)" % (MODULE, IDENT))
OPEN_RE = re.compile(r"\b(?:open!?|include)\s+(%s(?:\s*\.\s*%s)*)" % (MODULE, MODULE))
LOCAL_OPEN_RE = re.compile(r"(?<![A-Za-z0-9_'.])(%s(?:\s*\.\s*%s)*)\s*\.\s*[(\[{]" % (MODULE, MODULE))
ALIAS_RE = re.compile(
    r"\bmodule\s+(%s)\s*=\s*(%s(?:\s*\.\s*%s)*)" % (MODULE, MODULE, MODULE)
)
OPERATOR_CHARS = "!$%&*+-./:<=>?@^|~#"


def strip_comments_and_strings(text):
    """Blank out comments (nested), string and quoted-string literals
    and character literals, keeping line breaks so line numbers hold."""
    out = []
    i, n = 0, len(text)
    depth = 0
    while i < n:
        c = text[i]
        if depth > 0:
            if text.startswith("(*", i):
                depth += 1
                i += 2
            elif text.startswith("*)", i):
                depth -= 1
                i += 2
            elif c == '"':
                # A string inside a comment is lexed as a string.
                j = skip_string(text, i)
                out.append(re.sub(r"[^\n]", " ", text[i:j]))
                i = j
                continue
            else:
                i += 1
            out.append("\n" if c == "\n" else " ")
            continue
        if text.startswith("(*", i) and not text.startswith("(*)", i):
            depth = 1
            out.append("  ")
            i += 2
        elif c == '"':
            j = skip_string(text, i)
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == "{":
            m = re.match(r"\{([a-z_]*)\|", text[i:])
            if m:
                close = "|" + m.group(1) + "}"
                j = text.find(close, i + len(m.group(0)))
                j = n if j < 0 else j + len(close)
                out.append(re.sub(r"[^\n]", " ", text[i:j]))
                i = j
            else:
                out.append(c)
                i += 1
        elif c == "'":
            m = re.match(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'", text[i:])
            if m:
                out.append(" " * len(m.group(0)))
                i += len(m.group(0))
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def skip_string(text, i):
    j = i + 1
    n = len(text)
    while j < n:
        if text[j] == "\\":
            j += 2
        elif text[j] == '"':
            return j + 1
        else:
            j += 1
    return n


def split_path(p):
    return [part.strip() for part in p.split(".")]


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def unit_prefix(path):
    """The module path of a file under lib/<lib>/, as other libraries
    name it: [Lib] for the library's main module, else [Lib, Module]."""
    parts = path.split(os.sep)
    if len(parts) < 3 or parts[0] != "lib":
        return None
    lib = parts[1][0].upper() + parts[1][1:]
    mod = module_name(path)
    return [lib] if mod == lib else [lib, mod]


def library_of(path):
    parts = path.split(os.sep)
    if len(parts) >= 3 and parts[0] == "lib":
        return parts[1][0].upper() + parts[1][1:]
    return None


TOKEN_RE = re.compile(
    r"%s|[()\[\]{};,=:]|[%s]+" % (IDENT, re.escape(OPERATOR_CHARS))
)


def exports(text):
    """The (line, module path inside the unit, name) of every value an
    interface declares outside module types."""
    code = strip_comments_and_strings(text)
    found = []
    # Frames: ('mod', name) for `module X : sig`, ('type', None) for a
    # module type's `sig`, ('block', None) for other sig/struct/object.
    stack = []
    pending = None
    toks = [(m.start(), m.group(0)) for m in TOKEN_RE.finditer(code)]
    newlines = [i for i, ch in enumerate(code) if ch == "\n"]

    def lineno(pos):
        return bisect.bisect_left(newlines, pos) + 1

    k = 0
    while k < len(toks):
        pos, tok = toks[k]
        if tok == "module":
            nxt = toks[k + 1][1] if k + 1 < len(toks) else ""
            if nxt == "type":
                pending = ("type", None)
                k += 2
                continue
            if nxt == "rec":
                k += 1
                nxt = toks[k + 1][1] if k + 1 < len(toks) else ""
            if re.fullmatch(MODULE, nxt):
                pending = ("mod", nxt)
                k += 2
                continue
        elif tok in ("sig", "struct", "object", "begin"):
            stack.append(pending if (pending and tok == "sig") else ("block", None))
            pending = None
        elif tok == "end":
            if stack:
                stack.pop()
        elif tok in ("val", "external") and k + 1 < len(toks):
            name = toks[k + 1][1]
            if name == "(" and k + 2 < len(toks):
                name = toks[k + 2][1]
            if not any(kind == "type" for kind, _ in stack):
                mods = [n for kind, n in stack if kind == "mod"]
                found.append((lineno(pos), mods, name))
        elif tok in ("type", "exception", "include", "open"):
            pending = None
        k += 1
    return found


def file_context(code):
    """The aliases and opened paths of one source file."""
    aliases = {}
    for m in ALIAS_RE.finditer(code):
        aliases[m.group(1)] = split_path(m.group(2))
    opened = []
    for rx in (OPEN_RE, LOCAL_OPEN_RE):
        for m in rx.finditer(code):
            opened.append(split_path(m.group(1)))
    return aliases, opened


def expand(path, aliases):
    seen = 0
    while path and path[0] in aliases and seen < 8:
        path = aliases[path[0]] + path[1:]
        seen += 1
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(os.path.dirname(__file__), ".."))
    args = ap.parse_args()
    os.chdir(args.root)

    sources = []
    for d in SEARCH_DIRS:
        for dirpath, dirnames, filenames in os.walk(d):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    sources.append(os.path.join(dirpath, f))
    sources.sort()

    texts = {}
    for p in sources:
        with open(p, encoding="utf-8", errors="replace") as fh:
            texts[p] = fh.read()
    code = {p: strip_comments_and_strings(t) for p, t in texts.items()}

    # Per file: the set of (written module path, name) references and
    # the contexts they resolve against.
    refs = {}
    for p, c in code.items():
        aliases, opened = file_context(c)
        lib = library_of(p)
        written = set()
        for m in PATH_RE.finditer(c):
            parts = split_path(m.group(1))
            written.add((tuple(expand(parts[:-1], aliases)), parts[-1]))
        contexts = [[]]
        if lib:
            contexts.append([lib])
        for o in opened:
            o = expand(o, aliases)
            contexts.append(o)
            if lib:
                contexts.append([lib] + o)
        refs[p] = (written, contexts)

    def used_by(p, full_mods, name):
        written, contexts = refs[p]
        for ctx in contexts:
            if len(ctx) > len(full_mods) or full_mods[: len(ctx)] != ctx:
                continue
            if (tuple(full_mods[len(ctx):]), name) in written:
                return True
        return False

    unused = []
    for p in sources:
        if not (p.startswith("lib" + os.sep) and p.endswith(".mli")):
            continue
        prefix = unit_prefix(p)
        own = {p, p[:-1]}
        for line, mods, name in exports(texts[p]):
            full_mods = prefix + mods
            if name and name[0] in OPERATOR_CHARS:
                used = any(name in code[q] for q in sources if q not in own)
            else:
                used = any(used_by(q, full_mods, name) for q in sources if q not in own)
            if not used:
                unused.append("%s:%d: %s" % (p, line, ".".join(full_mods + [name])))

    for u in unused:
        print(u)
    print("%d unused exports" % len(unused))
    return 0


if __name__ == "__main__":
    sys.exit(main())
