#!/usr/bin/env python3
"""Export scan: every `val` in lib/**/*.mli must have a caller, and
every optional parameter of such a `val` a caller that passes it.

Usage: python3 scripts/exports.py [--list]

For each `val` of a library interface, the scan looks for the name in
every other OCaml file of the repo (lib/, bin/, bench/, perfbench/,
examples/, test/), with comments and string literals stripped.  A file
names `M.v` when it contains `M.v` (or `A.v` for a `module A = ...M`
alias), or when it opens `M` (`open M`, `let open M`, `M.(`, `include
M`) or passes `M` to a functor, and contains `v` as a word.  For a
`val` inside `module S : sig`, `S` plays the part of `M`.  A record
field or label of the same name does not count as a use in the
module's own .ml.  Module names are matched without their library, so
two modules of one name share their callers.

It fails when a `val`
  - is named in no other file, or
  - is named only under test/ and is unused in its own .ml,
unless scripts/exports.allow lists it as `Module.value reason`.  An
allowlist line that names no such `val`, or one the scan would pass
anyway, also fails it, so the list cannot go stale.  A reason starts
with its kind: `inspector:` or `fixture:` for a `val`, which must also
name the test it serves (`test_SUITE`), and `differs:`, `deployment:`,
`planted:` or `oracle:` for an option; any other reason fails the
scan.  A `val` only its own tests call is deleted with them,
not allowlisted.

The second pass reads each `?option` of a `val` signature.  A file
passes it when it names the `val` (as above) and writes `~option` or
`?option` in the application that follows the name: up to the first
`in`, `;`, `then`, `else`, `with`, `let`, `and`, `|`, `->` or `,`
outside brackets, or the bracket that closes around it.  It fails when
no file outside the option's own module and outside test/ passes it,
unless scripts/exports.allow lists it as `Module.value?option reason`;
a stale line fails it here too.

--list prints each `val` with its class, and each option as `passed`
or `unpassed`, instead of checking.
Stdlib only; exit 0 on a clean scan, 1 otherwise.
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
DIRS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
ALLOW = os.path.join(ROOT, "scripts", "exports.allow")
VAL_KINDS = ("inspector", "fixture")
OPTION_KINDS = ("differs", "deployment", "planted", "oracle")
IDENT = r"[A-Za-z0-9_']"


def strip(src):
    """Blank out comments, string and char literals, keeping newlines."""
    out = []
    i, n, depth = 0, len(src), 0

    def skip_string(i):
        i += 1
        while i < n and src[i] != '"':
            i += 2 if src[i] == "\\" else 1
        return i + 1

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            j = skip_string(i)
            if not depth:
                out.append('""' + "\n" * src.count("\n", i, j))
            i = j
        elif depth:
            if c == "\n":
                out.append(c)
            i += 1
        elif c == "{" and re.match(r"\{[a-z_]*\|", src[i:]):
            tag = re.match(r"\{([a-z_]*)\|", src[i:]).group(1)
            j = src.find("|" + tag + "}", i)
            j = n if j < 0 else j + len(tag) + 2
            out.append('""' + "\n" * src.count("\n", i, j))
            i = j
        elif c == "'" and (i == 0 or not re.match(IDENT, src[i - 1])):
            m = re.match(r"'(\\([\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'])'", src[i:])
            if m:
                out.append("' '")
                i += len(m.group(0))
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def module_of(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


SIG_END = re.compile(r"\b(?:val|type|module|end|exception|include|external|class)\b")


def vals_of(mli_text, top):
    """(path, name, options) for every `val`, path being the enclosing
    module chain and options the `?option` labels of its signature."""
    found = []
    stack = []  # one entry per open sig/struct/object/begin: module name or None
    for m in re.finditer(
        r"\bmodule\s+(?:type\s+)?([A-Z]\w*)\s*:\s*sig\b|\b(sig|struct|object|begin)\b|\bend\b|\bval\s+([a-z_][\w']*)",
        mli_text,
    ):
        if m.group(1):
            stack.append(m.group(1))
        elif m.group(2):
            stack.append(None)
        elif m.group(3):
            end = SIG_END.search(mli_text, m.end())
            sig = mli_text[m.end() : end.start() if end else len(mli_text)]
            opts = re.findall(r"\?([a-z_][\w']*)\s*:", sig)
            found.append(([top] + [s for s in stack if s], m.group(3), opts))
        elif stack:
            stack.pop()
    return found


class Source:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8", errors="replace") as f:
            self.text = strip(f.read())
        # module names this file may write a value's module as
        self.aliases = {}
        for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*([A-Z][\w.]*)", self.text):
            self.aliases.setdefault(m.group(2).split(".")[-1], set()).add(m.group(1))
        self.opened = set()
        for m in re.finditer(
            r"\b(?:open!?|include)\s+([A-Z][\w.]*)|\b([A-Z][\w.]*)\.[([{]|\b[A-Z]\w*\s*\(\s*([A-Z][\w.]*)\s*\)",
            self.text,
        ):
            name = (m.group(1) or m.group(2) or m.group(3)).split(".")[-1]
            self.opened.add(name)
            for alias, targets in self.aliases.items():
                if name in targets:
                    self.opened.add(alias)
        self.words = set(re.findall(r"[a-z_][\w']*", self.text))

    def names(self, module, value):
        if value not in self.words:
            return False
        quals = {module} | self.aliases.get(module, set())
        if quals & self.opened and re.search(r"(?<![\w'.])" + re.escape(value) + r"(?![\w'])", self.text):
            return True
        return re.search(self._qualified(quals, value), self.text) is not None

    @staticmethod
    def _qualified(quals, value):
        return r"(?<![\w'])(?:" + "|".join(map(re.escape, sorted(quals))) + r")\." + re.escape(value) + r"(?![\w'])"

    def passes(self, module, value, option):
        """Whether an application of [module.value] here writes
        [~option] or [?option]."""
        if option not in self.words:
            return False
        quals = {module} | self.aliases.get(module, set())
        pats = [self._qualified(quals, value)]
        if quals & self.opened:
            pats.append(r"(?<![\w'.])" + re.escape(value) + r"(?![\w'])")
        label = re.compile(r"[~?]" + re.escape(option) + r"(?![\w'])")
        for pat in pats:
            for m in re.finditer(pat, self.text):
                if label.search(application(self.text, m.end())):
                    return True
        return False


TOKEN = re.compile(r"[A-Za-z_][\w']*|->|\S")
OPEN, CLOSE = {"(", "[", "{", "begin"}, {")", "]", "}", "end"}
STOP = {"in", "then", "else", "with", "let", "and", "do", "done", ";", "|", "->", ","}


def application(text, i):
    """The text of the application whose function name ends at [i]:
    up to a closing bracket or a stop token outside brackets."""
    depth, end = 0, min(len(text), i + 4000)
    for m in TOKEN.finditer(text, i, end):
        t = m.group(0)
        if t in OPEN:
            depth += 1
        elif t in CLOSE:
            depth -= 1
            if depth < 0:
                return text[i : m.start()]
        elif depth == 0 and t in STOP:
            return text[i : m.start()]
    return text[i:end]


def used_in_own(ml_text, inner, value):
    """Whether [value] is named in its own .ml beyond its definitions.
    A record field of the same name (declared, built, punned or read
    with [.]) and a label do not count."""
    v = re.escape(value)
    field = r"(?<![\w'])(?<!let )(?<!and )(?<!rec )" + v + r"\s*(?::(?!:)|=(?!=))|\{\s*" + v + r"\s*[;}]|;\s*" + v + r"\s*\}"
    text = re.sub(field, " ", ml_text)
    uses = len(re.findall(r"(?<![\w'.~?])" + v + r"(?![\w'])", text))
    uses += len(re.findall(r"(?<![\w'])" + re.escape(inner) + r"\." + v + r"(?![\w'])", text))
    defs = len(re.findall(r"\b(?:let|and|external)\s+(?:rec\s+)?" + v + r"(?![\w'])", ml_text))
    return uses > defs


def scan():
    sources = []
    for d in DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [x for x in dirnames if x != "_build"]
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    sources.append(Source(os.path.join(dirpath, f)))
    rows, options = [], []
    for src in sources:
        rel = os.path.relpath(src.path, ROOT)
        if not (rel.startswith("lib" + os.sep) and rel.endswith(".mli")):
            continue
        own = src.path[:-1]
        own_text = strip(open(own, encoding="utf-8").read()) if os.path.exists(own) else ""
        for path, value, opts in vals_of(src.text, module_of(src.path)):
            inner = path[-1]
            key = ".".join(path + [value])
            others = [s for s in sources if s.path not in (src.path, own) and s.names(inner, value)]
            in_test = [s for s in others if os.path.relpath(s.path, ROOT).startswith("test" + os.sep)]
            callers = [s for s in others if s not in in_test]
            for opt in opts:
                options.append((f"{key}?{opt}", rel, any(s.passes(inner, value, opt) for s in callers)))
            if len(others) > len(in_test):
                cls = "called"
            elif in_test:
                cls = "test-used" if used_in_own(own_text, inner, value) else "test-only"
            else:
                cls = "unnamed"
            rows.append((key, rel, cls))
    return rows, options


def load_allow():
    allow = {}
    if os.path.exists(ALLOW):
        for ln, line in enumerate(open(ALLOW, encoding="utf-8"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, reason = line.partition(" ")
            if not reason.strip():
                sys.exit(f"exports.allow:{ln}: {key} has no reason")
            kinds = OPTION_KINDS if "?" in key else VAL_KINDS
            kind, colon, _ = reason.strip().partition(":")
            if not colon or kind not in kinds:
                sys.exit(f"exports.allow:{ln}: {key}'s reason does not start with one of "
                         + ", ".join(k + ":" for k in kinds))
            if kinds is VAL_KINDS and "test_" not in reason:
                sys.exit(f"exports.allow:{ln}: {key}'s reason names no test (test_SUITE)")
            allow[key] = ln
    return allow


def main():
    rows, options = scan()
    if "--list" in sys.argv[1:]:
        for key, rel, cls in rows:
            print(f"{cls:10} {key:40} {rel}")
        for key, rel, passed in options:
            print(f"{'passed' if passed else 'unpassed':10} {key:40} {rel}")
        return 0
    allow = load_allow()
    needed = set()
    bad = []
    for key, rel, cls in rows:
        if cls == "unnamed":
            bad.append(f"{rel}: {key} is named in no other file")
        elif cls == "test-only":
            if key in allow:
                needed.add(key)
            else:
                bad.append(f"{rel}: {key} is named only under test/ and unused in its own module")
    for key, rel, passed in options:
        if passed:
            continue
        if key in allow:
            needed.add(key)
        else:
            bad.append(f"{rel}: {key} is passed by no caller outside its module and test/")
    for key, ln in sorted(allow.items(), key=lambda kv: kv[1]):
        if key not in needed:
            kind = "an unpassed option" if "?" in key else "a test-only val"
            bad.append(f"exports.allow:{ln}: {key} is not {kind}")
    for line in bad:
        print(line)
    print(
        f"export scan: {len(rows)} vals, {len(options)} options, "
        f"{len(needed)} allowlisted, {len(bad)} problem(s)"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
