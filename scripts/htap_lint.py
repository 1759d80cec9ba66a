#!/usr/bin/env python3
"""htap-lint: project-invariant static analysis for htapdb.

Generic tooling (clang-tidy, sanitizers, -Wthread-safety) cannot express the
invariants this repo's concurrency layer is built on: ranked mutexes only,
EBR pins around latch-free node access, explicit memory orders with audited
rationale. htap-lint checks exactly those. See DESIGN.md section 16 for each
check's rationale and an example violation.

Checks (ids used by suppressions and --only):

  raw-mutex     No std::mutex / std::shared_mutex / std::lock_guard /
                std::unique_lock / std::scoped_lock / std::shared_lock /
                std::condition_variable(_any) / <mutex>-family includes
                outside src/common/mutex.{h,cc}. First-party locking goes
                through htap::Mutex / SharedMutex / SpinLatch so every lock
                is ranked, named and capability-annotated.
  rank-table    The LockRank enum in src/common/mutex.h and the DESIGN.md
                section-11 rank table must agree exactly (names both ways,
                numeric ranks equal). The table lives between
                `htap-lint:rank-table` markers and is regenerated with
                --write-ranks, so drift is always mechanical to fix.
  ebr-pin       In src/index/btree.cc, dereferencing retire-capable Node
                pointers or calling Retire()/RetireNode() requires an active
                EpochManager::Guard in scope, a `// ebr: requires-pin`
                contract on the function (callers are then checked instead),
                or a `// ebr: unpinned-ok — <reason>` exemption
                (single-threaded teardown paths).
  atomic-order  Every explicit std::atomic load/store/RMW/fence in src/ must
                name a std::memory_order — no seq_cst-by-default. The full
                audited site table is emitted by --dump-atomics.
  order-justify Every non-relaxed memory order (acquire/release/acq_rel/
                seq_cst) must carry an `order:` comment — on the statement,
                within the call, or in the comment block directly above —
                stating what the ordering edge pairs with / publishes.
  guarded-by    In a class that owns an htap::Mutex / SharedMutex /
                SpinLatch / RWLatch, every mutable non-atomic data member
                must carry GUARDED_BY/PT_GUARDED_BY (or a justified
                suppression for members protected by other means).
  block-under-latch
                No blocking while a SpinLatch guard or EBR pin is held in
                the same function body: CondVar waits, ranked-mutex
                Lock/LockShared (MutexLock/WriteGuard/ReadGuard), or file
                I/O. Spin sections must stay a handful of instructions;
                pins must not stall epoch advancement on arbitrary waits.

Suppressions: `// htap-lint: <check>[,<check>...] — <justification>` on the
flagged line. The justification is mandatory; each check has a suppression
budget (SUPPRESSION_BUDGET below, default zero) and exceeding it fails the
run, so exceptions stay enumerated and auditable.

Engine: uses the libclang Python bindings for comment/string-accurate
tokenization when importable, and falls back to a built-in lexer with the
same semantics otherwise — the tool always runs. Both engines feed the same
check logic; --engine forces one.

Exit codes: 0 clean, 1 findings/budget violations, 2 usage or parse errors.
"""

import argparse
import os
import re
import sys

FIRST_PARTY_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTS = (".cc", ".h", ".cpp", ".hpp")

# Files allowed to use the raw standard primitives (they implement the
# wrappers).
RAW_MUTEX_ALLOWED = ("src/common/mutex.h", "src/common/mutex.cc")

# Path scoping for the default (whole-repo) run. `--only` overrides this and
# applies the selected checks to every given path (fixture mode).
CHECK_SCOPE = {
    "raw-mutex": FIRST_PARTY_DIRS,
    "atomic-order": ("src",),
    "order-justify": ("src",),
    "guarded-by": ("src",),
    "block-under-latch": ("src",),
}
EBR_FILE = "src/index/btree.cc"
RANK_ENUM_FILE = "src/common/mutex.h"
RANK_DOC_FILE = "DESIGN.md"

CHECKS = (
    "raw-mutex",
    "rank-table",
    "ebr-pin",
    "atomic-order",
    "order-justify",
    "guarded-by",
    "block-under-latch",
)

# Per-check suppression budgets: the exact number of justified exceptions the
# tree is allowed. Default is zero; every grant is enumerated here with the
# reason the exception class exists. Exceeding a budget fails the run even if
# every suppression carries a justification — grow a budget only alongside
# the code review that adds the site.
SUPPRESSION_BUDGET = {
    # lock_rank_test.cc: the <mutex>/<shared_mutex> includes plus the two
    # sizeof() layout static_asserts — the test's whole point is naming the
    # std types; it never locks one.
    "raw-mutex": 4,
    # Members protected by construction-phase immutability or by a lock
    # that isn't lexically expressible (nested structs guarded by the
    # owner's mutex, ctor-fill/dtor-join thread containers).
    "guarded-by": 4,
}

RAW_MUTEX_TOKENS = (
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "shared_timed_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "condition_variable", "condition_variable_any",
)
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(" + "|".join(RAW_MUTEX_TOKENS) + r")\b")
RAW_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>")

ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\(|\b(atomic_thread_fence)\s*\(")
# `x.load()` / `x.store(v)` / `x.exchange(v)` are only atomic ops when `x`
# is atomic — other classes legitimately have methods with those names
# (e.g. a store() accessor). The fetch_*/compare_exchange_* family and
# fences are unambiguous. Receivers are resolved against the set of names
# declared `atomic<...>` anywhere in the linted file set.
AMBIGUOUS_ATOMIC_OPS = {"load", "store", "exchange"}
ATOMIC_DECL_RE = re.compile(
    r"\batomic\s*<[^<>;{}]*(?:<[^<>]*>[^<>;{}]*)?>[\s&*]*(\w+)")
NON_RELAXED_RE = re.compile(
    r"memory_order(?:_|::\s*)(acquire|release|acq_rel|seq_cst|consume)")

MUTEX_MEMBER_TYPES = {"Mutex", "SharedMutex", "SpinLatch", "RWLatch"}
SYNC_MEMBER_TYPES = MUTEX_MEMBER_TYPES | {"CondVar"}
ANNOTATION_MACROS = (
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED", "ACQUIRE",
    "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "TRY_ACQUIRE",
    "TRY_ACQUIRE_SHARED", "EXCLUDES", "RETURN_CAPABILITY",
    "ASSERT_CAPABILITY", "CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS",
)

NODE_MEMBERS = (
    "leaf", "version", "count", "next", "keys", "vals", "Child", "SetChild",
    "StableVersion", "Validate", "TryLock", "LockBlocking", "Unlock",
    "UnlockObsolete", "LowerBound", "UpperBound",
)
NODE_DEREF_RE = re.compile(r"->\s*(" + "|".join(NODE_MEMBERS) + r")\b")
RETIRE_RE = re.compile(r"(?:\.|->|\b)Retire(?:Node)?\s*\(")
PIN_DECL_RE = re.compile(r"\bEpochManager\s*::\s*Guard\s+\w+\s*[({]")
SPIN_DECL_RE = re.compile(r"\bSpinGuard\s+\w+\s*[({]")

BLOCKING_TOKEN_RES = (
    (re.compile(r"\bMutexLock\b"), "ranked-mutex MutexLock"),
    (re.compile(r"\bWriteGuard\b"), "ranked-mutex WriteGuard"),
    (re.compile(r"\bReadGuard\b"), "ranked-mutex ReadGuard"),
    (re.compile(r"(?:\.|->)\s*Lock\s*\("), "ranked-mutex Lock()"),
    (re.compile(r"(?:\.|->)\s*LockShared\s*\("), "ranked-mutex LockShared()"),
    (re.compile(r"(?:\.|->)\s*Wait\s*\("), "CondVar::Wait"),
    (re.compile(r"\b(?:std\s*::\s*)?(?:o|i)?fstream\b"), "file stream"),
    (re.compile(r"\b(?:fopen|fread|fwrite|fflush|fsync|pread|pwrite)\s*\("),
     "file I/O"),
)

SUPPRESS_RE = re.compile(
    r"htap-lint:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*(?:—|–|--|-)\s*(.*)")
EBR_MARKER_RE = re.compile(r"ebr:\s*(requires-pin|unpinned-ok)")
ORDER_NOTE_RE = re.compile(r"\border:")

RANK_MARKER_BEGIN = "<!-- htap-lint:rank-table begin -->"
RANK_MARKER_END = "<!-- htap-lint:rank-table end -->"


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message
        self.suppressed = False
        self.reason = ""

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Source model: raw text + comment-and-string-stripped code (same length,
# newlines preserved) + per-line comment text. Both engines produce this.
# ---------------------------------------------------------------------------

class Source:
    def __init__(self, path, text, code, comments):
        self.path = path
        self.text = text
        self.code = code  # comments/strings blanked, same offsets as text
        self.comments = comments  # {line: " ".join(comment text on line)}
        self.line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(i + 1)

    def line_of(self, offset):
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1  # 1-based

    def code_line(self, line):
        """Stripped code content of a 1-based line."""
        start = self.line_starts[line - 1]
        end = (self.line_starts[line] - 1 if line < len(self.line_starts)
               else len(self.code))
        return self.code[start:end]

    def comment_on(self, line):
        return self.comments.get(line, "")


def _record_comment(comments, line, text):
    for i, part in enumerate(text.split("\n")):
        if part.strip():
            key = line + i
            comments[key] = (comments.get(key, "") + " " + part).strip()


def strip_regex(text):
    """Built-in lexer: blank comments/strings, collect per-line comments."""
    out = list(text)
    comments = {}
    i, n, line = 0, len(text), 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            _record_comment(comments, line, text[i:j])
            for k in range(i, j):
                out[k] = " "
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            _record_comment(comments, line, text[i:j + 2])
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            line += text.count("\n", i, j + 2)
            i = j + 2
        elif ch == '"':
            if i >= 1 and text[i - 1] == "R":
                m = re.match(r'R"([^()\s]*)\(', text[i - 1:i + 20])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i + 1)
                    j = n - len(close) if j == -1 else j
                    end = j + len(close)
                    for k in range(i, end):
                        if out[k] != "\n":
                            out[k] = " "
                    line += text.count("\n", i, end)
                    i = end
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                if out[k] != "\n":
                    out[k] = " "
            line += text.count("\n", i, min(j + 1, n))
            i = j + 1
        elif ch == "'" and not (i >= 1 and (text[i - 1].isalnum()
                                            or text[i - 1] == "_")):
            # Not a digit separator (1'000'000): blank the char literal.
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out), comments


_LIBCLANG = None


def _libclang():
    """Import clang.cindex once; None when unavailable (fallback engine)."""
    global _LIBCLANG
    if _LIBCLANG is None:
        try:
            import clang.cindex as ci
            idx = ci.Index.create()
            _LIBCLANG = (ci, idx)
        except Exception:
            _LIBCLANG = (None, None)
    return _LIBCLANG


def strip_libclang(path, text):
    """libclang tokenizer front end: identical artifacts to strip_regex."""
    ci, idx = _libclang()
    if ci is None:
        return None
    try:
        tu = idx.parse(path, args=["-std=c++17", "-fsyntax-only"],
                       unsaved_files=[(path, text)])
        out = list(text)
        comments = {}
        line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                line_starts.append(i + 1)

        def off(loc):
            return line_starts[loc.line - 1] + loc.column - 1

        for tok in tu.get_tokens(extent=tu.cursor.extent):
            kind = tok.kind.name
            spelling = tok.spelling
            if kind == "COMMENT" or (kind == "LITERAL"
                                     and spelling[:1] in "\"'RuUL"
                                     and '"' in spelling or
                                     kind == "LITERAL"
                                     and spelling[:1] == "'"):
                start = off(tok.extent.start)
                end = off(tok.extent.end)
                if kind == "COMMENT":
                    _record_comment(comments, tok.extent.start.line, spelling)
                for k in range(start, min(end, len(out))):
                    if out[k] != "\n":
                        out[k] = " "
        return "".join(out), comments
    except Exception:
        return None


def load_source(path, engine):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    stripped = None
    if engine in ("auto", "libclang"):
        stripped = strip_libclang(path, text)
        if stripped is None and engine == "libclang":
            raise RuntimeError("libclang engine requested but unavailable")
    if stripped is None:
        stripped = strip_regex(text)
    return Source(path, text, stripped[0], stripped[1])


# ---------------------------------------------------------------------------
# Structural helpers: brace blocks and function regions over stripped code.
# ---------------------------------------------------------------------------

class Block:
    __slots__ = ("open", "close", "parent")

    def __init__(self, open_, close, parent):
        self.open = open_
        self.close = close
        self.parent = parent


def build_blocks(code):
    blocks, stack = [], []
    for i, ch in enumerate(code):
        if ch == "{":
            b = Block(i, len(code), stack[-1] if stack else None)
            blocks.append(b)
            stack.append(b)
        elif ch == "}" and stack:
            stack.pop().close = i
    return blocks


CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "do", "else"}
CONTAINER_RE = re.compile(
    r"\b(class|struct|union|namespace|enum)\b")


class FuncRegion:
    def __init__(self, name, header_line, block, container):
        self.name = name
        self.header_line = header_line
        self.block = block
        self.container = container  # enclosing container header text or ""


def _header_of(code, block):
    """Text from the previous ; { or } up to this block's opening brace."""
    i = block.open - 1
    while i >= 0 and code[i] not in ";{}":
        i -= 1
    return code[i + 1:block.open], i + 1


def extract_functions(src):
    """Function-like blocks (name + body extent), with enclosing container
    headers for struct/class method attribution. AST-lite: good enough for
    this repo's formatting; fixtures pin the supported shapes."""
    code = src.code
    funcs = []
    containers = {}  # block -> header text
    blocks = build_blocks(code)
    func_blocks = set()
    for b in blocks:
        header, hstart = _header_of(code, b)
        if CONTAINER_RE.search(header) and "(" not in header.split("<")[0]:
            containers[b] = header
            continue
        paren = header.find("(")
        if paren == -1 or ")" not in header:
            continue
        m = re.findall(r"[A-Za-z_]\w*", header[:paren])
        if not m:
            continue
        name = m[-1]
        if name in CONTROL_KEYWORDS:
            continue
        # Skip blocks nested inside another function (control flow handled
        # by the keyword filter; lambdas have no name and fall out above).
        p = b.parent
        nested = False
        while p is not None:
            if p in func_blocks:
                nested = True
                break
            p = p.parent
        if nested:
            continue
        func_blocks.add(b)
        container = ""
        p = b.parent
        while p is not None:
            if p in containers:
                container = containers[p]
                break
            p = p.parent
        first_nonws = hstart
        while first_nonws < b.open and code[first_nonws].isspace():
            first_nonws += 1
        funcs.append(FuncRegion(name, src.line_of(first_nonws), b, container))
    return funcs


def leading_comment_lines(src, line):
    """Contiguous comment-only lines directly above `line` (inclusive of a
    trailing comment on `line` itself)."""
    texts = [src.comment_on(line)]
    cur = line - 1
    while cur >= 1 and not src.code_line(cur).strip() and src.comment_on(cur):
        texts.append(src.comment_on(cur))
        cur -= 1
    return [t for t in texts if t]


def statement_start_line(src, line):
    """Walk up past continuation lines to the statement's first line."""
    cur = line
    while cur > 1:
        prev = src.code_line(cur - 1).strip()
        if not prev or prev[-1] in ";{}:" or prev.endswith("):"):
            break
        cur -= 1
    return cur


def matching_paren(code, open_idx):
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_raw_mutex(src, findings):
    if src.path.replace(os.sep, "/").endswith(RAW_MUTEX_ALLOWED):
        return
    for m in RAW_MUTEX_RE.finditer(src.code):
        findings.append(Finding(
            "raw-mutex", src.path, src.line_of(m.start()),
            f"raw std::{m.group(1)} — use the ranked htap:: wrappers "
            f"(src/common/mutex.h, latch.h)"))
    for m in RAW_INCLUDE_RE.finditer(src.code):
        findings.append(Finding(
            "raw-mutex", src.path, src.line_of(m.start()),
            f"#include <{m.group(1)}> outside the wrapper layer"))


def _receiver_is_atomic(src, op_match, atomic_names):
    """For the ambiguous load/store/exchange ops, does the receiver's final
    identifier name something declared atomic? Unresolvable receivers (e.g.
    a call result) are conservatively treated as atomic."""
    if op_match.group(1) not in AMBIGUOUS_ATOMIC_OPS:
        return True
    recv = re.search(r"(\w+)\s*$", src.code[:op_match.start()])
    return recv is None or recv.group(1) in atomic_names


def check_atomic_order(src, findings, atomic_names):
    for m in ATOMIC_OP_RE.finditer(src.code):
        op = m.group(1) or m.group(2)
        open_idx = src.code.index("(", m.end() - 1)
        close_idx = matching_paren(src.code, open_idx)
        span = src.code[open_idx:close_idx + 1]
        if "memory_order" in span:
            continue
        if not _receiver_is_atomic(src, m, atomic_names):
            continue
        findings.append(Finding(
            "atomic-order", src.path, src.line_of(m.start()),
            f"atomic {op}() without an explicit std::memory_order "
            f"(seq_cst-by-default is banned; say what you need)"))


def _order_justified(src, stmt_line, end_line):
    """An `order:` comment on the statement's lines, or in the comment block
    (or trailing comment) directly above it, justifies the site."""
    if any(ORDER_NOTE_RE.search(src.comment_on(ln))
           for ln in range(stmt_line, end_line + 1)):
        return True
    return any(ORDER_NOTE_RE.search(t)
               for t in leading_comment_lines(src, stmt_line - 1))


def check_order_justify(src, findings):
    for m in ATOMIC_OP_RE.finditer(src.code):
        open_idx = src.code.index("(", m.end() - 1)
        close_idx = matching_paren(src.code, open_idx)
        span = src.code[m.start():close_idx + 1]
        if not NON_RELAXED_RE.search(span):
            continue
        op_line = src.line_of(m.start())
        end_line = src.line_of(close_idx)
        stmt_line = statement_start_line(src, op_line)
        if not _order_justified(src, stmt_line, end_line):
            order = NON_RELAXED_RE.search(span).group(1)
            findings.append(Finding(
                "order-justify", src.path, op_line,
                f"memory_order_{order} without an `order:` comment "
                f"explaining the required edge (what it pairs with)"))


def _decl_is_function(decl):
    """True when a class-body declaration is a function (vs data member).
    Parens inside template args or brace initializers don't count."""
    angle = brace = 0
    for ch in decl:
        if ch == "<":
            angle += 1
        elif ch == ">":
            angle = max(0, angle - 1)
        elif ch == "{":
            brace += 1
        elif ch == "}":
            brace = max(0, brace - 1)
        elif ch == "(" and angle == 0 and brace == 0:
            return True
    return False


MEMBER_SKIP_RE = re.compile(
    r"^\s*(using|typedef|friend|static|static_assert|enum|class|struct|"
    r"union|template|explicit|virtual|operator|public|private|protected|"
    r"~|\})")


def collect_lock_owning_types(sources):
    """Class/struct names that own a ranked mutex member anywhere in the
    linted set. A member whose type is such a class is internally
    synchronized — the class protects its own state — so the containing
    class owes no GUARDED_BY claim for it."""
    mutex_decl = re.compile(
        r"\b(?:" + "|".join(sorted(MUTEX_MEMBER_TYPES)) + r")\s+\w+")
    types = set()
    for src in sources:
        code = src.code
        for b in build_blocks(code):
            header, _ = _header_of(code, b)
            cm = re.search(r"\b(class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
                       r"([A-Za-z_][\w:]*)", header)
            if cm and mutex_decl.search(code[b.open + 1:b.close]):
                types.add(cm.group(2).split("::")[-1])
    return types


def check_guarded_by(src, findings, lock_owning_types=frozenset()):
    code = src.code
    blocks = build_blocks(code)
    for b in blocks:
        header, _ = _header_of(code, b)
        cm = re.search(r"\b(class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
                       r"([A-Za-z_][\w:]*)", header)
        if not cm:
            continue
        class_name = cm.group(2)
        body = code[b.open + 1:b.close]
        # Blank nested blocks and parens so top-level ';' split is clean.
        flat = []
        depth = 0
        for ch in body:
            if ch in "{(":
                depth += 1
                flat.append(ch)
            elif ch in "})":
                depth -= 1
                flat.append(ch)
            elif depth > 0 and ch != "\n" and ch != ";":
                flat.append(" ")
            elif depth > 0 and ch == ";":
                flat.append(" ")
            else:
                flat.append(ch)
        flat = "".join(flat)
        flat = re.sub(r"\b(public|private|protected)\s*:", " ", flat)
        members = []   # (name, decl, offset_in_body)
        mutexes = []
        pos = 0
        for raw_decl in flat.split(";"):
            decl_off = pos
            pos += len(raw_decl) + 1
            decl = raw_decl.strip()
            if not decl or MEMBER_SKIP_RE.match(decl):
                continue
            stripped = decl
            for mac in ANNOTATION_MACROS:
                stripped = re.sub(mac + r"\s*\([^()]*\)", " ", stripped)
                stripped = re.sub(r"\b" + mac + r"\b", " ", stripped)
            if _decl_is_function(stripped):
                continue
            # Drop initializers for the name/type split.
            head = re.split(r"[={]", stripped, 1)[0].strip()
            head = re.sub(r"\[[^\]]*\]", "", head).strip()
            ids = re.findall(r"[A-Za-z_]\w*", head)
            if len(ids) < 2:
                continue
            name = ids[-1]
            type_text = head[:head.rfind(name)]
            type_ids = set(re.findall(r"[A-Za-z_]\w*", type_text))
            abs_off = b.open + 1 + decl_off + len(raw_decl) - len(
                raw_decl.lstrip())
            line = src.line_of(b.open + 1 + decl_off +
                               raw_decl.find(name))
            if type_ids & SYNC_MEMBER_TYPES:
                if type_ids & MUTEX_MEMBER_TYPES:
                    mutexes.append(name)
                continue
            if "const" in type_ids or "constexpr" in type_ids:
                continue
            if "atomic" in type_ids or "atomic_bool" in type_ids:
                continue
            if type_ids & lock_owning_types:
                continue  # member's type carries its own lock
            if re.search(r"\b(PT_)?GUARDED_BY\b", decl):
                continue
            members.append((name, line))
        if mutexes:
            for name, line in members:
                findings.append(Finding(
                    "guarded-by", src.path, line,
                    f"member '{name}' of {class_name} (owns mutex "
                    f"'{mutexes[0]}') has no GUARDED_BY/PT_GUARDED_BY claim"))


def _scopes(src, func, decl_re):
    """(start, end) offsets from each decl matching decl_re to the end of
    its innermost enclosing block within `func`."""
    code = src.code
    body = code[func.block.open:func.block.close + 1]
    scopes = []
    for m in decl_re.finditer(body):
        pos = func.block.open + m.start()
        blocks = build_blocks(code)
        inner = func.block
        for b in blocks:
            if b.open <= pos <= b.close:
                if b.open >= inner.open and b.close <= inner.close:
                    inner = b
        scopes.append((pos, inner.close))
    return scopes


def check_block_under_latch(src, findings):
    for func in extract_functions(src):
        scopes = (_scopes(src, func, SPIN_DECL_RE) +
                  _scopes(src, func, PIN_DECL_RE))
        if not scopes:
            continue
        body = src.code[func.block.open:func.block.close + 1]
        for token_re, what in BLOCKING_TOKEN_RES:
            for m in token_re.finditer(body):
                pos = func.block.open + m.start()
                if any(s <= pos <= e for s, e in scopes):
                    findings.append(Finding(
                        "block-under-latch", src.path, src.line_of(pos),
                        f"{what} while a spin latch or EBR pin is held in "
                        f"{func.name}()"))


def check_ebr_pin(src, findings):
    funcs = extract_functions(src)
    markers = {}
    for func in funcs:
        texts = leading_comment_lines(src, func.header_line)
        # Also accept the marker anywhere on the header's own lines.
        mk = set()
        for t in texts:
            m = EBR_MARKER_RE.search(t)
            if m:
                mk.add(m.group(1))
        markers[func] = mk
    container_marks = {}
    blocks = build_blocks(src.code)
    for b in blocks:
        header, hstart = _header_of(src.code, b)
        if CONTAINER_RE.search(header):
            first = hstart
            while first < b.open and src.code[first].isspace():
                first += 1
            for t in leading_comment_lines(src, src.line_of(first)):
                m = EBR_MARKER_RE.search(t)
                if m:
                    container_marks[b] = m.group(1)
    requires_pin_names = set()
    for func in funcs:
        mk = set(markers[func])
        p = func.block.parent
        while p is not None:
            if p in container_marks:
                mk.add(container_marks[p])
            p = p.parent
        markers[func] = mk
        if "requires-pin" in mk:
            requires_pin_names.add(func.name)

    call_res = {name: re.compile(r"\b" + name + r"\s*\(")
                for name in requires_pin_names}

    for func in funcs:
        mk = markers[func]
        if "unpinned-ok" in mk:
            continue
        pinned_everywhere = "requires-pin" in mk
        scopes = _scopes(src, func, PIN_DECL_RE)
        body = src.code[func.block.open:func.block.close + 1]

        def pinned(pos):
            return pinned_everywhere or any(s <= pos <= e
                                            for s, e in scopes)

        for m in NODE_DEREF_RE.finditer(body):
            pos = func.block.open + m.start()
            if not pinned(pos):
                findings.append(Finding(
                    "ebr-pin", src.path, src.line_of(pos),
                    f"node->{m.group(1)} outside an active EBR pin in "
                    f"{func.name}() — retire-capable node access needs "
                    f"EpochManager::Guard or an `ebr: requires-pin` "
                    f"contract"))
        for m in RETIRE_RE.finditer(body):
            pos = func.block.open + m.start()
            if not pinned(pos):
                findings.append(Finding(
                    "ebr-pin", src.path, src.line_of(pos),
                    f"Retire() while not pinned in {func.name}()"))
        for name, cre in call_res.items():
            if name == func.name:
                continue
            for m in cre.finditer(body):
                pos = func.block.open + m.start()
                if not pinned(pos):
                    findings.append(Finding(
                        "ebr-pin", src.path, src.line_of(pos),
                        f"call to {name}() (contract: requires-pin) outside "
                        f"an active EBR pin in {func.name}()"))


# ---------------------------------------------------------------------------
# rank-table: LockRank enum <-> DESIGN.md table consistency + regeneration.
# ---------------------------------------------------------------------------

def parse_rank_enum(src):
    m = re.search(r"enum\s+class\s+LockRank[^{]*\{", src.code)
    if not m:
        return None, "no `enum class LockRank` found"
    close = src.code.index("}", m.end())
    ranks = {}
    body_raw = src.text[m.end():close]
    for em in re.finditer(r"k(\w+)\s*=\s*(\d+)\s*,?([^\n]*)", body_raw):
        comment = em.group(3).strip()
        comment = re.sub(r"^//\s*", "", comment)
        ranks["k" + em.group(1)] = (int(em.group(2)), comment)
    return ranks, None


def parse_rank_doc(doc_text):
    begin = doc_text.find(RANK_MARKER_BEGIN)
    end = doc_text.find(RANK_MARKER_END)
    if begin == -1 or end == -1:
        return None, (f"DESIGN.md rank table markers missing "
                      f"({RANK_MARKER_BEGIN!r} … {RANK_MARKER_END!r})")
    table = doc_text[begin:end]
    rows = {}
    for rm in re.finditer(
            r"^\|\s*(\d+)\s*\|\s*`(k\w+)`\s*\|([^|]*)\|([^|]*)\|",
            table, re.M):
        rows[rm.group(2)] = (int(rm.group(1)), rm.group(3).strip(),
                             rm.group(4).strip())
    return rows, None


def check_rank_table(enum_src, doc_path, findings):
    ranks, err = parse_rank_enum(enum_src)
    if err:
        findings.append(Finding("rank-table", enum_src.path, 1, err))
        return
    with open(doc_path, "r", encoding="utf-8") as f:
        doc_text = f.read()
    rows, err = parse_rank_doc(doc_text)
    if err:
        findings.append(Finding("rank-table", doc_path, 1, err))
        return
    for name, (value, _) in sorted(ranks.items(), key=lambda kv: kv[1][0]):
        if name not in rows:
            findings.append(Finding(
                "rank-table", doc_path, 1,
                f"LockRank::{name} ({value}) missing from the DESIGN.md "
                f"rank table — run --write-ranks"))
        elif rows[name][0] != value:
            findings.append(Finding(
                "rank-table", doc_path, 1,
                f"LockRank::{name} drifted: enum says {value}, table says "
                f"{rows[name][0]} — run --write-ranks"))
    for name, (value, _, _) in rows.items():
        if name not in ranks:
            findings.append(Finding(
                "rank-table", doc_path, 1,
                f"table row `{name}` ({value}) has no LockRank constant — "
                f"stale doc entry"))


def render_rank_table(enum_src, doc_path):
    ranks, err = parse_rank_enum(enum_src)
    if err:
        raise RuntimeError(err)
    rows = {}
    if os.path.exists(doc_path):
        with open(doc_path, "r", encoding="utf-8") as f:
            parsed, _ = parse_rank_doc(f.read())
            rows = parsed or {}
    lines = [
        "| Rank | Name (`LockRank::`)  | Protects"
        "                                    | Evidence for its position |",
        "|-----:|----------------------|------------------------------------"
        "---------|---------------------------|",
    ]
    for name, (value, comment) in sorted(ranks.items(),
                                         key=lambda kv: kv[1][0]):
        protects, evidence = (rows.get(name) or (None, None, None))[1:]
        if protects is None:
            protects = comment or "(fill in)"
            evidence = "(fill in: name the nesting chain fixing this edge)"
        lines.append(f"| {value:>4} | `{name}`{' ' * max(1, 20 - len(name) - 2)}| "
                     f"{protects} | {evidence} |")
    return "\n".join(lines)


def write_rank_table(enum_src, doc_path):
    with open(doc_path, "r", encoding="utf-8") as f:
        doc = f.read()
    begin = doc.find(RANK_MARKER_BEGIN)
    end = doc.find(RANK_MARKER_END)
    if begin == -1 or end == -1:
        raise RuntimeError("rank table markers missing in " + doc_path)
    table = render_rank_table(enum_src, doc_path)
    new = (doc[:begin + len(RANK_MARKER_BEGIN)] + "\n" + table + "\n" +
           doc[end:])
    with open(doc_path, "w", encoding="utf-8") as f:
        f.write(new)


def collect_atomic_names(sources):
    """Names declared `atomic<...>` anywhere in the linted file set."""
    names = set()
    for src in sources:
        for m in ATOMIC_DECL_RE.finditer(src.code):
            names.add(m.group(1))
    return names


def dump_atomics(sources):
    """Auditable table of every explicit atomic op site in the linted set."""
    atomic_names = collect_atomic_names(sources)
    print("file\tline\top\torders\tjustified")
    count = 0
    for src in sources:
        for m in ATOMIC_OP_RE.finditer(src.code):
            if not _receiver_is_atomic(src, m, atomic_names):
                continue
            op = m.group(1) or m.group(2)
            open_idx = src.code.index("(", m.end() - 1)
            close_idx = matching_paren(src.code, open_idx)
            span = src.code[m.start():close_idx + 1]
            orders = sorted(set(
                o.group(1) for o in re.finditer(
                    r"memory_order(?:_|::\s*)(\w+)", span))) or ["(none)"]
            line = src.line_of(m.start())
            justified = _order_justified(
                src, statement_start_line(src, line), src.line_of(close_idx))
            print(f"{src.path}\t{line}\t{op}\t{','.join(orders)}\t"
                  f"{'yes' if justified else '-'}")
            count += 1
    print(f"# {count} atomic sites", file=sys.stderr)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_suppressions(src):
    """{line: {check: reason}} plus malformed-suppression findings.

    A suppression on a comment-only line covers the next line that carries
    code (NOLINTNEXTLINE-style), so long justifications need not share the
    flagged line.
    """
    n_lines = len(src.line_starts)
    out, bad = {}, []
    for line, text in src.comments.items():
        if "htap-lint" not in text:
            continue
        m = SUPPRESS_RE.search(text)
        if not m:
            bad.append(Finding(
                "suppression", src.path, line,
                "malformed suppression — use `// htap-lint: <check> — "
                "<justification>`"))
            continue
        target = line
        if not src.code_line(line).strip():
            probe = line + 1
            while probe <= n_lines and not src.code_line(probe).strip():
                probe += 1
            if probe <= n_lines:
                target = probe
        checks = [c.strip() for c in m.group(1).split(",")]
        reason = m.group(2).strip()
        for c in checks:
            if c not in CHECKS:
                bad.append(Finding(
                    "suppression", src.path, line,
                    f"suppression names unknown check '{c}'"))
                continue
            if not reason:
                bad.append(Finding(
                    "suppression", src.path, line,
                    f"suppression for '{c}' lacks a justification"))
                continue
            out.setdefault(target, {})[c] = reason
    return out, bad


def in_scope(path, check, only):
    rel = path.replace(os.sep, "/")
    if only:
        return check in only
    if check == "ebr-pin":
        return rel.endswith(EBR_FILE)
    dirs = CHECK_SCOPE.get(check, ())
    return any(rel.startswith(d + "/") or ("/" + d + "/") in rel
               for d in dirs)


def main():
    ap = argparse.ArgumentParser(
        description="htap-lint: project-invariant static analysis")
    ap.add_argument("paths", nargs="*",
                    help="files to lint (default: first-party tree)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: script's parent dir)")
    ap.add_argument("--engine", choices=("auto", "regex", "libclang"),
                    default="auto")
    ap.add_argument("--only", action="append", default=[], metavar="CHECK",
                    help="run only this check, on every given path "
                         "(repeatable; fixture mode)")
    ap.add_argument("--budget", action="append", default=[],
                    metavar="CHECK=N", help="override a suppression budget")
    ap.add_argument("--rank-enum", default=None,
                    help="header holding `enum class LockRank`")
    ap.add_argument("--rank-doc", default=None,
                    help="markdown doc holding the marked rank table")
    ap.add_argument("--dump-ranks", action="store_true",
                    help="print the regenerated rank table and exit")
    ap.add_argument("--write-ranks", action="store_true",
                    help="rewrite the rank table between its markers")
    ap.add_argument("--dump-atomics", action="store_true",
                    help="print the audited atomic-site table and exit")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--ci", action="store_true",
                    help="terse output for CI logs")
    args = ap.parse_args()

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    for c in args.only:
        if c not in CHECKS:
            print(f"htap-lint: unknown check '{c}'", file=sys.stderr)
            return 2
    budgets = dict(SUPPRESSION_BUDGET)
    for spec in args.budget:
        try:
            check, n = spec.split("=", 1)
            if check not in CHECKS:
                raise ValueError
            budgets[check] = int(n)
        except ValueError:
            print(f"htap-lint: bad --budget '{spec}'", file=sys.stderr)
            return 2

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    rank_enum = args.rank_enum or os.path.join(root, RANK_ENUM_FILE)
    rank_doc = args.rank_doc or os.path.join(root, RANK_DOC_FILE)

    if args.paths:
        paths = args.paths
    else:
        paths = []
        for d in FIRST_PARTY_DIRS:
            for base, _, names in os.walk(os.path.join(root, d)):
                if "lint_fixtures" in base:
                    continue  # fixtures deliberately violate the checks
                for n in sorted(names):
                    if n.endswith(CPP_EXTS):
                        paths.append(os.path.join(base, n))
    paths = [os.path.relpath(p, root) if os.path.isabs(p) else p
             for p in paths]

    os.chdir(root)
    sources = []
    for p in paths:
        try:
            sources.append(load_source(p, args.engine))
        except OSError as e:
            print(f"htap-lint: cannot read {p}: {e}", file=sys.stderr)
            return 2

    if args.dump_ranks or args.write_ranks:
        enum_src = load_source(os.path.relpath(rank_enum, root)
                               if os.path.isabs(rank_enum) else rank_enum,
                               args.engine)
        if args.write_ranks:
            write_rank_table(enum_src, rank_doc)
            print(f"rank table rewritten in {rank_doc}")
        else:
            print(render_rank_table(enum_src, rank_doc))
        return 0

    if args.dump_atomics:
        dump_atomics([s for s in sources
                      if in_scope(s.path, "atomic-order", args.only)])
        return 0

    only = set(args.only)
    findings = []
    atomic_names = collect_atomic_names(sources)
    lock_owning_types = collect_lock_owning_types(sources)
    for src in sources:
        if in_scope(src.path, "raw-mutex", only):
            check_raw_mutex(src, findings)
        if in_scope(src.path, "atomic-order", only):
            check_atomic_order(src, findings, atomic_names)
        if in_scope(src.path, "order-justify", only):
            check_order_justify(src, findings)
        if in_scope(src.path, "guarded-by", only):
            check_guarded_by(src, findings, lock_owning_types)
        if in_scope(src.path, "block-under-latch", only):
            check_block_under_latch(src, findings)
        if in_scope(src.path, "ebr-pin", only):
            check_ebr_pin(src, findings)
    if (not only and not args.paths) or "rank-table" in only:
        try:
            enum_src = load_source(rank_enum, args.engine)
            check_rank_table(enum_src, rank_doc, findings)
        except OSError as e:
            findings.append(Finding("rank-table", rank_enum, 1, str(e)))

    # Apply suppressions and the per-check budget.
    errors = []
    suppressed_counts = {}
    suppression_errors = []
    supp_by_file = {}
    for src in sources:
        supp, bad = collect_suppressions(src)
        supp_by_file[src.path] = supp
        suppression_errors.extend(bad)
    for f in findings:
        reason = supp_by_file.get(f.path, {}).get(f.line, {}).get(f.check)
        if reason:
            f.suppressed = True
            f.reason = reason
            suppressed_counts[f.check] = suppressed_counts.get(f.check, 0) + 1
        else:
            errors.append(f)
    errors.extend(suppression_errors)

    over_budget = []
    for check, count in sorted(suppressed_counts.items()):
        budget = budgets.get(check, 0)
        if count > budget:
            over_budget.append(
                f"[{check}] {count} suppressions exceed the budget of "
                f"{budget} — fix the code or grow the budget in review")
        elif count < budget and not args.ci:
            print(f"note: [{check}] {count} suppressions under budget "
                  f"{budget} — tighten SUPPRESSION_BUDGET")

    for f in sorted(errors, key=lambda f: (f.path, f.line)):
        print(str(f))
    for msg in over_budget:
        print(msg)
    n_files = len(sources)
    n_supp = sum(suppressed_counts.values())
    if errors or over_budget:
        print(f"htap-lint: FAILED — {len(errors)} finding(s), "
              f"{len(over_budget)} budget violation(s) over {n_files} files")
        return 1
    if not args.ci:
        for check, count in sorted(suppressed_counts.items()):
            print(f"  [{check}] {count} justified suppression(s) "
                  f"(budget {budgets.get(check, 0)})")
    print(f"htap-lint: OK — {n_files} files, {n_supp} justified "
          f"suppression(s), 0 findings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
