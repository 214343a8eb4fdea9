#!/usr/bin/env python3
"""xfci repo linter: project rules the compiler does not enforce.

Path fences
-----------
Each path fence is one row of FENCES: a rule name, the path prefixes
allowed to use something, an #include pattern (matched on the raw text,
quoted and <...> forms alike) and/or a token pattern (matched on the code
with comments and strings blanked), a message and, optionally, the path
prefixes the row applies to (default: all of src/).  Any match in a file
in scope and outside the allowed prefixes is a finding.  A new fence is a
new row.

raw-assert          No raw assert()/abort() or <cassert>/<assert.h> in src/:
                    contract violations go through XFCI_REQUIRE/XFCI_ASSERT/
                    XFCI_DCHECK so they throw xfci::Error with file/line/
                    expression context instead of killing the process.
serve-layering      The serve layer sits *on top of* the solve pipeline
                    (DESIGN.md §15): nothing under src/ outside src/serve/
                    may include a serve/ header, so the core libraries stay
                    linkable without the job engine.
ipc-fence           Raw process/shared-memory syscalls (fork, shm_open, mmap,
                    kill, syscall(SYS_futex, ...) ...) live in
                    src/parallel/{shm_ipc,process_ddi}.*
                    (DESIGN.md §14): a stray fork() under a live ThreadTeam
                    or an unmanaged shm_open is the bug class ProcessDdi
                    confines.
timing              Raw clock reads (std::chrono, clock_gettime,
                    gettimeofday) are fenced inside src/common/timer.*,
                    src/common/trace.* and src/parallel/: everything else
                    times through Timer or a Ddi/Tracer clock so the
                    simulated backend stays deterministic and traces carry
                    one clock domain per backend (DESIGN.md §11).
simd                x86 intrinsics (<immintrin.h>, _mm*/__m* tokens) are
                    fenced inside the per-ISA micro-kernel TUs
                    (src/linalg/gemm_kernels_*): those are the only files
                    compiled with -m ISA flags, so an intrinsic anywhere
                    else either breaks the portable build or silently
                    requires the ISA everywhere (DESIGN.md §12).
env-read            Raw environment access (getenv/setenv/...) is fenced
                    inside src/common/env.*: everything else goes through
                    xfci::env::get() so every consulted variable is recorded
                    and surfaced in the run report (--metrics).
telemetry           A counter(/gauge(/histogram( call whose first argument
                    is a string literal is fenced inside
                    src/common/metric_names.hpp, so the full metric surface
                    is greppable in one header and names cannot drift
                    between the Prometheus exposition and the
                    xfci-telemetry-v1 snapshot (DESIGN.md §16).
hamiltonian         Explicit Hamiltonian elements (hamiltonian_element(,
                    build_dense_hamiltonian() are fenced inside
                    src/fci/slater_condon.* and src/fci/solvers.* (the
                    preconditioner's model block): every other product
                    with H, truncated CI included, goes through a
                    SigmaOperator, so src/ has one Hamiltonian engine
                    (DESIGN.md §5.7).
cost-model          The simulator alone turns work into seconds: calls of
                    x1::CostModel's converters (dgemm_seconds(,
                    daxpy_seconds(, indexed_seconds(, get_seconds(,
                    acc_seconds(, recv_target_seconds(, acc_target_seconds()
                    are fenced inside src/x1/ and src/parallel/
                    simulated_ddi.*; the sigma hands its counts to
                    pv::Ddi::charge as one pv::Work record (DESIGN.md §10).
gemm-kernel         The micro-kernels and their panel layout stay behind
                    linalg: GemmMicroKernel and active_gemm_kernel are
                    fenced inside src/linalg/, so code outside multiplies
                    through gemm() or the pre-laid product (GemmPackedB,
                    GemmPanelsA, gemm_prelaid) and never calls a kernel's
                    run() on panels of its own (DESIGN.md §12).
linalg-leaf         src/linalg/ is a leaf over src/common/: xfci_linalg
                    links only xfci_common, so a file under src/linalg/
                    includes only common/ and linalg/ project headers; an
                    include of another layer (parallel/, fci/, x1/, ...)
                    would make every user of linalg (chem, integrals, scf)
                    pull that layer in (DESIGN.md §3).

Other rules
-----------
using-namespace     No `using namespace` at any scope in headers.
pragma-once         Every header starts with #pragma once.
entry-require       Public entry points in src/fci/, src/fci_parallel/ and
                    src/parallel/ (externally visible functions taking a
                    span/vector/Matrix/TaskPool argument) must validate
                    their inputs: a contract macro within the first
                    NEAR_TOP lines of the body.  Suppress intentionally
                    unchecked functions with `// lint: no-require` on the
                    signature line.
catch-swallow       No `catch (...)` that swallows the exception: the body
                    must rethrow (`throw;`), capture it for later
                    (`std::current_exception`/`std::rethrow_exception`), or
                    at minimum log it.  Silent catch-alls turn faults into
                    wrong answers — the recovery layer (DESIGN.md, "Failure
                    model") depends on errors surfacing.
lock-annotations    Lock discipline is compiler-checked (DESIGN.md §13):
                    no raw std::mutex / std::condition_variable members
                    outside src/common/sync.hpp — concurrency code uses the
                    annotated xfci::sync wrappers; every sync::Mutex member
                    must be named by at least one XFCI_GUARDED_BY /
                    XFCI_PT_GUARDED_BY / XFCI_REQUIRES / XFCI_ACQUIRE in the
                    same file (a capability nothing is guarded by is a lie);
                    and every XFCI_NO_THREAD_SAFETY_ANALYSIS carries a
                    `justification:` comment on the same line or in the
                    comment block directly above it.
determinism         No std::unordered_{map,set,multimap,multiset} in src/ —
                    their iteration order is hash-seed dependent, and the
                    paper claims bitwise-reproducible outputs, so anything
                    that could feed an accumulation, checkpoint or report
                    must iterate deterministically (std::map/sorted vector).
                    Escape a genuinely order-free use with
                    `// lint: unordered-ok`.
include-cycles      The quoted-include graph over src/ headers must be a
                    DAG; a cycle is reported with its full path.
suppression-budget  The repo-wide suppression counts (NOLINT,
                    XFCI_NO_THREAD_SAFETY_ANALYSIS, `lint:` escapes) must
                    equal the budget in .lint-budget: growth fails until the
                    budget is raised in the same change (reviewable), and a
                    slack budget fails until ratcheted down.
self-contained      (--compile-headers) every header under src/ compiles as
                    its own translation unit.

--fix rewrites what is mechanical: inserts a missing #pragma once and
inserts a justification stub above a bare XFCI_NO_THREAD_SAFETY_ANALYSIS.
By default it prints a unified diff and exits 1 if fixes are pending;
--apply writes the files.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from typing import NamedTuple

SRC_SUBDIRS_ENTRY = ("src/fci/", "src/fci_parallel/", "src/parallel/")
CONTRACT_MACROS = ("XFCI_REQUIRE", "XFCI_ASSERT", "XFCI_DCHECK")
SIZED_TYPES = re.compile(
    r"std::span|std::vector|Matrix\s*&|TaskPool\s*&|std::function")
NEAR_TOP = 14  # lines of body in which the first contract must appear
SUPPRESS = "lint: no-require"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving newlines
    and column positions so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if ch == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if ch in "\"'":
                mode = ch
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif mode == "line":
            if ch == "\n":
                mode = None
                out.append(ch)
            else:
                out.append(" ")
        elif mode == "block":
            if ch == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        else:  # inside a literal
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == mode:
                mode = None
            out.append(ch if ch in (mode, "\n") else " ")
        i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Fence(NamedTuple):
    """One path fence (see the module docstring).  `include` is a header-
    name regex and `token` a code regex; each has one group, the offender
    that `message` names through its "{}"."""
    rule: str
    allowed: tuple  # exempt path prefixes ("src/..."); () fences all
    include: str | None
    token: str | None
    message: str
    scope: tuple = ()  # path prefixes the row applies to; () is all


FENCES = (
    Fence("raw-assert", (), r"cassert|assert\.h",
          r"(?<![\w:])(assert|abort)\s*\(",
          "raw `{}` — contracts go through common/error.hpp: use "
          "XFCI_REQUIRE/XFCI_ASSERT/XFCI_DCHECK (throws xfci::Error with "
          "context)"),
    Fence("serve-layering", ("src/serve/",), r"serve/[^\">]+", None,
          "include of `{}` outside src/serve/: the solve pipeline must not "
          "depend on the job engine — drivers link xfci_serve, core "
          "libraries never do"),
    Fence("ipc-fence", ("src/parallel/shm_ipc.", "src/parallel/process_ddi."),
          None,
          r"\b(fork|vfork|shm_open|shm_unlink|mmap|munmap|ftruncate|"
          r"waitpid|prctl|kill|sigaction|syscall)\s*\(",
          "raw ipc syscall `{}` outside src/parallel/shm_ipc.* and "
          "process_ddi.*: processes and shared memory are owned by the "
          "ProcessDdi backend — use pv::Ddi / parallel/shm_ipc.hpp"),
    Fence("timing", ("src/common/timer.", "src/common/trace.",
                     "src/parallel/"), None,
          r"\b(std::chrono|clock_gettime|gettimeofday|steady_clock|"
          r"system_clock|high_resolution_clock)\b",
          "raw clock read `{}` outside the timing layer; use xfci::Timer or "
          "the Ddi/Tracer clock so simulated runs stay deterministic"),
    Fence("simd", ("src/linalg/gemm_kernels_",),
          r"(?:x86|imm|avx\w*)intrin\.h", r"\b(_mm\d*_\w+|__m\d+[di]?)\b",
          "`{}` outside src/linalg/gemm_kernels_*: x86 intrinsics live only "
          "in those TUs (-m ISA flags, runtime cpuid gate); add a "
          "dispatched kernel variant"),
    Fence("env-read", ("src/common/env.",), None,
          r"\b(?:std::)?(getenv|secure_getenv|setenv|putenv|unsetenv)\s*\(",
          "raw {}() outside src/common/env.*; go through xfci::env::get() "
          "so the read is recorded in the run report"),
    # strip_comments_and_strings keeps a literal's opening quote, so this
    # matches a quoted first argument in code but not in comments.
    Fence("telemetry", ("src/common/metric_names.hpp",), None,
          r"\b(counter|gauge|histogram)\s*\(\s*\"",
          "metric registered via {}(\"...\") with an inline name; use a "
          "MetricSpec constant from common/metric_names.hpp"),
    Fence("hamiltonian", ("src/fci/slater_condon.", "src/fci/solvers."),
          None, r"\b(hamiltonian_element|build_dense_hamiltonian)\s*\(",
          "explicit Hamiltonian `{}` outside src/fci/slater_condon.* and "
          "src/fci/solvers.*: apply H through a SigmaOperator (a truncated "
          "space through project_sigma)"),
    Fence("cost-model", ("src/x1/", "src/parallel/simulated_ddi."), None,
          r"\b((?:dgemm|daxpy|indexed|get|acc|recv_target|acc_target)"
          r"_seconds)\s*\(",
          "cost-model converter `{}` outside src/x1/ and "
          "src/parallel/simulated_ddi.*: the simulator alone turns work "
          "into seconds; hand the counts to pv::Ddi::charge as a pv::Work "
          "record"),
    Fence("gemm-kernel", ("src/linalg/",), None,
          r"\b(GemmMicroKernel|active_gemm_kernel)\b",
          "`{}` outside src/linalg/: the micro-kernels and their panel "
          "layout stay behind linalg; multiply through gemm(), or pack a "
          "reused B with GemmPackedB and call gemm_prelaid()"),
    Fence("linalg-leaf", (), r"(?!(?:common|linalg)/)\w+/[\w/]*\.hpp", None,
          "include of `{}` in src/linalg/: linalg is a leaf over common "
          "(xfci_linalg links only xfci_common); include only common/ and "
          "linalg/ headers", scope=("src/linalg/",)),
)
# A row's `include` as a quoted or <...> include at the start of a line.
INCLUDE_LINE = r'^[ \t]*#[ \t]*include[ \t]*[<"](%s)[>"]'


def check_fences(path: str, raw: str, code: str, findings: list) -> None:
    norm = path.replace(os.sep, "/")
    for fence in FENCES:
        if norm.startswith(fence.allowed) or (
                fence.scope and not norm.startswith(fence.scope)):
            continue
        include = fence.include and INCLUDE_LINE % fence.include
        for pattern, text in ((include, raw), (fence.token, code)):
            if not pattern:
                continue
            for m in re.finditer(pattern, text, re.MULTILINE):
                findings.append(
                    Finding(path, line_of(text, m.start()), fence.rule,
                            fence.message.format(m.group(1))))


def check_using_namespace(path: str, code: str, findings: list) -> None:
    for m in re.finditer(r"\busing\s+namespace\b", code):
        findings.append(
            Finding(path, line_of(code, m.start()), "using-namespace",
                    "`using namespace` in a header leaks into every "
                    "includer; use namespace aliases"))


def check_pragma_once(path: str, raw: str, findings: list) -> None:
    for lineno, line in enumerate(raw.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped != "#pragma once":
            findings.append(
                Finding(path, lineno, "pragma-once",
                        "header must start with #pragma once"))
        return
    findings.append(Finding(path, 1, "pragma-once", "empty header"))


def _body_extent(code: str, open_brace: int) -> int:
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def _anonymous_regions(code: str):
    """[start, end) character ranges covered by anonymous namespaces."""
    regions = []
    for m in re.finditer(r"\bnamespace\s*\{", code):
        open_brace = code.index("{", m.start())
        regions.append((open_brace, _body_extent(code, open_brace) + 1))
    return regions


def check_entry_require(path: str, raw: str, code: str,
                        findings: list) -> None:
    anon = _anonymous_regions(code)
    raw_lines = raw.splitlines()
    # A function definition: `)` [cv/ref/noexcept/ctor-init junk] `{` where
    # the signature back to the previous statement boundary has a parameter
    # list.  clang-formatted code keeps this shape reliable.
    for m in re.finditer(r"\)[^;{}()]*\{", code):
        open_brace = code.index("{", m.start())
        if any(a <= open_brace < b for a, b in anon):
            continue
        # Signature: back from the matching '(' of this ')' to the previous
        # ';', '}' or '{'.
        close_paren = m.start()
        depth = 0
        sig_open = -1
        for i in range(close_paren, -1, -1):
            if code[i] == ")":
                depth += 1
            elif code[i] == "(":
                depth -= 1
                if depth == 0:
                    sig_open = i
                    break
        if sig_open <= 0:
            continue
        head_start = max(code.rfind(";", 0, sig_open),
                         code.rfind("}", 0, sig_open),
                         code.rfind("{", 0, sig_open)) + 1
        head = code[head_start:sig_open]
        params = code[sig_open + 1:close_paren]
        name_m = re.search(r"([\w:~]+)\s*$", head)
        if not name_m:
            continue
        name = name_m.group(1)
        last = name.split("::")[-1]
        if last in ("if", "for", "while", "switch", "catch", "return",
                    "sizeof", "defined"):
            continue
        if re.search(r"\b(static|inline)\b", head):
            continue
        if "[" in head.split("\n")[-1]:  # lambda introducer
            continue
        if not SIZED_TYPES.search(params):
            continue
        sig_line = line_of(code, sig_open)
        brace_line = line_of(code, open_brace)
        if any(SUPPRESS in raw_lines[ln - 1]
               for ln in range(sig_line, brace_line + 1)
               if 0 < ln <= len(raw_lines)):
            continue
        body = code[open_brace:_body_extent(code, open_brace)]
        near_top = "\n".join(body.splitlines()[:NEAR_TOP])
        if not any(macro in near_top for macro in CONTRACT_MACROS):
            findings.append(
                Finding(path, sig_line, "entry-require",
                        f"public entry point `{name}` takes sized arguments "
                        "but has no XFCI_REQUIRE/ASSERT/DCHECK near the top "
                        f"of its body (first {NEAR_TOP} lines); add a size "
                        f"check or suppress with `// {SUPPRESS}`"))


HANDLES_EXCEPTION = re.compile(
    r"\bthrow\b|\brethrow_exception\b|\bcurrent_exception\b|"
    r"\bcerr\b|\bclog\b|\bfprintf\b|\blog\w*\s*\(")


def check_catch_swallow(path: str, code: str, findings: list) -> None:
    for m in re.finditer(r"\bcatch\s*\(\s*\.\.\.\s*\)\s*\{", code):
        open_brace = code.index("{", m.end() - 1)
        body = code[open_brace:_body_extent(code, open_brace) + 1]
        if HANDLES_EXCEPTION.search(body):
            continue
        findings.append(
            Finding(path, line_of(code, m.start()), "catch-swallow",
                    "`catch (...)` swallows the exception; rethrow, store "
                    "std::current_exception(), or log before continuing"))


# The only file allowed to hold raw standard-library lock primitives: the
# annotated wrappers themselves (DESIGN.md §13).
SYNC_WRAPPER = "src/common/sync.hpp"
# The macro definitions; the suppression token legitimately appears here.
ANNOTATIONS_HEADER = "src/common/annotations.hpp"
RAW_PRIMITIVE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?)\b")
SYNC_MUTEX_MEMBER = re.compile(r"\bsync::Mutex\s+(\w+)\s*;")
TSA_ANNOTATION = re.compile(
    r"\bXFCI_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES(?:_SHARED)?|"
    r"ACQUIRE|RELEASE|TRY_ACQUIRE|EXCLUDES|RETURN_CAPABILITY)\s*\(([^()]*)\)")
TSA_SUPPRESS = "XFCI_NO_THREAD_SAFETY_ANALYSIS"
JUSTIFICATION = "justification:"


def _has_justification(raw_lines: list, lineno: int) -> bool:
    """True if raw line `lineno` (1-based) carries a `justification:`
    comment, either trailing on the line itself or in the contiguous
    //-comment block directly above it."""
    if JUSTIFICATION in raw_lines[lineno - 1]:
        return True
    i = lineno - 2
    while i >= 0 and raw_lines[i].lstrip().startswith("//"):
        if JUSTIFICATION in raw_lines[i]:
            return True
        i -= 1
    return False


def check_lock_annotations(path: str, raw: str, code: str,
                           findings: list) -> None:
    """Compiler-checked lock discipline (DESIGN.md §13)."""
    norm = path.replace(os.sep, "/")
    raw_lines = raw.splitlines()
    if norm != SYNC_WRAPPER:
        for m in RAW_PRIMITIVE.finditer(code):
            findings.append(
                Finding(path, line_of(code, m.start()), "lock-annotations",
                        f"raw {m.group(0)} outside common/sync.hpp; use the "
                        "annotated xfci::sync wrappers so Clang "
                        "-Wthread-safety can prove the lock discipline"))
    # Every sync::Mutex member must actually guard something: collect the
    # identifiers named inside XFCI_* annotation arguments in this file and
    # require each declared capability to appear among them.
    annotated = set()
    for m in TSA_ANNOTATION.finditer(code):
        annotated.update(re.findall(r"\w+", m.group(1)))
    for m in SYNC_MUTEX_MEMBER.finditer(code):
        name = m.group(1)
        if name not in annotated:
            findings.append(
                Finding(path, line_of(code, m.start()), "lock-annotations",
                        f"sync::Mutex member `{name}` is never named by an "
                        "XFCI_GUARDED_BY/PT_GUARDED_BY/REQUIRES/ACQUIRE "
                        "annotation in this file; declare what it protects"))
    if norm == ANNOTATIONS_HEADER:
        return  # the macro's own definition site
    for m in re.finditer(r"\b%s\b" % TSA_SUPPRESS, code):
        lineno = line_of(code, m.start())
        if not _has_justification(raw_lines, lineno):
            findings.append(
                Finding(path, lineno, "lock-annotations",
                        f"{TSA_SUPPRESS} without a `{JUSTIFICATION}` comment "
                        "on the same line or directly above; every analysis "
                        "hole must say why it is sound (or run --fix for a "
                        "stub)"))


UNORDERED = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")
UNORDERED_OK = "lint: unordered-ok"


def check_determinism(path: str, raw: str, code: str, findings: list) -> None:
    """Hash containers iterate in a seed-dependent order; the paper claims
    bitwise-reproducible outputs (DESIGN.md §13)."""
    raw_lines = raw.splitlines()
    for m in UNORDERED.finditer(code):
        lineno = line_of(code, m.start())
        if UNORDERED_OK in raw_lines[lineno - 1]:
            continue
        findings.append(
            Finding(path, lineno, "determinism",
                    f"std::unordered_{m.group(1)} iterates in hash order — "
                    "outputs must be bitwise reproducible; use std::map / a "
                    f"sorted vector, or escape with `// {UNORDERED_OK}` if "
                    "no iteration feeds an output"))


INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"',
                        re.MULTILINE)


def check_include_cycles(graph: dict, edge_lines: dict,
                         findings: list) -> None:
    """graph maps src/-relative header paths to the headers they quote-
    include; any strongly-connected inclusion is reported with its path."""
    color = {}  # absent = white, 1 = on stack, 2 = done
    stack = []
    reported = set()

    def dfs(u):
        color[u] = 1
        stack.append(u)
        for v in sorted(graph.get(u, ())):
            state = color.get(v)
            if state == 1:
                cycle = stack[stack.index(v):] + [v]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    findings.append(
                        Finding("src/" + cycle[0],
                                edge_lines.get((cycle[0], cycle[1]), 1),
                                "include-cycles",
                                "header include cycle: " +
                                " -> ".join(cycle)))
            elif state is None:
                dfs(v)
        stack.pop()
        color[u] = 2

    for u in sorted(graph):
        if u not in color:
            dfs(u)


def lint_tree(root: str) -> list:
    findings = []
    src = os.path.join(root, "src")
    include_graph = {}
    edge_lines = {}
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if not fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
            code = strip_comments_and_strings(raw)
            check_fences(rel, raw, code, findings)
            check_catch_swallow(rel, code, findings)
            check_lock_annotations(rel, raw, code, findings)
            check_determinism(rel, raw, code, findings)
            if fn.endswith((".hpp", ".h")):
                check_using_namespace(rel, code, findings)
                check_pragma_once(rel, raw, findings)
                hdr = os.path.relpath(path, src).replace(os.sep, "/")
                include_graph[hdr] = []
                for m in INCLUDE_RE.finditer(raw):
                    include_graph[hdr].append(m.group(1))
                    edge_lines[(hdr, m.group(1))] = line_of(raw, m.start())
            if any(rel.startswith(d) for d in SRC_SUBDIRS_ENTRY) and \
               fn.endswith((".cpp", ".cc")):
                check_entry_require(rel, raw, code, findings)
    # Keep only edges between collected headers (system/installed includes
    # cannot participate in a src/ cycle).
    include_graph = {
        h: [i for i in incs if i in include_graph]
        for h, incs in include_graph.items()
    }
    check_include_cycles(include_graph, edge_lines, findings)
    return findings


def compile_headers(root: str, cxx: str) -> list:
    findings = []
    src = os.path.join(root, "src")
    headers = []
    for dirpath, _dirnames, filenames in os.walk(src):
        headers += [os.path.join(dirpath, f) for f in filenames
                    if f.endswith((".hpp", ".h"))]
    for path in sorted(headers):
        rel = os.path.relpath(path, src)
        proc = subprocess.run(
            [cxx, "-std=c++20", "-fsyntax-only", "-Wall", "-Wextra",
             "-I", src, "-x", "c++", "-"],
            input=f'#include "{rel}"\n',
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            first = proc.stderr.strip().splitlines()
            findings.append(
                Finding(os.path.relpath(path, root), 1, "self-contained",
                        "header does not compile standalone: " +
                        (first[0] if first else "unknown error")))
    return findings


# ------------------------------------------------------- suppression budget --

BUDGET_FILE = ".lint-budget"
BUDGET_KEYS = ("no-thread-safety-analysis", "nolint", "lint-escape")


def count_suppressions(root: str) -> dict:
    counts = {k: 0 for k in BUDGET_KEYS}
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if not fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
            if rel != ANNOTATIONS_HEADER:
                code = strip_comments_and_strings(raw)
                counts["no-thread-safety-analysis"] += len(
                    re.findall(r"\b%s\b" % TSA_SUPPRESS, code))
            # NOLINT and `lint:` escapes live in comments: count on raw.
            counts["nolint"] += len(re.findall(r"\bNOLINT", raw))
            counts["lint-escape"] += len(re.findall(r"//\s*lint:", raw))
    return counts


def check_suppression_budget(root: str, findings: list) -> None:
    """The budget must match reality exactly: a new suppression fails until
    the budget is raised in the same (reviewable) change, and a removed one
    fails until the budget is ratcheted down so slack never accumulates."""
    budget_path = os.path.join(root, BUDGET_FILE)
    if not os.path.isfile(budget_path):
        findings.append(
            Finding(BUDGET_FILE, 1, "suppression-budget",
                    f"missing {BUDGET_FILE}; record the current counts "
                    "(see --help) so suppression growth is reviewable"))
        return
    budget = {}
    with open(budget_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                findings.append(
                    Finding(BUDGET_FILE, lineno, "suppression-budget",
                            f"unparsable budget line `{line}`; expected "
                            "`<key> <count>`"))
                return
            budget[parts[0]] = int(parts[1])
    counts = count_suppressions(root)
    for key in BUDGET_KEYS:
        actual, allowed = counts[key], budget.get(key)
        if allowed is None:
            findings.append(
                Finding(BUDGET_FILE, 1, "suppression-budget",
                        f"no `{key}` entry; add `{key} {actual}`"))
        elif actual > allowed:
            findings.append(
                Finding(BUDGET_FILE, 1, "suppression-budget",
                        f"{key} suppressions grew: {actual} in src/ vs "
                        f"budget {allowed}; remove the new suppression or "
                        "raise the budget explicitly in this change"))
        elif actual < allowed:
            findings.append(
                Finding(BUDGET_FILE, 1, "suppression-budget",
                        f"{key} budget is slack: {actual} in src/ vs budget "
                        f"{allowed}; ratchet the budget down to {actual}"))


# --------------------------------------------------------------------- fix --

FIX_STUB = ("// justification: TODO — document why the thread-safety "
            "analysis must be off here.")


def _fix_pragma_once(raw: str) -> str:
    lines = raw.splitlines(keepends=True)
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped == "#pragma once":
            return raw
        lines.insert(i, "#pragma once\n\n")
        return "".join(lines)
    lines.append("#pragma once\n")  # header of comments/blank lines only
    return "".join(lines)


def _fix_justifications(raw: str) -> str:
    code = strip_comments_and_strings(raw)
    need = set()
    raw_lines = raw.splitlines()
    for m in re.finditer(r"\b%s\b" % TSA_SUPPRESS, code):
        lineno = line_of(code, m.start())
        if not _has_justification(raw_lines, lineno):
            need.add(lineno)
    if not need:
        return raw
    lines = raw.splitlines(keepends=True)
    for lineno in sorted(need, reverse=True):
        indent = re.match(r"[ \t]*", lines[lineno - 1]).group(0)
        lines.insert(lineno - 1, indent + FIX_STUB + "\n")
    return "".join(lines)


def fix_tree(root: str, apply_fixes: bool) -> int:
    """Applies (or previews) the mechanical fixes; returns the number of
    files that change."""
    changed = 0
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if not fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
            fixed = raw
            if fn.endswith((".hpp", ".h")):
                fixed = _fix_pragma_once(fixed)
            if rel != ANNOTATIONS_HEADER:
                fixed = _fix_justifications(fixed)
            if fixed == raw:
                continue
            changed += 1
            if apply_fixes:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(fixed)
                print(f"fixed {rel}")
            else:
                sys.stdout.writelines(difflib.unified_diff(
                    raw.splitlines(keepends=True),
                    fixed.splitlines(keepends=True),
                    fromfile="a/" + rel, tofile="b/" + rel))
    return changed


# --------------------------------------------------------------- self-test --

GOOD_CPP = """\
#include "common/error.hpp"
namespace xfci::fci {
void apply_block(std::span<const double> c) {
  XFCI_REQUIRE(!c.empty(), "empty block");
}
void helper(std::vector<double>& v) {  // lint: no-require
  v.clear();
}
}  // namespace xfci::fci
"""

BAD_ASSERT_CPP = """\
#include <cassert>
namespace xfci::fci {
void f(int x) { assert(x > 0); }
void g() { abort(); }
}  // namespace xfci::fci
"""

BAD_HEADER = """\
#pragma once
using namespace std;
"""

BAD_NO_PRAGMA = """\
#ifndef GUARD_H
#define GUARD_H
#endif
"""

BAD_CATCH_CPP = """\
namespace xfci::fci {
void f() {
  try {
    g();
  } catch (...) {
  }
}
}  // namespace xfci::fci
"""

GOOD_CATCH_CPP = """\
#include <exception>
namespace xfci::fci {
void f(std::exception_ptr& err) {
  try {
    g();
  } catch (...) {
    if (!err) err = std::current_exception();
  }
  try {
    h();
  } catch (...) {
    throw;
  }
}
}  // namespace xfci::fci
"""

BAD_IPC_CPP = """\
#include <sys/mman.h>
#include <unistd.h>
namespace xfci::fcp {
void f() {
  int fd = shm_open("/x", 0, 0);
  if (fork() == 0) kill(getppid(), 9);
  (void)fd;
}
}  // namespace xfci::fcp
"""

BAD_FUTEX_CPP = """\
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
namespace xfci::pv {
void wake(unsigned* word) {
  (void)syscall(SYS_futex, word, FUTEX_WAKE, 1, nullptr, nullptr, 0);
}
}  // namespace xfci::pv
"""

GOOD_IPC_CPP = """\
// shm_open / fork / kill live in the process backend; a comment mention
// (or the word forklift) must not trip the ipc fence.
namespace xfci::fcp {
void forklift_kill_switch();  // identifiers containing the tokens are fine
void f() { forklift_kill_switch(); }
}  // namespace xfci::fcp
"""

BAD_TIMING_CPP = """\
#include <chrono>
namespace xfci::fci {
double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace xfci::fci
"""

BAD_SIMD_CPP = """\
#include <immintrin.h>
namespace xfci::fci {
double hsum(__m256d v) {
  return _mm256_cvtsd_f64(v);
}
}  // namespace xfci::fci
"""

BAD_ENTRY_CPP = """\
#include "common/error.hpp"
namespace xfci::fci {
void unchecked_entry(std::span<const double> c, std::span<double> s) {
  for (std::size_t i = 0; i < c.size(); ++i) s[i] = c[i];
}
}  // namespace xfci::fci
"""

BAD_RAW_MUTEX_CPP = """\
#include <mutex>
namespace xfci::pv {
class Queue {
  std::mutex mu_;
  std::condition_variable cv_;
};
}  // namespace xfci::pv
"""

BAD_BARE_SUPPRESS_CPP = """\
#include "common/annotations.hpp"
namespace xfci::pv {
void poke() XFCI_NO_THREAD_SAFETY_ANALYSIS {}
}  // namespace xfci::pv
"""

GOOD_JUSTIFIED_SUPPRESS_CPP = """\
#include "common/annotations.hpp"
namespace xfci::pv {
// justification: trusted base — the primitive below is unannotated.
void poke() XFCI_NO_THREAD_SAFETY_ANALYSIS {}
}  // namespace xfci::pv
"""

BAD_UNGUARDED_CAPABILITY_HPP = """\
#pragma once
#include "common/sync.hpp"
namespace xfci::pv {
class Lonely {
  xfci::sync::Mutex mu_;
  long count_ = 0;
};
}  // namespace xfci::pv
"""

GOOD_LOCK_HPP = """\
#pragma once
#include "common/annotations.hpp"
#include "common/sync.hpp"
namespace xfci::pv {
class Guarded {
  void bump() XFCI_REQUIRES(mu_) { ++count_; }
  xfci::sync::Mutex mu_;
  long count_ XFCI_GUARDED_BY(mu_) = 0;
};
}  // namespace xfci::pv
"""

BAD_UNORDERED_MAP_CPP = """\
#include <unordered_map>
namespace xfci::fci {
std::unordered_map<int, double> weights;
}  // namespace xfci::fci
"""

BAD_UNORDERED_SET_HPP = """\
#pragma once
#include <unordered_set>
namespace xfci::fci {
using Seen = std::unordered_set<long>;
}  // namespace xfci::fci
"""

GOOD_UNORDERED_ESCAPE_CPP = """\
#include <unordered_map>
namespace xfci::fci {
std::unordered_map<int, double> cache;  // lint: unordered-ok (lookup only)
}  // namespace xfci::fci
"""

BAD_GETENV_CPP = """\
#include <cstdlib>
namespace xfci::fci {
const char* home() { return std::getenv("HOME"); }
}  // namespace xfci::fci
"""

BAD_SETENV_CPP = """\
#include <cstdlib>
namespace xfci::fci {
void pin() { setenv("XFCI_GEMM_KERNEL", "portable", 1); }
}  // namespace xfci::fci
"""

SUPPRESSED_SRC_CPP = """\
#include "common/annotations.hpp"
namespace xfci::pv {
// justification: self-test specimen.
void poke() XFCI_NO_THREAD_SAFETY_ANALYSIS {}
}  // namespace xfci::pv
"""

BAD_NO_PRAGMA_FIXABLE = """\
// A leading comment the fix must keep above the inserted pragma.
#include <vector>
namespace xfci::fci {
inline std::vector<int> v;
}  // namespace xfci::fci
"""


def self_test() -> int:
    failures = []
    cases = 0

    def expect_findings(name, found, rule, want):
        hit = [f for f in found if f.rule == rule]
        if want and not hit:
            failures.append(f"{name}: expected a {rule} finding, got "
                            f"{[str(f) for f in found]}")
        if not want and hit:
            failures.append(f"{name}: unexpected {rule} findings "
                            f"{[str(f) for f in hit]}")

    def expect(name, filename, content, rule, want, subdir="fci"):
        nonlocal cases
        cases += 1
        with tempfile.TemporaryDirectory() as tmp:
            subdir = os.path.join(tmp, "src", subdir)
            os.makedirs(subdir)
            with open(os.path.join(subdir, filename), "w",
                      encoding="utf-8") as fh:
                fh.write(content)
            expect_findings(name, lint_tree(tmp), rule, want)

    def expect_tree(name, files, rule, want):
        """Like expect(), but `files` maps src/-relative paths to contents
        so tree-level rules (include cycles) get a multi-file specimen."""
        nonlocal cases
        cases += 1
        with tempfile.TemporaryDirectory() as tmp:
            for rel, content in files.items():
                path = os.path.join(tmp, "src", rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            expect_findings(name, lint_tree(tmp), rule, want)

    def expect_budget(name, budget, content, want):
        nonlocal cases
        cases += 1
        with tempfile.TemporaryDirectory() as tmp:
            subdir = os.path.join(tmp, "src", "parallel")
            os.makedirs(subdir)
            with open(os.path.join(subdir, "x.cpp"), "w",
                      encoding="utf-8") as fh:
                fh.write(content)
            if budget is not None:
                with open(os.path.join(tmp, BUDGET_FILE), "w",
                          encoding="utf-8") as fh:
                    fh.write(budget)
            findings = []
            check_suppression_budget(tmp, findings)
            expect_findings(name, findings, "suppression-budget", want)

    def expect_fix(name, filename, content, rule, subdir="fci"):
        """--fix must preview without writing, clear the finding when
        applied, and be a fixed point on its own output."""
        nonlocal cases
        cases += 1
        import contextlib
        import io
        with tempfile.TemporaryDirectory() as tmp:
            subdir_path = os.path.join(tmp, "src", subdir)
            os.makedirs(subdir_path)
            path = os.path.join(subdir_path, filename)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                pending = fix_tree(tmp, apply_fixes=False)
            with open(path, encoding="utf-8") as fh:
                after_dry = fh.read()
            if pending != 1 or after_dry != content:
                failures.append(f"{name}: dry run must report one pending "
                                "fix and leave the file untouched")
                return
            if "---" not in buf.getvalue():
                failures.append(f"{name}: dry run printed no unified diff")
            with contextlib.redirect_stdout(io.StringIO()):
                fix_tree(tmp, apply_fixes=True)
            expect_findings(name + " (post-fix lint)", lint_tree(tmp),
                            rule, False)
            with contextlib.redirect_stdout(io.StringIO()):
                again = fix_tree(tmp, apply_fixes=False)
            if again != 0:
                failures.append(f"{name}: fix is not idempotent — a second "
                                "run still wants changes")

    expect("seeded raw assert", "bad_assert.cpp", BAD_ASSERT_CPP,
           "raw-assert", True)
    expect("seeded quoted assert.h include", "quoted_assert.cpp",
           '#include "assert.h"\n', "raw-assert", True)
    expect("seeded using-namespace header", "bad.hpp", BAD_HEADER,
           "using-namespace", True)
    expect("seeded missing pragma once", "bad_guard.hpp", BAD_NO_PRAGMA,
           "pragma-once", True)
    expect("seeded unchecked entry point", "bad_entry.cpp", BAD_ENTRY_CPP,
           "entry-require", True)
    expect("checked entry point passes", "good.cpp", GOOD_CPP,
           "entry-require", False)
    expect("checked entry point no assert", "good.cpp", GOOD_CPP,
           "raw-assert", False)
    # static_assert must not trip the raw-assert rule.
    expect("static_assert allowed", "sa.cpp",
           "static_assert(1 + 1 == 2);\n", "raw-assert", False)
    # Commented-out assert must not trip it either.
    expect("commented assert allowed", "ca.cpp",
           "// assert(false) would be wrong here\n", "raw-assert", False)
    expect("seeded swallowing catch-all", "bad_catch.cpp", BAD_CATCH_CPP,
           "catch-swallow", True)
    expect("storing/rethrowing catch-all passes", "good_catch.cpp",
           GOOD_CATCH_CPP, "catch-swallow", False)
    expect("seeded serve include in the fci layer", "bad_serve.cpp",
           '#include "serve/engine.hpp"\nvoid f();\n',
           "serve-layering", True)
    expect("seeded serve include in a header", "bad_serve.hpp",
           '#pragma once\n#include "serve/setup_cache.hpp"\n',
           "serve-layering", True, subdir="fci_parallel")
    expect("serve include allowed inside src/serve", "engine.cpp",
           '#include "serve/engine.hpp"\nvoid f();\n',
           "serve-layering", False, subdir="serve")
    expect("comment mention of serve allowed", "doc_serve.cpp",
           '// the serve/engine.hpp layer caches these setups\nvoid f();\n',
           "serve-layering", False)
    expect("seeded raw ipc syscalls outside src/parallel", "bad_ipc.cpp",
           BAD_IPC_CPP, "ipc-fence", True)
    expect("ipc syscalls allowed in shm_ipc", "shm_ipc.cpp",
           BAD_IPC_CPP, "ipc-fence", False, subdir="parallel")
    expect("ipc syscalls allowed in process_ddi", "process_ddi.cpp",
           BAD_IPC_CPP, "ipc-fence", False, subdir="parallel")
    expect("ipc fenced elsewhere in src/parallel too", "thread_team.cpp",
           BAD_IPC_CPP, "ipc-fence", True, subdir="parallel")
    expect("comment/identifier ipc mentions allowed", "good_ipc.cpp",
           GOOD_IPC_CPP, "ipc-fence", False)
    expect("raw futex syscall fenced outside the process backend",
           "futex_wake.cpp", BAD_FUTEX_CPP, "ipc-fence", True,
           subdir="parallel")
    expect("futex syscall allowed in shm_ipc", "shm_ipc.cpp",
           BAD_FUTEX_CPP, "ipc-fence", False, subdir="parallel")
    expect("futex syscall allowed in process_ddi", "process_ddi.cpp",
           BAD_FUTEX_CPP, "ipc-fence", False, subdir="parallel")
    expect("seeded raw clock read", "bad_clock.cpp", BAD_TIMING_CPP,
           "timing", True)
    expect("clock read allowed in src/parallel", "backend_clock.cpp",
           BAD_TIMING_CPP, "timing", False, subdir="parallel")
    expect("clock read allowed in the timer", "timer.hpp",
           "#pragma once\n" + BAD_TIMING_CPP, "timing", False,
           subdir="common")
    expect("comment mention of chrono allowed", "good_clock.cpp",
           "// std::chrono stays behind xfci::Timer\nvoid f();\n",
           "timing", False)
    expect("seeded intrinsics outside the kernel TUs", "bad_simd.cpp",
           BAD_SIMD_CPP, "simd", True)
    expect("intrinsics allowed in a kernel TU", "gemm_kernels_avx9.cpp",
           BAD_SIMD_CPP, "simd", False, subdir="linalg")
    expect("comment mention of intrinsics allowed", "good_simd.cpp",
           "// the avx512 kernel uses _mm512_fmadd_pd\nvoid f();\n",
           "simd", False)

    # lock-annotations: raw primitives, unguarded capabilities, bare
    # suppressions.
    expect("seeded raw std::mutex member", "bad_queue.cpp",
           BAD_RAW_MUTEX_CPP, "lock-annotations", True, subdir="parallel")
    expect("seeded bare thread-safety suppression", "bad_suppress.cpp",
           BAD_BARE_SUPPRESS_CPP, "lock-annotations", True, subdir="parallel")
    expect("seeded unguarded sync::Mutex member", "lonely.hpp",
           BAD_UNGUARDED_CAPABILITY_HPP, "lock-annotations", True,
           subdir="parallel")
    expect("annotated class passes", "guarded.hpp", GOOD_LOCK_HPP,
           "lock-annotations", False, subdir="parallel")
    expect("justified suppression passes", "justified.cpp",
           GOOD_JUSTIFIED_SUPPRESS_CPP, "lock-annotations", False,
           subdir="parallel")
    expect("raw primitives allowed in the sync wrapper", "sync.hpp",
           "#pragma once\n#include <mutex>\nstd::mutex m;\n",
           "lock-annotations", False, subdir="common")
    expect("comment mention of std::mutex allowed", "doc.cpp",
           "// wraps std::mutex behind sync::Mutex\nvoid f();\n",
           "lock-annotations", False, subdir="parallel")

    # determinism: hash containers vs bitwise-reproducible outputs.
    expect("seeded unordered_map", "bad_umap.cpp", BAD_UNORDERED_MAP_CPP,
           "determinism", True)
    expect("seeded unordered_set header", "bad_uset.hpp",
           BAD_UNORDERED_SET_HPP, "determinism", True)
    expect("escaped unordered_map passes", "escaped.cpp",
           GOOD_UNORDERED_ESCAPE_CPP, "determinism", False)
    expect("comment mention of unordered allowed", "doc_unordered.cpp",
           "// std::unordered_map would break determinism here\nvoid f();\n",
           "determinism", False)

    # include-cycles: the src/ header graph must stay a DAG.
    expect_tree("seeded two-header cycle", {
        "fci/a.hpp": '#pragma once\n#include "fci/b.hpp"\n',
        "fci/b.hpp": '#pragma once\n#include "fci/a.hpp"\n',
    }, "include-cycles", True)
    expect_tree("seeded three-header cycle", {
        "fci/a.hpp": '#pragma once\n#include "fci/b.hpp"\n',
        "fci/b.hpp": '#pragma once\n#include "parallel/c.hpp"\n',
        "parallel/c.hpp": '#pragma once\n#include "fci/a.hpp"\n',
    }, "include-cycles", True)
    expect_tree("seeded self-include", {
        "fci/a.hpp": '#pragma once\n#include "fci/a.hpp"\n',
    }, "include-cycles", True)
    expect_tree("acyclic diamond passes", {
        "fci/top.hpp": '#pragma once\n#include "fci/l.hpp"\n'
                       '#include "fci/r.hpp"\n',
        "fci/l.hpp": '#pragma once\n#include "common/base.hpp"\n',
        "fci/r.hpp": '#pragma once\n#include "common/base.hpp"\n',
        "common/base.hpp": "#pragma once\n",
    }, "include-cycles", False)

    # telemetry: metric names live in common/metric_names.hpp only.
    bad_inline_metric = (
        '#include "common/telemetry.hpp"\n'
        'void f() {\n'
        '  auto c = xfci::obs::telemetry().counter("xfci_ad_hoc_total");\n'
        '}\n')
    expect("seeded inline metric name", "bad_metric.cpp",
           bad_inline_metric, "telemetry", True)
    expect("seeded inline histogram name", "bad_hist.cpp",
           'void f() { reg.histogram("xfci_lat_seconds", {}); }\n',
           "telemetry", True)
    expect("MetricSpec constant registration passes", "good_metric.cpp",
           '#include "common/metric_names.hpp"\n'
           'void f() { auto c = reg.counter(xfci::obs::metric::kGemmCalls); '
           '}\n',
           "telemetry", False)
    expect("comment mention of counter(\"...\") allowed", "doc_metric.cpp",
           '// never write counter("name") inline\nvoid f();\n',
           "telemetry", False)
    expect("metric_names.hpp itself is exempt", "metric_names.hpp",
           '#pragma once\ninline int counter(const char*);\n'
           'inline int x = counter("xfci_x_total");\n',
           "telemetry", False, subdir="common")

    # env-read: raw environment access is fenced to src/common/env.*.
    expect("seeded raw getenv", "bad_env.cpp", BAD_GETENV_CPP,
           "env-read", True)
    expect("seeded raw setenv", "bad_setenv.cpp", BAD_SETENV_CPP,
           "env-read", True)
    expect("getenv allowed in the env layer", "env.cpp", BAD_GETENV_CPP,
           "env-read", False, subdir="common")
    expect("comment mention of getenv allowed", "doc_env.cpp",
           "// std::getenv stays behind xfci::env::get\nvoid f();\n",
           "env-read", False)

    # hamiltonian: explicit H elements only in slater_condon.* / solvers.*.
    expect("seeded explicit Hamiltonian outside the fence",
           "selected_ci.cpp",
           '#include "fci/slater_condon.hpp"\n'
           'double f(const T& t, const D& d) {\n'
           '  return xfci::fci::hamiltonian_element(t, d, d);\n'
           '}\n',
           "hamiltonian", True)

    # cost-model: only the simulator converts work into seconds.
    expect("seeded cost-model converter in the sigma layer",
           "parallel_sigma.cpp",
           'void f(const xfci::x1::CostModel& cost, double* clock) {\n'
           '  *clock += cost.indexed_seconds(12.0);\n'
           '}\n',
           "cost-model", True, subdir="fci_parallel")

    # gemm-kernel: the micro-kernels are called only inside src/linalg/.
    bad_kernel_call = (
        '#include "linalg/gemm_kernels.hpp"\n'
        'void f(const double* pa, const double* pb, double* c) {\n'
        '  const auto& kern = xfci::linalg::active_gemm_kernel();\n'
        '  kern.run(34, pa, pb, 1.0, c, 34, kern.mr, kern.nr);\n'
        '}\n')
    expect("seeded micro-kernel call in the sigma layer", "sigma_dgemm.cpp",
           bad_kernel_call, "gemm-kernel", True)
    expect("micro-kernels allowed inside src/linalg", "gemm.cpp",
           bad_kernel_call, "gemm-kernel", False, subdir="linalg")
    expect("comment mention of the micro-kernel allowed", "doc_gemm.cpp",
           "// gemm_prelaid drives the GemmMicroKernel for us\nvoid f();\n",
           "gemm-kernel", False)

    # linalg-leaf: src/linalg/ includes only common/ and linalg/ headers.
    expect("seeded parallel/ include in src/linalg", "gemm.cpp",
           '#include "common/error.hpp"\n'
           '#include "linalg/gemm_kernels.hpp"\n'
           '#include "parallel/thread_team.hpp"\n',
           "linalg-leaf", True, subdir="linalg")

    # suppression-budget: exact-match ratchet against .lint-budget.
    budget_ok = ("no-thread-safety-analysis 1\n"
                 "nolint 0\n"
                 "lint-escape 0\n")
    expect_budget("matching budget passes", budget_ok, SUPPRESSED_SRC_CPP,
                  False)
    expect_budget("suppression growth fails",
                  budget_ok.replace("analysis 1", "analysis 0"),
                  SUPPRESSED_SRC_CPP, True)
    expect_budget("slack budget fails",
                  budget_ok.replace("analysis 1", "analysis 2"),
                  SUPPRESSED_SRC_CPP, True)
    expect_budget("missing budget file fails", None, SUPPRESSED_SRC_CPP,
                  True)
    expect_budget("missing budget key fails", "nolint 0\nlint-escape 1\n",
                  SUPPRESSED_SRC_CPP, True)

    # --fix: preview-only by default, clears the finding, idempotent.
    expect_fix("fix inserts #pragma once after leading comments",
               "fixable.hpp", BAD_NO_PRAGMA_FIXABLE, "pragma-once")
    expect_fix("fix inserts pragma before an include guard",
               "guarded_old.hpp", BAD_NO_PRAGMA, "pragma-once")
    expect_fix("fix stubs a justification comment", "bare.cpp",
               BAD_BARE_SUPPRESS_CPP, "lock-annotations",
               subdir="parallel")

    if failures:
        print("xfci_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print(f"xfci_lint self-test passed ({cases} cases).")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--compile-headers", action="store_true",
                    help="also compile every header standalone")
    ap.add_argument("--cxx", default=os.environ.get("CXX", "c++"),
                    help="compiler for --compile-headers")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter's own seeded-violation tests")
    ap.add_argument("--fix", action="store_true",
                    help="mechanical fixes: insert missing #pragma once, "
                         "stub missing justification comments; prints a "
                         "unified diff unless --apply is given")
    ap.add_argument("--apply", action="store_true",
                    help="with --fix: write the fixes instead of previewing")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.apply and not args.fix:
        print("xfci_lint: --apply requires --fix", file=sys.stderr)
        return 2

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"xfci_lint: no src/ under {root}", file=sys.stderr)
        return 2

    if args.fix:
        changed = fix_tree(root, apply_fixes=args.apply)
        if args.apply:
            print(f"xfci_lint: fixed {changed} file(s).")
            return 0
        if changed:
            print(f"xfci_lint: {changed} file(s) need fixes "
                  "(re-run with --fix --apply).", file=sys.stderr)
            return 1
        print("xfci_lint: nothing to fix.")
        return 0

    findings = lint_tree(root)
    check_suppression_budget(root, findings)
    if args.compile_headers:
        findings += compile_headers(root, args.cxx)

    for f in findings:
        print(f)
    if findings:
        print(f"xfci_lint: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    print("xfci_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
