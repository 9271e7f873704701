"""The rt_check rule families: C1 determinism, C2 hot-path allocations,
C3 layering, C4 concurrency containment, C5 SIMD containment. Each
returns a list of Finding; suppression (`// rt-check: <tag>-ok (<why>)`)
is honored here so every rule shares identical annotation semantics."""

from __future__ import annotations

import json
import re
from collections import deque
from pathlib import Path

from .cpp_index import FunctionDef, FunctionIndex
from .source import Finding, SourceFile

# --------------------------------------------------------------------------
# C1 determinism
# --------------------------------------------------------------------------

# Modules whose results are never result-affecting by the layering spec
# (obs is wall-clock telemetry by design; nothing in it may feed results
# because no result-producing module reads it back).
C1_EXEMPT_MODULES = {"obs"}

C1_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bstd\s*::\s*s?rand\b|(?<![\w:.])s?rand\s*\("),
     "C library rand/srand is global-state nondeterminism; draw from an "
     "rt::Rng seeded via rt::split_seed"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is ambient entropy; seeds must come from "
     "rt::split_seed streams"),
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*(?:steady_clock|system_clock|"
                r"high_resolution_clock)\b"),
     "wall clocks in result-affecting code break the (seed, index) purity "
     "contract of run_packet"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"),
     "clock() is wall-clock state; results must be pure in (seed, index)"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?time\s*\("),
     "time() makes results depend on when the run happened"),
    (re.compile(r"\b(?:secure_)?getenv\s*\("),
     "environment reads make results host-dependent; thread configuration "
     "through explicit options structs"),
    (re.compile(r"__DATE__|__TIME__|__TIMESTAMP__"),
     "build-timestamp macros bake nondeterminism into the binary"),
    (re.compile(r"\b__builtin_cpu_(?:supports|is|init)\b"),
     "host CPU probes make results depend on the machine; only a choice "
     "between paths proven bit-identical may read one"),
    (re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
     "unordered container iteration order is unspecified and can leak into "
     "results; use a sorted container or a flat keyed buffer "
     "(cf. the DfeEqualizer memcmp merge keys)"),
    (re.compile(r"\bstd\s*::\s*hash\s*<[^<>]*\*\s*>"),
     "hashing pointer values is address-order nondeterminism"),
]


def check_determinism(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        parts = sf.rel.split("/")
        if len(parts) >= 2 and parts[0] == "src" and parts[1] in C1_EXEMPT_MODULES:
            continue
        for pat, why in C1_PATTERNS:
            for m in pat.finditer(sf.stripped):
                line = sf.line_of(m.start())
                if sf.suppressed(line, "determinism"):
                    continue
                token = re.sub(r"\s+", "", m.group(0))
                findings.append(Finding(
                    sf.rel, line, "determinism",
                    f"`{token}` — {why}; or annotate "
                    "`// rt-check: determinism-ok (<why>)`"))
    return findings


# --------------------------------------------------------------------------
# C2 hot-path allocations
# --------------------------------------------------------------------------

# Roots: the packet entry point plus every stage *_into function. The
# call graph is name-resolved (over-approximate), so anything these could
# reach is scanned.
def _is_root(fn: FunctionDef) -> bool:
    if fn.name == "run_packet" and "LinkSimulator" in fn.qualname:
        return True
    if fn.name == "push_samples" and "StreamingReceiver" in fn.qualname:
        return True
    return fn.name.endswith("_into")


_PUSH_RE = re.compile(r"(?:\.|->)\s*(push_back|emplace_back)\s*\(")
_STR_DECL_RE = re.compile(r"\bstd\s*::\s*(?:string|ostringstream|stringstream)\b"
                          r"(?!\s*[&*])")
_OWNING_TMPL_RE = re.compile(
    r"\bstd\s*::\s*(vector|deque|list|map|set|multimap|multiset|"
    r"unordered_map|unordered_set|basic_string|function)\s*<")


def _receiver_before(body: str, at: int) -> str:
    """The receiver chain ending right before offset `at` (which points at
    the '.' or '-' of a member call): identifiers joined by '.', '->',
    and index brackets, e.g. `ws.cur[bi]` or `nb.decisions`."""
    i = at
    out = []
    while i > 0:
        c = body[i - 1]
        if c.isspace():
            i -= 1
            continue
        if c == "]":  # skip [...] index
            depth = 0
            while i > 0:
                c2 = body[i - 1]
                if c2 == "]":
                    depth += 1
                elif c2 == "[":
                    depth -= 1
                i -= 1
                if depth == 0:
                    break
            out.append("[]")
            continue
        if c.isalnum() or c == "_":
            j = i
            while j > 0 and (body[j - 1].isalnum() or body[j - 1] == "_"):
                j -= 1
            out.append(body[j:i])
            i = j
            # continue only through member access
            k = i
            while k > 0 and body[k - 1].isspace():
                k -= 1
            if k >= 2 and body[k - 2:k] == "->":
                out.append("->")
                i = k - 2
                continue
            if k >= 1 and body[k - 1] == ".":
                out.append(".")
                i = k - 1
                continue
            break
        break
    return "".join(reversed(out))


def _template_skip(body: str, open_angle: int) -> int:
    """Offset one past the '>' matching body[open_angle] == '<'."""
    depth = 0
    for i in range(open_angle, len(body)):
        c = body[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":
            break  # not a template argument list after all
    return open_angle + 1


def _alloc_findings_in(fn: FunctionDef, sf: SourceFile) -> list[Finding]:
    body = sf.stripped[fn.body_start:fn.body_end]
    base = fn.body_start
    out: list[Finding] = []

    def emit(off: int, what: str, why: str) -> None:
        line = sf.line_of(base + off)
        if sf.suppressed(line, "hotpath-alloc"):
            return
        out.append(Finding(
            sf.rel, line, "hotpath-alloc",
            f"{what} in `{fn.qualname}` (hot path, reachable from "
            f"run_packet/*_into): {why}; fix or annotate "
            "`// rt-check: alloc-ok (<why>)`"))

    for m in re.finditer(r"\bnew\b", body):
        emit(m.start(), "`new` expression",
             "heap allocation per call; pool the object in PacketWorkspace")
    for m in re.finditer(r"\bmake_(?:unique|shared)\b", body):
        emit(m.start(), f"`{m.group(0)}`",
             "heap allocation per call; pool the object in PacketWorkspace")
    for m in _STR_DECL_RE.finditer(body):
        emit(m.start(), "std::string/stream construction",
             "string building allocates; hot-path data should use "
             "preallocated buffers (cf. the flat memcmp merge keys)")
    for m in _OWNING_TMPL_RE.finditer(body):
        end = _template_skip(body, m.end() - 1)
        rest = body[end:end + 80].lstrip()
        if rest[:1] in ("&", "*"):
            continue  # reference/pointer to a container: no ownership here
        if not rest or not (rest[0].isalpha() or rest[0] == "_"):
            continue  # cast/template argument, not a declaration
        kind = m.group(1)
        if kind == "function":
            emit(m.start(), "std::function construction",
                 "type-erased callables allocate and indirect-call; use a "
                 "stage object or a template parameter")
        else:
            emit(m.start(), f"local std::{kind} declaration",
                 "a fresh owning container per call allocates; move it into "
                 "PacketWorkspace and reuse its capacity")
    for m in _PUSH_RE.finditer(body):
        recv = _receiver_before(body, m.start())
        if recv and re.search(re.escape(recv) + r"\s*\.\s*reserve\s*\(", body):
            continue  # capacity reserved in the same body
        emit(m.start(), f"unreserved `{recv or '?'}.{m.group(1)}`",
             "growth past capacity reallocates; reserve() in the same "
             "function or grow the buffer at workspace setup")
    return out


def check_hotpath_alloc(files: list[SourceFile],
                        index: FunctionIndex) -> tuple[list[Finding], list[str]]:
    """Returns (findings, reachable-function qualnames)."""
    by_file = {sf.rel: sf for sf in files}
    roots = [fn for fn in index.functions if _is_root(fn)]
    # Name-based reachability: over-approximate but safe.
    seen: set[int] = set()
    order: list[FunctionDef] = []
    queue = deque(roots)
    while queue:
        fn = queue.popleft()
        key = id(fn)
        if key in seen:
            continue
        seen.add(key)
        order.append(fn)
        for callee in sorted(fn.callees):
            for target in index.by_name.get(callee, ()):
                if id(target) not in seen:
                    queue.append(target)
    findings: list[Finding] = []
    for fn in order:
        sf = by_file.get(fn.file)
        if sf is None:
            continue
        findings.extend(_alloc_findings_in(fn, sf))
    return findings, [fn.qualname for fn in order]


# --------------------------------------------------------------------------
# C4 concurrency containment
# --------------------------------------------------------------------------

# Threading/synchronization is runtime/'s job: runtime/batch.h's
# run_deterministic_batches is the one fan-out in src/ (it owns the thread
# pool and merges per-task snapshots in submission order, which keeps
# parallel runs bit-identical to serial ones). obs is exempt like C1 (its
# recorders may guard telemetry with atomics without affecting results).
C4_EXEMPT_MODULES = {"runtime", "obs"}

C4_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bstd\s*::\s*atomic\w*\b"),
     "atomics outside runtime/ hide cross-thread coupling from the "
     "determinism contract"),
    (re.compile(r"\bstd\s*::\s*(?:recursive_|timed_|shared_|recursive_timed_)?mutex\b"),
     "locks belong in runtime/; stage code must stay single-threaded pure "
     "so parallel_sweep can schedule it freely"),
    (re.compile(r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "lock adoption outside runtime/ means a stage took a dependency on "
     "shared mutable state"),
    (re.compile(r"\bstd\s*::\s*condition_variable(?:_any)?\b"),
     "blocking synchronization outside runtime/ can deadlock the sweep "
     "scheduler"),
    (re.compile(r"\bstd\s*::\s*(?:counting_|binary_)?semaphore\b|"
                r"\bstd\s*::\s*(?:latch|barrier)\b"),
     "thread coordination primitives belong in runtime/"),
    (re.compile(r"\bstd\s*::\s*(?:call_once|once_flag)\b"),
     "once-initialization is hidden global state; thread it through "
     "explicit construction or keep it in runtime/"),
    (re.compile(r"\bThreadPool\b|\bstd\s*::\s*j?thread\b|\bstd\s*::\s*async\b"),
     "work fans out only through runtime::run_deterministic_batches, which "
     "runs inline at one thread and merges snapshots in submission order"),
    (re.compile(r"\bstd\s*::\s*(?:shared_)?future\b|\bstd\s*::\s*promise\b|"
                r"\bstd\s*::\s*packaged_task\b"),
     "futures and promises hand results across threads outside "
     "run_deterministic_batches; write to pre-sized slots from its tasks"),
]


def check_concurrency(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        parts = sf.rel.split("/")
        if len(parts) >= 2 and parts[0] == "src" and parts[1] in C4_EXEMPT_MODULES:
            continue
        for pat, why in C4_PATTERNS:
            for m in pat.finditer(sf.stripped):
                line = sf.line_of(m.start())
                if sf.suppressed(line, "concurrency"):
                    continue
                token = re.sub(r"\s+", "", m.group(0))
                findings.append(Finding(
                    sf.rel, line, "concurrency",
                    f"`{token}` — {why}; move it behind runtime/ or annotate "
                    "`// rt-check: sync-ok (<why>)`"))
    return findings


# --------------------------------------------------------------------------
# C5 SIMD containment
# --------------------------------------------------------------------------

# Intrinsics are allowed in exactly one file: the kernel dispatch header.
# Everything else — including the rest of src/kernels — must reach SIMD
# through the kernels:: API so the scalar backend stays the bit-exact
# specification and portability gates live in one place.
C5_ALLOWED_FILES = {"src/kernels/dispatch.h"}

C5_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"#\s*include\s*<(?:[xe]mmintrin|pmmintrin|tmmintrin|smmintrin|"
                r"nmmintrin|wmmintrin|immintrin|x86intrin|x86gprintrin|"
                r"arm_neon|arm_sve)\.h>"),
     "vendor intrinsic headers outside the dispatch header defeat the "
     "portable-backend contract"),
    (re.compile(r"\b_mm(?:256|512)?_\w+\s*\("),
     "raw vector intrinsics belong in src/kernels/dispatch.h; call the "
     "kernels:: API instead"),
    (re.compile(r"\b__m(?:64|128[di]?|256[di]?|512[di]?)\b"),
     "vector register types outside the dispatch header leak the backend "
     "choice into portable code"),
    (re.compile(r"#\s*pragma\s+omp\s+simd\b"),
     "pragma-driven vectorization bypasses the kernel layer's bit-identity "
     "taxonomy; write a kernels:: function with a scalar reference instead"),
]


def check_simd_containment(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if sf.rel in C5_ALLOWED_FILES:
            continue
        for pat, why in C5_PATTERNS:
            for m in pat.finditer(sf.stripped):
                line = sf.line_of(m.start())
                if sf.suppressed(line, "simd-containment"):
                    continue
                token = re.sub(r"\s+", "", m.group(0))
                findings.append(Finding(
                    sf.rel, line, "simd-containment",
                    f"`{token}` — {why}; or annotate "
                    "`// rt-check: simd-ok (<why>)`"))
    return findings


# --------------------------------------------------------------------------
# C3 layering
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def load_layering_spec(path: Path) -> dict:
    spec = json.loads(path.read_text(encoding="utf-8"))
    if "modules" not in spec or not isinstance(spec["modules"], dict):
        raise ValueError(f"{path}: layering spec needs a 'modules' object")
    return spec


def render_layering_spec(spec: dict) -> str:
    """Canonical flat rendering of the DAG. docs/ARCHITECTURE.md must
    contain this text byte for byte (the doc is the spec's cited source of
    truth; this keeps the two from drifting)."""
    modules = spec["modules"]
    width = max(len(m) for m in modules)
    lines = []
    for mod, deps in modules.items():
        deps_txt = " ".join(sorted(deps)) if deps else "(none)"
        lines.append(f"{mod.ljust(width)} -> {deps_txt}")
    return "\n".join(lines) + "\n"


def check_layering(files: list[SourceFile], spec: dict, root: Path,
                   check_docs: bool = True) -> list[Finding]:
    modules: dict[str, list[str]] = spec["modules"]
    findings: list[Finding] = []
    for sf in files:
        parts = sf.rel.split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        mod = parts[1]
        if mod not in modules:
            findings.append(Finding(
                sf.rel, 1, "layering",
                f"module `{mod}` is not in the layering spec "
                "(tools/rt_check/layering.json); add it with its allowed "
                "dependencies"))
            continue
        allowed = set(modules[mod]) | {mod}
        for m in INCLUDE_RE.finditer(sf.raw):
            # Skip directives that live inside comments: stripping blanks
            # them, so the raw '#' is gone from the stripped view.
            hash_off = m.start() + m.group(0).index("#")
            if sf.stripped[hash_off] != "#":
                continue
            inc = m.group(1)
            line = sf.line_of(m.start())
            target = inc.split("/")[0]
            if "/" not in inc or target not in modules:
                findings.append(Finding(
                    sf.rel, line, "layering",
                    f'`#include "{inc}"` — project includes must be '
                    "module-qualified paths under src/ "
                    '(e.g. "common/error.h")'))
                continue
            if target not in allowed:
                if sf.suppressed(line, "layering"):
                    continue
                findings.append(Finding(
                    sf.rel, line, "layering",
                    f"`{mod}` must not include `{target}` "
                    f"(allowed: {', '.join(sorted(allowed - {mod})) or 'nothing'}); "
                    "see the DAG in docs/ARCHITECTURE.md, or annotate "
                    "`// rt-check: layering-ok (<why>)`"))
    if check_docs:
        findings.extend(_check_doc_drift(spec, root))
    return findings


def _check_doc_drift(spec: dict, root: Path) -> list[Finding]:
    doc_rel = spec.get("source_of_truth", "docs/ARCHITECTURE.md")
    doc = root / doc_rel
    if not doc.is_file():
        return [Finding(doc_rel, 1, "layering-docs",
                        "layering spec cites this file as its source of "
                        "truth, but it does not exist")]
    text = doc.read_text(encoding="utf-8")
    rendered = render_layering_spec(spec)
    if rendered not in text:
        first = rendered.splitlines()[0]
        return [Finding(
            doc_rel, 1, "layering-docs",
            "the canonical DAG rendering from tools/rt_check/layering.json "
            f"does not appear verbatim (expected a block starting `{first}`); "
            "regenerate with `python3 tools/rt_check --print-spec` and paste "
            "it into the module-graph section")]
    return []
