#!/usr/bin/env python3
"""ca_lint: the repository's source checker for the data-management core.

Rules that clang-tidy cannot express, enforced over src/.  Six are token
rules: a regex that must not match live code (comments and string literals
are blanked first) in the files the rule scopes.

  byte-copy-route
      Raw ``memcpy``/``memmove`` and raw ``std::thread`` are confined to
      src/mem, src/util, src/race and src/simd.  Everything else moves bytes
      through ``util::copy_bytes``/``util::move_bytes`` (src/util/bytes.hpp),
      which are instrumented for the race detector, and spawns threads
      through the ``ca::sync`` lifecycle shims (src/race/sync.hpp), which
      keep the schedule explorer's task set deterministic.

  wall-clock
      No wall-clock source (std::chrono clocks, time(), gettimeofday,
      clock_gettime) anywhere in src/: all time is simulated seconds from
      ``sim::Clock`` so every result is host-independent and every bench is
      bit-for-bit deterministic.  Benches and tests may measure wall time;
      the model must not.

  kernel-scratch-route
      The fast compute-kernel sources (src/dnn/ops_real.cpp,
      src/dnn/gemm.cpp) run on ThreadPool workers and copy rows into
      per-thread scratch buffers; those bulk copies must go through
      ``util::copy_bytes`` -- not ``std::copy``/``std::copy_n``/``memcpy``
      -- so the race detector sees every scratch handoff.

  intrusive-links
      Writes to the binned free lists' intrusive ``bin_next``/``bin_prev``
      links stay inside src/mem/freelist_allocator.cpp (the list owner),
      where ca::audit vouches for them through the bin views.

  simd-intrinsics-route
      x86 vector intrinsics (``_mm*``, ``__m128/__m256/__m512`` vector
      types, ``__builtin_ia32_*``) are confined to src/simd, the one
      subsystem compiled per-ISA behind runtime CPUID dispatch.
      ``__builtin_ia32_pause`` is exempt: it is the portable spin hint
      (util/completion_latch.hpp).

  comm-route
      Wire-byte movement inside src/comm goes through ``util::copy_bytes``
      only: raw ``memcpy``/``memmove``, ``std::copy*`` and the NT-store
      ``simd::copy_bytes`` path would hide the allreduce's gather/sum/scatter
      accesses from the detector.

  dm-audit
      Every public mutating DataManager method (src/dm/data_manager.cpp)
      ends its success path with ``CA_AUDIT(*this)`` so Debug/CA_AUDIT
      builds verify the cross-structure invariants at every mutation
      boundary.

A token-rule or dm-audit finding can be waived on its own line with a
trailing ``// ca_lint: allow(<rule>)`` comment; use sparingly and say why
nearby.

Pointer provenance (paper SIII-C pin discipline) against
docs/pointer_provenance.json.  One scan finds every bare ``Region::data()``
extraction in src/ outside src/ptrprov/: a receiver bound to a ``Region*``/
``Region&`` or to a region-returning query, or a chained
``getprimary(...)->data()``.  The manifest is the only way to sanction a
site; there is no per-line waiver.

  region-data-route   a site line in a file the manifest does not sanction;
                      reach bytes through ``dm::PinnedSpan`` instead.
  count-drift         a sanctioned file whose site-line count differs from
                      the manifest's ``count``.
  stale-manifest      a sanctioned file with no site left.
  undeclared-site / unexercised-site  (--ptrprov-sites DUMP)
                      DUMP is the accessor-site ledger written by
                      tests/ptrprov/ptrprov_route_test.cpp under
                      CA_PTRPROV_DUMP.  Every observed site under src/ must
                      be a manifest ``accessors`` entry, and every entry
                      must have been observed.

Lock order against docs/lock_hierarchy.json.  Every ``ca::sync::mutex`` in
src/ is declared with ``CA_LOCK_CLASS("<name>")`` and annotated ``CA_LEAF``
or ``CA_ACQUIRED_BEFORE(<member>, ...)``; the parsed annotations are diffed
against the manifest both ways (undeclared-class, stale-manifest,
manifest-mismatch, leaf-mismatch, manifest-inconsistent, undeclared-edge,
unannotated-edge, unnamed-mutex, annotation-parse).  With --lockdep-graph
DUMP, the acquisition-order graph written by
tests/lockdep/lockdep_graph_test.cpp under CA_LOCKDEP_DUMP is diffed too:
undeclared-runtime-edge, held-across-blocking (unless waived),
unobserved-edge, unexercised-class (never registered, or registered but
never acquired) and unknown-runtime-class.

Usage: tools/ca_lint.py [--self-test] [--lockdep-graph DUMP]
                        [--ptrprov-sites DUMP]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOCK_MANIFEST = "docs/lock_hierarchy.json"
PROV_MANIFEST = "docs/pointer_provenance.json"

COPY_CALL = r"\b(?:std::)?(?:memcpy|memmove)\s*\("
STD_COPY = r"\bstd::copy(?:_n|_backward)?\s*\("

# (rule, token regex, whether a src/-relative file is in scope, message).
TOKEN_RULES = (
    ("byte-copy-route",
     re.compile(COPY_CALL + r"|\bstd::thread\b"),
     lambda rel: not rel.startswith(
         ("src/mem/", "src/util/", "src/race/", "src/simd/")),
     "raw byte copies / threads live in src/mem, src/util, src/race and "
     "src/simd only; use util::copy_bytes/move_bytes or the ca::sync "
     "lifecycle shims"),
    ("wall-clock",
     re.compile(r"std::chrono|steady_clock|system_clock"
                r"|high_resolution_clock|\bgettimeofday\s*\("
                r"|\bclock_gettime\s*\(|\bstd::time\s*\("
                r"|\btime\s*\(\s*(?:NULL|nullptr)\s*\)"),
     lambda rel: True,
     "wall-clock reads are forbidden in src/; all time is simulated "
     "seconds from sim::Clock"),
    ("kernel-scratch-route",
     re.compile(STD_COPY + "|" + COPY_CALL),
     lambda rel: rel in ("src/dnn/ops_real.cpp", "src/dnn/gemm.cpp"),
     "kernel scratch copies must route through util::copy_bytes so the "
     "race detector sees the per-thread scratch handoff"),
    ("intrusive-links",
     re.compile(r"(?:\.|->)bin_(?:next|prev)\s*=(?!=)"),
     lambda rel: rel != "src/mem/freelist_allocator.cpp",
     "bin_next/bin_prev writes are confined to "
     "src/mem/freelist_allocator.cpp; use the allocator's public surface"),
    ("simd-intrinsics-route",
     re.compile(r"\b_mm\d{0,3}_\w+\s*\(|\b__m(?:64|128|256|512)[di]?\b"
                r"|\b__builtin_ia32_(?!pause\b)\w+"),
     lambda rel: not rel.startswith("src/simd/"),
     "x86 intrinsics are confined to src/simd (per-ISA TUs behind runtime "
     "dispatch); use simd::gemm_tile / simd::copy_bytes"),
    ("comm-route",
     re.compile(r"\bsimd::copy_bytes\s*\(|" + STD_COPY + "|" + COPY_CALL),
     lambda rel: rel.startswith("src/comm/"),
     "wire-byte movement in src/comm must route through util::copy_bytes "
     "(the race-instrumented funnel); raw copies and the NT simd path hide "
     "the reduction's gather/sum/scatter accesses from the detector"),
)

WAIVER = re.compile(r"//\s*ca_lint:\s*allow\(([a-z-]+)\)")

# Public DataManager methods that mutate manager state.  Query/introspection
# methods (device_stats, owns_region, ...) are exempt by omission; keep this
# list in sync with the "mutating" half of dm/data_manager.hpp.
DM_MUTATORS = (
    "create_object", "destroy_object", "setprimary", "unpin", "allocate",
    "free", "copyto", "copyto_async", "wait_ready", "retire_transfers",
    "drain_transfers", "link", "unlink", "evictfrom", "defragment",
)

# Identifiers bound to a Region (declarations, parameters, and results of
# the region-returning data-manager queries), their data() calls, and
# chained query->data() calls.
REGION_DECL = re.compile(r"\bRegion\s*[*&]\s*(?:const\s+)?(?P<name>\w+)\b")
REGION_FROM_QUERY = re.compile(
    r"\b(?P<name>\w+)\s*=\s*[\w.>-]*"
    r"(?:allocate|getprimary|getlinked|region_on|primary)\s*\(")
DATA_CALL = re.compile(r"\b(?P<recv>\w+)\s*(?:->|\.)\s*data\s*\(\s*\)")
CHAINED_DATA = re.compile(
    r"\b(?:getprimary|getlinked|region_on|primary)\s*\([^()]*\)\s*"
    r"(?:->|\.)\s*data\s*\(\s*\)")

MUTEX_DECL = re.compile(
    r"sync::mutex\s+(?P<member>\w+)\s*"
    r"(?P<annotations>(?:CA_LEAF\s*|CA_ACQUIRED_BEFORE\s*\([^)]*\)\s*)*)"
    r"\{\s*CA_LOCK_CLASS\(\"(?P<cls>[^\"]+)\"\)")
# A sync::mutex declaration with NO CA_LOCK_CLASS initializer: unnamed
# mutexes are invisible to the ordering graph.  (basic_lock members and
# using-aliases do not match.)
UNNAMED_DECL = re.compile(r"sync::mutex\s+\w+\s*(?:CA_LEAF\s*)?(?:;|\{\s*\})")
ACQUIRED_BEFORE = re.compile(r"CA_ACQUIRED_BEFORE\s*\(([^)]*)\)")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip(text: str, keep_strings: bool = False) -> str:
    """Blank out // and /* */ comments, and string/char literals unless
    `keep_strings`, preserving line count and line lengths."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j] if keep_strings else
                       c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
        else:
            out.append(c)
            j = i + 1
        i = j
    return "".join(out)


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


def waived_lines(text: str, rule: str) -> set[int]:
    return {no for no, line in enumerate(text.splitlines(), 1)
            if (m := WAIVER.search(line)) and m.group(1) == rule}


def check_tokens(texts: dict[str, str],
                 codes: dict[str, str]) -> list[Finding]:
    findings = []
    for rule, pattern, in_scope, message in TOKEN_RULES:
        for rel, text in texts.items():
            if not in_scope(rel):
                continue
            waived = waived_lines(text, rule)
            for no, line in enumerate(codes[rel].splitlines(), 1):
                m = pattern.search(line)
                if m and no not in waived:
                    token = m.group(0).rstrip("(").strip()
                    findings.append(Finding(
                        rel, no, rule, f"{message} (found `{token}`)"))
    return findings


def method_body(code: str, name: str) -> tuple[int, str] | None:
    """Locate `DataManager::name(...) ... { body }` in comment-stripped
    code; returns (line of the definition, body text) or None."""
    pattern = re.compile(r"DataManager::" + re.escape(name) + r"\s*\(")
    for m in pattern.finditer(code):
        open_brace = code.find("{", m.end())
        semi = code.find(";", m.end())
        if open_brace == -1 or (semi != -1 and semi < open_brace):
            continue  # a declaration or a mention, not a definition
        depth = 0
        for i in range(open_brace, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    return line_of(code, m.start()), code[open_brace:i + 1]
    return None


def check_dm_audit(texts: dict[str, str],
                   codes: dict[str, str]) -> list[Finding]:
    rel = "src/dm/data_manager.cpp"
    if rel not in texts:
        return [Finding(rel, 1, "dm-audit", "file not found")]
    code, waived = codes[rel], waived_lines(texts[rel], "dm-audit")
    findings = []
    for name in DM_MUTATORS:
        located = method_body(code, name)
        if located is None:
            findings.append(Finding(rel, 1, "dm-audit",
                                    f"mutating method `{name}` not found "
                                    "(update DM_MUTATORS in tools/ca_lint.py)"))
        elif "CA_AUDIT(" not in located[1] and located[0] not in waived:
            findings.append(Finding(
                rel, located[0], "dm-audit",
                f"public mutating method `{name}` must end with CA_AUDIT(*this)"))
    return findings


def region_data_sites(code: str) -> list[int]:
    """Line numbers of bare Region::data() extractions in one stripped
    translation unit.  Two passes: collect every identifier bound to a
    Region, then flag each `ident->data()` / `ident.data()` on one of them
    plus chained `getprimary(...)->data()`-style calls."""
    tracked = {m.group("name") for m in REGION_DECL.finditer(code)}
    tracked |= {m.group("name") for m in REGION_FROM_QUERY.finditer(code)}
    lines = {line_of(code, m.start()) for m in DATA_CALL.finditer(code)
             if m.group("recv") in tracked}
    lines |= {line_of(code, m.start()) for m in CHAINED_DATA.finditer(code)}
    return sorted(lines)


def check_region_data(codes: dict[str, str],
                      manifest: dict) -> list[Finding]:
    declared = {e["file"]: e["count"]
                for e in manifest.get("raw_data_sites", [])}
    findings, seen = [], set()
    for rel, code in codes.items():
        if rel.startswith("src/ptrprov/"):
            continue  # the analyzer itself, not a client
        lines = region_data_sites(code)
        if not lines:
            continue
        seen.add(rel)
        if rel not in declared:
            findings += [Finding(
                rel, no, "region-data-route",
                f"bare Region::data() outside the files sanctioned by "
                f"{PROV_MANIFEST}; access bytes through dm::PinnedSpan "
                "(DataManager::access) so ca::ptrprov can track the "
                "pointer's provenance") for no in lines]
        elif declared[rel] != len(lines):
            findings.append(Finding(
                rel, lines[0], "count-drift",
                f"{len(lines)} bare Region::data() site line(s) found but "
                f"{PROV_MANIFEST} sanctions {declared[rel]} -- a raw "
                "extraction was added or removed without updating the "
                "manifest"))
    for rel in sorted(set(declared) - seen):
        findings.append(Finding(
            PROV_MANIFEST, 1, "stale-manifest",
            f"`{rel}` is sanctioned for bare Region::data() but no such "
            "site exists there any more"))
    return findings


def check_prov_sites(manifest: dict, dump: dict,
                     dump_rel: str) -> list[Finding]:
    declared = {a["site"] for a in manifest.get("accessors", [])}
    observed: dict[str, int] = {}
    for s in dump.get("sites", []):
        # Runtime sites are absolute `path:line`; keep the part from `src/`
        # on.  Sites outside src/ (tests, benches) are workload scaffolding.
        path = s.get("site", "").rsplit(":", 1)[0]
        if (idx := path.rfind("src/")) != -1:
            site = path[idx:]
            observed[site] = observed.get(site, 0) + s.get("count", 1)
    findings = [Finding(
        dump_rel, 1, "undeclared-site",
        f"runtime observed {count} acquire(s) from `{site}` but "
        f"{PROV_MANIFEST} does not declare that accessor")
        for site, count in sorted(observed.items()) if site not in declared]
    findings += [Finding(
        PROV_MANIFEST, 1, "unexercised-site",
        f"manifest accessor `{site}` was never observed by the sanctioned "
        "workload (dead route or stale manifest)")
        for site in sorted(declared - set(observed))]
    return findings


@dataclass
class LockAnnotation:
    path: str
    line: int
    cls: str
    leaf: bool
    before: set[str]  # resolved class names


def parse_lock_annotations(
        texts: dict[str, str]) -> tuple[list[LockAnnotation], list[Finding]]:
    annotations, findings = [], []
    for rel, text in texts.items():
        if rel.startswith(("src/race/", "src/lockdep/")):
            continue  # the shims and the subsystem itself, not clients
        code = strip(text, keep_strings=True)  # class names are strings
        decls = list(MUTEX_DECL.finditer(code))
        member_class = {m.group("member"): m.group("cls") for m in decls}
        for m in decls:
            a = LockAnnotation(rel, line_of(code, m.start()), m.group("cls"),
                               "CA_LEAF" in m.group("annotations"), set())
            for ab in ACQUIRED_BEFORE.finditer(m.group("annotations")):
                for member in filter(None, map(str.strip,
                                               ab.group(1).split(","))):
                    if member in member_class:
                        a.before.add(member_class[member])
                    else:
                        findings.append(Finding(
                            rel, a.line, "annotation-parse",
                            f"CA_ACQUIRED_BEFORE({member}) on `{a.cls}` "
                            "names a member with no CA_LOCK_CLASS in this "
                            "file"))
            annotations.append(a)
        findings += [Finding(
            rel, line_of(code, m.start()), "unnamed-mutex",
            "production sync::mutex without CA_LOCK_CLASS: unnamed locks "
            "are invisible to the ordering graph")
            for m in UNNAMED_DECL.finditer(code)]
    return annotations, findings


def check_lock_annotations(manifest: dict,
                           annotations: list[LockAnnotation]) -> list[Finding]:
    findings = []
    declared = {c["name"]: c for c in manifest.get("classes", [])}
    annotated = {a.cls: a for a in annotations}
    for name, a in sorted(annotated.items()):
        if name not in declared:
            findings.append(Finding(
                a.path, a.line, "undeclared-class",
                f"lock class `{name}` is annotated in source but missing "
                f"from {LOCK_MANIFEST}"))
    for name, c in sorted(declared.items()):
        a = annotated.get(name)
        if a is None:
            findings.append(Finding(
                LOCK_MANIFEST, 1, "stale-manifest",
                f"lock class `{name}` is declared in the manifest but no "
                "CA_LOCK_CLASS annotation defines it in src/"))
            continue
        leaf = c.get("leaf", False)
        manifest_out = {e["to"] for e in manifest.get("edges", [])
                        if e["from"] == name}
        if leaf and manifest_out:
            findings.append(Finding(
                LOCK_MANIFEST, 1, "manifest-inconsistent",
                f"`{name}` is marked leaf yet has outgoing manifest edges: "
                f"{sorted(manifest_out)}"))
        problems = []
        if c.get("header") and c["header"] != a.path:
            problems.append(("manifest-mismatch", f"`{name}` declared in "
                           f"{a.path} but the manifest says {c['header']}"))
        if leaf != a.leaf:
            problems.append((
                "leaf-mismatch",
                f"manifest marks `{name}` a leaf but the declaration lacks "
                "CA_LEAF" if leaf else
                f"`{name}` is annotated CA_LEAF but the manifest does not "
                "mark it a leaf"))
        problems += [("undeclared-edge",
                    f"CA_ACQUIRED_BEFORE declares `{name}` -> `{extra}` but "
                    "the manifest does not list that edge")
                   for extra in sorted(a.before - manifest_out)]
        problems += [("unannotated-edge",
                    f"manifest edge `{name}` -> `{missing}` has no matching "
                    "CA_ACQUIRED_BEFORE annotation")
                   for missing in sorted(manifest_out - a.before)]
        findings += [Finding(a.path, a.line, rule, message)
                     for rule, message in problems]
    return findings


def check_lock_graph(manifest: dict, dump: dict,
                     dump_rel: str) -> list[Finding]:
    findings = []
    declared = {c["name"]: c for c in manifest.get("classes", [])}
    declared_edges = {(e["from"], e["to"]) for e in manifest.get("edges", [])}
    observed = {c["name"]: c for c in dump.get("classes", [])}
    # Registration alone (the CA_LOCK_CLASS static running) proves nothing
    # about coverage: only classes the workload actually *locked* carry
    # ordering evidence.  Dumps without the counter count as acquired.
    acquired = {n for n, c in observed.items() if c.get("acquires", 1) > 0}
    observed_edges = {(e["from"], e["to"]): e for e in dump.get("edges", [])}

    # Direction 1: everything observed at runtime must be sanctioned.
    for (src, dst), edge in sorted(observed_edges.items()):
        if (src, dst) not in declared_edges:
            findings.append(Finding(
                dump_rel, 1, "undeclared-runtime-edge",
                f"runtime observed `{src}` -> `{dst}` (acquired at "
                f"{edge.get('site', '?')}) but {LOCK_MANIFEST} does not "
                "declare that ordering"))
    for b in dump.get("blocking", []):
        if not declared.get(b["class"], {}).get("waive_blocking", False):
            findings.append(Finding(
                dump_rel, 1, "held-across-blocking",
                f"`{b['class']}` was held across {b['op']} at "
                f"{b.get('site', '?')} and is not waived in {LOCK_MANIFEST}"))

    # Direction 2: everything declared must be alive in the workload.
    for src, dst in sorted(declared_edges - set(observed_edges)):
        findings.append(Finding(
            LOCK_MANIFEST, 1, "unobserved-edge",
            f"manifest declares `{src}` -> `{dst}` but the sanctioned "
            "workload never exercised it (stale manifest?)"))
    for name in sorted(set(declared) - acquired):
        findings.append(Finding(
            LOCK_MANIFEST, 1, "unexercised-class",
            f"manifest class `{name}` registered at runtime but was never "
            "acquired -- the graph workload does not lock it, so its "
            "declared ordering is untested" if name in observed else
            f"manifest class `{name}` never registered at runtime -- the "
            "graph workload does not cover its subsystem"))

    # Production-looking classes observed at runtime must be declared (the
    # suites register `test::` classes; `<unnamed>` is the shared class).
    for name in sorted(set(observed) - set(declared)):
        if not (name.startswith("test::") or name == "<unnamed>"):
            findings.append(Finding(
                dump_rel, 1, "unknown-runtime-class",
                f"runtime registered lock class `{name}` that the manifest "
                "does not declare"))
    return findings


def lint(root: Path, lockdep_graph: Path | None = None,
         ptrprov_sites: Path | None = None) -> list[Finding]:
    texts = {p.relative_to(root).as_posix(): p.read_text()
             for p in sorted((root / "src").rglob("*"))
             if p.suffix in (".cpp", ".hpp")}
    codes = {rel: strip(text) for rel, text in texts.items()}

    def load(path: Path) -> dict:
        return json.loads(path.read_text()) if path.is_file() else {}

    def rel(path: Path) -> str:
        path = path.resolve()
        return (path.relative_to(root) if path.is_relative_to(root)
                else path).as_posix()

    locks, prov = load(root / LOCK_MANIFEST), load(root / PROV_MANIFEST)
    annotations, parse_findings = parse_lock_annotations(texts)
    findings = (check_tokens(texts, codes) + check_dm_audit(texts, codes) +
                check_region_data(codes, prov) + parse_findings +
                check_lock_annotations(locks, annotations))
    if ptrprov_sites is not None:
        findings += check_prov_sites(prov, load(ptrprov_sites),
                                     rel(ptrprov_sites))
    if lockdep_graph is not None:
        findings += check_lock_graph(locks, load(lockdep_graph),
                                     rel(lockdep_graph))
    return findings


# --- self-test ---------------------------------------------------------------

SCRATCH_BAD = """\
void im2col(float* col, const float* x, unsigned n) {
  std::copy(x, x + n, col);
  std::copy_n(x, n, col);
  memcpy(col, x, n * sizeof(float));
}
"""

SCRATCH_GOOD = """\
#include "util/bytes.hpp"
void im2col(float* col, const float* x, unsigned n) {
  util::copy_bytes(col, x, n * sizeof(float), "ops::im2col");
  // a std::copy mention in a comment is fine
  std::copy(x, x + n, col);  // ca_lint: allow(kernel-scratch-route)
}
"""

LINKS_BAD = """\
void poke(Node* n, Node& m) {
  n->bin_next = 0;
  m.bin_prev = 1;
}
"""

LINKS_GOOD = """\
bool same(const Node& a, const Node& b) {
  // a bin_next mention in a comment is fine, and comparisons are reads:
  if (a.bin_next == b.bin_next) return true;
  return false;
}
void waived(Node* n) {
  n->bin_next = 0;  // ca_lint: allow(intrusive-links)
}
"""

SIMD_BAD = """\
#include <immintrin.h>
void hot(float* c, const float* a, const float* b) {
  __m256 va = _mm256_loadu_ps(a);
  __m256 vb = _mm256_loadu_ps(b);
  _mm256_storeu_ps(c, _mm256_fmadd_ps(va, vb, _mm256_setzero_ps()));
  __builtin_ia32_sfence();
}
"""

SIMD_GOOD = """\
#include "simd/copy.hpp"
void cool(float* c, const float* a, unsigned n) {
  // an _mm256_stream_si256( mention in a comment is fine, as is __m512i
  const char* kDoc = "_mm_sfence( in a string is fine too";
  ca::simd::copy_bytes(c, a, n);
  for (;;) __builtin_ia32_pause();  // the sanctioned spin hint
}
void waived(float* p) {
  _mm_prefetch(p, 1);  // ca_lint: allow(simd-intrinsics-route)
}
"""

# Every token below sits in a comment or a string literal...
STRIPPED_CLEAN = """\
// Routing note: never call memcpy(dst, src, n) here; use util::copy_bytes.
/* std::chrono::steady_clock would break determinism -- see sim::Clock.
   So would memmove(a, b, n) outside src/mem.  And std::thread. */
const char* kDoc =
    "policy may not memcpy( regions; std::chrono is banned in src/";
const char kOneChar = '"';  // an unmatched quote inside a char literal
inline int simulated_now() { return 0; }
"""

# ...while the same tokens in live code are findings.
STRIPPED_BAD = """\
#include <chrono>
void tick(void* dst, const void* src, unsigned n) {
  memcpy(dst, src, n);
  auto t0 = std::chrono::steady_clock::now();
  (void)t0;
}
"""

COMM_BAD = """\
void reduce(std::byte* dst, const std::byte* src, unsigned n) {
  simd::copy_bytes(dst, src, n);
  std::copy_n(src, n, dst);
  memcpy(dst, src, n);
}
"""

COMM_GOOD = """\
#include "util/bytes.hpp"
void reduce(std::byte* dst, const std::byte* src, unsigned n) {
  // a memcpy( or simd::copy_bytes( mention in a comment is fine
  const char* kDoc = "and std::copy( in a string is fine too";
  util::copy_bytes(dst, src, n, "comm::reduce");
  memcpy(dst, src, n);  // ca_lint: allow(comm-route)
  use(kDoc);
}
"""

REGION_BAD = """\
void rogue(Region* r, DataManager& dm, Object& obj) {
  std::byte* p = r->data();
  std::byte* q = dm.getprimary(obj)->data();
  use(p, q);
}
"""

# Comment, string and non-Region mentions are not sites; the waiver on
# line 5 sanctions nothing -- only the manifest does.
REGION_WAIVED = """\
void fine(Region* r, std::vector<std::byte>& buf) {
  // a r->data() mention in a comment is fine
  const char* kDoc = "and getprimary(o)->data() in a string is fine too";
  use(buf.data());  // not a Region receiver: untracked identifier
  std::byte* p = r->data();  // ca_lint: allow(region-data-route)
  use(p, kDoc);
}
"""

REGION_FROM_QUERY_BAD = """\
#include "dm/object.hpp"
float* sneak(dm::DataManager& dm, dm::Object& o) {
  auto* primary = dm.getprimary(o);
  return reinterpret_cast<float*>(primary->data());
}
"""

# Sanctioned with count 1: two extractions share line 5.
REGION_FEED = """\
#include "dm/object.hpp"
// a region->data() mention in a comment must not count
void feed(Region& dst, Region& src) {
  const char* msg = "src.data() in a string must not count";
  engine.copy(dst.data(), src.data());
}
"""

PROV_MANIFEST_FIXTURE = {
    "raw_data_sites": [{"file": "src/mem/feed.cpp", "count": 1}],
    "accessors": [{"site": "src/core/cached_array.hpp"}],
}

PROV_SITES_CLEAN = {"sites": [
    {"site": "/x/src/core/cached_array.hpp:126", "count": 4},
    {"site": "/x/tests/route_test.cpp:33", "count": 1},
]}

PROV_SITES_ROGUE = {"sites": [
    {"site": "/x/src/policy/rogue_policy.cpp:77", "count": 1},
]}

LOCK_HEADER = """\
#include "util/thread_annotations.hpp"
class Pool {
  // a sync::mutex mention in a comment is fine
  sync::mutex mu_ CA_LEAF{CA_LOCK_CLASS("test::Pool::mu_")};
  sync::mutex outer_ CA_ACQUIRED_BEFORE(mu_){CA_LOCK_CLASS("test::Pool::outer_")};
};
"""

LOCK_UNNAMED = """\
class Rogue {
  sync::mutex mu_;
};
"""

LOCK_CLASSES = [
    {"name": "test::Pool::mu_", "header": "src/util/pool.hpp", "leaf": True},
    {"name": "test::Pool::outer_", "header": "src/util/pool.hpp"},
]
LOCK_EDGE = {"from": "test::Pool::outer_", "to": "test::Pool::mu_"}
LOCK_MANIFEST_FIXTURE = {"classes": LOCK_CLASSES, "edges": [LOCK_EDGE]}


def lock_graph(acquires: tuple[int, int], edges=(), blocking=()) -> dict:
    return {"classes": [{"name": c["name"], "acquires": n}
                        for c, n in zip(LOCK_CLASSES, acquires)],
            "edges": [{**LOCK_EDGE, "site": "pool.cpp:10"}, *edges],
            "blocking": list(blocking)}


TOKEN_RULE_NAMES = {r[0] for r in TOKEN_RULES}
PROV_RULES = {"region-data-route", "count-drift", "stale-manifest",
              "undeclared-site", "unexercised-site"}
LOCK_RULES = {"annotation-parse", "unnamed-mutex", "undeclared-class",
              "stale-manifest", "manifest-mismatch", "leaf-mismatch",
              "manifest-inconsistent", "undeclared-edge", "unannotated-edge",
              "undeclared-runtime-edge", "held-across-blocking",
              "unobserved-edge", "unexercised-class", "unknown-runtime-class"}
GRAPH, SITES = "lockdep_graph.json", "prov_sites.json"
PROV_TREE = {PROV_MANIFEST: PROV_MANIFEST_FIXTURE,
             "src/mem/feed.cpp": REGION_FEED}
LOCK_TREE = {LOCK_MANIFEST: LOCK_MANIFEST_FIXTURE,
             "src/util/pool.hpp": LOCK_HEADER}

# (case, fixture tree, rules compared, expected `path:line:rule` findings
# [, text every compared finding's message contains]).  A tree maps
# repo-relative paths to file text or JSON; GRAPH and SITES are passed as
# --lockdep-graph and --ptrprov-sites when present.
SELF_TESTS = [
    ("kernel scratch copies",
     {"src/dnn/ops_real.cpp": SCRATCH_BAD, "src/dnn/gemm.cpp": SCRATCH_GOOD},
     TOKEN_RULE_NAMES - {"byte-copy-route"},
     [f"src/dnn/ops_real.cpp:{n}:kernel-scratch-route" for n in (2, 3, 4)]),
    ("intrusive link writes",
     {"src/dm/poker.cpp": LINKS_BAD, "src/dm/reader.cpp": LINKS_GOOD,
      "src/mem/freelist_allocator.cpp": LINKS_BAD},
     TOKEN_RULE_NAMES,
     [f"src/dm/poker.cpp:{n}:intrusive-links" for n in (2, 3)]),
    ("comments and strings are stripped",
     {"src/policy/notes.cpp": STRIPPED_CLEAN,
      "src/policy/ticker.cpp": STRIPPED_BAD},
     TOKEN_RULE_NAMES,
     ["src/policy/ticker.cpp:3:byte-copy-route",
      "src/policy/ticker.cpp:4:wall-clock"]),
    ("simd intrinsics",
     {"src/dnn/vector_hot.cpp": SIMD_BAD, "src/dnn/vector_cool.cpp": SIMD_GOOD,
      "src/simd/native.cpp": SIMD_BAD},
     TOKEN_RULE_NAMES,
     [f"src/dnn/vector_hot.cpp:{n}:simd-intrinsics-route"
      for n in (3, 4, 5, 6)]),
    ("comm copies",
     {"src/comm/bad_engine.cpp": COMM_BAD,
      "src/comm/good_engine.cpp": COMM_GOOD},
     TOKEN_RULE_NAMES - {"byte-copy-route"},
     [f"src/comm/bad_engine.cpp:{n}:comm-route" for n in (2, 3, 4)]),
    ("region data sites outside the manifest",
     {**PROV_TREE, "src/policy/rogue.cpp": REGION_BAD,
      "src/policy/fine.cpp": REGION_WAIVED,
      "src/policy/sneak.cpp": REGION_FROM_QUERY_BAD,
      "src/ptrprov/analyzer.cpp": REGION_BAD},
     PROV_RULES,
     ["src/policy/rogue.cpp:2:region-data-route",
      "src/policy/rogue.cpp:3:region-data-route",
      "src/policy/fine.cpp:5:region-data-route",
      "src/policy/sneak.cpp:4:region-data-route"]),
    ("provenance manifest clean", {**PROV_TREE, SITES: PROV_SITES_CLEAN},
     PROV_RULES, []),
    ("provenance count drift",
     {**PROV_TREE, "src/mem/feed.cpp":
      REGION_FEED + "\nvoid g(Region* r) { r->data(); }\n"},
     PROV_RULES, ["src/mem/feed.cpp:5:count-drift"]),
    ("provenance stale entry",
     {**PROV_TREE, "src/mem/feed.cpp": "// nothing left\n"},
     PROV_RULES, [f"{PROV_MANIFEST}:1:stale-manifest"]),
    ("provenance runtime sites", {**PROV_TREE, SITES: PROV_SITES_ROGUE},
     PROV_RULES,
     [f"{SITES}:1:undeclared-site", f"{PROV_MANIFEST}:1:unexercised-site"]),
    ("lock hierarchy clean", {**LOCK_TREE, GRAPH: lock_graph((12, 3))},
     LOCK_RULES, []),
    ("lock class dropped from the manifest",
     {**LOCK_TREE, LOCK_MANIFEST: {"classes": LOCK_CLASSES[:1]}},
     LOCK_RULES, ["src/util/pool.hpp:5:undeclared-class"]),
    ("lock edge dropped from the manifest",
     {**LOCK_TREE, LOCK_MANIFEST: {"classes": LOCK_CLASSES}},
     LOCK_RULES, ["src/util/pool.hpp:5:undeclared-edge"]),
    ("unnamed mutex", {**LOCK_TREE, "src/util/rogue.hpp": LOCK_UNNAMED},
     LOCK_RULES, ["src/util/rogue.hpp:2:unnamed-mutex"]),
    ("undeclared runtime edge and blocking",
     {**LOCK_TREE, GRAPH: lock_graph(
         (1, 1), edges=[{"from": "test::Pool::mu_",
                         "to": "test::Pool::outer_", "site": "pool.cpp:99"}],
         blocking=[{"class": "test::Pool::mu_",
                    "op": "mem::Transfer::join", "site": "pool.cpp:50"}])},
     LOCK_RULES,
     [f"{GRAPH}:1:undeclared-runtime-edge", f"{GRAPH}:1:held-across-blocking"]),
    ("lock class registered but never acquired",
     {**LOCK_TREE, GRAPH: lock_graph((12, 0))},
     LOCK_RULES, [f"{LOCK_MANIFEST}:1:unexercised-class"], "never acquired"),
]


def self_test() -> int:
    """Run every fixture tree through lint() and compare the findings of
    the rules each case covers with what it expects."""
    failures = []
    for case, tree, rules, expected, *says in SELF_TESTS:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp).resolve()
            for rel, body in tree.items():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(
                    body if isinstance(body, str) else json.dumps(body))
            findings = [f for f in lint(
                root, *(root / d if d in tree else None for d in (GRAPH, SITES)))
                if f.rule in rules]
        got = sorted(f"{f.path}:{f.line}:{f.rule}" for f in findings)
        if got != sorted(expected):
            failures.append(f"{case}: expected {sorted(expected)}, got {got}")
        elif says and not all(says[0] in f.message for f in findings):
            failures.append(f"{case}: expected `{says[0]}` in {findings}")
    for failure in failures:
        print(f"ca_lint --self-test: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"ca_lint --self-test: ok ({len(SELF_TESTS)} cases)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's own fixture cases and exit")
    parser.add_argument("--lockdep-graph", type=Path, metavar="DUMP",
                        help="also diff the lock manifest against a "
                             "CA_LOCKDEP_DUMP acquisition-order graph")
    parser.add_argument("--ptrprov-sites", type=Path, metavar="DUMP",
                        help="also diff the provenance manifest against a "
                             "CA_PTRPROV_DUMP accessor-site ledger")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    for dump in (args.lockdep_graph, args.ptrprov_sites):
        if dump is not None and not dump.is_file():
            parser.error(f"dump {dump} not found")
    findings = lint(ROOT, args.lockdep_graph, args.ptrprov_sites)
    for finding in findings:
        print(finding)
    if findings:
        print(f"ca_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ca_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
