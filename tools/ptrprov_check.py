#!/usr/bin/env python3
"""ptrprov_check: static half of ca::ptrprov -- keep the sanctioned
raw-pointer routes, the source tree, and the runtime-observed accessor
sites in agreement.

The single source of truth is docs/pointer_provenance.json.  Two checks:

  manifest-vs-source (always)
      Every bare ``Region::data()`` call in src/ (receiver declared as a
      ``Region*``/``Region&``, or a chained ``getprimary(...)->data()``
      style call) must come from a file sanctioned in the manifest's
      ``raw_data_sites``, and the per-file site count must match -- a new
      bare extraction in a sanctioned file is drift too.  Diffed both
      directions: a sanctioned file with no remaining sites is a stale
      manifest entry.

  manifest-vs-runtime (--runtime DUMP)
      DUMP is the observed-site ledger serialized by
      tests/ptrprov/ptrprov_route_test.cpp (run it with CA_PTRPROV_DUMP
      pointing at a file; tools/check.sh stage `ptrprov` does).  Every
      runtime-observed span-acquire site under src/ must be declared in
      the manifest's ``accessors`` (undeclared-site: someone added a raw
      accessor without updating the route ledger), and every declared
      accessor must have been exercised by the sanctioned workload
      (unexercised-site: dead route = stale manifest).  Sites outside
      src/ (tests, benches) are workload scaffolding and are ignored.

Usage: tools/ptrprov_check.py [--root DIR] [--manifest FILE]
                              [--runtime DUMP] [--json] [--self-test]
Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# Identifiers bound to a Region (declarations, parameters, and results of
# the region-returning data-manager queries).
REGION_DECL = re.compile(
    r"\bRegion\s*[*&]\s*(?:const\s+)?(?P<name>\w+)\b")
REGION_FROM_QUERY = re.compile(
    r"\b(?P<name>\w+)\s*=\s*[\w.>-]*"
    r"(?:allocate|getprimary|getlinked|region_on|primary)\s*\(")

# A dereference of a tracked identifier, or a chained query->data() call.
DATA_CALL = re.compile(r"\b(?P<recv>\w+)\s*(?:->|\.)\s*data\s*\(\s*\)")
CHAINED_DATA = re.compile(
    r"\b(?:getprimary|getlinked|region_on|primary)\s*\([^()]*\)\s*"
    r"(?:->|\.)\s*data\s*\(\s*\)")

WAIVER = "ca_lint: allow(region-data-route)"


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}


def strip_comments_and_strings(text: str) -> str:
    """Blank out // and /* */ comments and string/char literals, preserving
    line count, so `data()` in a comment or a log message never counts."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def region_data_sites(raw: str) -> list[int]:
    """Line numbers (1-based) of bare Region::data() extractions in one
    translation unit.  Two passes: collect every identifier bound to a
    Region, then flag each `ident->data()` / `ident.data()` on one of them
    plus chained `getprimary(...)->data()`-style calls."""
    code = strip_comments_and_strings(raw)
    tracked = {m.group("name") for m in REGION_DECL.finditer(code)}
    tracked |= {m.group("name") for m in REGION_FROM_QUERY.finditer(code)}
    lines = []
    for m in DATA_CALL.finditer(code):
        if m.group("recv") in tracked:
            lines.append(code.count("\n", 0, m.start()) + 1)
    for m in CHAINED_DATA.finditer(code):
        lines.append(code.count("\n", 0, m.start()) + 1)
    return sorted(set(lines))


def scan_source(root: Path) -> dict[str, list[int]]:
    """Map of repo-relative file -> bare-extraction line numbers, src/ only
    (tests and benches stage hazards on purpose)."""
    sites: dict[str, list[int]] = {}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel.startswith("src/ptrprov/"):
            continue  # the subsystem itself, not a client
        lines = region_data_sites(path.read_text())
        if lines:
            sites[rel] = lines
    return sites


def load_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    manifest.setdefault("raw_data_sites", [])
    manifest.setdefault("accessors", [])
    return manifest


def check_manifest_vs_source(manifest: dict, manifest_rel: str,
                             sites: dict[str, list[int]]) -> list[Finding]:
    findings: list[Finding] = []
    declared = {e["file"]: e for e in manifest["raw_data_sites"]}

    # Direction 1: every extraction in source must be sanctioned, at the
    # declared multiplicity.
    for rel, lines in sorted(sites.items()):
        entry = declared.get(rel)
        if entry is None:
            findings.append(Finding(
                rel, lines[0], "undeclared-site",
                f"bare Region::data() extraction(s) at line(s) "
                f"{', '.join(map(str, lines))} in a file not sanctioned in "
                f"{manifest_rel}"))
        elif entry.get("count") is not None and entry["count"] != len(lines):
            findings.append(Finding(
                rel, lines[0], "count-drift",
                f"{len(lines)} bare Region::data() site(s) found but "
                f"{manifest_rel} sanctions {entry['count']} -- a raw "
                "extraction was added or removed without updating the "
                "manifest"))

    # Direction 2: every sanctioned file must still have extractions.
    for rel in sorted(set(declared) - set(sites)):
        findings.append(Finding(
            manifest_rel, 1, "stale-manifest",
            f"`{rel}` is sanctioned for bare Region::data() but no such "
            "site exists there any more"))
    return findings


def check_manifest_vs_runtime(manifest: dict, manifest_rel: str,
                              dump: dict, dump_rel: str) -> list[Finding]:
    findings: list[Finding] = []
    declared = {a["site"] for a in manifest["accessors"]}
    observed: dict[str, int] = {}
    for s in dump.get("sites", []):
        # Runtime sites are absolute `path:line`; normalize to the
        # repo-relative file by the `src/` suffix.  Sites outside src/
        # (tests, benches driving the workload) are scaffolding.
        path = s.get("site", "").rsplit(":", 1)[0]
        idx = path.rfind("src/")
        if idx == -1:
            continue
        site = path[idx:]
        observed[site] = observed.get(site, 0) + s.get("count", 1)

    # Direction 1: everything observed at runtime must be declared.
    for site, count in sorted(observed.items()):
        if site not in declared:
            findings.append(Finding(
                dump_rel, 1, "undeclared-site",
                f"runtime observed {count} acquire(s) from `{site}` "
                f"but {manifest_rel} does not declare that accessor"))

    # Direction 2: everything declared must be alive in the workload.
    for site in sorted(declared - set(observed)):
        findings.append(Finding(
            manifest_rel, 1, "unexercised-site",
            f"manifest accessor `{site}` was never observed by "
            "the sanctioned workload (dead route or stale manifest)"))
    return findings


# --- self-test ---------------------------------------------------------------

SELF_TEST_CLEAN = """\
#include "dm/object.hpp"
// a region->data() mention in a comment must not count
void feed(Region& dst, Region& src) {
  const char* msg = "src.data() in a string must not count";
  engine.copy(dst.data(), src.data());
}
"""

SELF_TEST_ROGUE = """\
#include "dm/object.hpp"
float* sneak(dm::DataManager& dm, dm::Object& o) {
  auto* primary = dm.getprimary(o);
  return reinterpret_cast<float*>(primary->data());
}
"""

SELF_TEST_MANIFEST = {
    "raw_data_sites": [
        # `count` sanctions unique site LINES (the two extractions in the
        # fixture share line 5).
        {"file": "src/mem/feed.cpp", "count": 1, "why": "copy-engine feed"},
    ],
    "accessors": [
        {"site": "src/core/cached_array.hpp", "why": "bracket"},
    ],
}

SELF_TEST_DUMP_CLEAN = {
    "sites": [
        {"site": "/x/src/core/cached_array.hpp:126", "count": 4},
        {"site": "/x/tests/route_test.cpp:33", "count": 1},
    ],
}

SELF_TEST_DUMP_ROGUE = {
    "sites": [
        {"site": "/x/src/policy/rogue_policy.cpp:77", "count": 1},
    ],
}


def self_test() -> int:
    """Negative tests: the checker must go red on an unsanctioned bare
    extraction, a count drift, a stale manifest entry, an undeclared
    runtime accessor, and an unexercised declared one -- and stay green on
    the clean fixtures (including data() in comments and strings)."""
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src" / "mem").mkdir(parents=True)
        (root / "src" / "mem" / "feed.cpp").write_text(SELF_TEST_CLEAN)

        sites = scan_source(root)
        if sites != {"src/mem/feed.cpp": [5]}:
            failures.append(f"source scan mismatch: {sites} (comment/string "
                            "sites must not count; line 5 holds two)")
        if len(region_data_sites(SELF_TEST_CLEAN)) != 1:
            failures.append("expected the two same-line extractions to "
                            "collapse to one site line")

        clean = check_manifest_vs_source(
            SELF_TEST_MANIFEST, "manifest.json", sites)
        if clean:
            failures.append(f"clean source diff not empty: {clean[0]}")

        # Drift 0: one extra extraction line in a sanctioned file.
        with_extra = SELF_TEST_CLEAN + "\nvoid g(Region* r) { r->data(); }\n"
        rules = {f.rule for f in check_manifest_vs_source(
            SELF_TEST_MANIFEST, "manifest.json",
            {"src/mem/feed.cpp": region_data_sites(with_extra)})}
        if "count-drift" not in rules:
            failures.append(
                f"added extraction not detected, rules={sorted(rules)}")

        # Drift A: a bare extraction in an unsanctioned file.
        (root / "src" / "policy").mkdir(parents=True)
        (root / "src" / "policy" / "rogue.cpp").write_text(SELF_TEST_ROGUE)
        rules = {f.rule for f in check_manifest_vs_source(
            SELF_TEST_MANIFEST, "manifest.json", scan_source(root))}
        if "undeclared-site" not in rules:
            failures.append(
                f"unsanctioned extraction not detected, rules={sorted(rules)}")

        # Drift B: the sanctioned file loses its extraction (stale entry).
        (root / "src" / "policy" / "rogue.cpp").unlink()
        (root / "src" / "mem" / "feed.cpp").write_text("// nothing left\n")
        rules = {f.rule for f in check_manifest_vs_source(
            SELF_TEST_MANIFEST, "manifest.json", scan_source(root))}
        if "stale-manifest" not in rules:
            failures.append(
                f"stale manifest entry not detected, rules={sorted(rules)}")

    runtime_clean = check_manifest_vs_runtime(
        SELF_TEST_MANIFEST, "manifest.json", SELF_TEST_DUMP_CLEAN,
        "dump.json")
    if runtime_clean:
        failures.append(f"clean runtime diff not empty: {runtime_clean[0]}")

    rules = {f.rule for f in check_manifest_vs_runtime(
        SELF_TEST_MANIFEST, "manifest.json", SELF_TEST_DUMP_ROGUE,
        "dump.json")}
    if "undeclared-site" not in rules:
        failures.append(
            f"undeclared runtime accessor not flagged, rules={sorted(rules)}")
    if "unexercised-site" not in rules:
        failures.append(
            f"unexercised declared accessor not flagged, rules={sorted(rules)}")

    for f in failures:
        print(f"ptrprov_check --self-test: {f}", file=sys.stderr)
    if failures:
        return 1
    print("ptrprov_check --self-test: ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout "
                             "containing this script)")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="pointer-provenance manifest "
                             "(default: docs/pointer_provenance.json)")
    parser.add_argument("--runtime", type=Path, default=None,
                        help="runtime observed-site dump (CA_PTRPROV_DUMP "
                             "output of tests/ptrprov/ptrprov_route_test) to "
                             "diff against the manifest")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's own negative tests and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"ptrprov_check: no src/ under {root}", file=sys.stderr)
        return 2
    manifest_path = args.manifest or root / "docs" / "pointer_provenance.json"
    if not manifest_path.exists():
        print(f"ptrprov_check: manifest {manifest_path} not found",
              file=sys.stderr)
        return 2
    manifest = load_manifest(manifest_path)
    try:
        manifest_rel = manifest_path.resolve().relative_to(root).as_posix()
    except ValueError:
        manifest_rel = manifest_path.as_posix()

    sites = scan_source(root)
    findings = check_manifest_vs_source(manifest, manifest_rel, sites)
    checked = "source"
    if args.runtime is not None:
        if not args.runtime.exists():
            print(f"ptrprov_check: runtime dump {args.runtime} not found",
                  file=sys.stderr)
            return 2
        dump = json.loads(args.runtime.read_text())
        findings += check_manifest_vs_runtime(manifest, manifest_rel, dump,
                                              args.runtime.as_posix())
        checked += "+runtime-sites"

    if args.json:
        print(json.dumps({"tool": "ptrprov_check", "checked": checked,
                          "findings": [f.to_json() for f in findings]},
                         indent=2))
    else:
        for finding in findings:
            print(finding)
    if findings:
        print(f"ptrprov_check: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if not args.json:
        total = sum(len(v) for v in sites.values())
        print(f"ptrprov_check: clean ({checked}; {total} sanctioned bare "
              f"extraction line(s) across {len(sites)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
