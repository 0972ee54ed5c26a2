#!/usr/bin/env bash
# Reachability check: which library functions does no program link?
#
#   tools/unreached.sh [build-dir]
#
# Builds every non-test binary -- msbistd, msbist-loadgen, each bench_*
# and example_* program, and perfbench_harness from perfbench/'s own
# CMakeLists.txt -- at -O0 -fno-inline with one section per function and
# -Wl,--gc-sections, so each binary keeps only the functions reachable
# from its main() (and from the vtables of the classes it constructs).
# Then prints, per source file, every strong function of the
# libmsbist_*.a archives that none of those binaries contains, with its
# line span.
#
# Exits 1 when some src/**/*.cpp contributes no function to any binary:
# a whole translation unit that no program links. Functions listed under
# a file that does reach a binary are reported but do not fail the check
# (tests may still use them, e.g. as oracles).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-unreached}"
JOBS="$(nproc)"

FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

benches=()
for src in bench/bench_*.cpp; do benches+=("$(basename "$src" .cpp)"); done
examples=()
for src in examples/*.cpp; do examples+=("example_$(basename "$src" .cpp)"); done

cmake -B "$BUILD_DIR" -S . "${FLAGS[@]}" > /dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target msbistd msbist-loadgen "${benches[@]}" "${examples[@]}" > /dev/null
cmake -B "$BUILD_DIR/perfbench" -S perfbench "${FLAGS[@]}" > /dev/null
cmake --build "$BUILD_DIR/perfbench" -j "$JOBS" --target perfbench_harness > /dev/null

binaries=("$BUILD_DIR/src/msbistd" "$BUILD_DIR/src/msbist-loadgen")
for b in "${benches[@]}"; do binaries+=("$BUILD_DIR/bench/$b"); done
for e in "${examples[@]}"; do binaries+=("$BUILD_DIR/examples/$e"); done
binaries+=("$BUILD_DIR/perfbench/perfbench_harness")

python3 - "$BUILD_DIR" "${binaries[@]}" <<'PY'
import collections
import pathlib
import re
import subprocess
import sys
import tempfile


def run(*cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          check=True).stdout


def line_of(location):
    """Line number of an addr2line answer such as file.cpp:42 (discr...)."""
    match = re.search(r":(\d+)", location)
    return int(match.group(1)) if match else 0


build = pathlib.Path(sys.argv[1])
binaries = sys.argv[2:]
sources = {p.as_posix() for p in pathlib.Path("src").rglob("*.cpp")}

# A global function is reached when some binary defines its name; a
# file-local one (static, anonymous namespace, lambda) when some binary
# defines its name after the FILE symbol of its own source.
reached = set()
for binary in binaries:
    unit = None
    for line in run("readelf", "-sW", binary).splitlines():
        fields = line.split()
        if len(fields) != 8:
            continue
        kind, bind, name = fields[3], fields[4], fields[7]
        if kind == "FILE":
            unit = name
        elif kind == "FUNC":
            reached.add((unit, name) if bind == "LOCAL" else name)


def source_of(archive, member):
    """src/ path of an archive member such as libmsbist_dsp.a(fft.cpp.o)."""
    name = member.removesuffix(".o")
    module = archive.stem.removeprefix("libmsbist_")
    exact = f"src/{module}/{name}"
    matches = [s for s in sources if s.endswith("/" + name)]
    return exact if exact in sources or len(matches) != 1 else matches[0]


# Code bodies, keyed by (source, section), with the strong function
# symbols in each: globals, and the library's own file-local functions
# (static, anonymous-namespace, lambdas). Header helpers and template
# instantiations that a local type makes file-local are left out: the
# linker keeps one COMDAT copy of their callers, so which object's copy
# survives says nothing about that object. Aliases such as a
# constructor's complete and base-object symbols share one section, so
# they count once.
bodies = {}
with tempfile.TemporaryDirectory() as tmp:
    symbols = []  # (source, object, section, size, name, is_local)
    for archive in sorted((build / "src").glob("libmsbist_*.a")):
        out = pathlib.Path(tmp) / archive.stem
        out.mkdir()
        subprocess.run(["ar", "x", archive.resolve()], cwd=out, check=True)
        for obj in sorted(out.glob("*.o")):
            source = source_of(archive, obj.name)
            # objdump -t: "addr flags section\tsize name"
            for line in run("objdump", "-t", obj).splitlines():
                head, _, tail = line.partition("\t")
                fields = head.split()
                if len(fields) == 4 and fields[1] in ("g", "l") and fields[2] == "F":
                    size, name = tail.split(maxsplit=1)
                    symbols.append((source, obj, fields[3], int(size, 16), name,
                                    fields[1] == "l"))
    local_names = sorted({s[4] for s in symbols if s[5]})
    own = {name for name, text in zip(
        local_names, run("c++filt", stdin="\n".join(local_names)).split("\n"))
        if text.startswith("msbist::")}
    for source, obj, section, size, name, is_local in symbols:
        if is_local and name not in own:
            continue
        body = bodies.setdefault((source, section), {
            "names": [], "reached": False, "object": obj, "size": size})
        body["names"].append(name)
        body["reached"] |= ((pathlib.Path(source).name, name) if is_local
                            else name) in reached
    for (source, section), body in bodies.items():
        if not body["reached"]:
            body["span"] = tuple(map(line_of, run(
                "addr2line", "-e", body["object"], "-j", section, "0",
                hex(max(body["size"] - 1, 0))).splitlines()))

total = collections.Counter(source for source, _ in bodies)
unreached = collections.defaultdict(list)
for (source, _), body in bodies.items():
    if not body["reached"]:
        unreached[source].append((body["span"], body["names"]))

names = sorted({n for fns in unreached.values() for _, ns in fns for n in ns})
demangled = dict(zip(names, run("c++filt", stdin="\n".join(names)).split("\n")))

print(f"roots: {len(binaries)} binaries")
dead_files = sorted(s for s in sources - set(total)
                    if not s.endswith("msbistd_main.cpp"))
symbol_count = span_total = 0
for source in sorted(unreached):
    fns = sorted(unreached[source])
    whole = len(fns) == total[source]
    if whole:
        dead_files.append(source)
    print(f"\n{source}: {len(fns)} of {total[source]} functions unreached"
          + (" (NO FUNCTION REACHED)" if whole else ""))
    for (first, last), aliases in fns:
        symbol_count += len(aliases)
        span_total += max(first, last) - first + 1
        label = " = ".join(sorted({demangled[n] for n in aliases}))
        print(f"  {first:5d}-{max(first, last):<5d} {label}")

print(f"\n{sum(map(len, unreached.values()))} unreached functions "
      f"({symbol_count} symbols) in {len(unreached)} files, spanning {span_total} "
      "lines")
if dead_files:
    print(f"FAIL: {len(dead_files)} source files contribute no function to "
          "any binary:", *sorted(dead_files), sep="\n  ")
    sys.exit(1)
print("OK: every library source file contributes a function to some binary")
PY
