#!/usr/bin/env bash
# Lists the out-of-line loom:: functions that no program keeps.
#
#   tools/unreached_symbols.sh [WORK_DIR]
#
# Builds libloom.a and every program (the paper benches, bench_micro, the
# examples and perfbench) at -O0 with one section per function, links the
# programs with --gc-sections, and prints, one per line and sorted, the
# demangled name (without its parameter list) of every global text symbol of
# libloom.a that no program keeps. Tests are not programs: a function only a
# test calls is reported. Overloads collapse to one name, so the output does
# not depend on how a compiler spells parameter types.
#
# WORK_DIR (default: a fresh temporary directory, removed on exit) receives
# the two build trees. Build logs go to stderr; stdout is only the list.
# Needs google-benchmark installed, since bench_micro is one of the programs.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ $# -ge 1 ]]; then
  work="$1"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
jobs="${JOBS:-$(nproc)}"

flags=(-DCMAKE_BUILD_TYPE=Debug -DLOOM_BUILD_TESTS=OFF
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

cmake -S "$repo" -B "$work/top" "${flags[@]}" >&2
cmake --build "$work/top" -j "$jobs" >&2
cmake -S "$repo/perfbench" -B "$work/perfbench" "${flags[@]}" >&2
cmake --build "$work/perfbench" -j "$jobs" --target perfbench >&2

lib="$work/top/src/libloom.a"
programs=()
for dir in bench examples; do
  while IFS= read -r exe; do programs+=("$exe"); done < <(
    find "$work/top/$dir" -maxdepth 1 -type f -perm -u+x | sort)
done
programs+=("$work/perfbench/perfbench")
if [[ ! -x "$work/top/bench/bench_micro" ]]; then
  echo "bench_micro was not built (google-benchmark missing?)" >&2
  exit 2
fi
echo "programs: ${#programs[@]}" >&2

# Mangled global text symbols defined by the library.
nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" { print $3 }' |
  sort -u > "$work/lib.syms"
# Every symbol any program defines after section garbage collection.
for exe in "${programs[@]}"; do
  nm --defined-only "$exe" | awk 'NF == 3 { print $3 }'
done | sort -u > "$work/kept.syms"

# Demangle, keep loom:: names, and cut the parameter list: the first '(' at
# template depth zero that does not belong to an `operator()` name.
comm -23 "$work/lib.syms" "$work/kept.syms" | c++filt |
  awk '
    /^loom::/ {
      depth = 0
      for (i = 1; i <= length($0); i++) {
        c = substr($0, i, 1)
        if (c == "<") depth++
        else if (c == ">") depth--
        else if (c == "(" && depth == 0) {
          if (substr($0, i - 8, 10) == "operator()") { i++; continue }
          print substr($0, 1, i - 1)
          next
        }
      }
      print
    }' | sort -u
