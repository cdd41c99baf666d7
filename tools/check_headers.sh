#!/usr/bin/env bash
# Header self-containment check: every public header under src/ must compile
# as the FIRST include of a translation unit. Umbrella regressions (a header
# silently leaning on whatever its includers happened to include before it)
# are invisible to the normal build — the .cpp files include headers in
# lucky orders — so this sweep compiles a one-line TU per header:
#
#     #include "<header>"
#     int main() { return 0; }
#
# with only -I src on the include path, one compile per CPU at a time.
# Registered as the `check_headers` ctest (label `headers`, see
# tools/CMakeLists.txt) and run by tools/check.sh.
#
# Usage: tools/check_headers.sh [compiler]   (default: $CXX, else c++)
set -euo pipefail

cd "$(dirname "$0")/.."
compiler="${1:-${CXX:-c++}}"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Compiles one header's TU into its own files under $tmpdir, so the compiles
# can run in parallel; a failure leaves a .failed marker beside the errors.
check_one() {
  local tu="$tmpdir/${1//\//_}"
  printf '#include "%s"\nint main() { return 0; }\n' "$1" > "$tu.cpp"
  "$compiler" -std=c++20 -fsyntax-only -I src "$tu.cpp" 2> "$tu.err" ||
    touch "$tu.failed"
}
export -f check_one
export compiler tmpdir

(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort) > "$tmpdir/headers"
jobs="$(nproc 2>/dev/null || echo 4)"
xargs -P "$jobs" -I{} bash -c 'check_one "$1"' _ {} < "$tmpdir/headers"

checked=0
failed=0
while IFS= read -r header; do
  checked=$((checked + 1))
  tu="$tmpdir/${header//\//_}"
  if [ -e "$tu.failed" ]; then
    echo "NOT SELF-CONTAINED: src/$header"
    sed 's/^/    /' "$tu.err"
    failed=$((failed + 1))
  fi
done < "$tmpdir/headers"

if [ "$checked" -eq 0 ]; then
  echo "check_headers.sh: found no headers under src/ — wrong directory?" >&2
  exit 2
fi
if [ "$failed" -ne 0 ]; then
  echo "check_headers.sh: $failed of $checked headers are not self-contained"
  exit 1
fi
echo "check_headers.sh: all $checked headers are self-contained"
