#!/usr/bin/env sh
# Builds the test suite under AddressSanitizer, UBSan or ThreadSanitizer
# (one build tree per sanitizer) and runs ctest in each. Any sanitizer
# report fails the run (-fno-sanitize-recover=all aborts on the first
# finding).
#
# Usage: tools/run_sanitized_tests.sh [address|undefined|thread]...
#        (no arguments = address and undefined)
# For thread, set HETSCHED_THREADS (e.g. 4) so the thread pool runs
# parallel work for TSan to watch.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers="${*:-address undefined}"

for sanitizer in $sanitizers; do
  build="$repo/build-$sanitizer"
  echo "=== $sanitizer sanitizer: configuring $build ==="
  cmake -B "$build" -S "$repo" -DHETSCHED_SANITIZE="$sanitizer" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j
  echo "=== $sanitizer sanitizer: running tests ==="
  ctest --test-dir "$build" --output-on-failure -j
done

echo "=== all sanitized test runs passed ==="
