#!/usr/bin/env bash
# Regression test: `tetrisim --policy sp<N>` rejects an SP degree that
# is not a power of two in [1, num_gpus] as a config error (`fatal:`,
# exit 1) instead of panicking inside FixedSpScheduler (exit 134).
set -uo pipefail

TETRISIM="$1"

expect_fatal() {
  local out rc
  out="$("$TETRISIM" --requests 4 "$@" 2>&1)"
  rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q '^fatal:' <<<"$out"; then
    echo "FAIL: tetrisim $* exited $rc, want 1 with 'fatal:'"
    echo "$out"
    exit 1
  fi
}

expect_fatal --policy sp8 --topology a40
expect_fatal --policy sp3
expect_fatal --policy spx
"$TETRISIM" --requests 4 --policy sp4 --topology a40 >/dev/null || {
  echo "FAIL: tetrisim --policy sp4 --topology a40 should run"
  exit 1
}
echo "tetrisim sp<N> validation OK"
