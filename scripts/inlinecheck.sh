#!/usr/bin/env sh
# Inlining check: the Jacobian stamp methods must stay inlinable.
# Every block stamps through Stamp.A..D, which call (*jacobian).set;
# past the compiler's inlining budget (80) each stamp becomes a call,
# which slows every linearisation refresh of the proposed engine and
# every JacNonlinear of the implicit baselines (and so also moves the
# proposed/implicit speed ratio). Fails unless the compiler reports
# "can inline" for each of them; prints their costs.
set -e
cd "$(dirname "$0")/.."
out=$(go build -gcflags=-m=2 ./internal/core 2>&1)
fail=0
for fn in 'Stamp\.A' 'Stamp\.B' 'Stamp\.C' 'Stamp\.D' '\(\*jacobian\)\.set'; do
  line=$(printf '%s\n' "$out" | grep -E "can inline $fn with cost [0-9]+" | head -n 1)
  if [ -z "$line" ]; then
    echo "inlinecheck: $(echo "$fn" | tr -d '\\') is not inlinable:" >&2
    printf '%s\n' "$out" | grep -E "inline $fn[ :]" >&2 || true
    fail=1
    continue
  fi
  printf '%s\n' "$line" | sed -E 's/.*can inline ([^ ]+) with cost ([0-9]+).*/\1: cost \2/'
done
exit $fail
