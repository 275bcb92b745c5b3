#!/bin/sh
# The CLI's integer flags (--threads, --stats-every, chaos --seed) take
# digit strings only: a sign, a space or trailing junk is a usage error
# (exit 2) naming the bad value, never silently read as the number.
#
# usage: cli_strict_ints.sh <appclass_cli>
cli=${1:?usage: cli_strict_ints.sh <appclass_cli>}
status=0

# expect <stderr> <args...>: the CLI must exit 2 printing exactly <stderr>.
expect() {
  want=$1
  shift
  got=$("$cli" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 2 ] || [ "$got" != "$want" ]; then
    echo "FAIL: appclass_cli $*"
    echo "  exit $code, stderr '$got'"
    echo "  want exit 2, stderr '$want'"
    status=1
  fi
}

for v in "+4" " 4" "4 " "4x" "-1" ""; do
  expect "bad --threads '$v' (expected 0, 1, 2, ...)" "--threads=$v" apps
  expect "bad --stats-every '$v' (expected seconds >= 1)" \
    "--stats-every=$v" apps
  # --rates=2 is itself invalid, so a wrongly accepted seed still exits
  # fast, with the rate error instead of the seed error.
  expect "chaos: bad seed '$v'" chaos unused.csv "--seed=$v" --rates=2
done

if ! "$cli" --threads=2 apps >/dev/null; then
  echo "FAIL: appclass_cli --threads=2 apps"
  status=1
fi
[ "$status" -eq 0 ] && echo "ok: integer flags are digits-only"
exit "$status"
