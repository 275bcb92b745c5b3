#!/bin/sh
# Fails when a primitive owned by src/common/ is implemented again
# elsewhere under the given source tree: the FNV-1a offset bases, a
# json_escape_into, to_hex64 or to_timeval definition, or a raw
# socket/bind/listen/accept/connect call.
#
# usage: primitives_guard.sh <src-dir>
src=${1:?usage: primitives_guard.sh <src-dir>}
pattern='0xcbf29ce484222325|14695981039346656037|2166136261'
pattern="$pattern|void[[:space:]]+json_escape_into[[:space:]]*\\("
pattern="$pattern|string[[:space:]]+to_hex64[[:space:]]*\\("
pattern="$pattern|timeval[[:space:]]+to_timeval[[:space:]]*\\("
pattern="$pattern|(^|[^[:alnum:]_])::"
pattern="$pattern(socket|bind|listen|accept|connect)[[:space:]]*\\("

hits=$(grep -rniE "$pattern" "$src" --include='*.cpp' --include='*.hpp' |
       grep -v "^$src/common/")
if [ -n "$hits" ]; then
  echo "primitives owned by src/common/ re-implemented outside it:"
  echo "$hits"
  exit 1
fi
count=$(grep -rliE "$pattern" "$src/common" --include='*.cpp' \
          --include='*.hpp' | wc -l)
if [ "$count" -eq 0 ]; then
  echo "no primitive found under $src/common: wrong source directory?"
  exit 1
fi
echo "ok: every guarded primitive lives under $src/common/ ($count files)"
