#!/bin/sh
# Fails when a primitive owned by src/common/ is implemented again
# anywhere else under src/, bench/, tools/ or examples/: the FNV-1a
# offset bases, a json_escape_into, to_hex64 or to_timeval definition,
# a raw socket/bind/listen/accept/connect call, a put_u*/get_u* byte
# helper, or a free read_u64/expect_tag (the token reader's members are
# called as reader.read_u64()/reader.expect_tag()).
#
# usage: primitives_guard.sh <repo-root>
root=${1:?usage: primitives_guard.sh <repo-root>}
owner=$root/src/common
pattern='0xcbf29ce484222325|14695981039346656037|2166136261'
pattern="$pattern|void[[:space:]]+json_escape_into[[:space:]]*\\("
pattern="$pattern|string[[:space:]]+to_hex64[[:space:]]*\\("
pattern="$pattern|timeval[[:space:]]+to_timeval[[:space:]]*\\("
pattern="$pattern|(^|[^[:alnum:]_])::"
pattern="$pattern(socket|bind|listen|accept|connect)[[:space:]]*\\("
pattern="$pattern|(put|get)_u(8|16|32|64)[[:space:]]*\\("
pattern="$pattern|(^|[^.>[:alnum:]_])(read_u64|expect_tag)[[:space:]]*\\("

hits=$(grep -rniE "$pattern" "$root/src" "$root/bench" "$root/tools" \
         "$root/examples" --include='*.cpp' --include='*.hpp' |
       grep -v "^$owner/")
if [ -n "$hits" ]; then
  echo "primitives owned by src/common/ re-implemented outside it:"
  echo "$hits"
  exit 1
fi
count=$(grep -rliE "$pattern" "$owner" --include='*.cpp' \
          --include='*.hpp' | wc -l)
if [ "$count" -eq 0 ]; then
  echo "no primitive found under $owner: wrong repository root?"
  exit 1
fi
echo "ok: every guarded primitive lives under $owner/ ($count files)"
