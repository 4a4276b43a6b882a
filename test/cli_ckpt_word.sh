#!/bin/sh
# A checkpoint word that uses bit 63 does not fit a native int, and
# resuming from it fails.  `repro check` must refuse it too: one
# ckpt.word error located at the word's byte, exit status 1 -- not
# "ok".  The word patched is counter 0 of the first level (byte 104)
# of a real `repro replay --checkpoint` file.
# Usage: cli_ckpt_word.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
if ! "$repro" record nbody --scale 1 -o "$dir/t.trace" > "$dir/out" 2>&1 \
   || ! "$repro" replay "$dir/t.trace" --cache 32k \
          --checkpoint "$dir/p.ckpt" --checkpoint-every 1000000 \
          >> "$dir/out" 2>&1 \
   || ! "$repro" check "$dir/t.trace" "$dir/p.ckpt" >> "$dir/out" 2>&1; then
  echo "record, replay --checkpoint or check of the sound files failed" >&2
  status=1
else
  # 0x8000000000000005, little-endian
  printf '\005\000\000\000\000\000\000\200' \
    | dd of="$dir/p.ckpt" bs=1 seek=104 conv=notrunc 2> /dev/null
  "$repro" check "$dir/t.trace" "$dir/p.ckpt" > "$dir/check" 2>&1
  rc=$?
  cat "$dir/check" >> "$dir/out"
  if [ "$rc" -ne 1 ]; then
    echo "repro check on a bit-63 counter: want exit 1, got $rc" >&2
    status=1
  fi
  if [ "$(grep -c 'error: \[ckpt.word\] byte 104:' "$dir/check")" -ne 1 ]; then
    echo "repro check on a bit-63 counter: want one ckpt.word error at byte 104" >&2
    status=1
  fi
fi
[ "$status" -eq 0 ] || cat "$dir/out" >&2
exit $status
