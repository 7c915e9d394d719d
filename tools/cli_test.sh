#!/usr/bin/env bash
# CLI contract test for cmif_tool (ctest: cli_test). Asserts the exit-code
# discipline — 0 success, 1 runtime/validation failure, 2 usage or bad
# flags, usage text on stderr only — and drives one serve --listen /
# request round trip over a loopback socket.
set -u

TOOL="${1:?usage: cli_test.sh /path/to/cmif_tool}"
case "$TOOL" in /*) ;; *) TOOL="$PWD/$TOOL" ;; esac
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

failures=0
check() { # check <description> <expected-exit> <actual-exit>
  if [ "$2" -ne "$3" ]; then
    echo "FAIL: $1 (expected exit $2, got $3)" >&2
    failures=$((failures + 1))
  else
    echo "ok: $1"
  fi
}

# --- usage and flag errors exit 2, with text on stderr only ---------------
"$TOOL" >out.txt 2>err.txt
check "no arguments exits 2" 2 $?
[ -s out.txt ] && { echo "FAIL: usage leaked to stdout" >&2; failures=$((failures+1)); }
grep -q "usage:" err.txt || { echo "FAIL: usage text missing from stderr" >&2; failures=$((failures+1)); }

"$TOOL" frobnicate >/dev/null 2>&1
check "unknown subcommand exits 2" 2 $?

"$TOOL" check >/dev/null 2>&1
check "check without a document exits 2" 2 $?

"$TOOL" serve --docs banana >/dev/null 2>&1
check "non-numeric --docs exits 2" 2 $?

"$TOOL" serve --bogus-flag >/dev/null 2>&1
check "unknown serve flag exits 2" 2 $?

"$TOOL" sample-news -3 >/dev/null 2>&1
check "negative story count exits 2" 2 $?

for flags in "--count -5" "--count 0" "--leaves 0" "--edits -1" "--bandwidth -1" \
             "--chunk 0" "--chunk 255" "--chunk 4194305"; do
  "$TOOL" check $flags --no-shrink >/dev/null 2>&1
  check "check $flags exits 2" 2 $?
done

"$TOOL" request --doc news-0-s1 >/dev/null 2>&1
check "request without --port exits 2" 2 $?

"$TOOL" request --port 1 >/dev/null 2>&1
check "request without --doc exits 2" 2 $?

# --- runtime failures exit 1 ----------------------------------------------
"$TOOL" check /no/such/file.cmif >/dev/null 2>&1
check "missing document exits 1" 1 $?

# --- success paths exit 0 -------------------------------------------------
"$TOOL" sample-news >/dev/null 2>&1
check "sample-news exits 0" 0 $?
[ -f news.cmif ] || { echo "FAIL: news.cmif not written" >&2; failures=$((failures+1)); }

"$TOOL" check news.cmif news.catalog >/dev/null 2>&1
check "check on a valid document exits 0" 0 $?

"$TOOL" check --count 5 --seed 7 --no-shrink >conf.out 2>&1
check "conformance run exits 0" 0 $?
grep -q "zero divergences" conf.out || {
  echo "FAIL: conformance run did not report zero divergences" >&2
  failures=$((failures + 1))
}

"$TOOL" check --seeds 3,99 --no-shrink >/dev/null 2>&1
check "conformance seed list exits 0" 0 $?

"$TOOL" check --stream --count 5 --seed 7 --no-shrink >stream_conf.out 2>&1
check "streamed-vs-blob conformance run exits 0" 0 $?
grep -q "zero divergences" stream_conf.out || {
  echo "FAIL: stream conformance run did not report zero divergences" >&2
  failures=$((failures + 1))
}

"$TOOL" check --stream --count 3 --seed 7 --bandwidth 2000 --chunk 300 --no-shrink >/dev/null 2>&1
check "stream conformance on a starved link exits 0" 0 $?

"$TOOL" check --stream --edits 3 --count 3 --no-shrink >/dev/null 2>&1
check "conformance with the edit and stream lenses together exits 0" 0 $?

"$TOOL" serve --docs 2 --requests 16 --threads 1 >/dev/null 2>&1
check "in-process serve replay exits 0" 0 $?

# --- serve --listen / request round trip ----------------------------------
mkfifo ctl
"$TOOL" serve --listen 0 --docs 2 <ctl >serve.out 2>serve.err &
server_pid=$!
exec 9>ctl  # hold the control stream open
port=""
for _ in $(seq 100); do
  port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' serve.out)"
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "FAIL: server never reported its port" >&2
  cat serve.err >&2
  failures=$((failures + 1))
else
  "$TOOL" request --port "$port" --doc news-0-s1 --profile personal >request.out 2>&1
  check "request against the live server exits 0" 0 $?
  grep -q "outcome: healthy" request.out || {
    echo "FAIL: request did not report a healthy outcome" >&2
    failures=$((failures + 1))
  }
  grep -q "presentation-hash:" request.out || {
    echo "FAIL: request did not print the presentation hash" >&2
    failures=$((failures + 1))
  }

  "$TOOL" request --port "$port" --doc news-0-s1 --profile personal --stream >stream.out 2>&1
  check "streamed request against the live server exits 0" 0 $?
  grep -q "outcome: healthy" stream.out || {
    echo "FAIL: streamed request did not report a healthy outcome" >&2
    failures=$((failures + 1))
  }
  grep -Eq "stream: [0-9]+ chunks" stream.out || {
    echo "FAIL: streamed request did not report chunked delivery" >&2
    failures=$((failures + 1))
  }
  # Streamed and plain delivery must agree on the document they describe.
  stream_hash="$(sed -n 's/^presentation-hash: //p' stream.out)"
  plain_hash="$(sed -n 's/^presentation-hash: //p' request.out)"
  if [ -z "$stream_hash" ] || [ "$stream_hash" != "$plain_hash" ]; then
    echo "FAIL: streamed presentation hash differs from plain delivery" >&2
    failures=$((failures + 1))
  fi

  # There is one wire version: the old interop flag is an unknown flag.
  "$TOOL" request --port "$port" --doc news-0-s1 --stream --wire-version 3 >removed_flag.out 2>&1
  check "request --wire-version is rejected as an unknown flag" 2 $?
  grep -q "unknown or malformed argument '--wire-version'" removed_flag.out || {
    echo "FAIL: --wire-version was not reported as an unknown flag" >&2
    failures=$((failures + 1))
  }

  "$TOOL" request --port "$port" --doc no-such-doc >/dev/null 2>&1
  check "request for an unknown document exits 1" 1 $?
fi
exec 9>&-  # EOF on stdin stops the server
wait "$server_pid"
check "server exits 0 after stdin closes" 0 $?

# A request with nobody listening is a runtime failure, not a hang.
"$TOOL" request --port "${port:-1}" --doc news-0-s1 --retries 1 >/dev/null 2>&1
check "request against a dead server exits 1" 1 $?

# --- persistent cache: serve --cache-dir and the cache subcommand ----------
"$TOOL" cache >/dev/null 2>&1
check "cache without arguments exits 2" 2 $?

"$TOOL" cache frob pcache >/dev/null 2>&1
check "unknown cache verb exits 2" 2 $?

"$TOOL" serve --docs 2 --requests 16 --threads 1 --cache-dir pcache >serve_disk.out 2>&1
check "serve --cache-dir exits 0" 0 $?
grep -q "disk cache at" serve_disk.out || {
  echo "FAIL: serve --cache-dir did not report the disk tier" >&2
  failures=$((failures + 1))
}

"$TOOL" cache ls pcache >cache_ls.out 2>&1
check "cache ls exits 0" 0 $?
grep -q "entries," cache_ls.out || {
  echo "FAIL: cache ls did not print an entry summary" >&2
  failures=$((failures + 1))
}
grep -qv "^0 entries" cache_ls.out || {
  echo "FAIL: serve --cache-dir left no entries behind" >&2
  failures=$((failures + 1))
}

"$TOOL" cache verify pcache >/dev/null 2>&1
check "cache verify on a healthy directory exits 0" 0 $?

# Damage one entry: verify must exit 1 and name it, without moving files.
victim="$(ls pcache/entries | head -1)"
printf x >>"pcache/entries/$victim"
"$TOOL" cache verify pcache >verify.out 2>&1
check "cache verify with a corrupt entry exits 1" 1 $?
grep -q "corrupt: $victim" verify.out || {
  echo "FAIL: cache verify did not name the corrupt entry" >&2
  failures=$((failures + 1))
}
[ -f "pcache/entries/$victim" ] || {
  echo "FAIL: cache verify moved a file (must be read-only)" >&2
  failures=$((failures + 1))
}

"$TOOL" cache purge pcache >/dev/null 2>&1
check "cache purge exits 0" 0 $?
[ -z "$(ls pcache/entries 2>/dev/null)" ] || {
  echo "FAIL: cache purge left entries behind" >&2
  failures=$((failures + 1))
}

"$TOOL" serve --docs 1 --requests 4 --threads 1 --cache-dir /proc/not/writable >/dev/null 2>&1
check "serve with an unusable --cache-dir exits 1" 1 $?

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed" >&2
  exit 1
fi
echo "all CLI checks passed"
