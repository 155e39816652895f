#!/bin/sh
# Renders every command's --help=plain and fails if any writes to
# stderr: cmdliner reports a malformed doc string (a bad escape, say)
# there instead of failing. Usage: sh help_check.sh path/to/beast.exe
beast=$1
case $beast in */*) ;; *) beast=./$beast ;; esac
for c in '' archive 'archive ingest' 'archive list' 'archive show' \
  codegen count diff dot engines enumerate explain export funnel merge \
  occupancy report runs sample search sweep top trends tune; do
  # $c is left unquoted so 'archive ingest' splits into two words.
  if ! err=$("$beast" $c --help=plain 2>&1 >/dev/null); then
    echo "beast $c --help=plain failed: $err" >&2
    exit 1
  fi
  if [ -n "$err" ]; then
    echo "beast $c --help=plain wrote to stderr: $err" >&2
    exit 1
  fi
done
