#!/bin/sh
# CI entry point: build, test, and lint the example models.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
dune runtest

echo "== report: library exports nothing else uses (never fails) =="
python3 scripts/unused_exports.py || true

echo "== lint: example models =="
# The alias runs `same lint` over examples/models: clean models must
# exit 0, seeded-bad ones must be caught (non-zero).
dune build @lint

echo "== lint: clean model gate =="
SAME=_build/default/bin/same.exe
"$SAME" lint examples/models/psu.bd -q examples/models/spfm.eol

echo "== lint: seeded defects are caught =="
for args in \
  "examples/models/bad_psu.bd" \
  "examples/models/psu.bd -s examples/models/bad_sm.csv" \
  "-q examples/models/bad_query.eol"; do
  if "$SAME" lint $args >/dev/null 2>&1; then
    echo "FAIL: 'same lint $args' should have reported errors" >&2
    exit 1
  fi
done

echo "== lint: SARIF report on the seeded-bad diagram =="
# Uploaded as a CI artifact; findings must survive the SARIF round trip.
"$SAME" lint examples/models/bad_psu.bd --format json > lint.sarif || true
python3 - <<'EOF'
import json, sys
with open("lint.sarif") as f:
    s = json.load(f)
if s.get("version") != "2.1.0":
    sys.exit("lint.sarif: not SARIF 2.1.0")
run = s["runs"][0]
if not run["results"]:
    sys.exit("lint.sarif: no findings on the seeded-bad diagram")
rules = run["tool"]["driver"]["rules"]
for r in rules:
    if "helpUri" not in r or "name" not in r:
        sys.exit(f"lint.sarif: rule {r.get('id')} missing helpUri/name")
print(f"lint.sarif OK: {len(run['results'])} findings, {len(rules)} rule descriptors")
EOF

echo "== diagnose: backward diagnosis agrees with forward injection =="
# Exit 0 asserts the forward/backward oracle itself.
"$SAME" diagnose examples/models/psu.bd --output CS1 -e DC1 > /dev/null

echo "== fta: BDD engine end to end on the example diagram =="
# Structural lowering -> BDD cut sets -> exact quantification, via the CLI.
"$SAME" fta --from examples/models/psu.bd --max-cardinality 2 --engine bdd \
  -o _build/fta_smoke.txt
grep -q "BDD-exact" _build/fta_smoke.txt

echo "== assess: Monte-Carlo CLI smoke (deterministic across SAME_JOBS) =="
# --check exits non-zero unless the estimate lands inside the 99% CI of
# the BDD-exact probability; run under both job settings and compare.
SAME_JOBS=1 "$SAME" assess examples/models/psu.bd --trials 1000000 \
  -o json --check > _build/assess_j1.json
SAME_JOBS=4 "$SAME" assess examples/models/psu.bd --trials 1000000 \
  -o json --check > _build/assess_j4.json
python3 - <<'EOF'
import json, sys
a = json.load(open("_build/assess_j1.json"))
b = json.load(open("_build/assess_j4.json"))
for k in ("top_probability", "ci_halfwidth", "trials", "exact"):
    if a[k] != b[k]:
        sys.exit(f"assess CLI: {k} differs across SAME_JOBS 1 vs 4 "
                 f"({a[k]!r} != {b[k]!r})")
print(f"assess CLI OK: P(top) {a['top_probability']:.3e} "
      f"+/- {a['ci_halfwidth']:.1e}, bit-identical across SAME_JOBS")
EOF

echo "== serve: warm-engine daemon smoke =="
SOCK=_build/ci-serve.sock
rm -f "$SOCK"
"$SAME" serve --socket "$SOCK" -j 4 &
SERVE_PID=$!
ok=0
for _ in $(seq 1 100); do
  if [ -S "$SOCK" ]; then ok=1; break; fi
  sleep 0.1
done
[ "$ok" -eq 1 ] || { echo "FAIL: daemon socket never appeared" >&2; exit 1; }
"$SAME" client ping --socket "$SOCK" > /dev/null

echo "== serve: a replayed answer equals the first =="
# That the daemon answers as the cold CLI does, for every analysis kind,
# is the test "server: reply = CLI, every kind" in test/test_serve.ml,
# run by `dune runtest` above.
"$SAME" fmea examples/models/psu.bd --connect "$SOCK" > _build/serve_warm1.txt
"$SAME" fmea examples/models/psu.bd --connect "$SOCK" > _build/serve_warm2.txt
cmp _build/serve_warm1.txt _build/serve_warm2.txt

echo "== serve: N identical concurrent requests, one computation =="
before=$("$SAME" client stats --socket "$SOCK" \
  | python3 -c "import json,sys; print(json.load(sys.stdin)['computed'])")
cc_pids=""
for i in 1 2 3 4; do
  "$SAME" assess examples/models/psu.bd --trials 2000000 --seed 9 \
    --connect "$SOCK" > "_build/serve_cc_$i.txt" &
  cc_pids="$cc_pids $!"
done
for pid in $cc_pids; do wait "$pid"; done
after=$("$SAME" client stats --socket "$SOCK" \
  | python3 -c "import json,sys; print(json.load(sys.stdin)['computed'])")
solves=$((after - before))
[ "$solves" -eq 1 ] || {
  echo "FAIL: $solves computations for 4 identical concurrent requests" >&2
  exit 1
}
cmp _build/serve_cc_1.txt _build/serve_cc_2.txt
cmp _build/serve_cc_1.txt _build/serve_cc_3.txt
cmp _build/serve_cc_1.txt _build/serve_cc_4.txt

echo "== serve: responses bit-identical across daemon job counts =="
SOCK1=_build/ci-serve-j1.sock
rm -f "$SOCK1"
"$SAME" serve --socket "$SOCK1" -j 1 &
SERVE1_PID=$!
ok=0
for _ in $(seq 1 100); do
  if [ -S "$SOCK1" ]; then ok=1; break; fi
  sleep 0.1
done
[ "$ok" -eq 1 ] || { echo "FAIL: -j 1 daemon socket never appeared" >&2; exit 1; }
"$SAME" assess examples/models/psu.bd --trials 2000000 --seed 9 \
  --connect "$SOCK1" > _build/serve_j1.txt
cmp _build/serve_cc_1.txt _build/serve_j1.txt
"$SAME" client shutdown --socket "$SOCK1" > /dev/null
wait "$SERVE1_PID" || {
  echo "FAIL: -j 1 daemon exited non-zero after shutdown request" >&2; exit 1
}

echo "== serve: clean shutdown on SIGTERM =="
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
  echo "FAIL: daemon exited non-zero on SIGTERM" >&2; exit 1
}
[ ! -S "$SOCK" ] || { echo "FAIL: daemon left its socket behind" >&2; exit 1; }

echo "== bench --smoke: every section's acceptance gates =="
# bench exits non-zero itself when one of its gates fails; each failure
# is a "gate failed:" line on stderr.
SAME_JOBS=4 dune exec bench/main.exe -- --smoke > /dev/null

echo "CI OK"
