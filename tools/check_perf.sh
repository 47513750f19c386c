#!/bin/sh
# Perf-regression smoke gate for the incremental F-M engine.
#
# Three checks, all cheap enough for every CI run:
#
#   1. The hot-loop microbenchmark runs, its artifact carries the gate
#      numbers (moves/sec and allocated words per applied move), and the
#      F-M engine allocates at most 32 words per applied move. That is a
#      deterministic work gate, not a timing one: the engine runs on
#      preallocated arrays, so what is left is per-run setup and a few
#      small records per move.
#   2. A partition run on a genuinely multi-device circuit exports the
#      incremental-rescoring telemetry: the fm.rescored_cells counter and
#      the fm.moves_per_sec histogram (schema v4).
#   3. Oracle identity: the same partition re-run under
#      FPGAPART_FM_ORACLE=1 — every incrementally maintained best op
#      cross-checked against a from-scratch recomputation after every
#      applied move — must produce byte-identical scrubbed telemetry,
#      partitions included. A stale cached gain either trips the oracle's
#      failwith or changes a decision and trips the cmp.
#
# FPGAPART_PERF_FULL=1 widens check 3 to every bundled circuit (minutes,
# not seconds — the oracle sweep restores the pre-filtering engine's
# cost); the default covers c6288 only. c1355 would be useless here: it
# fits one device, so a partition of it runs zero F-M passes and exports
# no fm.* keys at all.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "perf check: hot-loop microbenchmark (c6288, 1 run)..."
dune exec --no-print-directory bench/main.exe -- hotloop \
  --hotloop-circuit c6288 --hotloop-runs 1 > "$tmpdir/hotloop.out"
for key in '"moves_per_sec"' '"rescored_cells"' '"eager"'
do
  if ! grep -qF "$key" "$tmpdir/hotloop.out"; then
    echo "perf check: hotloop artifact lacks $key" >&2
    exit 1
  fi
done
python3 - "$tmpdir/hotloop.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
doc, _ = json.JSONDecoder().raw_decode(text[text.index("{"):])
words = doc["modes"]["eager"]["alloc_words_per_move"]
if words > 32:
    sys.exit(f"perf check: F-M allocates {words:.1f} words per applied "
             "move (ceiling 32)")
print(f"  {words:.1f} words allocated per applied move (ceiling 32)")
EOF

run() {
  circuit=$1; out=$2; shift 2
  dune exec --no-print-directory bin/fpgapart.exe -- \
    partition --circuit "$circuit" --seed 1 --stats-json "$out" "$@" \
    >/dev/null
}

echo "perf check: incremental-rescoring telemetry (c6288)..."
run c6288 "$tmpdir/plain.json"
for key in '"fm.rescored_cells"' '"fm.moves_per_sec"'
do
  if ! grep -qF "$key" "$tmpdir/plain.json"; then
    echo "perf check: stats JSON lacks $key" >&2
    exit 1
  fi
done

scrub() {
  python3 tools/scrub_stats.py "$1"
}

oracle_identity() {
  circuit=$1
  echo "perf check: oracle identity on $circuit..."
  run "$circuit" "$tmpdir/norm.json"
  FPGAPART_FM_ORACLE=1 run "$circuit" "$tmpdir/oracle.json"
  scrub "$tmpdir/norm.json" > "$tmpdir/norm.scrubbed"
  scrub "$tmpdir/oracle.json" > "$tmpdir/oracle.scrubbed"
  if ! cmp -s "$tmpdir/norm.scrubbed" "$tmpdir/oracle.scrubbed"; then
    echo "perf check: FPGAPART_FM_ORACLE=1 changed the $circuit result" >&2
    echo "            (incremental gains disagree with from-scratch rescoring)" >&2
    exit 1
  fi
}

if [ -n "${FPGAPART_PERF_FULL:-}" ]; then
  for c in c1355 c5315 c6288 c7552 s5378 s9234 s13207 s15850 s38584; do
    oracle_identity "$c"
  done
else
  oracle_identity c6288
fi

# 4. Flat-path byte identity: with multilevel disabled (the default),
#    every bundled circuit's objective-stable telemetry must still
#    byte-match the scalar-era goldens in test/golden/. Unlike the
#    check_objectives.sh loop this runs the pure defaults — no
#    --objective flag — so it also gates the default-options plumbing
#    (strategy = Flat) that the multilevel work threaded through the
#    driver.
echo "perf check: flat-path golden identity (9 circuits, defaults)..."
for c in c1355 c5315 c6288 c7552 s5378 s9234 s13207 s15850 s38584; do
  run "$c" "$tmpdir/flat.json"
  python3 tools/extract_stable.py "$tmpdir/flat.json" > "$tmpdir/flat.stable"
  if ! cmp -s "$tmpdir/flat.stable" "test/golden/$c.baseline.json"; then
    echo "perf check: flat default run of $c drifted from test/golden/$c.baseline.json" >&2
    diff "test/golden/$c.baseline.json" "$tmpdir/flat.stable" | head -20 >&2
    exit 1
  fi
done

# 5. Multilevel at scale: the V-cycle must take a seeded 100k-cell
#    Rent-profile circuit to a feasible partition inside the wall
#    budget. The partition phase on a typical desktop core lands in
#    single-digit seconds; the default budget leaves headroom for slow
#    CI hosts (override with FPGAPART_ML_BUDGET_SECS). Feasibility is
#    asserted through the result itself: a partition error exits
#    non-zero, and the stats document always carries the part list of a
#    Kway.check-clean result.
ml_budget=${FPGAPART_ML_BUDGET_SECS:-30}
scale_gate() {
  circuit=$1; budget=$2
  echo "perf check: multilevel $circuit under ${budget}s partition wall..."
  dune exec --no-print-directory bin/fpgapart.exe -- \
    partition --circuit "$circuit" --device-lib bench/scale_devices.json \
    --multilevel --stats-json "$tmpdir/ml.json" >/dev/null
  python3 - "$tmpdir/ml.json" "$budget" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
budget = float(sys.argv[2])
res = doc["result"]
wall = res["wall_secs"]
if not res["parts"]:
    sys.exit("multilevel result carries no parts")
if res["feasible_runs"] < 1:
    sys.exit("multilevel result reports no feasible run")
if wall > budget:
    sys.exit(f"multilevel partition took {wall:.1f}s (budget {budget:.0f}s)")
print(f"  {len(res['parts'])} devices, ${res['total_cost']:.0f}, {wall:.1f}s partition wall")
EOF
}
scale_gate gen100k "$ml_budget"

# FPGAPART_PERF_FULL widens the scale gate to the million-cell
# generator profile (several minutes of generation + mapping on top of
# the partition itself).
if [ -n "${FPGAPART_PERF_FULL:-}" ]; then
  scale_gate gen1m "${FPGAPART_ML_BUDGET_1M_SECS:-300}"
fi

echo "perf check: ok"
