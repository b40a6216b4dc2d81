#!/usr/bin/env bash
# The desk command-line loop: writes every file of one run into the directory
# given as the first argument. It runs `ikge` as found on PATH, which imports
# the ikge package first on PYTHONPATH; CI runs it under two hash seeds, and
# once with the source tree of the base commit (see compare-base-outputs.sh).
set -euo pipefail
out="$1"
mkdir -p "$out"
ikge gen-ikg --out "$out/ikg.ttl" --report "$out/gen.json"
ikge split --ikg "$out/ikg.ttl" --out-dir "$out/splits"
# A re-wrapped copy of the IKG: CRLF line ends, a comment line, a tab after
# the head of seven statements in eight and every 25th statement broken
# across two lines. The parser's line rule reads almost none of it, so the
# token reader reads the desk IKG there, and its split must be the same.
awk 'NR == 9 { printf "# a re-wrapped copy of ikg.ttl\r\n" }
  NR > 8 && NR % 8 { sub(/ /, "\t") }
  NR > 8 && NR % 25 == 0 { sub(/ /, "\n") }
  { printf "%s\r\n", $0 }' "$out/ikg.ttl" > "$out/ikg-rewrapped.ttl"
ikge split --ikg "$out/ikg-rewrapped.ttl" --out-dir "$out/splits-rewrapped"
for f in train valid test; do cmp "$out/splits/$f.ttl" "$out/splits-rewrapped/$f.ttl"; done
# N-Triples form of a document, written without ikge: the @prefix header and
# blank line go, and every prefixed name and prefixed datatype is expanded to
# an <IRI> through the header's map. The split of the IKG's N-Triples copy
# must be that form of the desk split, so full-IRI terms go through the line
# rule, the token reader, the split and serialize at desk scale.
to_ntriples() {
  awk '/^@prefix / { p = $2; sub(/:$/, "", p); ns[p] = substr($3, 2, length($3) - 2); next }
    $0 == "" { next }
    { for (i = 1; i <= 3; i++)
        if ($i ~ /^[A-Za-z][A-Za-z0-9_-]*:/) $i = full($i)
        else if (match($i, /\^\^[A-Za-z][A-Za-z0-9_-]*:/))
          $i = substr($i, 1, RSTART + 1) full(substr($i, RSTART + 2))
      print }
    function full(name, colon) {
      colon = index(name, ":")
      return "<" ns[substr(name, 1, colon - 1)] substr(name, colon + 1) ">"
    }' "$1"
}
to_ntriples "$out/ikg.ttl" > "$out/ikg.nt"
ikge split --ikg "$out/ikg.nt" --out-dir "$out/splits-nt"
for f in train valid test; do cmp <(to_ntriples "$out/splits/$f.ttl") "$out/splits-nt/$f.ttl"; done
# A non-default split, chosen by the training config's seed and split.
echo '{"seed": 5, "split": [0.7, 0.2, 0.1]}' > "$out/cfg.json"
ikge split --ikg "$out/ikg.ttl" --config "$out/cfg.json" --out-dir "$out/splits5"
ikge train --ikg "$out/ikg.ttl" --out "$out/model.json" --report "$out/train.json"
ikge evaluate --ikg "$out/ikg.ttl" --model "$out/model.json" --out "$out/eval.json"
# A model fitted at that config; evaluate re-derives its split
# from the config stored in the model file.
ikge train --ikg "$out/ikg.ttl" --config "$out/cfg.json" --out "$out/model5.json" \
  --report "$out/train5.json"
ikge evaluate --ikg "$out/ikg.ttl" --model "$out/model5.json" --out "$out/eval5.json"
# Small batches of several negatives each: ids repeat within a
# batch, so training sums many gradient rows per parameter row.
echo '{"negatives_per_positive": 2, "batch_size": 7, "epochs": 3}' > "$out/cfg-b7.json"
ikge train --ikg "$out/ikg.ttl" --config "$out/cfg-b7.json" --out "$out/model-b7.json" \
  --report "$out/train-b7.json"
# Ranks of a weakly trained model, whose scores are less separated.
ikge evaluate --ikg "$out/ikg.ttl" --model "$out/model-b7.json" --out "$out/eval-b7.json"
ikge translate --model "$out/model.json" --ikg "$out/ikg.ttl" --text "reliable video" \
  --out "$out/intent.ttl" --report "$out/intent.json"
ikge verify --model "$out/model.json" --intent "$out/intent.ttl" --out "$out/verify.json"
# The shipped blueprint plus one complete triple that the model can score
# and that classifies false: translate exits 7, writes its report and no intent.
printf '%s\n' \
  '@prefix icm: <http://intent.example/icm#> .' \
  '@prefix kpi: <http://intent.example/kpi#> .' \
  'icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .' \
  'icm:ServiceExpectation icm:hasParameter kpi:latency .' \
  'icm:PropertyExpectation icm:hasTarget ??? .' \
  'icm:Target icm:targetResource ??? .' \
  'kpi:latency icm:valueBy ??? .' \
  'kpi:latency icm:hasParameter icm:Intent .' > "$out/blueprint-bad.ttl"
ikge translate --model "$out/model.json" --ikg "$out/ikg.ttl" --text "reliable video" \
  --blueprint "$out/blueprint-bad.ttl" --out "$out/intent-bad.ttl" \
  --report "$out/intent-bad.json" || test $? -eq 7
# The shipped blueprint with icm: bound to another IRI. Its icm: terms would
# still match the IKG's by text, so translate refuses it as config (exit 9)
# and writes neither file.
printf '%s\n' \
  '@prefix icm: <http://other.example/icm#> .' \
  '@prefix kpi: <http://intent.example/kpi#> .' \
  '@prefix service: <http://intent.example/service#> .' \
  'icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .' \
  'icm:ServiceExpectation icm:hasParameter kpi:latency .' \
  'icm:PropertyExpectation icm:hasTarget ??? .' \
  'icm:Target icm:targetResource ??? .' \
  'kpi:latency icm:valueBy ??? .' > "$out/blueprint-prefix.ttl"
ikge translate --model "$out/model.json" --ikg "$out/ikg.ttl" --text "reliable video" \
  --blueprint "$out/blueprint-prefix.ttl" --out "$out/intent-prefix.ttl" \
  --report "$out/intent-prefix.json" || test $? -eq 9
# A format-1 copy of model.json (arrays as nested lists of floats):
# evaluate and verify on it write the same bytes as on format 2.
python -c 'import json, sys; from ikge.model import PARAMETER_NAMES, load_model, model_to_document; m = load_model(sys.argv[1]); d = model_to_document(m); d.update({n: getattr(m, n).tolist() for n in PARAMETER_NAMES}, format_version=1); f = open(sys.argv[2], "w", encoding="utf-8"); json.dump(d, f, indent=1); f.close()' \
  "$out/model.json" "$out/model-v1.json"
ikge evaluate --ikg "$out/ikg.ttl" --model "$out/model-v1.json" --out "$out/eval-v1.json"
ikge verify --model "$out/model-v1.json" --intent "$out/intent.ttl" --out "$out/verify-v1.json"
cmp "$out/eval.json" "$out/eval-v1.json"
cmp "$out/verify.json" "$out/verify-v1.json"
# A false intent: one skipped row, then rows that classify false
# and true. Its verify exits 7 and must still write the report.
printf '%s\n' \
  '@prefix icm: <http://intent.example/icm#> .' \
  '@prefix kpi: <http://intent.example/kpi#> .' \
  '@prefix nonmcptt: <http://intent.example/nonmcptt#> .' \
  '@prefix service: <http://intent.example/service#> .' \
  'icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .' \
  'icm:Intent icm:hasTarget kpi:latency .' \
  'nonmcptt:ConvVideo icm:targetResource service:NonGBRService .' \
  'kpi:latency icm:hasParameter icm:Intent .' > "$out/bad.ttl"
ikge verify --model "$out/model.json" --intent "$out/bad.ttl" \
  --out "$out/verify-bad.json" || test $? -eq 7
ikge predict --model "$out/model.json" --ikg "$out/ikg.ttl" \
  --triple "icm:PropertyExpectation icm:hasTarget ???" -k 10 --out "$out/predict.json"
ikge predict --model "$out/model.json" --ikg "$out/ikg.ttl" \
  --triple "kpi:latency icm:valueBy ???" -k 10 --out "$out/predict-value.json"
ikge predict --model "$out/model.json" --ikg "$out/ikg.ttl" \
  --triple '??? icm:valueBy "150ms"^^xsd:string' -k 10 --out "$out/predict-value-head.json"
# A resource slot's pool at -k 3, and a head slot of a resource.
ikge predict --model "$out/model.json" --ikg "$out/ikg.ttl" \
  --triple "icm:Target icm:targetResource ???" -k 3 --out "$out/predict-k3.json"
ikge predict --model "$out/model.json" --ikg "$out/ikg.ttl" \
  --triple "??? icm:targetResource service:NonMcpttGBRService" -k 10 --out "$out/predict-head.json"
