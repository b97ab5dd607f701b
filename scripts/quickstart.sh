#!/bin/sh
# End-to-end CLI walkthrough on a small world: generate a dataset, train
# both stages, evaluate ZSL and GZSL, inspect label retrieval, and sweep
# the distillation weight. Takes about 3 s on one core of a 2-vCPU Xeon VM.
set -e

out=${1:-runs/quickstart}
mkdir -p "$out"

cat > "$out/run.cfg" <<EOF
seed=0
n_labels=12
seen_fraction=0.75
n_train=120
n_test=60
epochs_stage1=8
epochs_stage2=4
batch_size=16
k_list=1,3
sweep_values=0.0 0.5 1.0
out_dir=$out
checkpoint=$out/stage2
EOF

ovml gen --config "$out/run.cfg"
ovml train --config "$out/run.cfg"
ovml eval --config "$out/run.cfg"
ovml retrieve --config "$out/run.cfg"
ovml sweep --config "$out/run.cfg"

echo
echo "artifacts in $out:"
ls "$out"
