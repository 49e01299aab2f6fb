#!/bin/sh
# Full CLI pipeline on the figure recipes' task (200 train and 100 val
# images at 64x64, 6 epochs): generate data, train a base model, a second
# member and a chain of two conditioned generations, then run every analysis
# command. Smaller tasks collapse to all-background, and their reports then
# cannot show a regression.
set -eu

OUT="${1:-results/end_to_end}"
mkdir -p "$OUT"

cat > "$OUT/task.cfg" <<'EOF'
data.count = 300
data.val_count = 100
data.height = 64
data.width = 64
data.seed = 7
train.epochs = 6
train.batch_size = 8
train.seed = 1
train.crop_h = 64
train.crop_w = 64
EOF

sed -e 's/train.seed = 1/train.seed = 2/' "$OUT/task.cfg" > "$OUT/member1.cfg"
{
  sed -e 's/train.seed = 1/train.seed = 3/' "$OUT/task.cfg"
  echo "arch.conditioning = adon"
  echo "arch.adon_placements = early,middle"
} > "$OUT/gen1.cfg"
sed -e 's/train.seed = 3/train.seed = 4/' "$OUT/gen1.cfg" > "$OUT/gen2.cfg"

seqens gen-data --spec "$OUT/task.cfg" --out "$OUT/data"
seqens train --config "$OUT/task.cfg"    --data "$OUT/data" --out "$OUT/g0"
seqens train --config "$OUT/member1.cfg" --data "$OUT/data" --out "$OUT/m1"
seqens train --config "$OUT/gen1.cfg"    --data "$OUT/data" --out "$OUT/g1" \
  --condition "$OUT/g0/generation.ckpt"
# repeated --condition flags are the ordered chain prefix: G2 is conditioned on G0 -> G1
seqens train --config "$OUT/gen2.cfg"    --data "$OUT/data" --out "$OUT/g2" \
  --condition "$OUT/g0/generation.ckpt" --condition "$OUT/g1/generation.ckpt"

seqens eval --ckpt "$OUT/g0/generation.ckpt" --ckpt "$OUT/m1/generation.ckpt" \
  --data "$OUT/data" --report "$OUT/eval_members.csv"
# a checkpoint is one self-describing file: a copy under a new name evaluates on its own,
# and its report is byte-identical to the original's (set -e stops the script if not)
cp "$OUT/g0/generation.ckpt" "$OUT/g0_copy.ckpt"
seqens eval --ckpt "$OUT/g0_copy.ckpt" --data "$OUT/data" --report "$OUT/eval_copy.csv"
seqens eval --ckpt "$OUT/g0/generation.ckpt" --data "$OUT/data" --report "$OUT/eval_g0.csv"
cmp "$OUT/eval_g0.csv" "$OUT/eval_copy.csv"
seqens eval --chain --ckpt "$OUT/g0/generation.ckpt" --ckpt "$OUT/g1/generation.ckpt" \
  --ckpt "$OUT/g2/generation.ckpt" --data "$OUT/data" --report "$OUT/eval_chain.csv"
seqens ensemble --mode sim --ckpt "$OUT/g0/generation.ckpt" \
  --ckpt "$OUT/m1/generation.ckpt" --data "$OUT/data" \
  --report "$OUT/sim_uniform.csv"
seqens eval --chain --ckpt "$OUT/g0/generation.ckpt" \
  --ckpt "$OUT/g1/generation.ckpt" --data "$OUT/data" \
  --report "$OUT/seq_chain.csv" --self-loops 1
seqens calibrate --ckpt "$OUT/g0/generation.ckpt" --data "$OUT/data" \
  --grid 0.5,1,2,4,8 --report "$OUT/calibration.csv"
seqens diversity --ckpt "$OUT/g0/generation.ckpt" --ckpt "$OUT/m1/generation.ckpt" \
  --data "$OUT/data" --report "$OUT/diversity.csv"
seqens fourcase --ckpt "$OUT/g0/generation.ckpt" --ckpt "$OUT/g1/generation.ckpt" \
  --data "$OUT/data" --report "$OUT/fourcase.csv"

echo "reports written to $OUT"
