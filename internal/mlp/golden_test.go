package mlp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"odin/internal/check"
	"odin/internal/rng"
)

// addBits folds float64 bit patterns into a digest, so a change in the
// last ulp of any value changes the digest.
func addBits(h hash.Hash64, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:])
	}
}

// goldenExamples builds a fixed synthetic dataset: 29 examples (so a batch
// size of 7 leaves a ragged last batch of 1), two 6-way heads, and a few
// exact-zero inputs so the kernels' zero-skip branches are exercised.
func goldenExamples() []Example {
	src := rng.New(2024)
	out := make([]Example, 29)
	for i := range out {
		in := make([]float64, 4)
		for d := range in {
			in[d] = src.Float64()*2 - 1
		}
		if i%5 == 0 {
			in[i%4] = 0
		}
		r := int((in[0] + 1) * 3)
		c := int((in[1]*in[2] + 1) * 3)
		if src.Float64() < 0.2 {
			r = src.Intn(6)
		}
		out[i] = Example{Input: in, Targets: []int{min(r, 5), min(c, 5)}}
	}
	return out
}

// TestGoldenTrainingBits pins the exact floating-point result of training:
// for every optimizer × batching × trunk shape × weight-decay combination
// it records an FNV-1a digest over the bits of every parameter after two
// consecutive Train calls (the second checks optimizer state restarts per
// call), the TrainStats of both calls, the pre-training Gradients, and the
// post-training Predict/Loss outputs. Kernel or workspace refactors must
// leave this file byte-identical; accept an intended numeric change with:
//
//	go test ./internal/mlp -run TestGoldenTrainingBits -update
func TestGoldenTrainingBits(t *testing.T) {
	t.Parallel()
	examples := goldenExamples()
	probe := []float64{0.3, -0.7, 0, 0.9}
	var out bytes.Buffer
	for _, optim := range []Optimizer{SGD, Adam} {
		for _, batch := range []int{0, 7} {
			for _, hidden := range [][]int{nil, {}, {16}, {8, 8}} {
				for _, l2 := range []float64{0, 1e-3} {
					n := New(Config{InputDim: 4, Hidden: hidden, Heads: []int{6, 6}, Seed: 11})
					h := fnv.New64a()
					addBits(h, n.Gradients(examples)...)
					opts := TrainOptions{Epochs: 15, BatchSize: batch, L2: l2, Optimizer: optim, Seed: 5}
					s1 := n.Train(examples, opts)
					opts.Seed = 6
					s2 := n.Train(examples[:20], opts)
					for _, p := range n.Parameters() {
						addBits(h, *p)
					}
					for _, p := range n.Predict(probe) {
						addBits(h, p...)
					}
					addBits(h, n.Loss(examples))
					fmt.Fprintf(&out, "opt=%d batch=%d hidden=%#v l2=%g digest=%016x first=%016x/%016x final=%016x/%016x class=%v\n",
						optim, batch, hidden, l2, h.Sum64(),
						math.Float64bits(s1.FirstLoss), math.Float64bits(s2.FirstLoss),
						math.Float64bits(s1.FinalLoss), math.Float64bits(s2.FinalLoss),
						n.Classify(probe))
				}
			}
		}
	}
	check.Golden(t, filepath.Join("testdata", "train_bits.golden"), out.Bytes())
}
