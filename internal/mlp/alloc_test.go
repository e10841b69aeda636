package mlp

import (
	"testing"
)

// TestTrainAllocsIndependentOfWork pins Train's allocations to the one-off
// workspace build: a fresh network allocates the same whether it trains
// for 1 or 50 epochs on 10 or 29 examples, and a network that has trained
// once allocates nothing on later Train, Classify or Predict calls. The
// online policy update (Algorithm 1, line 11) runs this loop on the serving
// path, so any per-epoch or per-example garbage would show up here.
func TestTrainAllocsIndependentOfWork(t *testing.T) {
	examples := goldenExamples()
	for _, c := range []struct {
		name   string
		hidden []int
		opts   TrainOptions
	}{
		{"sgd", []int{16}, TrainOptions{}},
		{"sgd-batch7-deep", []int{8, 8}, TrainOptions{BatchSize: 7, L2: 1e-3}},
		{"sgd-notrunk", nil, TrainOptions{}},
		{"adam", []int{16}, TrainOptions{Optimizer: Adam}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{InputDim: 4, Hidden: c.hidden, Heads: []int{6, 6}, Seed: 3}
			fresh := func(epochs, count int) float64 {
				opts := c.opts
				opts.Epochs = epochs
				return testing.AllocsPerRun(3, func() { New(cfg).Train(examples[:count], opts) })
			}
			base := fresh(1, len(examples))
			if got := fresh(50, len(examples)); got != base {
				t.Errorf("fresh Train allocs: %v at 50 epochs vs %v at 1 epoch", got, base)
			}
			if got := fresh(1, 10); got != base {
				t.Errorf("fresh Train allocs: %v on 10 examples vs %v on %d", got, base, len(examples))
			}

			n := New(cfg)
			opts := c.opts
			opts.Epochs = 5
			n.Train(examples, opts)
			for name, fn := range map[string]func(){
				"Train":    func() { n.Train(examples, opts) },
				"Classify": func() { n.Classify(examples[0].Input) },
				"Predict":  func() { n.Predict(examples[0].Input) },
			} {
				if avg := testing.AllocsPerRun(20, fn); avg != 0 {
					t.Errorf("warm %s allocates %v per call, want 0", name, avg)
				}
			}
		})
	}
}

// TestClassifyAllocFree pins prediction at zero allocations once the
// forward workspace exists, on a network that has never trained.
func TestClassifyAllocFree(t *testing.T) {
	n := New(Config{InputDim: 4, Hidden: []int{16}, Heads: []int{6, 6}, Seed: 1})
	in := []float64{0.1, 0.5, 0.2, 0.9}
	if avg := testing.AllocsPerRun(100, func() { n.Classify(in) }); avg != 0 {
		t.Fatalf("Classify allocates %v per call, want 0", avg)
	}
}
