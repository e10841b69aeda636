package policy

import (
	"testing"

	"odin/internal/mlp"
)

// TestPredictAndTrainAllocFree pins the controller's per-layer policy work
// at zero allocations once warm: Predict encodes features into the
// policy's own buffer and classifies in the network's workspace, and a
// repeat Train (the 50-example line-11 update) reuses the converted
// examples and every training buffer.
func TestPredictAndTrainAllocFree(t *testing.T) {
	p := newTestPolicy(1)
	g := p.Grid()
	examples := make([]Example, 50)
	for i := range examples {
		examples[i] = Example{F: validFeatures(i%20, float64(i)*100), Target: g.SizeAt(i%6, (i+1)%6)}
	}
	f := validFeatures(4, 1e4)
	if avg := testing.AllocsPerRun(100, func() { p.Predict(f) }); avg != 0 {
		t.Errorf("Predict allocates %v per call, want 0", avg)
	}
	opts := mlp.TrainOptions{Epochs: 3}
	if _, err := p.Train(examples, opts); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := p.Train(examples, opts); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm Train allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.Confidence(f) }); avg != 0 {
		t.Errorf("Confidence allocates %v per call, want 0", avg)
	}
}
